"""First-order fields, friction, and the sideband finite-difference oracle."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from scipy.constants import c as C_LIGHT, hbar as HBAR

import tmmcavity.opalg as opalg
from tmmcavity.dynamics import force_with_velocity, solve_dynamic
from tmmcavity.elements import Chain, PumpSpec, Scatterer, Segment
from tmmcavity.mim import evaluate_chain
from tmmcavity.statics import StaticFields, solve_static, static_force

from helpers import (
    fd_first_order_fields,
    fd_friction,
    flux_force_first_order,
    mp_diffusion,
    mp_static_fields,
    random_chains,
    reversed_chain,
    side_growth,
    wall_clock_limit,
)

LAM = 1.064e-6
K0 = 2 * np.pi / LAM
PUMP = PumpSpec.one_sided(1.0, LAM)
RIGHT = PumpSpec.one_sided(1.0, LAM, side="right")


def cavity_chain(zeta, zm, lc, x, dlc):
    return Chain(
        elements=(
            Scatterer.of(zm),
            Segment(lc / 2 + dlc / 2 - x),
            Scatterer.of(zeta),
            Segment(lc / 2 + dlc / 2 + x),
            Scatterer.of(zm),
        ),
        mobile_index=2,
        k0=K0,
    )


class TestFieldSet:
    def test_transparent_all_first_order_vanishes(self):
        chain = Chain(elements=(Scatterer.of(0.0),), mobile_index=0, k0=K0)
        f = solve_dynamic(chain, PUMP)
        for part in (f.A1, f.B1, f.C1, f.D1, f.out_left1, f.out_right1):
            assert part == 0

    def test_free_scatterer_pure_doppler(self):
        """No propagation phases: first order reduces to Doppler factors.

        Left pump: reflected amplitude picks up (1 - 2 v/c), transmitted
        and incident stay unchanged.
        """
        z = -1.7
        chain = Chain(elements=(Scatterer.of(z),), mobile_index=0, k0=K0)
        f = solve_dynamic(chain, PUMP)
        r = chain.mobile.pol.reflectivity
        assert f.A0 == pytest.approx(r * PUMP.B0, rel=1e-12, abs=0)
        assert f.A1 == pytest.approx(-2 * r * PUMP.B0, rel=1e-12, abs=0)
        assert f.B1 == 0
        # C1 and D1 cancel analytically; leave room for roundoff at the
        # ~1e9 amplitude scale
        assert f.C1 == pytest.approx(0.0, abs=1e-7 * abs(PUMP.B0))
        assert f.D1 == pytest.approx(0.0, abs=1e-7 * abs(PUMP.B0))

    def test_right_pump_doppler_signs(self):
        """Right pump: the approaching face upshifts, D1 = +2 r C0."""
        z = -2.3
        pump = PumpSpec.one_sided(1.0, LAM, side="right")
        chain = Chain(elements=(Scatterer.of(z),), mobile_index=0, k0=K0)
        f = solve_dynamic(chain, pump)
        r = chain.mobile.pol.reflectivity
        t = chain.mobile.pol.transmissivity
        assert f.D0f == pytest.approx(r * pump.C0, rel=1e-12, abs=0)
        assert f.D1 == pytest.approx(2 * r * pump.C0, rel=1e-12, abs=0)
        assert f.A0 == pytest.approx(t * pump.C0, rel=1e-12, abs=0)
        assert f.A1 == pytest.approx(0.0, abs=1e-7 * abs(pump.C0))
        assert f.B1 == 0

    @pytest.mark.parametrize("side", ["left", "right"])
    def test_zero_power_gives_zero_fields(self, side):
        chain = cavity_chain(-1.0 + 0.05j, -3.0, 1e-2, 0.17 * LAM, 0.05 * LAM)
        pump = PumpSpec.one_sided(0.0, LAM, side=side)
        f = solve_dynamic(chain, pump)
        for name in ("A0", "A1", "B0f", "B1", "C0f", "C1", "D0f", "D1",
                     "out_left0", "out_left1", "out_right0", "out_right1"):
            assert getattr(f, name) == 0, name
        q = evaluate_chain(chain, pump)
        assert q["intensity"] == q["F0"] == q["dFdv"] == q["D"] == 0
        assert q["kBT"] is None

    def test_zeroth_order_equals_static_solve_exactly(self):
        chain = cavity_chain(-1.0, -3.0, 1e-2, 0.17 * LAM, 0.05 * LAM)
        dyn = solve_dynamic(chain, PUMP)
        st = solve_static(chain, PUMP)
        # identical code path for the zeroth order: bit-for-bit equality
        assert dyn.A0 == st.A0
        assert dyn.B0f == st.B0f
        assert dyn.C0f == st.C0f
        assert dyn.D0f == st.D0f

    def test_composed_jet_equals_static_solve_matrix(self, monkeypatch):
        # the first-order solve reads, bit for bit, the composed static
        # matrix that the static solution and its singularity check use
        seen = {}
        first_order, solve = opalg._first_order, opalg._solve_left_pump

        def spy_first_order(comp, *args):
            seen["first"] = comp[0]  # entries of a
            return first_order(comp, *args)

        def spy_solve(left, z, right, k0, B0, *args):
            sol = solve(left, z, right, k0, B0, *args)
            seen["static"], seen["B0"] = sol, B0
            return sol

        monkeypatch.setattr(opalg, "_first_order", spy_first_order)
        monkeypatch.setattr(opalg, "_solve_left_pump", spy_solve)
        rng = np.random.default_rng(11)
        for _ in range(40):
            n = 2 * int(rng.integers(2, 21)) + 1  # 5..41 elements
            elements = tuple(
                Scatterer.of(complex(rng.uniform(-6, -0.2), rng.uniform(0, 0.4)))
                if i % 2 == 0 else Segment(rng.uniform(1e-4, 5e-3))
                for i in range(n)
            )
            mobile = 2 * int(rng.integers(0, n // 2 + 1))
            solve_dynamic(Chain(elements, mobile, K0), PUMP)
            sol = seen["static"]
            a, b = sol.m[1::2]
            assert np.array_equal(seen["first"][1::2], (a, b))
            # the static outputs and the singularity mask come from that b
            out_left, out_right = sol.fields[4:]
            assert np.array_equal(out_right, seen["B0"] / b)
            assert np.array_equal(out_left, a * out_right)
            assert not sol.singular.any() and np.isfinite(b).all() and (b != 0).all()

    def test_fields_match_sideband_oracle_in_cavity(self):
        """Closed-form A1 equals the static solve differenced between the
        Doppler sideband wavenumbers k0 (1 +/- 2 v/c)."""
        chain = cavity_chain(-1.0, -3.0, 1e-2, 0.21 * LAM, -0.13 * LAM)
        dyn = solve_dynamic(chain, PUMP)
        fd = fd_first_order_fields(chain, PUMP, v_over_c=1e-9)
        assert dyn.A1 == pytest.approx(fd["A1"], rel=1e-4, abs=0)
        assert dyn.B1 == pytest.approx(fd["B1"], rel=1e-4, abs=0)
        assert dyn.C1 == pytest.approx(fd["C1"], rel=1e-4, abs=0)
        assert dyn.D1 == pytest.approx(fd["D1"], rel=1e-4, abs=0)

    def test_both_pumps_and_absorber_against_oracle(self):
        power = 0.7
        amp = np.sqrt(power / 2 / (HBAR * 2 * np.pi * C_LIGHT / LAM))
        pump = PumpSpec(B0=amp, C0=amp * np.exp(0.3j), power_watts=power,
                        wavelength=LAM)
        chain = Chain(
            elements=(
                Scatterer.of(-2.0 + 0.15j),
                Segment(3.3e-3),
                Scatterer.of(-1.2),
                Segment(2.1e-3),
                Scatterer.of(-4.0 + 0.05j),
            ),
            mobile_index=2,
            k0=K0,
        )
        dyn = solve_dynamic(chain, pump)
        fd = fd_first_order_fields(chain, pump, v_over_c=1e-9)
        for name, got in (("A1", dyn.A1), ("B1", dyn.B1),
                          ("C1", dyn.C1), ("D1", dyn.D1)):
            assert got == pytest.approx(fd[name], rel=1e-5, abs=0), name

    def test_response_function_hand_solution(self):
        """Scatterer + gap + mirror, solved by the response-function route.

        C(k) = R(k) D(k) with R(k) = r_m e^{2ikd} closes the problem
        without any matrix factorization; agreement is machine precision.
        """
        z, zm, d = -1.5, -4.0, 3.1234e-3
        r = 1j * z / (1 - 1j * z)
        t = 1 / (1 - 1j * z)
        rm = 1j * zm / (1 - 1j * zm)
        k0 = K0
        B0 = complex(PUMP.B0)
        big_r = rm * np.exp(2j * k0 * d)
        d_big_r = 2j * d * rm * np.exp(2j * k0 * d)
        den = 1 - r * big_r
        d0 = t * B0 / den
        q = -2 * r * d0 * k0 * big_r / den
        p = (2 * r * d0 * big_r - r * d_big_r * q) / den
        expect = {
            "D0f": d0, "D1": p,
            "C0f": big_r * d0, "C1": big_r * p - d_big_r * q,
            "A0": r * B0 + t * big_r * d0,
            "A1": t * (big_r * p - d_big_r * q) - 2 * r * B0,
            "B0f": B0, "B1": 0.0,
        }
        chain = Chain(
            elements=(Scatterer.of(z), Segment(d), Scatterer.of(zm)),
            mobile_index=0,
            k0=K0,
        )
        got = solve_dynamic(chain, PUMP)
        for name, val in expect.items():
            assert getattr(got, name) == pytest.approx(val, rel=1e-12, abs=0), name


class TestForceWithVelocity:
    def test_v0_slice_reproduces_static_force(self):
        chain = cavity_chain(-1.0, -3.0, 1e-2, 0.11 * LAM, 0.03 * LAM)
        dyn = solve_dynamic(chain, PUMP)
        rep = force_with_velocity(dyn, chain.mobile.pol, K0)
        assert rep.F0 == static_force(solve_static(chain, PUMP),
                                      chain.mobile.pol, K0)

    @pytest.mark.parametrize("zeta", [-0.4, -1.0, -6.0])
    def test_free_scatterer_friction(self, zeta):
        chain = Chain(elements=(Scatterer.of(zeta),), mobile_index=0, k0=K0)
        rep = force_with_velocity(solve_dynamic(chain, PUMP),
                                  chain.mobile.pol, K0)
        flux = PUMP.photon_flux
        expect_f1 = -4 * HBAR * K0 * flux * zeta**2 / (1 + zeta**2)
        assert rep.F1 == pytest.approx(expect_f1, rel=1e-10, abs=0)
        assert rep.friction == pytest.approx(expect_f1 / C_LIGHT, rel=1e-10, abs=0)
        assert rep.friction < 0  # drag opposing recession

    def test_friction_formula_equals_flux_expansion(self):
        """The shipped F1 bracket is the momentum-flux first-order term."""
        rng = np.random.default_rng(2)
        for _ in range(8):
            chain = cavity_chain(
                complex(rng.uniform(-8, -0.2), rng.uniform(0, 0.3)),
                complex(rng.uniform(-5, -1)),
                1e-2,
                rng.uniform(-LAM / 2, LAM / 2),
                rng.uniform(-LAM / 2, LAM / 2),
            )
            dyn = solve_dynamic(chain, PUMP)
            rep = force_with_velocity(dyn, chain.mobile.pol, K0)
            flux_f1 = flux_force_first_order(
                dict(A0=dyn.A0, A1=dyn.A1, B0f=dyn.B0f, B1=dyn.B1,
                     C0f=dyn.C0f, C1=dyn.C1, D0f=dyn.D0f, D1=dyn.D1),
                K0,
            )
            assert rep.F1 == pytest.approx(flux_f1, rel=1e-9, abs=0)

    def test_red_cooling_blue_heating_across_resonance(self):
        """Friction < 0 just below a resonance in dLc, > 0 just above."""
        from scipy.optimize import minimize_scalar

        lc = 1e-2
        x = 0.31 * LAM

        def intensity(dlc):
            chain = cavity_chain(-1.0, -3.0, lc, x, dlc)
            return solve_static(chain, PUMP).intensity

        dls = np.linspace(-LAM / 4, LAM / 4, 2001)
        vals = [intensity(d) for d in dls]
        i0 = int(np.argmax(vals))
        res = minimize_scalar(lambda d: -intensity(d),
                              bracket=(dls[i0 - 1], dls[i0], dls[i0 + 1]))
        dlc_res = res.x
        width = LAM / 100

        def friction(dlc):
            chain = cavity_chain(-1.0, -3.0, lc, x, dlc)
            rep = force_with_velocity(solve_dynamic(chain, PUMP),
                                      chain.mobile.pol, K0)
            return rep.friction

        assert friction(dlc_res - width) < 0  # shorter cavity: red detuned
        assert friction(dlc_res + width) > 0  # longer cavity: blue detuned

    def test_friction_oracle_randomized(self):
        """Randomized cavities: closed form vs sideband oracle to 1e-4."""
        rng = np.random.default_rng(99)
        lc = 7.3e-3
        checked = 0
        for _ in range(25):
            zeta = rng.uniform(-10, -0.1)
            x = rng.uniform(-LAM / 2, LAM / 2)
            dlc = rng.uniform(-LAM / 2, LAM / 2)
            chain = cavity_chain(zeta, -3.0, lc, x, dlc)
            rep = force_with_velocity(solve_dynamic(chain, PUMP),
                                      chain.mobile.pol, K0)
            oracle = fd_friction(chain, PUMP, v_over_c=1e-9)
            scale = max(abs(oracle), 1e-30)
            assert abs(rep.friction - oracle) / scale < 1e-4
            checked += 1
        assert checked == 25


class TestLongChain:
    def test_41_element_chain_friction_against_oracle(self):
        """41-element random passive chains drawn like the benchmark's
        (Re zeta in [-3, -0.3], 30% absorbing): the first-order solve costs
        a fixed number of 2x2 products per element, so it finishes far
        inside the guard, and its friction matches the sideband oracle to
        1e-4.

        Chains this long have narrow resonances and deep stop bands, where
        the float64 oracle at v/c = 1e-9 misses by up to 10% (step
        truncation, roundoff); the oracle therefore runs in mpmath at 40
        digits with v/c = 1e-20.
        """
        for seed in range(4):
            rng = np.random.default_rng(seed)
            elements = []
            for i in range(41):
                if i % 2 == 0:
                    zi = rng.uniform(0.005, 0.05) if rng.random() < 0.3 else 0.0
                    elements.append(Scatterer.of(complex(rng.uniform(-3.0, -0.3), zi)))
                else:
                    elements.append(Segment(rng.uniform(0.5e-3, 5e-3)))
            chain = Chain(elements=tuple(elements), mobile_index=20, k0=K0)
            with wall_clock_limit(10.0):
                got = evaluate_chain(chain, PUMP)
            oracle = fd_friction(chain, PUMP, v_over_c=1e-20, dps=40)
            assert abs(got["dFdv"] - oracle) / abs(oracle) < 1e-4, seed


def stop_band_chain(zeta: float, cells: int) -> Chain:
    """`cells` cells of (scatterer, lambda/4 + 1 mm) closed by a scatterer,
    the middle scatterer mobile."""
    elements = (Scatterer.of(zeta), Segment(LAM / 4 + 1e-3)) * cells + (Scatterer.of(zeta),)
    return Chain(elements, 2 * (cells // 2), K0)


def long_random_chain(seed: int) -> Chain:
    """21-61 scatterers with |zeta| <= 30, every other chain with absorbers,
    the segments between them, and a random mobile scatterer."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(21, 62))
    elements = []
    for i in range(n):
        if i:
            elements.append(Segment(rng.uniform(1e-4, 5e-3)))
        re = rng.uniform(-30, 30)
        im = rng.uniform(0, 5) if seed % 2 and rng.random() < 0.3 else 0.0
        elements.append(Scatterer.of(complex(re, im)))
    return Chain(tuple(elements), 2 * int(rng.integers(0, n)), K0)


class TestStopBand:
    """Left-pumped fields where the side transfer matrices grow like |1/t|^N
    (`side_growth` up to ~1e62): every field at the scatterer comes from its
    unpumped side, so none of that growth cancels."""

    @staticmethod
    def assert_matches_oracle(chain, dps, v_over_c, rtol):
        dyn = solve_dynamic(chain, PUMP)
        mp = mp_static_fields(chain, PUMP, dps=dps)
        fd = fd_first_order_fields(chain, PUMP, v_over_c=v_over_c, dps=dps)
        pol = chain.mobile.pol
        first = ("A1", "B1", "C1", "D1")
        got = {name: getattr(dyn, name) for name in ("A0", "B0f", "C0f", "D0f") + first}
        want = {**{name: mp[name] for name in ("A0", "B0f", "C0f", "D0f")},
                **{name: fd[name] for name in first}}
        got["F0"] = static_force(dyn.static(), pol, K0)
        want["F0"] = static_force(StaticFields(**mp), pol, K0)
        if not any(isinstance(el, Scatterer) and el.pol.absorptive for el in chain.elements):
            got["D"] = evaluate_chain(chain, PUMP)["D"]
            want["D"] = mp_diffusion(chain, PUMP, dps=dps)
        for name, value in want.items():
            assert got[name] == pytest.approx(value, rel=rtol, abs=0), name

    @pytest.mark.parametrize("zeta, cells, dps", [(-3.0, 10, 120), (-3.0, 20, 120),
                                                  (-30.0, 10, 120), (-30.0, 40, 250)])
    def test_periodic_stop_band_against_mpmath(self, zeta, cells, dps):
        """The chains of the ROADMAP's stop-band table: side growth 3e6 to
        3e62, errors 6e-13 to 2e-11."""
        self.assert_matches_oracle(stop_band_chain(zeta, cells), dps, 1e-60, 1e-10)

    @pytest.mark.parametrize("seed", range(4))
    def test_long_random_chain_against_mpmath(self, seed):
        """41-121-element chains (side growth up to ~1e62): the oracle
        needs ~400 digits at v/c = 1e-60; the kernel's worst was 7e-10."""
        self.assert_matches_oracle(long_random_chain(seed), 400, 1e-60, 1e-8)


class TestMirror:
    """A right pump is the left pump of the reversed chain: the faces map as
    (A, B, C, D) <-> (D', C', B', A'), the two ports swap, and the (v/c)
    parts change sign with the scatterer's velocity."""

    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(random_chains())
    def test_right_pump_static_is_the_reversed_left_pump(self, case):
        """Random 3-41-element chains, |zeta| <= 10, absorbers, any mobile
        scatterer: `solve_static` and `solve_dynamic` with a right pump
        equal the relabelled left pump of the reversed chain bit for bit."""
        chain, _ = case
        st = solve_static(chain, RIGHT)
        rev = solve_static(reversed_chain(chain), PUMP)
        assert ((st.A0, st.B0f, st.C0f, st.D0f, st.out_left, st.out_right)
                == (rev.D0f, rev.C0f, rev.B0f, rev.A0, rev.out_right, rev.out_left))
        dyn = solve_dynamic(chain, RIGHT)
        rev = solve_dynamic(reversed_chain(chain), PUMP)
        assert dyn.static() == solve_static(chain, RIGHT)
        assert ((dyn.A1, dyn.B1, dyn.C1, dyn.D1, dyn.out_left1, dyn.out_right1)
                == (-rev.D1, -rev.C1, -rev.B1, -rev.A1, -rev.out_right1, -rev.out_left1))

    def test_right_and_two_sided_first_order_match_80_digit_oracle(self):
        """Seeded chains of the same kind: A1, B1, C1 and D1 of right-pumped
        and two-sided `solve_dynamic` against the 80-digit sideband oracle,
        relative to the largest of them (on 40 random chains with both
        pumps the error stayed below 4e-13 of the growth)."""
        amp = np.sqrt(PUMP.photon_flux / 2)
        two_sided = PumpSpec(B0=amp, C0=amp * np.exp(0.7j), power_watts=1.0, wavelength=LAM)
        rng = np.random.default_rng(16)
        for _ in range(6):
            n = int(rng.integers(2, 22))
            elements = []
            for i in range(n):
                if i:
                    elements.append(Segment(rng.uniform(1e-4, 5e-3)))
                re = rng.uniform(-10, 10)
                im = rng.uniform(0, (100 - re * re) ** 0.5) if rng.random() < 0.5 else 0.0
                elements.append(Scatterer.of(complex(re, im)))
            chain = Chain(tuple(elements), 2 * int(rng.integers(0, n)), K0)
            bound = 1e-10 + 1e-12 * side_growth(chain)
            for pump in (RIGHT, two_sided):
                dyn = solve_dynamic(chain, pump)
                fd = fd_first_order_fields(chain, pump, v_over_c=1e-30, dps=80)
                got = np.array([dyn.A1, dyn.B1, dyn.C1, dyn.D1])
                want = np.array([fd[name] for name in ("A1", "B1", "C1", "D1")])
                assert np.abs(got - want).max() <= bound * np.abs(want).max(), (n, pump.B0)
