"""Static solve, static force, resonance shifts and couplings."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.constants import c as C_LIGHT, hbar as HBAR
from scipy.optimize import minimize_scalar

from tmmcavity.dynamics import force_with_velocity, solve_dynamic
from tmmcavity.elements import (
    MOBILE_ZETA_LIMIT, Chain, Polarisability, PumpSpec, Scatterer, Segment,
)
from tmmcavity.errors import ChainError, SingularSolveError
from tmmcavity.mim import MimConfig, build_mim, couplings, pump_for, resonance_shifts
from tmmcavity.noise import operator_fields
from tmmcavity.statics import solve_static, static_force

from helpers import random_chains

LAM = 1.064e-6
K0 = 2 * np.pi / LAM
LC = 6.7e-2
PUMP = PumpSpec.one_sided(1.0, LAM)


def free_chain(zeta):
    return Chain(elements=(Scatterer.of(zeta),), mobile_index=0, k0=K0)


class TestSolveStatic:
    def test_empty_space_left_pump(self):
        # transparent scatterer in empty space: the incident wave passes by
        chain = free_chain(0.0)
        f = solve_static(chain, PUMP)
        assert f.B0f == pytest.approx(PUMP.B0, abs=0)
        assert f.A0 == pytest.approx(0.0, abs=0)
        assert f.D0f == pytest.approx(PUMP.B0, abs=0)
        assert f.C0f == pytest.approx(0.0, abs=0)

    @pytest.mark.parametrize("zeta", [-0.5, -1.0, -4.0])
    def test_free_scatterer_fresnel_split(self, zeta):
        chain = free_chain(zeta)
        f = solve_static(chain, PUMP)
        # measured against the incident amplitude B0f
        assert abs(f.A0 / f.B0f) ** 2 == pytest.approx(
            zeta**2 / (1 + zeta**2), rel=1e-12, abs=0
        )
        assert abs(f.D0f / f.B0f) ** 2 == pytest.approx(
            1 / (1 + zeta**2), rel=1e-12, abs=0
        )
        assert f.C0f == pytest.approx(0.0, abs=1e-9 * abs(f.B0f))

    def test_matches_interface_network_solver(self):
        rng = np.random.default_rng(17)
        for _ in range(6):
            elements = (
                Scatterer.of(complex(rng.uniform(-6, -0.3), rng.uniform(0, 0.2))),
                Segment(rng.uniform(1e-4, 6e-3)),
                Scatterer.of(complex(rng.uniform(-6, -0.3))),
                Segment(rng.uniform(1e-4, 6e-3)),
                Scatterer.of(complex(rng.uniform(-6, -0.3), rng.uniform(0, 0.2))),
            )
            chain = Chain(elements=elements, mobile_index=2, k0=K0)
            f = solve_static(chain, PUMP)
            # the pump columns of the noise network, scaled by the pump
            ops = operator_fields(chain)
            a_net, b_net, c_net, d_net, out_l, out_r = (
                PUMP.B0 * vec[0] + PUMP.C0 * vec[1]
                for vec in (ops.a_vec, ops.b_vec, ops.c_vec, ops.d_vec,
                            ops.out_left_vec, ops.out_right_vec))
            assert f.A0 == pytest.approx(a_net, rel=1e-9, abs=0)
            assert f.B0f == pytest.approx(b_net, rel=1e-9, abs=0)
            assert f.C0f == pytest.approx(c_net, rel=1e-9, abs=0)
            assert f.D0f == pytest.approx(d_net, rel=1e-9, abs=0)
            assert f.out_left == pytest.approx(out_l, rel=1e-9, abs=0)
            assert f.out_right == pytest.approx(out_r, rel=1e-9, abs=0)

    def test_scatterer_plane_flux_balance(self):
        chain = Chain(
            elements=(
                Scatterer.of(-3.0),
                Segment(2.2e-3),
                Scatterer.of(-1.0),
                Segment(1.1e-3),
                Scatterer.of(-3.0),
            ),
            mobile_index=2,
            k0=K0,
        )
        f = solve_static(chain, PUMP)
        flux_in = abs(f.B0f) ** 2 + abs(f.C0f) ** 2
        flux_out = abs(f.A0) ** 2 + abs(f.D0f) ** 2
        assert flux_out == pytest.approx(flux_in, rel=1e-10, abs=0)

    def test_fabry_perot_buildup(self):
        """On-resonance antinode enhancement equals (1-|r|^2)/(1-|r|)^2."""
        zm = -5.0
        config = MimConfig(
            membrane_zeta=0.0, mirror_zeta=zm, cavity_length=1e-2
        )
        pump = pump_for(config)
        rm = abs(Scatterer.of(zm).pol.reflectivity)

        def antinode_intensity(dlc):
            # transparent probe at x: pick the standing-wave maximum
            def neg(x):
                chain = build_mim(config, x, dlc)
                return -solve_static(chain, pump).intensity

            res = minimize_scalar(neg, bounds=(0, LAM / 2), method="bounded",
                                  options={"xatol": 1e-13})
            return -res.fun

        # locate the resonance in detuning, then refine
        dls = np.linspace(-LAM / 4, LAM / 4, 801)
        vals = [antinode_intensity(d) for d in dls]
        i0 = int(np.argmax(vals))
        res = minimize_scalar(
            lambda d: -antinode_intensity(d),
            bracket=(dls[i0 - 1], dls[i0], dls[i0 + 1]),
        )
        enhancement = -res.fun / pump.photon_flux
        expect = (1 - rm**2) / (1 - rm) ** 2
        assert enhancement == pytest.approx(expect, rel=5e-3, abs=0)

    def test_singular_solve_detected(self):
        # passive chains keep |beta_0| >= 1, so the genuinely singular case
        # is unreachable with finite physical polarisabilities; two
        # overflow-scale mirrors drive the composition non-finite and the
        # solve must refuse rather than emit junk
        chain = Chain(
            elements=(
                Scatterer.of(-1e200),
                Segment(1e-3),
                Scatterer.of(-1.0),
                Segment(1e-3),
                Scatterer.of(-1e200),
            ),
            mobile_index=2,
            k0=K0,
        )
        with pytest.raises(SingularSolveError) as info:
            solve_static(chain, PUMP)
        # the message names the overflow, not a vanished transmission channel
        message = str(info.value)
        assert message.startswith(f"the composed chain matrix overflowed at k={K0}")
        assert "float64 range" in message and "|zeta|" in message
        assert "vanished" not in message


class TestStaticForce:
    def test_transparent_no_force(self):
        chain = free_chain(0.0)
        f = solve_static(chain, PUMP)
        assert static_force(f, chain.mobile.pol, K0) == 0.0

    @pytest.mark.parametrize("zeta", [-0.5, -2.0, -10.0])
    def test_free_scatterer_momentum_balance(self, zeta):
        chain = free_chain(zeta)
        f = solve_static(chain, PUMP)
        flux = PUMP.photon_flux
        expect = 2 * HBAR * K0 * flux * zeta**2 / (1 + zeta**2)
        assert static_force(f, chain.mobile.pol, K0) == pytest.approx(
            expect, rel=1e-10, abs=0
        )

    @pytest.mark.parametrize("seed", range(5))
    def test_equals_momentum_flux_form(self, seed):
        """The bracketed force formula is the net photon-momentum flux."""
        rng = np.random.default_rng(seed)
        elements = (
            Scatterer.of(complex(rng.uniform(-6, -0.3))),
            Segment(rng.uniform(1e-4, 6e-3)),
            Scatterer.of(complex(rng.uniform(-6, -0.3), rng.uniform(0, 0.5))),
            Segment(rng.uniform(1e-4, 6e-3)),
            Scatterer.of(complex(rng.uniform(-6, -0.3))),
        )
        chain = Chain(elements=elements, mobile_index=2, k0=K0)
        f = solve_static(chain, PUMP)
        flux_form = HBAR * K0 * (
            abs(f.A0) ** 2 + abs(f.B0f) ** 2 - abs(f.C0f) ** 2 - abs(f.D0f) ** 2
        )
        assert static_force(f, chain.mobile.pol, K0) == pytest.approx(
            flux_form, rel=1e-9, abs=0
        )

    @settings(max_examples=60, deadline=None)
    @given(random_chains())
    def test_momentum_flux_balance(self, case):
        """Random 3-41-element chains, |zeta| <= 10, absorbers, either pump
        side: the force is the net photon-momentum flux through the
        scatterer, hbar k0 (|A0|^2 + |B0f|^2 - |C0f|^2 - |D0f|^2), within
        1e-12 of hbar k0 times the summed fluxes.  The worst of 10000 draws
        is off by 9.2e-14."""
        chain, pump = case
        f = solve_static(chain, pump)
        a, b, c, d = (abs(amp) ** 2 for amp in (f.A0, f.B0f, f.C0f, f.D0f))
        flux = HBAR * chain.k0 * (a + b - c - d)
        force = static_force(f, chain.mobile.pol, chain.k0)
        assert abs(force - flux) <= 1e-12 * HBAR * chain.k0 * (a + b + c + d)

    def test_node_force_vanishes(self):
        """At an intensity node the membrane feels (nearly) no force."""
        config = MimConfig(membrane_zeta=-1.0, mirror_zeta=-10.0,
                           cavity_length=1e-2)
        pump = pump_for(config)
        probe = config.replace(membrane_zeta=0.0)

        # put the bare cavity exactly on resonance so the pattern is strong
        from tmmcavity.mim import bare_resonance

        dlc_res, _ = bare_resonance(probe)

        def probe_intensity(x):
            return solve_static(build_mim(probe, x, dlc_res), pump).intensity

        res = minimize_scalar(probe_intensity, bounds=(0, LAM / 2),
                              method="bounded", options={"xatol": 1e-14})
        x_node = res.x

        def force_at(x, dlc):
            chain = build_mim(config, x, dlc)
            f = solve_static(chain, pump_for(config))
            return static_force(f, chain.mobile.pol, config.k0)

        # compare the node force against the strongest force on the same
        # resonance line at any membrane position
        xs = np.linspace(-LAM / 2, LAM / 2, 101)
        strongest = max(abs(force_at(x, dlc_res)) for x in xs)
        assert abs(force_at(x_node, dlc_res)) < 1e-3 * strongest


class TestResonanceShifts:
    def test_eighth_wave_point(self):
        """At 2 k0 x = pi/2 the branch pair is atan(-1/zeta), an FSR apart."""
        zeta = -2.0
        x = LAM / 8
        dplus, dminus = resonance_shifts(zeta, x, LC, K0)
        expect_plus = (C_LIGHT / LC) * np.arctan(-1 / zeta)
        fsr = np.pi * C_LIGHT / LC
        assert dplus == pytest.approx(expect_plus, rel=1e-12, abs=0)
        assert abs(dplus - dminus) == pytest.approx(fsr, rel=1e-12, abs=0)

    def test_branches_fsr_apart_small_zeta(self):
        # each branch wobbles by ~|zeta| c/L_c, so the separation approaches
        # one FSR linearly as zeta -> 0
        xs = np.linspace(-LAM / 2, LAM / 2, 201)
        dplus, dminus = resonance_shifts(-1e-4, xs, LC, K0)
        fsr = np.pi * C_LIGHT / LC
        np.testing.assert_allclose(dplus - dminus, fsr, rtol=1e-3)
        # a bare cavity: half an FSR either side of the reference, every x
        half = (np.pi / 2) * (C_LIGHT / LC)
        for zeta in (0.0, -0.0):
            assert resonance_shifts(zeta, xs[7], LC, K0) == (half, -half)
            dplus, dminus = resonance_shifts(zeta, xs, LC, K0)
            assert (dplus == half).all() and (dminus == -half).all()

    def test_avoided_crossing_gap_positive(self):
        """Strong membrane: the branch pair never touches; the minimum
        separation is the avoided-crossing gap 2g = 2 c |t| / L_c."""
        xs = np.linspace(-LAM / 2, LAM / 2, 4001)
        dplus, dminus = resonance_shifts(-10.0, xs, LC, K0)
        min_gap = np.min(np.abs(dplus - dminus))
        assert min_gap > 0
        assert min_gap == pytest.approx(2 * C_LIGHT / (np.sqrt(101) * LC), rel=0.05, abs=0)

    def test_periodicity_half_wavelength(self):
        zeta = -1.3
        for x in (0.07 * LAM, -0.19 * LAM):
            a = resonance_shifts(zeta, x, LC, K0)
            b = resonance_shifts(zeta, x + LAM / 2, LC, K0)
            assert a[0] == pytest.approx(b[0], rel=1e-9, abs=0)
            assert a[1] == pytest.approx(b[1], rel=1e-9, abs=0)

    def test_scan_unwrap_is_continuous(self):
        xs = np.linspace(-LAM / 2, LAM / 2, 2001)
        dplus, dminus = resonance_shifts(-10.0, xs, LC, K0)
        fsr = np.pi * C_LIGHT / LC
        assert np.max(np.abs(np.diff(dplus))) < 0.2 * fsr
        assert np.max(np.abs(np.diff(dminus))) < 0.2 * fsr


class TestCouplings:
    def test_linear_coupling_bound(self):
        """|omega'| <= 2 k0 c / L_c ~ 2 pi x 8.42 MHz/nm, approached as
        |zeta| grows."""
        bound = 2 * K0 * C_LIGHT / LC
        assert bound / (2 * np.pi) * 1e-9 == pytest.approx(8.42e6, rel=2e-3, abs=0)
        xs = np.linspace(-LAM / 4, LAM / 4, 20001)
        for zeta, closeness in ((-1.0, 0.5), (-100.0, 0.999)):
            w1 = couplings(zeta, xs, LC, K0).omega_prime
            assert np.max(np.abs(w1)) <= bound * (1 + 1e-12)
            assert np.max(np.abs(w1)) > closeness * bound

    @pytest.mark.parametrize("zeta", [-1.0, -10.0])
    def test_quadratic_peak_value(self, zeta):
        """|omega''(0)| = (4 k0^2 c / L_c)|zeta| ~ 2 pi x 0.10 |zeta| MHz/nm^2."""
        rep = couplings(zeta, 0.0, LC, K0)
        expect = 4 * K0**2 * C_LIGHT / LC * abs(zeta)
        assert abs(rep.omega_double_prime) == pytest.approx(expect, rel=1e-12, abs=0)
        assert expect / (2 * np.pi) * 1e-18 == pytest.approx(
            0.10e6 * abs(zeta), rel=0.02, abs=0
        )

    def test_never_both_zero(self):
        xs = np.linspace(-LAM / 2, LAM / 2, 1001)
        for zeta in (-0.5, -5.0):
            for x in xs:
                rep = couplings(zeta, float(x), LC, K0)
                assert max(abs(rep.omega_prime) / (2 * K0 * C_LIGHT / LC),
                           abs(rep.omega_double_prime) / (4 * K0**2 * C_LIGHT / LC)) > 1e-3

    def test_quadratic_max_where_linear_zero(self):
        """Wherever omega' = 0, |omega''| is at a local maximum."""
        zeta = -3.0
        h = LAM * 1e-5
        for x0 in (0.0, LAM / 4):  # sin(2 k0 x) zeros
            assert abs(couplings(zeta, x0, LC, K0).omega_prime) < 1e-6 * (
                2 * K0 * C_LIGHT / LC
            )
            w2_0 = abs(couplings(zeta, x0, LC, K0).omega_double_prime)
            assert w2_0 > abs(couplings(zeta, x0 + h, LC, K0).omega_double_prime)
            assert w2_0 > abs(couplings(zeta, x0 - h, LC, K0).omega_double_prime)

    def test_symmetries(self):
        zeta = -2.2
        for x in (0.11 * LAM, 0.23 * LAM):
            a = couplings(zeta, x, LC, K0)
            b = couplings(zeta, -x, LC, K0)
            assert a.omega_prime == pytest.approx(-b.omega_prime, rel=1e-12, abs=0)
            assert a.omega_double_prime == pytest.approx(
                b.omega_double_prime, rel=1e-12, abs=0
            )

    def test_linear_coupling_is_derivative_of_shift(self):
        """omega' equals the finite-difference x-derivative of the shift."""
        h = LAM * 1e-6
        for zeta in (-0.7, -4.0):
            for x in (0.08 * LAM, 0.21 * LAM, -0.13 * LAM):
                dp_hi, dm_hi = resonance_shifts(zeta, x + h, LC, K0)
                dp_lo, dm_lo = resonance_shifts(zeta, x - h, LC, K0)
                fd_plus = (dp_hi - dp_lo) / (2 * h)
                rep = couplings(zeta, x, LC, K0)
                assert rep.omega_prime == pytest.approx(fd_plus, rel=1e-4, abs=0)
                fd_minus = (dm_hi - dm_lo) / (2 * h)
                assert -rep.omega_prime == pytest.approx(fd_minus, rel=1e-4, abs=0)

    @settings(max_examples=60, deadline=None)
    @given(st.floats(-MOBILE_ZETA_LIMIT, 0.0),
           st.lists(st.floats(-LAM / 2, LAM / 2), min_size=1, max_size=200))
    def test_array_call_is_the_scalar_calls(self, zeta, xs):
        """An array x gives omega' and omega'' of each scalar call bit for
        bit, and the shifts of `resonance_shifts` on the same array."""
        xs = np.array(xs)
        rep = couplings(zeta, xs, LC, K0)
        for name in ("omega_prime", "omega_double_prime"):
            scalar = [getattr(couplings(zeta, x, LC, K0), name) for x in xs.tolist()]
            assert getattr(rep, name).tobytes() == np.array(scalar).tobytes(), name
        shifts = resonance_shifts(zeta, xs, LC, K0)
        assert rep.delta_omega_plus.tobytes() == shifts[0].tobytes()
        assert rep.delta_omega_minus.tobytes() == shifts[1].tobytes()

    def test_quadratic_coupling_is_second_derivative(self):
        h = LAM * 1e-4
        zeta = -2.0
        for x in (0.0, 0.09 * LAM):
            vals = [resonance_shifts(zeta, x + s * h, LC, K0)[0]
                    for s in (-1, 0, 1)]
            fd2 = (vals[2] - 2 * vals[1] + vals[0]) / h**2
            rep = couplings(zeta, x, LC, K0)
            assert rep.omega_double_prime == pytest.approx(fd2, rel=1e-3, abs=0)


def _zeta_entry_points():
    """{name: call of zeta} of each public function that takes the mobile
    scatterer's zeta directly, on the default MIM chain's fields."""
    fields = solve_dynamic(build_mim(MimConfig()), pump_for(MimConfig()))
    return {
        "couplings": lambda z: couplings(z, 1e-7, LC, K0).omega_double_prime,
        "resonance_shifts": lambda z: resonance_shifts(z, np.linspace(-LAM, LAM, 5), LC, K0)[0],
        "static_force": lambda z: static_force(fields.static(), Polarisability(z), K0),
        "force_with_velocity": lambda z: force_with_velocity(
            fields, Polarisability(z), K0).friction,
    }


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("name", ["couplings", "resonance_shifts", "static_force",
                                  "force_with_velocity"])
def test_zeta_beyond_the_mobile_limit_is_a_chain_error(name):
    """A |zeta| past `MOBILE_ZETA_LIMIT` is rejected before any arithmetic
    (it raised OverflowError or warned from ~1e103 on), and the limit
    itself is still evaluated."""
    call = _zeta_entry_points()[name]
    assert np.all(np.isfinite(call(-MOBILE_ZETA_LIMIT)))
    for zeta in (-MOBILE_ZETA_LIMIT * (1 + 1e-15), -1e103, -1.4e154, -1e200):
        with pytest.raises(ChainError, match="at most"):
            call(zeta)
