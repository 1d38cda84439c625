"""First-order jet unit tests: composition rules, derivatives, limits.

A jet is the kernel's 5-tuple (a, a', b, c, c') of entry tuples at one
wavenumber, None standing for a zero part or entry."""

import numpy as np
import pytest
from scipy.constants import c as C_LIGHT, hbar as HBAR

from tmmcavity.opalg import _left_jet, _moving_scatterer, _op_mul, _static_jet
from tmmcavity.elements import Chain, PumpSpec, Scatterer
from tmmcavity.dynamics import force_with_velocity, solve_dynamic

from helpers import matrix, random_static_jet

K0 = 2 * np.pi / 1.064e-6
PARTS = ("a", "a'", "b", "c", "c'")


def fd(fn, k, rel=1e-8):
    # step chosen so that h * d stays small for the few-mm phase lengths
    # used here, keeping the central-difference truncation below 1e-8
    h = rel * abs(k)
    return (fn(k + h) - fn(k - h)) / (2 * h)


def part(jet_at, i):
    """k -> part i of the jet built at k, as a 2x2 array."""
    return lambda k: matrix(jet_at(k)[i])


def segment_jet(d, k):
    """Production jet of a lone segment: the left side of a chain."""
    return _static_jet(*_left_jet([np.array([d])], k, True))


def mul(*jets):
    """Left-to-right product of jets."""
    total = jets[0]
    for jet in jets[1:]:
        total = _op_mul(total, jet)
    return total


IDENTITY = _static_jet((1.0, None, None, 1.0), None)


class TestJetDerivatives:
    def test_phase_derivative_matches_finite_difference(self):
        d = 3.7e-3
        jet_at = lambda k: segment_jet(d, k)
        for k in (K0, 0.5 * K0, 2.3 * K0):
            np.testing.assert_allclose(
                matrix(jet_at(k)[1]), fd(part(jet_at, 0), k), rtol=1e-6,
            )
            assert matrix(jet_at(k)[1])[0, 0] == pytest.approx(
                1j * d * np.exp(1j * k * d), rel=1e-6, abs=0
            )

    def test_product_rule_derivatives(self):
        rng = np.random.default_rng(4)
        rand, _ = random_static_jet(rng)
        zm = -2.0 + 0.1j

        def jet_at(k):
            return mul(segment_jet(1.1e-3, k), _moving_scatterer(zm, k), rand(k))

        for k in (K0, 1.7 * K0):
            for value, deriv in ((0, 1), (3, 4)):
                expect = fd(part(jet_at, value), k)
                np.testing.assert_allclose(
                    matrix(jet_at(k)[deriv]), expect,
                    rtol=1e-6, atol=1e-6 * np.max(np.abs(expect)),
                )

    def test_first_order_parts_carry_their_derivative(self):
        # c' is the exact k-derivative of c, for the moving scatterer alone
        # (c = 2 i z k, c' = 2 i z) and through a composition with segments
        zm = -1.5
        np.testing.assert_allclose(
            matrix(_moving_scatterer(zm, K0)[4]),
            fd(part(lambda k: _moving_scatterer(zm, k), 3), K0),
            rtol=1e-6,
        )

        def jet_at(k):
            return mul(segment_jet(2.0e-3, k), _moving_scatterer(zm, k), segment_jet(0.7e-3, k))

        expect = fd(part(jet_at, 3), K0)
        np.testing.assert_allclose(
            matrix(jet_at(K0)[4]), expect,
            rtol=1e-6, atol=1e-6 * np.max(np.abs(expect)),
        )


class TestVOMul:
    """The jet product `_op_mul`."""

    def test_identity_composition(self):
        rng = np.random.default_rng(7)
        m, plain = random_static_jet(rng)
        for k in (K0, 1.3 * K0):
            left = _op_mul(IDENTITY, m(k))
            right = _op_mul(m(k), IDENTITY)
            np.testing.assert_allclose(matrix(left[0]), plain(k), rtol=1e-12)
            np.testing.assert_allclose(matrix(right[0]), plain(k), rtol=1e-12)
            np.testing.assert_allclose(matrix(left[1]), matrix(m(k)[1]), rtol=1e-12)
            assert left[2:] == right[2:] == (None, None, None)

    def test_derivative_operator_times_exponential(self):
        # a pure (v/c) d/dk operator composed with a static segment picks up
        # the product rule: scalar part i d e^{ikd} plus derivative part
        # e^{ikd} (and the mirrored -i d e^{-ikd}, e^{-ikd} on the diagonal)
        d = 2.5e-3
        op = ((None,) * 4, None, None, (1.0, None, None, 1.0), None)
        prod = _op_mul(op, segment_jet(d, K0))
        e = np.exp(1j * K0 * d)
        np.testing.assert_allclose(matrix(prod[2]), np.diag([1j * d * e, -1j * d / e]),
                                   rtol=1e-12)
        np.testing.assert_allclose(matrix(prod[3]), np.diag([e, 1 / e]), rtol=1e-12)
        assert np.all(matrix(prod[0]) == 0)

    def test_static_product_matches_numpy_and_fd_derivative(self):
        rng = np.random.default_rng(21)
        m1, p1 = random_static_jet(rng)
        m2, p2 = random_static_jet(rng)

        def plain(k):
            return p1(k) @ p2(k)

        dk = 1e-8 * K0
        for k in (K0, 0.8 * K0):
            prod = _op_mul(m1(k), m2(k))
            np.testing.assert_allclose(matrix(prod[0]), plain(k), rtol=1e-12)
            fd_deriv = (plain(k + dk) - plain(k - dk)) / (2 * dk)
            scale = np.max(np.abs(fd_deriv))
            np.testing.assert_allclose(
                matrix(prod[1]), fd_deriv, rtol=1e-6, atol=1e-6 * scale
            )

    def test_zeroth_order_of_any_composition_is_plain_product(self):
        rng = np.random.default_rng(3)
        mats = []
        plains = []
        for _ in range(4):
            m, p = random_static_jet(rng)
            mats.append(m(K0))
            plains.append(p)
        zm = -1.5 + 0.2j
        mats.insert(2, _moving_scatterer(zm, K0))
        plains.insert(
            2,
            lambda k, z=zm: np.array([[1 + 1j * z, 1j * z], [-1j * z, 1 - 1j * z]]),
        )
        expect = np.eye(2, dtype=complex)
        for p in plains:
            expect = expect @ p(K0)
        np.testing.assert_allclose(matrix(mul(*mats)[0]), expect, rtol=1e-12)

    @pytest.mark.parametrize("seed", [11, 23, 57])
    def test_associativity_all_orders(self, seed):
        """(PQ)R == P(QR) for every part of the jet."""
        rng = np.random.default_rng(seed)
        p, _ = random_static_jet(rng)
        r, _ = random_static_jet(rng)
        z = complex(rng.uniform(-5, -0.5), rng.uniform(0, 0.3))
        for k in (K0, 1.1 * K0):
            q = _moving_scatterer(z, k)
            lhs = _op_mul(_op_mul(p(k), q), r(k))
            rhs = _op_mul(p(k), _op_mul(q, r(k)))
            np.testing.assert_allclose(matrix(lhs[0]), matrix(rhs[0]), rtol=1e-12)
            for i, name in enumerate(PARTS[1:], 1):
                np.testing.assert_allclose(
                    matrix(lhs[i]), matrix(rhs[i]), rtol=1e-10, err_msg=name,
                )

    def test_truncation_closure(self):
        # composing many operator factors keeps exactly the five first-order
        # parts: a chain product never produces anything beyond them
        q = _moving_scatterer(-2.0, K0)
        total = q
        for _ in range(5):
            total = mul(total, segment_jet(1.3e-3, K0), q)
        assert len(total) == 5
        for i in range(5):
            val = matrix(total[i])
            assert val.shape == (2, 2)
            assert np.isfinite(val).all()
        assert np.any(matrix(total[2]) != 0)


class TestMovingScattererMatrix:
    def test_transparent_scatterer_is_identity(self):
        m = _moving_scatterer(0.0, K0)
        np.testing.assert_allclose(matrix(m[0]), np.eye(2), atol=1e-15)
        assert np.all(matrix(m[2]) == 0)
        assert np.all(matrix(m[3]) == 0)

    def test_static_part_matches_reflectivity_form(self):
        z = -1.0
        m = matrix(_moving_scatterer(z, K0)[0])
        r = 1j * z / (1 - 1j * z)
        t = 1 / (1 - 1j * z)
        expect = (1 / t) * np.array([[t**2 - r**2, r], [-r, 1]])
        np.testing.assert_allclose(m, expect, rtol=1e-14)
        assert abs(r) ** 2 == pytest.approx(0.5, rel=1e-6, abs=0)

    def test_doppler_part_sits_on_reflection_entries(self):
        z = -3.0
        _a, da, b, c, dc = _moving_scatterer(z, K0)
        np.testing.assert_allclose(c[1], 2j * z * K0)
        np.testing.assert_allclose(c[2], 2j * z * K0)
        np.testing.assert_allclose(dc[1], 2j * z)
        np.testing.assert_allclose(dc[2], 2j * z)
        # the diagonal is static by construction, and so is the rest
        assert c[0] is c[3] is dc[0] is dc[3] is None
        assert da is None and b is None

    def test_perfect_mirror_doppler_force(self):
        """Receding perfect mirror: F -> 2 hbar k0 Phi (1 - 2 v/c)."""
        lam = 1.064e-6
        k0 = 2 * np.pi / lam
        pump = PumpSpec.one_sided(1.0, lam)
        flux = pump.photon_flux
        chain = Chain(elements=(Scatterer.of(-1e6),), mobile_index=0, k0=k0)
        fields = solve_dynamic(chain, pump)
        rep = force_with_velocity(fields, chain.mobile.pol, k0)
        # at zeta = -1e6 the bracket needs |A0|^2 - |B0|^2 to one part in
        # zeta^2; double precision leaves ~1e-4 of cancellation noise there
        # (F0 is off by 9.1e-13 N, 1.4e-4 of itself), which the explicit
        # 1e-12 N floor of the F0 and force checks admits
        assert rep.F0 == pytest.approx(2 * HBAR * k0 * flux, rel=1e-10, abs=1e-12)
        assert rep.F1 == pytest.approx(-4 * HBAR * k0 * flux, rel=1e-3, abs=0)
        v = 10.0  # m/s
        force = rep.F0 + (v / C_LIGHT) * rep.F1
        assert force == pytest.approx(
            2 * HBAR * k0 * flux * (1 - 2 * v / C_LIGHT), rel=1e-8, abs=1e-12
        )
