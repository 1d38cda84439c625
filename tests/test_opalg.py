"""First-order jet unit tests: composition rules, derivatives, limits."""

import numpy as np
import pytest
from scipy.constants import c as C_LIGHT, hbar as HBAR

from tmmcavity.opalg import VOMatrix, moving_scatterer_matrix, vo_mul
from tmmcavity.elements import Chain, PumpSpec, Scatterer, Segment, _side_jets
from tmmcavity.dynamics import force_with_velocity, solve_dynamic
from tmmcavity.errors import TmmCavityError, WavenumberError

from helpers import random_static_vomatrix

K0 = 2 * np.pi / 1.064e-6
PARTS = ("static_at", "static_deriv_at", "first_scalar_at", "first_deriv_at",
         "first_deriv_deriv_at")


def fd(fn, k, rel=1e-8):
    # step chosen so that h * d stays small for the few-mm phase lengths
    # used here, keeping the central-difference truncation below 1e-8
    h = rel * abs(k)
    return (fn(k + h) - fn(k - h)) / (2 * h)


def part(jet_at, name):
    """k -> one part of the jet built at k, for finite differences."""
    return lambda k: getattr(jet_at(k), name)(k)


def segment_jet(d, k):
    """Production jet of a lone segment: the left factor of a chain."""
    chain = Chain(elements=(Segment(d), Scatterer.of(-1.0)), mobile_index=1, k0=k)
    return _side_jets(chain)[0]


class TestJetDerivatives:
    def test_phase_derivative_matches_finite_difference(self):
        d = 3.7e-3
        jet_at = lambda k: segment_jet(d, k)
        for k in (K0, 0.5 * K0, 2.3 * K0):
            np.testing.assert_allclose(
                jet_at(k).static_deriv_at(k),
                fd(part(jet_at, "static_at"), k),
                rtol=1e-6,
            )
            assert jet_at(k).static_deriv_at(k)[0, 0] == pytest.approx(
                1j * d * np.exp(1j * k * d)
            )

    def test_product_rule_derivatives(self):
        rng = np.random.default_rng(4)
        rand, _ = random_static_vomatrix(rng)
        zm = -2.0 + 0.1j

        def jet_at(k):
            return segment_jet(1.1e-3, k) @ moving_scatterer_matrix(zm, k) @ rand(k)

        for k in (K0, 1.7 * K0):
            for name, deriv in (("static_at", "static_deriv_at"),
                                ("first_deriv_at", "first_deriv_deriv_at")):
                expect = fd(part(jet_at, name), k)
                np.testing.assert_allclose(
                    getattr(jet_at(k), deriv)(k), expect,
                    rtol=1e-6, atol=1e-6 * np.max(np.abs(expect)),
                )

    def test_first_order_parts_carry_their_derivative(self):
        # c' is the exact k-derivative of c, for the moving scatterer alone
        # (c = 2 i z k, c' = 2 i z) and through a composition with segments
        zm = -1.5
        ms = moving_scatterer_matrix(zm, K0)
        np.testing.assert_allclose(
            ms.first_deriv_deriv_at(K0),
            fd(part(lambda k: moving_scatterer_matrix(zm, k), "first_deriv_at"), K0),
            rtol=1e-6,
        )

        def jet_at(k):
            return segment_jet(2.0e-3, k) @ moving_scatterer_matrix(zm, k) @ segment_jet(0.7e-3, k)

        expect = fd(part(jet_at, "first_deriv_at"), K0)
        np.testing.assert_allclose(
            jet_at(K0).first_deriv_deriv_at(K0), expect,
            rtol=1e-6, atol=1e-6 * np.max(np.abs(expect)),
        )

    def test_other_wavenumber_raises(self):
        jet = moving_scatterer_matrix(-1.0, K0)
        for name in PARTS:
            with pytest.raises(WavenumberError):
                getattr(jet, name)(1.1 * K0)
        with pytest.raises(TmmCavityError):
            vo_mul(jet, VOMatrix.identity(1.1 * K0))


class TestVOMul:
    def test_identity_composition(self):
        rng = np.random.default_rng(7)
        m, plain = random_static_vomatrix(rng)
        for k in (K0, 1.3 * K0):
            left = vo_mul(VOMatrix.identity(k), m(k))
            right = vo_mul(m(k), VOMatrix.identity(k))
            np.testing.assert_allclose(left.static_at(k), plain(k), rtol=1e-12)
            np.testing.assert_allclose(right.static_at(k), plain(k), rtol=1e-12)
            np.testing.assert_allclose(left.static_deriv_at(k),
                                       m(k).static_deriv_at(k), rtol=1e-12)

    def test_derivative_operator_times_exponential(self):
        # a pure (v/c) d/dk operator composed with a static segment picks up
        # the product rule: scalar part i d e^{ikd} plus derivative part
        # e^{ikd} (and the mirrored -i d e^{-ikd}, e^{-ikd} on the diagonal)
        d = 2.5e-3
        op = VOMatrix(K0, np.zeros((2, 2), dtype=complex), c=np.eye(2, dtype=complex))
        prod = op @ segment_jet(d, K0)
        e = np.exp(1j * K0 * d)
        np.testing.assert_allclose(
            prod.first_scalar_at(K0), np.diag([1j * d * e, -1j * d / e]), rtol=1e-12
        )
        np.testing.assert_allclose(prod.first_deriv_at(K0), np.diag([e, 1 / e]),
                                   rtol=1e-12)
        assert np.all(prod.static_at(K0) == 0)

    def test_static_product_matches_numpy_and_fd_derivative(self):
        rng = np.random.default_rng(21)
        m1, p1 = random_static_vomatrix(rng)
        m2, p2 = random_static_vomatrix(rng)

        def plain(k):
            return p1(k) @ p2(k)

        dk = 1e-8 * K0
        for k in (K0, 0.8 * K0):
            prod = vo_mul(m1(k), m2(k))
            np.testing.assert_allclose(prod.static_at(k), plain(k), rtol=1e-12)
            fd_deriv = (plain(k + dk) - plain(k - dk)) / (2 * dk)
            scale = np.max(np.abs(fd_deriv))
            np.testing.assert_allclose(
                prod.static_deriv_at(k), fd_deriv, rtol=1e-6, atol=1e-6 * scale
            )

    def test_zeroth_order_of_any_composition_is_plain_product(self):
        rng = np.random.default_rng(3)
        mats = []
        plains = []
        for _ in range(4):
            m, p = random_static_vomatrix(rng)
            mats.append(m(K0))
            plains.append(p)
        zm = -1.5 + 0.2j
        mats.insert(2, moving_scatterer_matrix(zm, K0))
        plains.insert(
            2,
            lambda k, z=zm: np.array([[1 + 1j * z, 1j * z], [-1j * z, 1 - 1j * z]]),
        )
        total = mats[0]
        for m in mats[1:]:
            total = vo_mul(total, m)
        expect = np.eye(2, dtype=complex)
        for p in plains:
            expect = expect @ p(K0)
        np.testing.assert_allclose(total.static_at(K0), expect, rtol=1e-12)

    @pytest.mark.parametrize("seed", [11, 23, 57])
    def test_associativity_all_orders(self, seed):
        """(PQ)R == P(QR) for every part of the jet."""
        rng = np.random.default_rng(seed)
        p, _ = random_static_vomatrix(rng)
        r, _ = random_static_vomatrix(rng)
        z = complex(rng.uniform(-5, -0.5), rng.uniform(0, 0.3))
        for k in (K0, 1.1 * K0):
            q = moving_scatterer_matrix(z, k)
            lhs = vo_mul(vo_mul(p(k), q), r(k))
            rhs = vo_mul(p(k), vo_mul(q, r(k)))
            np.testing.assert_allclose(lhs.static_at(k), rhs.static_at(k), rtol=1e-12)
            for name in PARTS[1:]:
                np.testing.assert_allclose(
                    getattr(lhs, name)(k), getattr(rhs, name)(k), rtol=1e-10,
                    err_msg=name,
                )

    def test_truncation_closure(self):
        # composing many operator factors keeps exactly the five first-order
        # slots: a chain product never produces anything beyond them
        q = moving_scatterer_matrix(-2.0, K0)
        total = q
        for _ in range(5):
            total = vo_mul(vo_mul(total, segment_jet(1.3e-3, K0)), q)
        assert set(VOMatrix.__slots__) == {"k", "a", "da", "b", "c", "dc"}
        assert not hasattr(total, "__dict__")
        for name in PARTS:
            val = getattr(total, name)(K0)
            assert val.shape == (2, 2)
            assert np.isfinite(val).all()
        assert np.any(total.first_scalar_at(K0) != 0)


class TestMovingScattererMatrix:
    def test_transparent_scatterer_is_identity(self):
        m = moving_scatterer_matrix(0.0, K0)
        np.testing.assert_allclose(m.static_at(K0), np.eye(2), atol=1e-15)
        assert np.all(m.first_scalar_at(K0) == 0)
        assert np.all(m.first_deriv_at(K0) == 0)

    def test_static_part_matches_reflectivity_form(self):
        z = -1.0
        m = moving_scatterer_matrix(z, K0).static_at(K0)
        r = 1j * z / (1 - 1j * z)
        t = 1 / (1 - 1j * z)
        expect = (1 / t) * np.array([[t**2 - r**2, r], [-r, 1]])
        np.testing.assert_allclose(m, expect, rtol=1e-14)
        assert abs(r) ** 2 == pytest.approx(0.5)

    def test_doppler_part_sits_on_reflection_entries(self):
        z = -3.0
        m = moving_scatterer_matrix(z, K0)
        c = m.first_deriv_at(K0)
        dc = m.first_deriv_deriv_at(K0)
        np.testing.assert_allclose(c[0, 1], 2j * z * K0)
        np.testing.assert_allclose(c[1, 0], 2j * z * K0)
        np.testing.assert_allclose(dc[0, 1], 2j * z)
        np.testing.assert_allclose(dc[1, 0], 2j * z)
        assert c[0, 0] == 0 and c[1, 1] == 0
        assert dc[0, 0] == 0 and dc[1, 1] == 0
        assert np.all(m.first_scalar_at(K0) == 0)
        assert np.all(m.static_deriv_at(K0) == 0)

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
        assert rep.F0 == pytest.approx(2 * HBAR * k0 * flux, rel=1e-10)
        assert rep.F1 == pytest.approx(-4 * HBAR * k0 * flux, rel=1e-3)
        v = 10.0  # m/s
        force = rep.F0 + (v / C_LIGHT) * rep.F1
        assert force == pytest.approx(
            2 * HBAR * k0 * flux * (1 - 2 * v / C_LIGHT), rel=1e-8
        )
