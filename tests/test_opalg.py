"""Unit tests of the kernel's one operator product: `_product`, a matrix
product with its k-derivative, and `_composed`, the parts (a, a', b, c, c')
of M1 MS^ M2 at one wavenumber, None standing for a zero matrix or entry."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.constants import c as C_LIGHT, hbar as HBAR

from tmmcavity.opalg import _composed, _left_jet, _product
from tmmcavity.elements import Chain, PumpSpec, Scatterer
from tmmcavity.dynamics import force_with_velocity, solve_dynamic

from helpers import matrix, random_side

K0 = 2 * np.pi / 1.064e-6
PARTS = ("a", "a'", "b", "c", "c'")
IDENTITY = ((1.0, None, None, 1.0), None)  # (m, m') of a side with no elements


def fd(fn, k, rel=1e-8):
    # the five-point central difference, truncated at h^4: with h * d small
    # for the few-mm phase lengths used here, it stays below 1e-10 even
    # where a chain's resonance steepens a and c
    h = rel * abs(k)
    return (8 * (fn(k + h) - fn(k - h)) - (fn(k + 2 * h) - fn(k - 2 * h))) / (12 * h)


def part(parts_at, i):
    """k -> part i of the parts built at k, as a 2x2 array."""
    return lambda k: matrix(parts_at(k)[i])


def segment(d, k):
    """(m, m') of a lone segment: the production side of one element."""
    return _left_jet([np.array([d])], k, True)


def lone(z, k):
    """The parts of the mobile scatterer alone: both sides empty."""
    return _composed(*IDENTITY, z, k, *IDENTITY)


def doppler(z, k):
    """C, the d/dk part of the mobile scatterer, as a 2x2 array."""
    return np.array([[0, 2j * z * k], [2j * z * k, 0]])


def static_times(p, dp, parts):
    """The parts of P (a + (v/c)(b + c d/dk)) for a static P(k)."""
    a, da, b, c, dc = map(matrix, parts)
    p, dp = matrix(p), matrix(dp)
    return p @ a, dp @ a + p @ da, p @ b, p @ c, dp @ c + p @ dc


def times_static(parts, r, dr):
    """The parts of (a + (v/c)(b + c d/dk)) R for a static R(k): d/dk
    acts on R as well, adding c R' to b."""
    a, da, b, c, dc = map(matrix, parts)
    r, dr = matrix(r), matrix(dr)
    return a @ r, da @ r + a @ dr, b @ r + c @ dr, c @ r, dc @ r + c @ dr


class TestJetDerivatives:
    """a' and c' of the sides and of `_composed` against finite differences."""

    def test_phase_derivative_matches_finite_difference(self):
        d = 3.7e-3
        side_at = lambda k: segment(d, k)
        for k in (K0, 0.5 * K0, 2.3 * K0):
            np.testing.assert_allclose(
                matrix(side_at(k)[1]), fd(part(side_at, 0), k), rtol=1e-6,
            )
            assert matrix(side_at(k)[1])[0, 0] == pytest.approx(
                1j * d * np.exp(1j * k * d), rel=1e-6, abs=0
            )

    def test_product_rule_derivatives(self):
        rng = np.random.default_rng(4)
        rand, _ = random_side(rng)
        zm = -2.0 + 0.1j

        def parts_at(k):
            return _composed(*segment(1.1e-3, k), zm, k, *rand(k))

        for k in (K0, 1.7 * K0):
            for value, deriv in ((0, 1), (3, 4)):
                expect = fd(part(parts_at, value), k)
                np.testing.assert_allclose(
                    matrix(parts_at(k)[deriv]), expect,
                    rtol=1e-6, atol=1e-6 * np.max(np.abs(expect)),
                )

    def test_first_order_parts_carry_their_derivative(self):
        # c' is the exact k-derivative of c, for the moving scatterer alone
        # (c = 2 i z k, c' = 2 i z) and between segments
        zm = -1.5
        np.testing.assert_allclose(
            matrix(lone(zm, K0)[4]), fd(part(lambda k: lone(zm, k), 3), K0), rtol=1e-6,
        )

        def parts_at(k):
            return _composed(*segment(2.0e-3, k), zm, k, *segment(0.7e-3, k))

        expect = fd(part(parts_at, 3), K0)
        np.testing.assert_allclose(
            matrix(parts_at(K0)[4]), expect,
            rtol=1e-6, atol=1e-6 * np.max(np.abs(expect)),
        )


@st.composite
def split_chains(draw):
    """(left, z, right): the elements on each side of a mobile scatterer
    of polarisability z in a chain of 3-13 elements, scatterers (some
    absorbing, none of a subnormal zeta) alternating with 0.5-5 mm segments, each a one-element
    array; the mobile scatterer may end the chain, leaving a side empty."""
    n = draw(st.integers(2, 7))
    real = st.floats(-5.0, 5.0, allow_subnormal=False)
    loss = st.one_of(st.just(0.0), st.floats(0.0, 0.5, allow_subnormal=False))
    zetas = [complex(draw(real), draw(loss)) for _ in range(n)]
    elements = []
    for i, z in enumerate(zetas):
        if i:
            elements.append(np.array([draw(st.floats(0.5e-3, 5e-3))]))
        elements.append(Scatterer.of(z))
    i = 2 * draw(st.integers(0, n - 1))
    return elements[:i], zetas[i // 2], elements[i + 1:]


@settings(max_examples=40, deadline=None)
@given(split_chains())
def test_composed_derivatives_and_doppler_part(split):
    """On random chains a' and c' are central differences of a and c in
    k, and b is the dense M1 C M2'."""
    left, z, right = split

    def parts_at(k):
        return _composed(*_left_jet(left, k, True), z, k, *_left_jet(right, k, True))

    parts = parts_at(K0)
    m1, m2 = (matrix(_left_jet(side, K0, True)[0]) for side in (left, right))
    length = sum(float(el[0]) for el in left + right if not isinstance(el, Scatterer))
    ms = np.array([[1 + 1j * z, 1j * z], [-1j * z, 1 - 1j * z]])
    for value, deriv, middle in ((0, 1, ms), (3, 4, doppler(z, K0))):
        expect = fd(part(parts_at, value), K0)
        # each phase k d rounds to ~1e-16 k L, which the difference divides
        # by h = 1e-8 k: ~1e-8 L |M1| |middle| |M2| of noise, which a' and
        # c' can fall below where the segments' phases cancel
        noise = length * np.abs(m1).max() * np.abs(middle).max() * np.abs(m2).max()
        np.testing.assert_allclose(matrix(parts[deriv]), expect, rtol=1e-6,
                                   atol=1e-6 * (np.abs(expect).max() + noise),
                                   err_msg=PARTS[deriv])
    dense = m1 @ doppler(z, K0) @ matrix(_left_jet(right, K0, True)[1])
    np.testing.assert_allclose(matrix(parts[2]), dense, rtol=1e-12,
                               atol=1e-12 * np.max(np.abs(dense)))


class TestVOMul:
    """The products: `_product` of static sides, a matrix and its
    k-derivative, and `_composed`, M1 MS^ M2, the one operator the kernel
    forms."""

    def test_identity_composition(self):
        rng = np.random.default_rng(7)
        m, plain = random_side(rng)
        for k in (K0, 1.3 * K0):
            left = _product(*IDENTITY, *m(k))
            right = _product(*m(k), *IDENTITY)
            np.testing.assert_allclose(matrix(left[0]), plain(k), rtol=1e-12)
            np.testing.assert_allclose(matrix(right[0]), plain(k), rtol=1e-12)
            np.testing.assert_allclose(matrix(left[1]), matrix(m(k)[1]), rtol=1e-12)
            np.testing.assert_allclose(matrix(right[1]), matrix(m(k)[1]), rtol=1e-12)
            # a product of static sides has no first-order part
            assert len(left) == len(right) == 2

    def test_static_product_matches_numpy_and_fd_derivative(self):
        rng = np.random.default_rng(21)
        m1, p1 = random_side(rng)
        m2, p2 = random_side(rng)

        def plain(k):
            return p1(k) @ p2(k)

        dk = 1e-8 * K0
        for k in (K0, 0.8 * K0):
            prod = _product(*m1(k), *m2(k))
            np.testing.assert_allclose(matrix(prod[0]), plain(k), rtol=1e-12)
            fd_deriv = (plain(k + dk) - plain(k - dk)) / (2 * dk)
            scale = np.max(np.abs(fd_deriv))
            np.testing.assert_allclose(
                matrix(prod[1]), fd_deriv, rtol=1e-6, atol=1e-6 * scale
            )

    @pytest.mark.parametrize("seed", [11, 23, 57])
    def test_side_product_associativity(self, seed):
        """(PQ)R == P(QR), the matrix and its derivative."""
        rng = np.random.default_rng(seed)
        p, q, r = (random_side(rng)[0](K0) for _ in range(3))
        lhs = _product(*_product(*p, *q), *r)
        rhs = _product(*p, *_product(*q, *r))
        np.testing.assert_allclose(matrix(lhs[0]), matrix(rhs[0]), rtol=1e-12)
        np.testing.assert_allclose(matrix(lhs[1]), matrix(rhs[1]), rtol=1e-10)

    def test_derivative_operator_times_exponential(self):
        # the Doppler part C d/dk acting on a static segment picks up the
        # product rule: b = C M2' with M2' = diag(i d e^{ikd}, -i d e^{-ikd}),
        # and c = C M2
        d, z = 2.5e-3, -1.5
        a, _, b, c, dc = _composed(*IDENTITY, z, K0, *segment(d, K0))
        e, cz = np.exp(1j * K0 * d), 2j * z * K0
        np.testing.assert_allclose(matrix(b), [[0, -1j * d * cz / e], [1j * d * cz * e, 0]],
                                   rtol=1e-12)
        np.testing.assert_allclose(matrix(c), [[0, cz / e], [cz * e, 0]], rtol=1e-12)
        np.testing.assert_allclose(
            matrix(dc), [[0, 2j * z / e - 1j * d * cz / e], [2j * z * e + 1j * d * cz * e, 0]],
            rtol=1e-12)
        np.testing.assert_allclose(matrix(a), matrix(lone(z, K0)[0]) @ np.diag([e, 1 / e]),
                                   rtol=1e-12)

    def test_zeroth_order_of_any_composition_is_plain_product(self):
        rng = np.random.default_rng(3)
        sides = [random_side(rng) for _ in range(4)]
        zm = -1.5 + 0.2j
        m1 = _product(*sides[0][0](K0), *sides[1][0](K0))
        m2 = _product(*sides[2][0](K0), *sides[3][0](K0))
        ms = np.array([[1 + 1j * zm, 1j * zm], [-1j * zm, 1 - 1j * zm]])
        expect = sides[0][1](K0) @ sides[1][1](K0) @ ms @ sides[2][1](K0) @ sides[3][1](K0)
        np.testing.assert_allclose(matrix(_composed(*m1, zm, K0, *m2)[0]), expect, rtol=1e-12)

    @pytest.mark.parametrize("seed", [11, 23, 57])
    def test_associativity_all_orders(self, seed):
        """(PQ) MS^ R == P (Q MS^ R) and P MS^ (QR) == (P MS^ Q) R for every
        part, P, Q and R static."""
        rng = np.random.default_rng(seed)
        p, q, r = (random_side(rng)[0] for _ in range(3))
        z = complex(rng.uniform(-5, -0.5), rng.uniform(0, 0.3))
        for k in (K0, 1.1 * K0):
            pairs = (
                (_composed(*_product(*p(k), *q(k)), z, k, *r(k)),
                 static_times(*p(k), _composed(*q(k), z, k, *r(k)))),
                (_composed(*p(k), z, k, *_product(*q(k), *r(k))),
                 times_static(_composed(*p(k), z, k, *q(k)), *r(k))),
            )
            for lhs, rhs in pairs:
                np.testing.assert_allclose(matrix(lhs[0]), rhs[0], rtol=1e-12)
                for i, name in enumerate(PARTS[1:], 1):
                    np.testing.assert_allclose(matrix(lhs[i]), rhs[i], rtol=1e-10,
                                               err_msg=name)

    def test_truncation_closure(self):
        # five segment-scatterer pairs on each side: the operator keeps
        # exactly its five first-order parts, all finite, b among them
        side = [np.array([1.3e-3]), Scatterer.of(-2.0)] * 5
        parts = _composed(*_left_jet(side, K0, True), -2.0, K0, *_left_jet(side[::-1], K0, True))
        assert len(parts) == 5
        for entries in parts:
            val = matrix(entries)
            assert val.shape == (2, 2)
            assert np.isfinite(val).all()
        assert np.any(matrix(parts[2]) != 0)


class TestMovingScattererMatrix:
    """`_composed` of the mobile scatterer alone."""

    def test_transparent_scatterer_is_identity(self):
        m = lone(0.0, K0)
        np.testing.assert_allclose(matrix(m[0]), np.eye(2), atol=1e-15)
        assert np.all(matrix(m[2]) == 0)
        assert np.all(matrix(m[3]) == 0)

    def test_static_part_matches_reflectivity_form(self):
        z = -1.0
        m = matrix(lone(z, K0)[0])
        r = 1j * z / (1 - 1j * z)
        t = 1 / (1 - 1j * z)
        expect = (1 / t) * np.array([[t**2 - r**2, r], [-r, 1]])
        np.testing.assert_allclose(m, expect, rtol=1e-14)
        assert abs(r) ** 2 == pytest.approx(0.5, rel=1e-6, abs=0)

    def test_doppler_part_sits_on_reflection_entries(self):
        z = -3.0
        _a, da, b, c, dc = lone(z, K0)
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
