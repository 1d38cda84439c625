"""First-order jets of 2x2 transfer matrices for a slowly moving scatterer.

A static element relates the counter-propagating field amplitudes on its two
sides by an ordinary complex 2x2 matrix.  A scatterer moving at velocity v
Doppler-shifts the light it reflects, which at first order in v/c turns each
matrix entry into a differential operator in the wavenumber k:

    entry = a(k) + (v/c) * ( b(k) + c(k) * d/dk )

The first-order solve only ever reads five 2x2 arrays at the pump
wavenumber k0: a, its k-derivative a', b, c and c'.  A `VOMatrix` is that
jet: k plus the five arrays.  Composition is closed over them (forward-mode
differentiation with dual numbers), so a chain product costs a fixed number
of small matrix products per factor and every derivative stays analytic.

Truncation at (v/c)^1 is structural: no second-order storage exists, so no
composition can ever produce second-order terms.  Jets are immutable by
convention (their arrays are never written after construction) and safe to
share between threads.

Every array of a jet is either one 2x2 matrix or a stack of shape (N, 2, 2),
one matrix per point of a batch (a scan grid, say); a single matrix
broadcasts against a stack, so fixed elements need no copies.
"""

from __future__ import annotations

import operator

import numpy as np

from .errors import WavenumberError

__all__ = [
    "VOMatrix",
    "vo_mul",
    "moving_scatterer_matrix",
]

_ZERO = np.zeros((2, 2), dtype=complex)
_ZERO.flags.writeable = False


def _mm(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """2x2 matrix product, entrywise over a leading batch axis.

    A single pair goes through `@`; for stacks the four written-out entries
    are ~10x faster than `np.matmul` on (N, 2, 2).
    """
    if x.ndim == 2 and y.ndim == 2:
        return x @ y
    x11, x12, x21, x22 = x[..., 0, 0], x[..., 0, 1], x[..., 1, 0], x[..., 1, 1]
    y11, y12, y21, y22 = y[..., 0, 0], y[..., 0, 1], y[..., 1, 0], y[..., 1, 1]
    out = np.empty(np.broadcast_shapes(x.shape, y.shape), dtype=complex)
    out[..., 0, 0] = x11 * y11 + x12 * y21
    out[..., 0, 1] = x11 * y12 + x12 * y22
    out[..., 1, 0] = x21 * y11 + x22 * y21
    out[..., 1, 1] = x21 * y12 + x22 * y22
    return out


def _entries(m: np.ndarray) -> tuple:
    """(m11, m12, m21, m22): numpy scalars of one matrix, (N,) arrays of a stack."""
    if m.ndim == 2:
        return m[0, 0], m[0, 1], m[1, 0], m[1, 1]
    return m[:, 0, 0], m[:, 0, 1], m[:, 1, 0], m[:, 1, 1]


def _inverse_entries(m: np.ndarray) -> tuple:
    """`_entries` of adj(m): m^-1 for unit-determinant m, and, adj being
    linear, the k-derivative of that inverse when m is the derivative."""
    m11, m12, m21, m22 = _entries(m)
    return m22, -m12, -m21, m11


class VOMatrix:
    """First-order jet of an operator-valued 2x2 matrix at one wavenumber.

    Holds, at wavenumber `k`, the static value `a` and its k-derivative
    `da`, the first-order scalar part `b`, and the d/dk coefficient `c`
    with its k-derivative `dc`.  Omitted first-order parts are zero, which
    makes the jet static.
    """

    __slots__ = ("k", "a", "da", "b", "c", "dc")

    def __init__(self, k: float, a, da=_ZERO, b=_ZERO, c=_ZERO, dc=_ZERO):
        self.k = k
        self.a = a
        self.da = da
        self.b = b
        self.c = c
        self.dc = dc

    @property
    def is_static(self) -> bool:
        return self.b is _ZERO and self.c is _ZERO and self.dc is _ZERO

    @staticmethod
    def identity(k: float) -> "VOMatrix":
        return VOMatrix(k, np.eye(2, dtype=complex))

    def __matmul__(self, other: "VOMatrix") -> "VOMatrix":
        return vo_mul(self, other)

    # ---- evaluation at the jet's wavenumber ----

    def _check(self, k: float):
        if k != self.k:
            raise WavenumberError(
                f"jet built at k={self.k!r} cannot be evaluated at k={k!r}; "
                "build it at that wavenumber instead"
            )

    def static_at(self, k: float) -> np.ndarray:
        """Zeroth-order part: plain matrix a(k)."""
        self._check(k)
        return self.a

    def static_deriv_at(self, k: float) -> np.ndarray:
        """Entrywise a'(k)."""
        self._check(k)
        return self.da

    def first_scalar_at(self, k: float) -> np.ndarray:
        """First-order scalar part b(k)."""
        self._check(k)
        return self.b

    def first_deriv_at(self, k: float) -> np.ndarray:
        """First-order d/dk coefficient c(k)."""
        self._check(k)
        return self.c

    def first_deriv_deriv_at(self, k: float) -> np.ndarray:
        """Entrywise c'(k)."""
        self._check(k)
        return self.dc


def vo_mul(left: VOMatrix, right: VOMatrix) -> VOMatrix:
    """Product of two jets, truncated at first order in v/c.

    For P = a1 + (v/c)(b1 + c1 d/dk) and Q = a2 + (v/c)(b2 + c2 d/dk):

        a  = a1 a2                      a' = a1' a2 + a1 a2'
        b  = b1 a2 + c1 a2' + a1 b2     (c1 a2' is d/dk acting on a2)
        c  = c1 a2 + a1 c2              c' = c1' a2 + c1 a2' + a1' c2 + a1 c2'
    """
    left._check(right.k)
    a1, da1, a2, da2 = left.a, left.da, right.a, right.da
    # a jet's first-order parts never have more axes than its static part
    mm = operator.matmul if a1.ndim == a2.ndim == 2 else _mm
    a = mm(a1, a2)
    da = mm(da1, a2) + mm(a1, da2)
    if left.is_static and right.is_static:
        return VOMatrix(left.k, a, da)
    b1, c1, dc1 = left.b, left.c, left.dc
    b2, c2, dc2 = right.b, right.c, right.dc
    c1_da2 = mm(c1, da2)
    return VOMatrix(
        left.k,
        a,
        da,
        b=mm(b1, a2) + c1_da2 + mm(a1, b2),
        c=mm(c1, a2) + mm(a1, c2),
        dc=mm(dc1, a2) + c1_da2 + mm(da1, c2) + mm(a1, dc2),
    )


def moving_scatterer_matrix(zeta, k: float) -> VOMatrix:
    """Jet of the mobile scatterer's transfer matrix at wavenumber k.

    The static part is the usual [[1+iz, iz], [-iz, 1-iz]].  Reflection off
    the moving scatterer Doppler-shifts the wavenumber by -2k v/c (receding)
    or +2k v/c (approaching), while transmission is unshifted; on the
    spectral amplitudes this puts an operator 2 i zeta k d/dk, at first
    order, on each off-diagonal (reflection) entry and leaves the diagonal
    static: c = 2 i zeta k and c' = 2 i zeta off the diagonal.  Requires a
    k-independent polarisability.
    """
    z = complex(getattr(zeta, "zeta", zeta))
    off = np.array([[0, 1], [1, 0]], dtype=complex)
    return VOMatrix(
        k,
        np.array([[1 + 1j * z, 1j * z], [-1j * z, 1 - 1j * z]], dtype=complex),
        c=(2j * z * k) * off,
        dc=(2j * z) * off,
    )
