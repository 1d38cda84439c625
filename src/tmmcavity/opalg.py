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

Every array of a jet is one 2x2 matrix.  A batch of chains (a scan grid,
say) is composed instead on entry tuples (m11, m12, m21, m22) of (P,)
arrays, with None for a structurally zero entry (`_mul`), so each product
skips the terms known to vanish.
"""

from __future__ import annotations

import numpy as np

from .errors import WavenumberError

__all__ = [
    "VOMatrix",
    "vo_mul",
    "moving_scatterer_matrix",
]

_ZERO = np.zeros((2, 2), dtype=complex)
_ZERO.flags.writeable = False


def _dot(x1, y1, x2, y2):
    """x1 y1 + x2 y2, a None factor dropping its term; None if both drop."""
    t1 = None if x1 is None or y1 is None else x1 * y1
    t2 = None if x2 is None or y2 is None else x2 * y2
    return t2 if t1 is None else t1 if t2 is None else t1 + t2


def _mul(x: tuple, y: tuple) -> tuple:
    """2x2 product of entry tuples, None being a structural zero.

    Every non-zero term is summed in the order of the written-out product,
    so the result equals the dense one bit for bit.
    """
    x11, x12, x21, x22 = x
    y11, y12, y21, y22 = y
    return (_dot(x11, y11, x12, y21), _dot(x11, y12, x12, y22),
            _dot(x21, y11, x22, y21), _dot(x21, y12, x22, y22))


def _add(x: tuple, y: tuple) -> tuple:
    """Entrywise sum of entry tuples free of None."""
    return tuple(u + v for u, v in zip(x, y))


def _entries(m: np.ndarray) -> tuple:
    """(m11, m12, m21, m22) of one 2x2 matrix, as numpy scalars."""
    return m[0, 0], m[0, 1], m[1, 0], m[1, 1]


def _inverse_entries(m: tuple) -> tuple:
    """Entry tuple of adj(m): m^-1 for unit-determinant m, and, adj being
    linear, the k-derivative of that inverse when m is the derivative."""
    m11, m12, m21, m22 = m
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
    a = a1 @ a2
    da = da1 @ a2 + a1 @ da2
    if left.is_static and right.is_static:
        return VOMatrix(left.k, a, da)
    b1, c1, dc1 = left.b, left.c, left.dc
    b2, c2, dc2 = right.b, right.c, right.dc
    c1_da2 = c1 @ da2
    return VOMatrix(
        left.k,
        a,
        da,
        b=b1 @ a2 + c1_da2 + a1 @ b2,
        c=c1 @ a2 + a1 @ c2,
        dc=dc1 @ a2 + c1_da2 + da1 @ c2 + a1 @ dc2,
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
