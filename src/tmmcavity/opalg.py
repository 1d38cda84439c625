"""The one transfer-matrix kernel: static and first-order fields at the
mobile scatterer of one chain or of a batch of chains.

A 2x2 matrix is an entry tuple (m11, m12, m21, m22) of (P,) arrays or
numbers, with None for an entry that is zero by construction (`_mul`), so
one code path solves one chain (P = 1: one-element arrays) and a batch of
chains that differ in their segment lengths (a scan grid).

A scatterer moving at velocity v Doppler-shifts the light it reflects,
which at first order in v/c turns each entry of the composed matrix into
a differential operator in the wavenumber k, a(k) + (v/c)(b(k) + c(k) d/dk).
The first-order solve reads only a, a', b, c and c' at the pump
wavenumber: a jet, a 5-tuple of entry tuples with None for a zero part.
`_op_mul` composes jets in closed form (forward-mode differentiation), so
every derivative is analytic and no second-order part exists.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np
from .constants import hbar as HBAR

from .elements import Chain, PumpSpec, Scatterer
from .errors import SingularSolveError


def _dot(x1, y1, x2, y2):
    """x1 y1 + x2 y2, a None factor dropping its term; None if both drop."""
    t1 = None if x1 is None or y1 is None else x1 * y1
    t2 = None if x2 is None or y2 is None else x2 * y2
    return t2 if t1 is None else t1 if t2 is None else t1 + t2


def _mul(x, y):
    """2x2 product of entry tuples, None being a structural zero (an entry)
    or a zero matrix.

    Every non-zero term is summed in the order of the written-out product,
    so the result equals the dense one bit for bit.
    """
    if x is None or y is None:
        return None
    x11, x12, x21, x22 = x
    y11, y12, y21, y22 = y
    return (_dot(x11, y11, x12, y21), _dot(x11, y12, x12, y22),
            _dot(x21, y11, x22, y21), _dot(x21, y12, x22, y22))


def _add(x, y):
    """Entrywise sum of entry tuples, None being a structural zero."""
    if x is None or y is None:
        return y if x is None else x
    return tuple(v if u is None else u if v is None else u + v for u, v in zip(x, y))


def _inverse_entries(m: tuple) -> tuple:
    """Entry tuple of adj(m): m^-1 for unit-determinant m, and, adj being
    linear, the k-derivative of that inverse when m is the derivative."""
    m11, m12, m21, m22 = m
    return m22, -m12, -m21, m11


def _dense(m) -> tuple:
    """m with every structural zero (or a zero matrix None) as 0.0."""
    return (0.0,) * 4 if m is None else tuple(0.0 if e is None else e for e in m)


def _op_mul(x: tuple, y: tuple) -> tuple:
    """Product of two jets (a, a', b, c, c'), truncated at first order in v/c.

    For P = a1 + (v/c)(b1 + c1 d/dk) and Q = a2 + (v/c)(b2 + c2 d/dk):

        a  = a1 a2                      a' = a1' a2 + a1 a2'
        b  = b1 a2 + c1 a2' + a1 b2     (c1 a2' is d/dk acting on a2)
        c  = c1 a2 + a1 c2              c' = c1' a2 + c1 a2' + a1' c2 + a1 c2'
    """
    a1, da1, b1, c1, dc1 = x
    a2, da2, b2, c2, dc2 = y
    da = _add(_mul(da1, a2), _mul(a1, da2))
    if b1 is c1 is dc1 is b2 is c2 is dc2 is None:  # two static jets
        return _mul(a1, a2), da, None, None, None
    c1_da2 = _mul(c1, da2)
    return (_mul(a1, a2), da, _add(_add(_mul(b1, a2), c1_da2), _mul(a1, b2)),
            _add(_mul(c1, a2), _mul(a1, c2)),
            _add(_add(_add(_mul(dc1, a2), c1_da2), _mul(da1, c2)), _mul(a1, dc2)))


def _scatterer(z: complex) -> tuple:
    """Entries of the static scatterer matrix [[1+iz, iz], [-iz, 1-iz]]."""
    return 1 + 1j * z, 1j * z, -1j * z, 1 - 1j * z


def _factor(el, k0: float, deriv: bool) -> tuple:
    """(m, m'): entries of one element's matrix at k0 and, if `deriv`, of
    its k-derivative (None for a scatterer, which does not depend on k).

    `el` is a `Scatterer` or a segment length, a number or a (P,) array:
    free propagation diag(e^{ikd}, e^{-ikd}), with derivative
    diag(i d, -i d) times it.  e^{-ik0d} is the conjugate of e^{ik0d}: the
    same bits (cos is even and sin odd) for one complex exp instead of two;
    likewise -i d e^{-ik0d} is the conjugate of i d e^{ik0d}.
    """
    if isinstance(el, Scatterer):
        return _scatterer(el.pol.zeta), None
    fwd = np.exp(1j * k0 * el)
    if not deriv:
        return (fwd, None, None, np.conj(fwd)), None
    dfwd = 1j * el * fwd
    return (fwd, None, None, np.conj(fwd)), (dfwd, None, None, np.conj(dfwd))


def _element_entries(el, k0: float) -> tuple:
    """The dense entries (m11, m12, m21, m22) of the matrix of one
    `Scatterer` or `Segment` at k0, structural zeros as 0.0."""
    return _dense(_factor(el if isinstance(el, Scatterer) else el.length, k0, False)[0])


def _static_jet(m: tuple, dm) -> tuple:
    return m, dm, None, None, None


def _left_jet(elements, k0: float, deriv: bool) -> tuple:
    """(M1, M1'): the product of `elements`, left to right, and its
    k-derivative if `deriv`; the identity for no elements."""
    if not elements:
        return (1.0, None, None, 1.0), None
    m, dm = _factor(elements[0], k0, deriv)
    for el in elements[1:]:
        m, dm, _, _, _ = _op_mul(_static_jet(m, dm), _static_jet(*_factor(el, k0, deriv)))
    return m, dm


def _right_jet(elements, k0: float, deriv: bool) -> tuple:
    """(M2, M2') like `_left_jet`, composed right to left as right columns
    (the left column a structural zero): the solve reads no more."""
    if not elements:
        return (None, None, None, 1.0), None
    m, dm = _factor(elements[-1], k0, deriv)
    m, dm = (None, m[1], None, m[3]), None if dm is None else (None, dm[1], None, dm[3])
    for el in elements[-2::-1]:
        m, dm, _, _, _ = _op_mul(_static_jet(*_factor(el, k0, deriv)), _static_jet(m, dm))
    return m, dm


def _moving_scatterer(z: complex, k0: float) -> tuple:
    """Jet of the mobile scatterer at k0: the scatterer matrix, and the
    Doppler shift -2k v/c (receding) or +2k v/c (approaching) of reflected
    light as an operator 2 i zeta k d/dk on each off-diagonal (reflection)
    entry: c = 2 i zeta k and c' = 2 i zeta there, for a k-independent
    polarisability.  Transmission is unshifted."""
    c, dc = (2j * z * k0) * _OFF, (2j * z) * _OFF
    return _scatterer(z), None, None, (None, c[1], c[2], None), (None, dc[1], dc[2], None)


_OFF = np.array([0, 1, 1, 0], dtype=complex)


# ---------------------------------------------------------------------------
# closed-form solves at the mobile scatterer
# ---------------------------------------------------------------------------


def _right_face(a0, b0, z: complex) -> tuple:
    """(C, D) on the right face of a static scatterer from (A, B) on its
    left face; scalars or arrays."""
    return (1 - 1j * z) * a0 - 1j * z * b0, 1j * z * a0 + (1 + 1j * z) * b0


def _static_solution(m: tuple, m1: tuple, B0, z: complex) -> tuple:
    """(A0, B0f, C0f, D0f, out_left, out_right) under a left pump B0, from
    the right column (a, b) of the composed matrix m and the entries of
    the left side M1.

    With m = [[g, a], [d, b]] mapping the far-right amplitude pair to the
    far-left one and mu = (M1)^-1 (the adjugate: every element matrix, and
    so M1, has unit determinant):

        D_out = B0 / b,    out_left = a D_out,
        A0    = mu11 out_left + mu12 B0,    B0f = mu21 out_left + mu22 B0,

    and the right-face fields follow from the static scatterer relations.
    """
    _, a, _, b = m
    mu11, mu12, mu21, mu22 = _inverse_entries(m1)
    d_out = B0 / b
    a_out = a * d_out
    A0 = mu11 * a_out + mu12 * B0
    B0f = mu21 * a_out + mu22 * B0
    return (A0, B0f, *_right_face(A0, B0f, z), a_out, d_out)


def _static_force(a0, b0, z: complex, k0: float):
    """Static force from the left-face amplitudes; scalars or arrays."""
    az2 = abs(z) ** 2
    bracket = (
        (az2 + z.imag) * abs(a0) ** 2
        + (az2 - z.imag) * abs(b0) ** 2
        + 2 * ((az2 + 1j * z.real) * a0 * np.conj(b0)).real
    )
    return -2 * HBAR * k0 * bracket


def _first_order(comp: tuple, B0) -> tuple:
    """(al1, alt, p, q): the (v/c) parts al1 delta + alt delta' of the left
    output and p delta + q delta' of the right output under a left pump B0,
    from the right columns of the composed jet's a, a', b, c, c' (`comp`):

        d0 = B0/b,    q = -d0 bc/b,    p = [-d0 (bb - bc') + b' q]/b,

    with xb, xc the first-order scalar and d/dk parts of entry x; the left
    output follows from the top row.
    """
    ((_, a0, _, b0), (_, da0, _, db0), (_, ab, _, bb), (_, ac, _, bc),
     (_, dac, _, dbc)) = comp
    d_out0 = B0 / b0
    q = -(d_out0 * bc) / b0
    p = (-(d_out0 * (bb - dbc)) + db0 * q) / b0
    return d_out0 * (ab - dac) + a0 * p - da0 * q, d_out0 * ac + a0 * q, p, q


def _left_face(m1: tuple, dm1: tuple, al1, alt) -> tuple:
    """(A1, B1) on the mobile scatterer's left face from the left output
    al1 delta + alt delta', through (M1)^-1 of M1 and M1':
    f(k) delta'(k - k0) is f(k0) delta' - f'(k0) delta."""
    mu11, _, mu21, _ = _inverse_entries(m1)
    dmu11, _, dmu21, _ = _inverse_entries(dm1)
    return mu11 * al1 - dmu11 * alt, mu21 * al1 - dmu21 * alt


class _Solution(NamedTuple):
    """One left-pumped solve: `_static_solution`'s fields, the static force
    f0, the mask of singular points (beta_0 = m[3] zero or not finite, or a
    force or first-order field not finite), M1, the right columns of the
    composed matrix, of M2 and of M2', and (A1, B1, al1, p, q) if asked."""

    fields: tuple
    f0: np.ndarray
    singular: np.ndarray
    m1: tuple
    m: tuple
    m2: tuple
    dm2: tuple
    first: tuple | None


def _solve_left_pump(left, z: complex, right, k0: float, B0,
                     first_order: bool = False) -> _Solution:
    """The kernel: fields at a mobile scatterer of polarisability z under a
    pump B0 from the left, and their (v/c) parts if `first_order`.

    `left` and `right` are the elements on each side, each a `Scatterer`
    or a segment length (a number or a (P,) array, which makes a batch).
    The composed matrix is the jet product M1 MS^ M2.
    """
    ms = _moving_scatterer(z, k0) if first_order else _static_jet(_scatterer(z), None)
    m1, dm1 = _left_jet(left, k0, first_order)
    m2, dm2 = _right_jet(right, k0, first_order)
    # singular points divide by zero or overflow; the mask below marks them
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        comp = _op_mul(_op_mul(_static_jet(m1, dm1), ms), _static_jet(m2, dm2))
        m, m1 = comp[0], _dense(m1)
        fields = _static_solution(m, m1, B0, z)
        f0 = _static_force(fields[0], fields[1], z, k0)
        singular = (m[3] == 0) | ~np.isfinite(m[3]) | ~np.isfinite(f0)
        first = None
        if first_order:
            al1, alt, p, q = _first_order(tuple(_dense(part) for part in comp), B0)
            A1, B1 = _left_face(m1, _dense(dm1), al1, alt)
            # al1 and p feed A1 and B1, which stay finite only if they do
            singular = singular | ~np.isfinite(A1) | ~np.isfinite(B1)
            first = (A1, B1, al1, p, q)
    return _Solution(fields, f0, singular, m1, m, _dense(m2), _dense(dm2), first)


def _chain_fields(chain: Chain, pump: PumpSpec, first_order: bool = False) -> tuple:
    """(A0, B0f, C0f, D0f, out_left, out_right) at the mobile scatterer of
    one chain, as one-element arrays, followed by (A1, B1, out_left1,
    out_right1) if `first_order`; SingularSolveError where a grid writes NaN.

    The fields are linear in the pump: the left pump B0 is solved on the
    chain and the right pump C0 on the reversed chain (`_reversed_frame`),
    so a one-sided pump composes one orientation only.
    """
    k0, z = chain.k0, chain.mobile.pol.zeta
    elements = [el if isinstance(el, Scatterer) else np.array([el.length])
                for el in chain.elements]
    total = None
    for amp, reverse in ((pump.B0, False), (pump.C0, True)):
        if amp == 0 and (reverse or pump.C0 != 0):
            continue
        els = elements[::-1] if reverse else elements
        i = len(els) - 1 - chain.mobile_index if reverse else chain.mobile_index
        sol = _solve_left_pump(els[:i], z, els[i + 1:], k0, np.full(1, complex(amp)),
                               first_order)
        if sol.singular.any():
            b0 = complex(np.ravel(sol.m[3])[0])
            raise SingularSolveError(
                f"no transmission channel between pump and scatterer at k={k0} (composed "
                "matrix entry beta_0 vanished)" if b0 == 0 else
                f"the composed chain matrix overflowed at k={k0} (entry beta_0 is {b0}): "
                "the product of the element matrices exceeds the float64 range; "
                "reduce |zeta| of the strongest scatterers")
        if reverse:
            parts = _reversed_frame(sol, z)
        else:
            parts = sol.fields + (sol.first[:4] if first_order else ())
        total = parts if total is None else tuple(x + y for x, y in zip(total, parts))
    return total


def _reversed_frame(sol: _Solution, z: complex) -> tuple:
    """`_chain_fields`' parts of a solve of the reversed chain, in the
    chain's own frame.

    The reversed chain's scatterer moves at -v, so the ports swap and the
    (v/c) parts change sign.  The chain's left face (A, B) is the reversed
    chain's right face (D, C): its right side M2 times its right output
    d0 delta + (v/c)(p delta + q delta'), where f(k) delta' is f(k0) delta'
    - f'(k0) delta.  Products only, so a side without elements gives B = 0
    exactly.  The right face follows from the scatterer relations.
    """
    _, _, _, _, out_left, out_right = sol.fields
    m2, dm2 = sol.m2, sol.dm2
    A0, B0f = m2[3] * out_right, m2[1] * out_right
    parts = (A0, B0f, *_right_face(A0, B0f, z), out_right, out_left)
    if sol.first is None:
        return parts
    _, _, al1, p, q = sol.first
    return parts + (dm2[3] * q - m2[3] * p, dm2[1] * q - m2[1] * p, -p, -al1)
