"""The one transfer-matrix kernel: static and first-order fields at the
mobile scatterer of one chain or of a batch of chains.

A 2x2 matrix is an entry tuple (m11, m12, m21, m22) of (P,) arrays or
numbers, with None for an entry that is zero by construction (`_mul`), so
one code path solves one chain (P = 1: one-element arrays) and a batch of
chains that differ in their segment lengths (a scan grid).

A chain is M1 MS^ M2: static products M1 and M2 on each side of the one
mobile scatterer MS^.  Moving at velocity v it Doppler-shifts the light it
reflects, which at first order in v/c turns each entry of the composed
matrix into a differential operator in the wavenumber k, a(k) + (v/c)(b(k)
+ c(k) d/dk).  The first-order solve reads only a, a', b, c and c' at the
pump wavenumber, which `_composed` forms in closed form from M1, M2 and
their k-derivatives (`_product`), so every derivative is analytic.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np
from .constants import hbar as HBAR

from .elements import Chain, PumpSpec, Scatterer
from .errors import ChainError, SingularSolveError


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


def _dense(m) -> tuple:
    """m with every structural zero (or a zero matrix None) as 0.0."""
    return (0.0,) * 4 if m is None else tuple(0.0 if e is None else e for e in m)


def _product(x, dx, y, dy) -> tuple:
    """(x y, x' y + x y'): a matrix product and its k-derivative."""
    return _mul(x, y), _add(_mul(dx, y), _mul(x, dy))


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


def _left_jet(elements, k0: float, deriv: bool) -> tuple:
    """(M1, M1'): the product of `elements`, left to right, and its
    k-derivative if `deriv`; the identity for no elements."""
    if not elements:
        return (1.0, None, None, 1.0), None
    m, dm = _factor(elements[0], k0, deriv)
    for el in elements[1:]:
        m, dm = _product(m, dm, *_factor(el, k0, deriv))
    return m, dm


def _right_jet(elements, k0: float, deriv: bool) -> tuple:
    """(M2, M2') like `_left_jet`, composed right to left as right columns
    (the left column a structural zero): the solve reads no more."""
    if not elements:
        return (None, None, None, 1.0), None
    m, dm = _factor(elements[-1], k0, deriv)
    m, dm = (None, m[1], None, m[3]), None if dm is None else (None, dm[1], None, dm[3])
    for el in elements[-2::-1]:
        m, dm = _product(*_factor(el, k0, deriv), m, dm)
    return m, dm


def _composed(m1, dm1, z: complex, k0: float, m2, dm2) -> tuple:
    """(a, a', b, c, c') of M1 MS^ M2 at k0, for the side products M1, M2
    and their k-derivatives, and a mobile scatterer of polarisability z.

    MS^ is the scatterer matrix S plus the Doppler shift -2k v/c (receding)
    or +2k v/c (approaching) of reflected light: an operator C d/dk with
    C = 2 i zeta k on each off-diagonal (reflection) entry, so C' = 2 i
    zeta there for a k-independent polarisability.  Transmission is
    unshifted.  M1 and M2 do not move, so d/dk acting on M2 leaves b = M1
    C M2' as the only scalar first-order part.
    """
    s, c, dc = _scatterer(z), (2j * z * k0) * _OFF, (2j * z) * _OFF
    c, dc = (None, c[1], c[2], None), (None, dc[1], dc[2], None)
    a_x, da_x, c_x = _mul(m1, s), _mul(dm1, s), _mul(m1, c)
    dc_x = _add(_mul(dm1, c), _mul(m1, dc))
    b = _mul(c_x, dm2)
    return (_mul(a_x, m2), _add(_mul(da_x, m2), _mul(a_x, dm2)), b, _mul(c_x, m2),
            _add(_mul(dc_x, m2), b))


_OFF = np.array([0, 1, 1, 0], dtype=complex)


# ---------------------------------------------------------------------------
# closed-form solves at the mobile scatterer
# ---------------------------------------------------------------------------


def _apply(m: tuple, x, y) -> tuple:
    """The entry tuple m applied to the column (x, y)."""
    return m[0] * x + m[1] * y, m[2] * x + m[3] * y


def _right_face(a0, b0, z: complex) -> tuple:
    """(C, D) on the right face of a static scatterer from (A, B) on its
    left face; scalars or arrays."""
    return (1 - 1j * z) * a0 - 1j * z * b0, 1j * z * a0 + (1 + 1j * z) * b0


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
    """(al1, p, q): the (v/c) part al1 delta of the left output and p delta
    + q delta' of the right output under a left pump B0, from the right
    columns of the composed a, a', b, c, c' (`comp`, `_composed`):

        d0 = B0/b,    q = -d0 bc/b,    p = [-d0 (bb - bc') + b' q]/b,

    with xb, xc the first-order scalar and d/dk parts of entry x; the left
    output follows from the top row.
    """
    ((_, a0, _, b0), (_, da0, _, db0), (_, ab, _, bb), (_, ac, _, bc),
     (_, dac, _, dbc)) = comp
    d_out0 = B0 / b0
    q = -(d_out0 * bc) / b0
    p = (-(d_out0 * (bb - dbc)) + db0 * q) / b0
    return d_out0 * (ab - dac) + a0 * p - da0 * q, p, q


class _Solution(NamedTuple):
    """One left-pumped solve: the pump B0, the fields (A0, B0f, C0f, D0f,
    out_left, out_right), the static force f0, the mask of singular points
    (beta_0 = m[3] zero or not finite, or a force or first-order field not
    finite), M1, the composed matrix m, and the (v/c) parts (A1, B1, C1,
    D1, out_left1, out_right1) if asked.  A two-sided sum
    (`_pump_solution`) keeps its left solve's fields at a unit pump in
    `unit`; elsewhere they are fields / pump."""

    pump: complex | np.ndarray
    fields: tuple
    f0: np.ndarray
    singular: np.ndarray
    m1: tuple
    m: tuple
    first: tuple | None
    unit: tuple | None = None


def _solve_left_pump(left, z: complex, right, k0: float, B0,
                     first_order: bool = False) -> _Solution:
    """The kernel: fields at a mobile scatterer of polarisability z under a
    pump B0 from the left, and their (v/c) parts if `first_order`.

    `left` and `right` are the elements on each side, each a `Scatterer`
    or a segment length (a number or a (P,) array, which makes a batch).
    The composed matrix m = M1 MS^ M2 maps the far-right amplitude pair to
    the far-left one, so its right column (a, b) gives the outputs
    out_right = B0/b and out_left = a out_right.  Every field at the
    scatterer comes from its unpumped side: the right face is M2's right
    column times out_right, and the left face follows through the
    scatterer.  Products only, so no cancellation of the pumped side's
    growing entries enters.  With nothing on the pumped side the left face
    is the port itself, (out_left, B0).

    At first order the right output is out_right delta + (v/c)(p delta +
    q delta'), and f(k) delta'(k - k0) is f(k0) delta' - f'(k0) delta, so
    the right face's (v/c) part is p M2 - q M2' on the right columns.  The
    moving scatterer adds its Doppler source: its d/dk part 2 i z k on the
    reflection entries leaves -2 i z times the crossed static fields.
    """
    m1, dm1 = _left_jet(left, k0, first_order)
    m2, dm2 = _right_jet(right, k0, first_order)
    s = _scatterer(z)
    # singular points divide by zero or overflow; the mask below marks them
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        comp = _composed(m1, dm1, z, k0, m2, dm2) if first_order else (_mul(_mul(m1, s), m2),)
        m = comp[0]
        _, m2c, _, m2d = _dense(m2)
        d_out = B0 / m[3]
        a_out = m[1] * d_out
        C0f, D0f = m2c * d_out, m2d * d_out
        A0, B0f = _apply(s, C0f, D0f) if left else (a_out, B0)
        f0 = _static_force(A0, B0f, z, k0)
        singular = (m[3] == 0) | ~np.isfinite(m[3]) | ~np.isfinite(f0)
        first = None
        if first_order:
            al1, p, q = _first_order(tuple(_dense(part) for part in comp), B0)
            _, dm2c, _, dm2d = _dense(dm2)
            C1, D1 = p * m2c - q * dm2c, p * m2d - q * dm2d
            if left:
                sc1, sd1 = _apply(s, C1, D1)
                A1, B1 = sc1 - 2j * z * D0f, sd1 - 2j * z * C0f
            else:
                A1, B1 = al1, np.zeros_like(al1)
            # p and q feed every first-order field, finite only if they are
            singular = singular | ~np.isfinite(A1) | ~np.isfinite(B1)
            first = (A1, B1, C1, D1, al1, p)
    return _Solution(B0, (A0, B0f, C0f, D0f, a_out, d_out), f0, singular, _dense(m1), m,
                     first)


def _pump_solution(elements, index: int, k0: float, pump: PumpSpec,
                   first_order: bool = False) -> tuple:
    """(solution, reversed): the kernel's solve of an element list under
    `pump`, and whether its fields are in the reversed list's frame.  The
    one reader of a `PumpSpec`'s amplitudes and wavelength.

    `elements` holds `Scatterer`s and segment lengths, numbers or (P,)
    arrays (a batch), with the mobile scatterer at `index`.  The fields are
    linear in the pump: the left pump B0 is solved on the list and the
    right pump C0 on the reversed list, whose scatterer moves at -v.  So a
    pump with amplitude on the right alone composes only the reversed
    orientation, and a zero pump only the list's own.  A two-sided pump
    sums its two solves in the list's own frame, with the static force of
    the sum, the left solve's pump, unit-pump fields and matrices, and the
    singular points of either.  F0 is in the list's own frame in every
    case.  Raises ChainError for a pump whose wavelength is not the list's
    2 pi / k0 to rounding: its photon flux would not be that of the solved
    fields.
    """
    if not math.isclose(pump.k0, k0, rel_tol=1e-15):
        raise ChainError(f"pump wavelength {pump.wavelength} m differs from the chain's "
                         f"2 pi / k0 = {2 * math.pi / k0} m")
    z = elements[index].pol.zeta
    solves = []
    for amp, reverse in ((pump.B0, False), (pump.C0, True)):
        if amp != 0 or (not reverse and pump.C0 == 0):  # a zero pump from the left
            els = elements[::-1] if reverse else elements
            i = len(els) - 1 - index if reverse else index
            solves.append((_solve_left_pump(els[:i], z, els[i + 1:], k0,
                                            np.full(1, complex(amp)), first_order), reverse))
    sol, reverse = solves[0]
    if len(solves) == 1:
        return (sol._replace(f0=-sol.f0) if reverse else sol), reverse
    left, right = (s.fields + (s.first or ()) for s, _ in solves)
    total = tuple(x + y for x, y in zip(left, _reversed_frame(right)))
    with np.errstate(over="ignore", invalid="ignore"):  # the finish marks overflow
        f0 = _static_force(total[0], total[1], z, k0)
    return sol._replace(fields=total[:6], f0=f0, first=total[6:] or None,
                        singular=sol.singular | solves[1][0].singular,
                        unit=tuple(f / sol.pump for f in sol.fields[:4])), False


def _chain_solution(chain: Chain, pump: PumpSpec, first_order: bool = False) -> tuple:
    """`_pump_solution` of one chain at P = 1 (its segment lengths as
    one-element arrays); SingularSolveError where the kernel marks it
    singular."""
    elements = [el if isinstance(el, Scatterer) else np.array([el.length])
                for el in chain.elements]
    solution, reverse = _pump_solution(elements, chain.mobile_index, chain.k0, pump, first_order)
    if solution.singular.any():
        raise _singular_error(solution, chain.k0)
    return solution, reverse


def _singular_error(solution: _Solution, k0: float) -> SingularSolveError:
    """The error of a singular one-chain solve, naming its cause."""
    b0 = complex(np.ravel(solution.m[3])[0])
    if b0 == 0:
        return SingularSolveError(f"no transmission channel between pump and scatterer at "
                                  f"k={k0} (composed matrix entry beta_0 vanished)")
    if np.isfinite(b0):
        return SingularSolveError(
            f"the fields at the scatterer overflow float64 in the force or noise terms at "
            f"k={k0} (entry beta_0 is {b0}); reduce the pump power")
    return SingularSolveError(
        f"the composed chain matrix overflowed at k={k0} (entry beta_0 is {b0}): "
        "the product of the element matrices exceeds the float64 range; "
        "reduce |zeta| of the strongest scatterers")


def _chain_fields(chain: Chain, pump: PumpSpec, first_order: bool = False) -> tuple:
    """The fields (A0, B0f, C0f, D0f, out_left, out_right) of `_chain_solution`
    in the chain's own frame, then their (v/c) parts if `first_order`."""
    sol, reverse = _chain_solution(chain, pump, first_order)
    parts = sol.fields + (sol.first or ())
    return _reversed_frame(parts) if reverse else parts


def _reversed_frame(parts: tuple) -> tuple:
    """`_chain_fields`' parts of a solve of the reversed chain, in the
    chain's own frame: a relabelling.

    The chain's left face (A, B) is the reversed chain's right face (D, C),
    its right face (C, D) the reversed left face (B, A), and the ports
    swap: (A, B, C, D, out_left, out_right) become (D, C, B, A, out_right,
    out_left).  The reversed chain's scatterer moves at -v, so the (v/c)
    parts also change sign.
    """
    static = tuple(parts[i] for i in _SWAP)
    return static + tuple(-parts[6 + i] for i in _SWAP[:len(parts) - 6])


_SWAP = (3, 2, 1, 0, 5, 4)
