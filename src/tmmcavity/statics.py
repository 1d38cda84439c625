"""Static (v = 0) fields, radiation force, and analytic cavity couplings.

Field naming follows the layout around the mobile scatterer: `A0` is the
leftward-going amplitude on its left face, `B0f` the rightward-going one
(the pump side for left pumping); `C0f` and `D0f` are the leftward- and
rightward-going amplitudes on the right face.  All are in sqrt(photon flux)
units, so ``hbar * k0 * |amp|^2`` is a momentum flux in newtons.

The membrane-in-a-cavity resonance shifts and the linear and quadratic
optomechanical couplings are evaluated from their closed forms, valid in
the good-cavity limit; the inverse tangent is taken two-argument so the two
branches come out a free spectral range apart, and scans in x are unwrapped
continuously anchored at x = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from .constants import c as C_LIGHT, hbar as HBAR

from .elements import Chain, Polarisability, PumpSpec, element_matrix
from .errors import SingularSolveError
from .opalg import _entries, _inverse_entries

__all__ = [
    "StaticFields",
    "CouplingReport",
    "solve_static",
    "static_force",
    "resonance_shifts",
    "couplings",
]


@dataclass(frozen=True)
class StaticFields:
    """Velocity-independent amplitudes around the mobile scatterer."""

    A0: complex
    B0f: complex
    C0f: complex
    D0f: complex
    out_left: complex
    out_right: complex

    @property
    def intensity(self) -> float:
        """|A0 + B0f|^2: coherent field intensity on the left face.

        This is the standing-wave intensity at the scatterer plane; use
        |A0|^2 + |B0f|^2 instead for the incoherent sum of the two
        travelling waves.
        """
        return abs(self.A0 + self.B0f) ** 2


def _check_transmission_channel(b0: complex, k: float):
    if not (math.isfinite(b0.real) and math.isfinite(b0.imag)):
        raise SingularSolveError(
            f"the composed chain matrix overflowed at k={k} (entry beta_0 is "
            f"{b0}): the product of the element matrices exceeds the float64 "
            "range; reduce |zeta| of the strongest scatterers"
        )
    if b0 == 0:
        raise SingularSolveError(
            f"no transmission channel between pump and scatterer at k={k} "
            "(composed matrix entry beta_0 vanished)"
        )


def _static_solution(m: tuple, m1: tuple, B0: complex, C0: complex, z: complex) -> tuple:
    """(A0, B0f, C0f, D0f, out_left, out_right) from the entry tuples of the
    composed matrix m and of the left side M1 of the chain.

    Plain elementwise arithmetic: one chain passes the `_entries` of its
    2x2 matrices and gets numpy scalars, a grid passes (P,) arrays and gets
    (P,) arrays.
    """
    g, a, d, b = m
    mu11, mu12, mu21, mu22 = _inverse_entries(m1)
    d_out = (B0 - d * C0) / b
    a_out = g * C0 + a * d_out
    A0 = mu11 * a_out + mu12 * B0
    B0f = mu21 * a_out + mu22 * B0
    C0f = (1 - 1j * z) * A0 - 1j * z * B0f
    D0f = 1j * z * A0 + (1 + 1j * z) * B0f
    return A0, B0f, C0f, D0f, a_out, d_out


def solve_static(chain: Chain, pump: PumpSpec) -> StaticFields:
    """Solve the v = 0 scattering problem for the fields at the scatterer.

    With the composed chain matrix [[g, a], [d, b]] mapping the far-right
    amplitude pair to the far-left one, and mu = (M1)^-1:

        D_out = (B0 - d C0) / b
        A0    = (mu11 a / b + mu12) B0 + mu11 (g b - a d) / b * C0

    and the right-face fields follow from the static scatterer relations.
    The composition is done directly on the numeric element matrices.
    """
    k0 = chain.k0
    m1 = np.eye(2, dtype=complex)
    for el in chain.elements[: chain.mobile_index]:
        m1 = m1 @ element_matrix(el, k0)
    m2 = np.eye(2, dtype=complex)
    for el in chain.elements[chain.mobile_index + 1 :]:
        m2 = m2 @ element_matrix(el, k0)
    ms = element_matrix(chain.mobile, k0)
    # a singular chain may overflow here; the checks below report it as a
    # SingularSolveError instead of a RuntimeWarning
    with np.errstate(over="ignore", invalid="ignore"):
        m = m1 @ ms @ m2
    _check_transmission_channel(m[1, 1], k0)
    A0, B0f, C0f, D0f, a_out, d_out = _static_solution(
        _entries(m), _entries(m1), complex(pump.B0), complex(pump.C0), chain.mobile.pol.zeta
    )

    for val in (A0, B0f, d_out, a_out):
        if not (math.isfinite(val.real) and math.isfinite(val.imag)):
            raise SingularSolveError(f"static solve diverged at k={k0}")

    return StaticFields(
        A0=A0, B0f=B0f, C0f=C0f, D0f=D0f, out_left=a_out, out_right=d_out
    )


def _static_force(a0, b0, z: complex, k0: float):
    """Static force from the left-face amplitudes; scalars or arrays."""
    az2 = abs(z) ** 2
    bracket = (
        (az2 + z.imag) * abs(a0) ** 2
        + (az2 - z.imag) * abs(b0) ** 2
        + 2 * ((az2 + 1j * z.real) * a0 * np.conj(b0)).real
    )
    return -2 * HBAR * k0 * bracket


def static_force(fields: StaticFields, pol: Polarisability, k0: float) -> float:
    """Static radiation force on the scatterer, in newtons (+x rightward).

    Equivalent to the net photon-momentum flux
    hbar k0 (|A0|^2 + |B0f|^2 - |C0f|^2 - |D0f|^2) delivered to the
    scatterer, written out in terms of the left-face amplitudes only.
    """
    z = pol.zeta if isinstance(pol, Polarisability) else complex(pol)
    return _static_force(fields.A0, fields.B0f, z, k0)


# ---------------------------------------------------------------------------
# analytic resonance shifts and optomechanical couplings
# ---------------------------------------------------------------------------


def _branch_angle(zeta: float, u: np.ndarray, branch: int) -> np.ndarray:
    """Two-argument inverse tangent of the resonance-shift closed form.

    `u` is 2 k0 x; branch +1 takes (num, den) = (z^2 cos u + R, z(cos u - R))
    and branch -1 the opposite root pairing, with R = sqrt(1 + z^2 sin^2 u).
    The two branches differ by pi, i.e. one free spectral range.
    """
    s, co = np.sin(u), np.cos(u)
    root = np.sqrt(1.0 + zeta**2 * s**2)
    if branch >= 0:
        num = zeta**2 * co + root
        den = zeta * (co - root)
    else:
        num = zeta**2 * co - root
        den = zeta * (co + root)
    return np.arctan2(num, den)


def _unwrap_anchored(theta: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Unwrap an angle scan continuously, anchored at the point nearest x=0."""
    theta = np.atleast_1d(theta).astype(float)
    if theta.size == 1:
        return theta
    unwrapped = np.unwrap(theta)
    i0 = int(np.argmin(np.abs(np.atleast_1d(x))))
    # re-anchor so the value nearest x = 0 keeps its principal branch
    shift = round((unwrapped[i0] - theta[i0]) / (2 * np.pi))
    return unwrapped - 2 * np.pi * shift


def resonance_shifts(zeta: float, x, L_c: float, k0: float):
    """Resonance frequency shifts (rad/s) of the two branch families.

    Evaluates, for both signs of the root,

        dW = (c/L_c) atan2(z^2 cos(2 k0 x) +/- R,
                           z [cos(2 k0 x) -/+ R]),   R = sqrt(1+z^2 sin^2),

    which places the branches one free spectral range (pi c / L_c) apart as
    zeta -> 0.  Scalar x gives the principal values; an array x is treated
    as a scan and unwrapped continuously, anchored at the sample nearest
    x = 0.  Returns (plus_branch, minus_branch).
    """
    if zeta == 0.0:
        # bare-cavity limit: branches sit half an FSR either side of the
        # formula's reference, with no x dependence
        base = np.broadcast_to(np.pi / 2, np.shape(np.atleast_1d(x))).astype(float)
        plus = base * (C_LIGHT / L_c)
        minus = -base * (C_LIGHT / L_c)
        if np.isscalar(x):
            return float(plus[0]), float(minus[0])
        return plus, minus

    xa = np.atleast_1d(np.asarray(x, dtype=float))
    u = 2.0 * k0 * xa
    out = []
    for branch in (+1, -1):
        theta = _branch_angle(float(zeta), u, branch)
        if xa.size > 1:
            theta = _unwrap_anchored(theta, xa)
        out.append((C_LIGHT / L_c) * theta)
    if np.isscalar(x):
        return float(out[0][0]), float(out[1][0])
    return out[0], out[1]


@dataclass(frozen=True)
class CouplingReport:
    """Resonance shifts and position couplings at one membrane position.

    `omega_prime` (rad/s per metre) and `omega_double_prime` (rad/s per
    metre^2) are the first and second x-derivatives of the plus-branch
    resonance shift; the minus branch carries the opposite signs.
    """

    delta_omega_plus: float
    delta_omega_minus: float
    omega_prime: float
    omega_double_prime: float


def couplings(zeta: float, x: float, L_c: float, k0: float) -> CouplingReport:
    """Linear and quadratic optomechanical couplings at membrane position x.

        omega'  = +(2 k0 c / L_c)   zeta sin(2 k0 x) / (1+z^2 sin^2)^(1/2)
        omega'' = +(4 k0^2 c / L_c) zeta cos(2 k0 x) / (1+z^2 sin^2)^(3/2)

    for the plus branch (signs flip together on the other branch).  The
    linear coupling is bounded by 2 k0 c / L_c however large |zeta| grows,
    while the quadratic one peaks, proportionally to |zeta|, wherever
    omega' = 0; the two never vanish at the same x.
    """
    u = 2.0 * k0 * x
    s, co = math.sin(u), math.cos(u)
    denom = 1.0 + zeta**2 * s**2
    w1 = (2.0 * k0 * C_LIGHT / L_c) * zeta * s / math.sqrt(denom)
    w2 = (4.0 * k0**2 * C_LIGHT / L_c) * zeta * co / denom**1.5
    dplus, dminus = resonance_shifts(zeta, x, L_c, k0)
    return CouplingReport(
        delta_omega_plus=dplus,
        delta_omega_minus=dminus,
        omega_prime=w1,
        omega_double_prime=w2,
    )
