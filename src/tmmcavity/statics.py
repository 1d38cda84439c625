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
from .constants import c as C_LIGHT

from .elements import Chain, Polarisability, PumpSpec
from .opalg import _chain_fields, _static_force

__all__ = [
    "StaticFields",
    "CouplingReport",
    "solve_static",
    "static_force",
    "resonance_shifts",
    "couplings",
]


@dataclass(frozen=True, slots=True)
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


def solve_static(chain: Chain, pump: PumpSpec) -> StaticFields:
    """Solve the v = 0 scattering problem for the fields at the scatterer:
    the kernel `opalg._solve_left_pump` on the chain (the closed form is
    in its docstring), a right pump on the reversed chain.  Raises
    SingularSolveError where the chain matrix entry beta_0 vanishes or the
    solve does not stay finite.
    """
    return StaticFields(*(x[0] for x in _chain_fields(chain, pump)))


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


def _branch_angles(zeta: float, u: np.ndarray) -> np.ndarray:
    """Two-argument inverse tangents of the resonance-shift closed form,
    both branches as one (2, n) array.

    `u` is 2 k0 x; branch +1 (row 0) takes (num, den) = (z^2 cos u + R,
    z(cos u - R)) and branch -1 (row 1) the opposite root pairing, with
    R = sqrt(1 + z^2 sin^2 u).  The two branches differ by pi, i.e. one
    free spectral range.
    """
    s, co = np.sin(u), np.cos(u)
    root = np.sqrt(1.0 + zeta**2 * s**2) * np.array([[1.0], [-1.0]])
    return np.arctan2(zeta**2 * co + root, zeta * (co - root))


def _unwrap_anchored(theta: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Unwrap angle scans (rows of theta) continuously, each anchored at
    the point nearest x=0."""
    unwrapped = np.unwrap(theta)
    i0 = int(np.argmin(np.abs(x)))
    # re-anchor so the value nearest x = 0 keeps its principal branch
    shift = np.round((unwrapped[:, i0] - theta[:, i0]) / (2 * np.pi))
    return unwrapped - 2 * np.pi * shift[:, None]


def resonance_shifts(zeta: float, x, L_c: float, k0: float):
    """Resonance frequency shifts (rad/s) of the two branch families.

    Evaluates, for both signs of the root,

        dW = (c/L_c) atan2(z^2 cos(2 k0 x) +/- R,
                           z [cos(2 k0 x) -/+ R]),   R = sqrt(1+z^2 sin^2),

    which places the branches one free spectral range (pi c / L_c) apart as
    zeta -> 0; at zeta = 0 they sit at +/- (pi/2) c/L_c for every x.
    Scalar x gives the principal values; an array x is treated as a scan
    and unwrapped continuously, anchored at the sample nearest x = 0.
    Returns (plus_branch, minus_branch).
    """
    xa = np.atleast_1d(np.asarray(x, dtype=float))
    theta = _branch_angles(float(zeta), 2.0 * k0 * xa)
    if xa.size > 1:
        theta = _unwrap_anchored(theta, xa)
    plus, minus = (C_LIGHT / L_c) * theta
    if np.isscalar(x):
        return float(plus[0]), float(minus[0])
    return plus, minus


@dataclass(frozen=True, slots=True)
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
