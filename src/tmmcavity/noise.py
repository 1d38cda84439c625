"""Quantum-noise bookkeeping: mode decompositions, diffusion, temperature.

Each static field around the mobile scatterer, promoted to an operator, is
a linear combination of the independent input modes: the two pump ports
and one vacuum "loss" mode per absorptive scatterer.  The
basis modes satisfy [X, X^dag] = 1 and commute pairwise, so commutators of
the field operators are plain inner products of coefficient vectors.

An absorptive scatterer (Im zeta > 0) removes flux, which alone would break
the bosonic commutators of the outgoing fields.  Its scattering block
S = [[r, t], [t, r]] has the rank-one unitarity defect

    I - S S^dag = (1 - |r+t|^2)/2 * [[1, 1], [1, 1]],

so attaching a single extra input channel with coupling
kappa = sqrt((1-|r+t|^2)/2) into both outgoing directions restores
out-commutators exactly; the coupling propagates to the rest of the chain
through the ordinary static network.

Momentum diffusion combines the classical amplitudes with the operator
commutators; all six cross terms sit in one 2 Re{...} with the sign of a
term following the momentum direction of the two beams involved, which
makes the whole expression a Gram form and hence non-negative.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from .constants import c as C_LIGHT, hbar as HBAR, k as K_BOLTZMANN

from .elements import Chain, Polarisability
from .errors import NonCoolingError, PassivityError
from .network import absorptive_indices, scatterer_source, solve_network
from .statics import StaticFields

__all__ = [
    "ModeBasis",
    "OperatorFields",
    "attach_loss_modes",
    "operator_fields",
    "diffusion",
    "TemperatureReport",
    "equilibrium_temperature",
]


@dataclass(frozen=True)
class ModeBasis:
    """Ordered labels of the independent input modes."""

    labels: tuple

    @property
    def size(self) -> int:
        return len(self.labels)


@dataclass(frozen=True)
class OperatorFields:
    """Coefficient vectors of the four field operators over the mode basis.

    Rows of the implicit response matrix; `out_left_vec` / `out_right_vec`
    are the outgoing-port operators used for the unitarity checks.
    """

    basis: ModeBasis
    a_vec: np.ndarray
    b_vec: np.ndarray
    c_vec: np.ndarray
    d_vec: np.ndarray
    out_left_vec: np.ndarray
    out_right_vec: np.ndarray

    @staticmethod
    def commutator(x_vec: np.ndarray, y_vec: np.ndarray) -> complex:
        """[X, Y^dag] = sum_i x_i conj(y_i) over the orthonormal basis."""
        return complex(np.dot(x_vec, np.conj(y_vec)))


def loss_coupling(pol: Polarisability) -> float:
    """Amplitude coupling of an absorber to its vacuum loss mode.

    kappa^2 equals the absorbed flux fraction 1 - |r|^2 - |t|^2.
    """
    defect = 1.0 - abs(pol.reflectivity + pol.transmissivity) ** 2
    if defect < -1e-12:
        raise PassivityError(
            f"unitarity defect {defect} negative for zeta={pol.zeta}; "
            "scatterer is unphysical"
        )
    return math.sqrt(max(defect, 0.0) / 2.0)


def attach_loss_modes(chain: Chain) -> Chain:
    """Check that every absorber's unitarity defect is positive
    semidefinite, and return the chain unchanged.

    `operator_fields` always carries the loss modes, so there is nothing to
    attach; the check raises PassivityError for an unphysical scatterer.
    """
    for i in absorptive_indices(chain):
        loss_coupling(chain.elements[i].pol)  # raises if unphysical
    return chain


def operator_fields(chain: Chain) -> OperatorFields:
    """Express A, B, C, D at the mobile scatterer over the input-mode basis.

    One static network solve per basis mode of unit amplitude: the two pump
    ports, then one column per absorptive scatterer, whose vacuum enters
    through the rank-one unitarity-defect coupling.  Everything is
    evaluated at zeroth order in the velocity.
    """
    k0 = chain.k0
    im = chain.mobile_index
    labels = ["pump_left", "pump_right"]
    columns = [
        solve_network(chain, k0, 1.0, 0.0),
        solve_network(chain, k0, 0.0, 1.0),
    ]
    for j in absorptive_indices(chain):
        pol = chain.elements[j].pol
        kappa = loss_coupling(pol)
        src = {j: scatterer_source(pol, kappa, kappa)}
        columns.append(solve_network(chain, k0, 0.0, 0.0, sources=src))
        labels.append(f"loss_{j}")

    n = len(columns)
    a = np.zeros(n, dtype=complex)
    b = np.zeros(n, dtype=complex)
    c = np.zeros(n, dtype=complex)
    d = np.zeros(n, dtype=complex)
    o_l = np.zeros(n, dtype=complex)
    o_r = np.zeros(n, dtype=complex)
    for i, sol in enumerate(columns):
        a[i], b[i] = sol.left_face(im)
        c[i], d[i] = sol.right_face(im)
        o_l[i] = sol.out_left
        o_r[i] = sol.out_right

    return OperatorFields(
        basis=ModeBasis(tuple(labels)),
        a_vec=a,
        b_vec=b,
        c_vec=c,
        d_vec=d,
        out_left_vec=o_l,
        out_right_vec=o_r,
    )


def _diffusion(a0, b0, c0, d0, av, bv, cv, dv, comm, k0: float):
    """Diffusion formula of `diffusion` for the static fields a0..d0 and
    their operator vectors av..dv, with [X, Y^dag] = comm(x_vec, y_vec).

    Plain elementwise arithmetic, so one chain and a whole grid of chains
    (arrays of fields, per-mode tuples of arrays) share it.
    """
    total = (
        abs(a0) ** 2 * comm(av, av).real
        + abs(b0) ** 2 * comm(bv, bv).real
        + abs(c0) ** 2 * comm(cv, cv).real
        + abs(d0) ** 2 * comm(dv, dv).real
    )
    cross = (
        np.conj(a0) * b0 * comm(av, bv)
        - np.conj(a0) * c0 * comm(av, cv)
        - np.conj(a0) * d0 * comm(av, dv)
        - np.conj(b0) * c0 * comm(bv, cv)
        - np.conj(b0) * d0 * comm(bv, dv)
        + np.conj(c0) * d0 * comm(cv, dv)
    )
    total += 2 * cross.real
    return (HBAR * k0) ** 2 * total


def diffusion(
    fields: StaticFields, ops: OperatorFields, pol: Polarisability, k0: float
) -> float:
    """Momentum-diffusion coefficient, in N^2 s.

    D = (hbar k0)^2 ( |A0|^2 [A,A+] + |B0|^2 [B,B+] + |C0|^2 [C,C+]
                      + |D0|^2 [D,D+]
                      + 2 Re{  A0* B0 [A,B+] - A0* C0 [A,C+] - A0* D0 [A,D+]
                             - B0* C0 [B,C+] - B0* D0 [B,D+] + C0* D0 [C,D+] } )

    The sign of each term is the product of the momentum signs of the two
    beams, so D is the vacuum variance of the linearised force operator and
    is non-negative whenever the commutator table is consistent.
    """
    z = pol.zeta if isinstance(pol, Polarisability) else complex(pol)
    if z == 0:
        return 0.0  # nothing scatters, no momentum kicks
    return _diffusion(
        fields.A0, fields.B0f, fields.C0f, fields.D0f,
        ops.a_vec, ops.b_vec, ops.c_vec, ops.d_vec,
        OperatorFields.commutator, k0,
    )


@dataclass(frozen=True)
class TemperatureReport:
    """Equilibrium temperature as k_B T (joules) and T (kelvin)."""

    k_B_T: float
    kelvin: float


def _kbt(d_coeff, dfdv):
    """k_B T = -D / (dF/dv) where dF/dv < 0 (cooling), NaN elsewhere;
    scalars or arrays."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(dfdv < 0, -d_coeff / dfdv, np.nan)


def equilibrium_temperature(diffusion_coeff: float, friction: float) -> TemperatureReport:
    """Fluctuation-dissipation temperature k_B T = -D / (dF/dv), in joules.

    Steady state of momentum damped at rate |dF/dv|/m against diffusion D:
    <p^2>/m = D / |dF/dv|.  With the friction convention dF/dv = F1/c this
    reads k_B T = -c D / F1 (the form -D/(c F1) seen with the opposite
    normalisation of the velocity force coefficient is dimensionally a
    mass, not an energy).  Requires friction < 0: in a heating region no
    equilibrium exists and NonCoolingError is raised rather than returning
    a negative temperature.
    """
    if not friction < 0:  # NaN friction too
        raise NonCoolingError(
            f"friction {friction} is not negative; no cooling equilibrium"
        )
    kbt = float(_kbt(diffusion_coeff, friction))
    return TemperatureReport(k_B_T=kbt, kelvin=kbt / K_BOLTZMANN)
