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
through the ordinary static fields.

Such a source sits inside the chain, so its column is not a pump of the
transfer-matrix kernel.  Each column is instead one linear system over
every interface amplitude of the static chain (`_interface_amplitudes`),
built from the kernel's element matrices; the two pump columns are solved
the same way.

Momentum diffusion combines the classical amplitudes with the operator
commutators; all six cross terms sit in one 2 Re{...} with the sign of a
term following the momentum direction of the two beams involved, which
makes the whole expression a Gram form over the input modes.  It is
evaluated in that form, so it is non-negative by construction.
"""

from __future__ import annotations

import math

import numpy as np
from .constants import c as C_LIGHT, hbar as HBAR, k as K_BOLTZMANN

from .elements import Chain, Polarisability, Scatterer, _record
from .errors import NonCoolingError, PassivityError, SingularSolveError
from .opalg import _element_entries
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


@_record
class ModeBasis:
    """Ordered labels of the independent input modes."""

    labels: tuple

    @property
    def size(self) -> int:
        return len(self.labels)


@_record
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
    for el in chain.elements:
        if isinstance(el, Scatterer) and el.pol.absorptive:
            loss_coupling(el.pol)  # raises if unphysical
    return chain


def _interface_amplitudes(chain: Chain, in_left: complex, in_right: complex,
                          source=None) -> np.ndarray:
    """The amplitude pairs (leftward, rightward) at the N+1 interfaces of
    the static chain, index 0 the far left, under the pumps `in_left` and
    `in_right` and, if given, `source` = (j, s): scatterer j emitting the
    transfer-form source vector s.

    One linear system over every interface amplitude: v_i = M_i v_{i+1} +
    s_i for each element i, with the kernel's element matrices M_i, and the
    two pump conditions (rightward input at the far left, leftward input at
    the far right).  Raises SingularSolveError if it has no solution (a
    fully blocked transmission channel).
    """
    k0 = chain.k0
    n = len(chain.elements)
    dim = 2 * (n + 1)
    a = np.zeros((dim, dim), dtype=complex)
    rhs = np.zeros(dim, dtype=complex)
    for i, el in enumerate(chain.elements):
        a[2 * i, 2 * i] = a[2 * i + 1, 2 * i + 1] = 1.0
        a[2 * i:2 * i + 2, 2 * i + 2:2 * i + 4] = -np.array(
            _element_entries(el, k0), dtype=complex).reshape(2, 2)
    if source is not None:
        j, s = source
        rhs[2 * j:2 * j + 2] = s
    a[2 * n, 1] = 1.0
    rhs[2 * n] = in_left
    a[2 * n + 1, 2 * n] = 1.0
    rhs[2 * n + 1] = in_right
    try:
        sol = np.linalg.solve(a, rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularSolveError(f"chain network is singular at k={k0}") from exc
    if not np.all(np.isfinite(sol)):
        raise SingularSolveError(f"chain network solution diverged at k={k0}")
    return sol.reshape(n + 1, 2)


def operator_fields(chain: Chain) -> OperatorFields:
    """Express A, B, C, D at the mobile scatterer over the input-mode basis.

    One static interface solve (`_interface_amplitudes`) per basis mode of
    unit amplitude: the two pump ports, then one column per absorptive
    scatterer, whose vacuum enters through the rank-one unitarity-defect
    coupling kappa into both outgoing directions.  Everything is evaluated
    at zeroth order in the velocity.
    """
    im = chain.mobile_index
    labels = ["pump_left", "pump_right"]
    columns = [_interface_amplitudes(chain, 1.0, 0.0),
               _interface_amplitudes(chain, 0.0, 1.0)]
    for j, el in enumerate(chain.elements):
        if not (isinstance(el, Scatterer) and el.pol.absorptive):
            continue
        kappa = loss_coupling(el.pol)
        r, t = el.pol.reflectivity, el.pol.transmissivity
        # kappa emitted leftward on the left face and rightward on the right
        # face, in transfer form v_left = M v_right + s
        src = np.array([kappa - (r / t) * kappa, -kappa / t], dtype=complex)
        columns.append(_interface_amplitudes(chain, 0.0, 0.0, (j, src)))
        labels.append(f"loss_{j}")

    # (A, B) on the left face, (C, D) on the right face, and the two
    # outgoing ports, one contiguous row each over the modes
    a, b, c, d, o_l, o_r = np.array(columns)[
        :, [im, im, im + 1, im + 1, 0, -1], [0, 1, 0, 1, 0, 1]].T.copy()
    return OperatorFields(
        basis=ModeBasis(tuple(labels)),
        a_vec=a,
        b_vec=b,
        c_vec=c,
        d_vec=d,
        out_left_vec=o_l,
        out_right_vec=o_r,
    )


def _diffusion(a0, b0, c0, d0, av, bv, cv, dv, k0: float):
    """(hbar k0)^2 sum_i |A0* a_i + B0* b_i - C0* c_i - D0* d_i|^2, the
    Gram form of `diffusion`, for the static fields a0..d0 and their
    coefficients av..dv over the input modes i (the first axis).

    Plain array arithmetic, so one chain ((n,) arrays over its modes) and a
    whole grid of chains ((P,) arrays of fields, (n, P) coefficients)
    share it.
    """
    gram = (np.conj(a0) * av + np.conj(b0) * bv - np.conj(c0) * cv
            - np.conj(d0) * dv)
    return (HBAR * k0) ** 2 * (abs(gram) ** 2).sum(axis=0)


def diffusion(
    fields: StaticFields, ops: OperatorFields, pol: Polarisability, k0: float
) -> float:
    """Momentum-diffusion coefficient, in N^2 s.

    D = (hbar k0)^2 ( |A0|^2 [A,A+] + |B0|^2 [B,B+] + |C0|^2 [C,C+]
                      + |D0|^2 [D,D+]
                      + 2 Re{  A0* B0 [A,B+] - A0* C0 [A,C+] - A0* D0 [A,D+]
                             - B0* C0 [B,C+] - B0* D0 [B,D+] + C0* D0 [C,D+] } )

    The sign of each term is the product of the momentum signs of the two
    beams, so D is the vacuum variance of the linearised force operator.
    With [X, Y+] = sum_i x_i y_i* over the orthonormal input modes the sum
    is the Gram form

        D = (hbar k0)^2 sum_i |A0* a_i + B0* b_i - C0* c_i - D0* d_i|^2,

    which is how it is evaluated: non-negative by construction, and free
    of the cancellation between the ten printed terms.
    """
    z = pol.zeta if isinstance(pol, Polarisability) else complex(pol)
    if z == 0:
        return 0.0  # nothing scatters, no momentum kicks
    return float(_diffusion(
        fields.A0, fields.B0f, fields.C0f, fields.D0f,
        ops.a_vec, ops.b_vec, ops.c_vec, ops.d_vec, k0,
    ))


@_record
class TemperatureReport:
    """Equilibrium temperature as k_B T (joules) and T (kelvin)."""

    k_B_T: float
    kelvin: float


def _kbt(d_coeff, dfdv):
    """k_B T = -D / (dF/dv) where dF/dv < 0 (cooling), NaN elsewhere;
    scalars or arrays.  A k_B T beyond the float range is inf."""
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
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
