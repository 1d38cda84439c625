"""First-order-in-velocity fields, velocity-dependent force, and friction.

The moving scatterer turns the composed chain matrix into an operator in
wavenumber, carried as a first-order jet at the pump wavenumber (see
`tmmcavity.opalg`).  With a monochromatic pump the spectral
amplitudes are delta functions plus, at first order in v/c, derivative-of-
delta terms; solving the boundary problem in that basis and integrating
gives the closed-form fields below.  Every k-derivative is evaluated
analytically at the pump wavenumber, never by finite differences: the
friction coefficient is a difference of large resonant terms, and noisy
derivatives would destroy it.

Sign conventions fixed by physical bookkeeping (receding-mirror momentum
flux; the delta-calculus solution): the right-face fields obey

    C = C0 + (v/c) [ (1-iz) A1 - iz B1 + 2iz B0 ]
    D = D0 + (v/c) [ iz A1 + (1+iz) B1 + 2iz A0 ]

i.e. the first-order parts repeat the zeroth-order coefficient pattern and
each incident wave contributes one extra Doppler source term.

The velocity force component is written in the momentum-conserving form:
F = hbar k0 (|A|^2 + |B|^2 - |C|^2 - |D|^2) holds exactly for amplitudes
that transform like field envelopes, so F1 carries the A0*B1 and A1*B0
cross terms with one and the same weight (|z|^2 + i Re z).  A perfectly
reflecting mirror then feels exactly F = 2 hbar k0 Phi (1 - 2v/c), and a
free-standing lossless scatterer dF/dv = -4 hbar k0 Phi z^2/(1+z^2) / c.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from .constants import c as C_LIGHT, hbar as HBAR

from .elements import Chain, Polarisability, PumpSpec, _side_jets
from .errors import SingularSolveError
from .opalg import _entries, _inverse_entries, moving_scatterer_matrix
from .statics import StaticFields, solve_static, static_force

__all__ = ["FieldSet", "ForceReport", "solve_dynamic", "force_with_velocity"]


@dataclass(frozen=True)
class FieldSet:
    """Zeroth- and first-order field amplitudes around the mobile scatterer.

    X = X0 + (v/c) X1 for each of the four faces; `out_*` are the two
    outgoing port amplitudes with the same decomposition.
    """

    A0: complex
    A1: complex
    B0f: complex
    B1: complex
    C0f: complex
    C1: complex
    D0f: complex
    D1: complex
    out_left0: complex
    out_left1: complex
    out_right0: complex
    out_right1: complex

    def static(self) -> StaticFields:
        """The v = 0 slice as a StaticFields record."""
        return StaticFields(
            A0=self.A0,
            B0f=self.B0f,
            C0f=self.C0f,
            D0f=self.D0f,
            out_left=self.out_left0,
            out_right=self.out_right0,
        )


@dataclass(frozen=True)
class ForceReport:
    """Static force, its velocity coefficient, and the friction dF/dv.

    F = F0 + (v/c) F1, so the friction coefficient is dF/dv = F1 / c, in
    N s/m.  Negative friction opposes the motion (cooling).
    """

    F0: float
    F1: float
    friction: float


def _first_order(comp: tuple, B0: complex) -> tuple:
    """(al1, alt, p, q): the (v/c) parts al1 delta + alt delta' of the left
    output and p delta + q delta' of the right output under a left pump B0,
    from the entry tuples of the composed jet's a, a', b, c, c' (`comp`; of
    a' only the right column is read).

    Plain elementwise arithmetic: entries of one chain give numpy scalars,
    (P,) arrays of a grid give (P,) arrays.  A right pump is the left pump
    of the reversed chain (see `solve_dynamic`), so no C0 form is derived.
    """
    ((_, a0, _, b0), (_, da0, _, db0), (_, ab, _, bb), (_, ac, _, bc),
     (_, dac, _, dbc)) = comp
    al1 = alt = p = q = 0j
    if B0 != 0:
        d_out0 = B0 / b0
        q = -(d_out0 * bc) / b0
        p = (-(d_out0 * (bb - dbc)) + db0 * q) / b0
        al1 = d_out0 * (ab - dac) + a0 * p - da0 * q
        alt = d_out0 * ac + a0 * q
    return al1, alt, p, q


def _left_face(side: tuple, al1, alt) -> tuple:
    """(A1, B1) on the mobile scatterer's left face from the left output
    al1 delta + alt delta', through (M1)^-1 of the entry tuples of M1 and
    M1' (`side`): f(k) delta'(k - k0) is f(k0) delta' - f'(k0) delta."""
    mu11, _, mu21, _ = _inverse_entries(side[0])
    dmu11, _, dmu21, _ = _inverse_entries(side[1])
    return mu11 * al1 - dmu11 * alt, mu21 * al1 - dmu21 * alt


def _jets(chain: Chain) -> tuple:
    """Entry tuples of the composed jet's a, a', b, c, c' and of the left
    side M1 and its k-derivative, at `chain.k0`."""
    k0 = chain.k0
    m1, m2 = _side_jets(chain)
    comp = m1 @ moving_scatterer_matrix(chain.mobile.pol, k0) @ m2
    entries = tuple(_entries(f(k0)) for f in (
        comp.static_at, comp.static_deriv_at, comp.first_scalar_at,
        comp.first_deriv_at, comp.first_deriv_deriv_at))
    return entries, (_entries(m1.static_at(k0)), _entries(m1.static_deriv_at(k0)))


def solve_dynamic(chain: Chain, pump: PumpSpec) -> FieldSet:
    """Closed-form fields at the mobile scatterer to first order in v/c.

    Solves the left-pump boundary problem for the composed operator matrix
    [[g^, a^], [d^, b^]]: the outgoing right-port spectrum is
    D(k) = d0 delta + (v/c)(p delta + q delta'), with

        d0 = B0/b,
        q  = -d0 bc/b,
        p  = [-d0 (bb - bc') + b' q]/b,

    where xb, xc are the first-order scalar- and derivative-part
    coefficients of each entry and primes are analytic k-derivatives, all
    at the pump wavenumber.  The left-port spectrum and the fields on the
    scatterer follow by applying g^/a^ and (M1)^-1, collecting
    delta-function and delta'-function coefficients.  The composed operator
    is M1 MS^ M2, with M1 and M2 the static jets of the chain's two sides
    and MS^ the mobile scatterer's.

    The fields are linear in the pump, and a right pump C0 is the left pump
    C0 of the reversed chain, whose scatterer moves with velocity -v: the
    chain's output spectra are those of the reversed chain with the ports
    swapped and the (v/c) parts negated, (out_left1, out_right1) =
    -(out_right1', out_left1') and likewise for the delta' parts.  A
    two-sided pump adds the two parts, and the face fields follow from the
    total left output, so (A1, B1, C1, D1) = -(D1', C1', B1', A1') for a
    right pump alone.
    """
    k0, z = chain.k0, chain.mobile.pol.zeta
    # the zeroth-order fields ship through the exact same numeric path as
    # solve_static (bit-for-bit consistency), which also rejects a chain
    # without a transmission channel; the jets below only supply
    # derivatives and first-order coefficients
    st = solve_static(chain, pump)
    entries, side = _jets(chain)
    al1, alt, p, _ = _first_order(entries, complex(pump.B0))
    if pump.C0 != 0:
        mirrored = Chain(chain.elements[::-1], len(chain.elements) - 1 - chain.mobile_index, k0)
        al1_m, _, p_m, q_m = _first_order(_jets(mirrored)[0], complex(pump.C0))
        al1, alt, p = al1 - p_m, alt - q_m, p - al1_m
    A1, B1 = _left_face(side, al1, alt)
    for val in (A1, B1, al1, p):
        if not (math.isfinite(val.real) and math.isfinite(val.imag)):
            raise SingularSolveError(f"first-order solve diverged at k={k0}")
    C1 = (1 - 1j * z) * A1 - 1j * z * B1 + 2j * z * st.B0f
    D1 = 1j * z * A1 + (1 + 1j * z) * B1 + 2j * z * st.A0

    return FieldSet(A0=st.A0, A1=A1, B0f=st.B0f, B1=B1, C0f=st.C0f, C1=C1, D0f=st.D0f, D1=D1,
                    out_left0=st.out_left, out_left1=al1, out_right0=st.out_right, out_right1=p)


def _velocity_force(a0, a1, b0, b1, z: complex, k0: float):
    """F1, the (v/c) coefficient of the force; scalars or arrays."""
    az2 = abs(z) ** 2
    bracket = (
        az2 * (abs(a0) ** 2 - abs(b0) ** 2)
        + (az2 + z.imag) * (a0 * np.conj(a1)).real
        - 2 * z.imag * (a0 * np.conj(b0)).real
        + (az2 - z.imag) * (b0 * np.conj(b1)).real
        + ((az2 + 1j * z.real) * (a0 * np.conj(b1) + a1 * np.conj(b0))).real
    )
    return -4 * HBAR * k0 * bracket


def force_with_velocity(fields: FieldSet, pol: Polarisability, k0: float) -> ForceReport:
    """Force report F = F0 + (v/c) F1 and the friction dF/dv = F1/c.

        F1 = -4 hbar k0 [ |z|^2 (|A0|^2 - |B0|^2)
                          + (|z|^2 + Im z) Re{A0 A1*}
                          - 2 Im z Re{A0 B0*}
                          + (|z|^2 - Im z) Re{B0 B1*}
                          + Re{(|z|^2 + i Re z) (A0 B1* + A1 B0*)} ]

    identical to the first-order term of the exact momentum-flux balance
    hbar k0 (|A|^2 + |B|^2 - |C|^2 - |D|^2).
    """
    z = pol.zeta if isinstance(pol, Polarisability) else complex(pol)
    f0 = static_force(fields.static(), Polarisability(z), k0)
    f1 = _velocity_force(fields.A0, fields.A1, fields.B0f, fields.B1, z, k0)
    return ForceReport(F0=f0, F1=f1, friction=f1 / C_LIGHT)
