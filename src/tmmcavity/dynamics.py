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
from .opalg import _entries, _inverse_entries, _mul, moving_scatterer_matrix
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


def _first_order(comp: tuple, side: tuple, B0: complex, C0: complex,
                 A0, B0f, z: complex, k0: float) -> tuple:
    """(A1, B1, C1, D1, out_left1, out_right1) from the entry tuples of the
    composed jet's a, a', b, c, c' (`comp`; of a' only the right column
    is read) and of the chain's left side M1 and its k-derivative (`side`).

    A0 and B0f are the zeroth-order left-face fields, z and k0 the mobile
    scatterer's polarisability and the pump wavenumber.  Plain elementwise
    arithmetic: entries of one chain give numpy scalars, (P,) arrays of a
    grid give (P,) arrays.

    The outputs are linear in the pump, and each pump side is taken on its
    own (a side with no pump costs nothing).  The B0 part is the closed
    form of `solve_dynamic`.  In the C0 part of the left output the
    closed form's terms cancel down to O(1/b), as g C0 + a D_out does
    statically; with X = b - c', that part is

        al1 = (tr(adj(a) X) b - X22) / b^2 + q (a db - a' b) / b,
        alt = -c22 / b^2,

    where a has unit determinant, and with the static sides and the
    mobile jet's traceless S^-1 c, tr(adj(a) X) = -tr(S^-1 M1^-1 M1' c)
    and tr(adj(a) c) = 0.
    """
    ((_, a0, d0_, b0), (_, da0, _, db0), (_, ab, db_, bb), (_, ac, dc_, bc),
     (_, dac, ddc, dbc)) = comp

    # left output spectrum al0 delta + (v/c)(al1 delta + alt delta'), right
    # output d_out0 delta + (v/c)(p delta + q delta')
    al1 = alt = p = 0j
    if B0 != 0:
        d_out0 = B0 / b0
        q = -(d_out0 * bc) / b0
        p = (-(d_out0 * (bb - dbc)) + db0 * q) / b0
        al1 = d_out0 * (ab - dac) + a0 * p - da0 * q
        alt = d_out0 * ac + a0 * q
    if C0 != 0:
        d_unit = -d0_ / b0  # d_out0 and q of the unit right pump
        q = -(dc_ + d_unit * bc) / b0
        p = p + C0 * ((-(db_ - ddc) - d_unit * (bb - dbc) + db0 * q) / b0)
        k11, k12, k21, k22 = _mul(_inverse_entries(side[0]), side[1])  # M1^-1 M1'
        ddet = -2j * z * k0 * ((1 - 1j * z) * k12 - 1j * z * k22 + 1j * z * k11
                               + (1 + 1j * z) * k21)
        al1 = al1 + C0 * ((ddet - (bb - dbc) / b0) / b0 + q * (a0 * db0 - da0 * b0) / b0)
        alt = alt + C0 * (-bc / b0 ** 2)

    mu11, _, mu21, _ = _inverse_entries(side[0])
    dmu11, _, dmu21, _ = _inverse_entries(side[1])

    A1 = mu11 * al1 - dmu11 * alt
    B1 = mu21 * al1 - dmu21 * alt
    C1 = (1 - 1j * z) * A1 - 1j * z * B1 + 2j * z * B0f
    D1 = 1j * z * A1 + (1 + 1j * z) * B1 + 2j * z * A0
    return A1, B1, C1, D1, al1, p


def solve_dynamic(chain: Chain, pump: PumpSpec) -> FieldSet:
    """Closed-form fields at the mobile scatterer to first order in v/c.

    Solves the pump boundary problem for the composed operator matrix
    [[g^, a^], [d^, b^]]: the outgoing right-port spectrum is
    D(k) = d0 delta + (v/c)(p delta + q delta'), with

        d0 = (B0 - d C0)/b,
        q  = -(C0 dc + d0 bc)/b,
        p  = [-C0 (db - dc') - d0 (bb - bc') + b' q]/b,

    where xb, xc are the first-order scalar- and derivative-part
    coefficients of each entry and primes are analytic k-derivatives, all
    at the pump wavenumber.  The left-port spectrum and the fields on the
    scatterer follow by applying g^/a^ and (M1)^-1, collecting
    delta-function and delta'-function coefficients.  The composed operator
    is M1 MS^ M2, with M1 and M2 the static jets of the chain's two sides
    and MS^ the mobile scatterer's.
    """
    k0 = chain.k0
    # the zeroth-order fields ship through the exact same numeric path as
    # solve_static (bit-for-bit consistency), which also rejects a chain
    # without a transmission channel; the jets below only supply
    # derivatives and first-order coefficients
    st = solve_static(chain, pump)
    m1, m2 = _side_jets(chain)
    comp = m1 @ moving_scatterer_matrix(chain.mobile.pol, k0) @ m2
    entries = tuple(_entries(f(k0)) for f in (
        comp.static_at, comp.static_deriv_at, comp.first_scalar_at,
        comp.first_deriv_at, comp.first_deriv_deriv_at))
    side = (_entries(m1.static_at(k0)), _entries(m1.static_deriv_at(k0)))
    A1, B1, C1, D1, al1, p = _first_order(
        entries, side, complex(pump.B0), complex(pump.C0),
        st.A0, st.B0f, chain.mobile.pol.zeta, k0,
    )
    for val in (A1, B1, al1, p):
        if not (math.isfinite(val.real) and math.isfinite(val.imag)):
            raise SingularSolveError(f"first-order solve diverged at k={k0}")

    return FieldSet(
        A0=st.A0,
        A1=A1,
        B0f=st.B0f,
        B1=B1,
        C0f=st.C0f,
        C1=C1,
        D0f=st.D0f,
        D1=D1,
        out_left0=st.out_left,
        out_left1=al1,
        out_right0=st.out_right,
        out_right1=p,
    )


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
