"""First-order-in-velocity fields, velocity-dependent force, and friction:
the records and wrappers over the kernel (`opalg`) and the chain finish
(`noise._velocity_force`).

The moving scatterer turns the composed chain matrix into an operator in
wavenumber, which the kernel in `tmmcavity.opalg` forms at first order in
v/c at the pump wavenumber.  With a monochromatic pump the spectral
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

from .constants import c as C_LIGHT

from .elements import Chain, Polarisability, PumpSpec, _record
from .noise import _velocity_force
from .opalg import _chain_fields
from .statics import StaticFields, static_force

__all__ = ["FieldSet", "ForceReport", "solve_dynamic", "force_with_velocity"]


@_record
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


@_record
class ForceReport:
    """Static force, its velocity coefficient, and the friction dF/dv.

    F = F0 + (v/c) F1, so the friction coefficient is dF/dv = F1 / c, in
    N s/m.  Negative friction opposes the motion (cooling).
    """

    F0: float
    F1: float
    friction: float


def solve_dynamic(chain: Chain, pump: PumpSpec) -> FieldSet:
    """Closed-form fields at the mobile scatterer to first order in v/c.

    The kernel `opalg._solve_left_pump` with the (v/c) parts: it solves the
    left-pump boundary problem for the composed operator M1 MS^ M2 (see
    `opalg._first_order`) and carries the right output back through M2 and
    M2' to the scatterer, every k-derivative analytic at the pump
    wavenumber.  The zeroth-order fields are those of `solve_static`, bit
    for bit, and so are its errors.  A right pump is the left pump of the
    reversed chain, whose scatterer moves at -v; a two-sided pump adds the
    two.
    """
    (A0, B0f, C0f, D0f, out_left, out_right,
     A1, B1, C1, D1, out_left1, out_right1) = (x[0] for x in _chain_fields(chain, pump, True))
    return FieldSet(A0=A0, A1=A1, B0f=B0f, B1=B1, C0f=C0f, C1=C1, D0f=D0f, D1=D1,
                    out_left0=out_left, out_left1=out_left1, out_right0=out_right,
                    out_right1=out_right1)


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
