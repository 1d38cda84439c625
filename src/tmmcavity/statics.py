"""Static (v = 0) fields and radiation force: the records and wrappers
over the kernel (`opalg`).

Field naming follows the layout around the mobile scatterer: `A0` is the
leftward-going amplitude on its left face, `B0f` the rightward-going one
(the pump side for left pumping); `C0f` and `D0f` are the leftward- and
rightward-going amplitudes on the right face.  All are in sqrt(photon flux)
units, so ``hbar * k0 * |amp|^2`` is a momentum flux in newtons.
"""

from __future__ import annotations

from .elements import Chain, Polarisability, PumpSpec, _check_mobile_zeta, _record
from .opalg import _chain_fields, _static_force

__all__ = [
    "StaticFields",
    "solve_static",
    "static_force",
]


@_record
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
    solve does not stay finite, and ChainError for a pump at another
    wavelength than the chain's 2 pi / k0.
    """
    return StaticFields(*(x[0] for x in _chain_fields(chain, pump)))


def static_force(fields: StaticFields, pol: Polarisability, k0: float) -> float:
    """Static radiation force on the scatterer, in newtons (+x rightward).

    Equivalent to the net photon-momentum flux
    hbar k0 (|A0|^2 + |B0f|^2 - |C0f|^2 - |D0f|^2) delivered to the
    scatterer, written out in terms of the left-face amplitudes only.
    A |zeta| above `elements.MOBILE_ZETA_LIMIT` is a ChainError.
    """
    z = pol.zeta if isinstance(pol, Polarisability) else complex(pol)
    _check_mobile_zeta(z)
    return _static_force(fields.A0, fields.B0f, z, k0)
