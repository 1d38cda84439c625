"""Optical elements, chains and pump definitions.

Conventions used throughout the package:

 - The amplitude pair at any plane is (leftward-going, rightward-going).
 - The matrix of an element maps the pair on its right face to the pair on
   its left face:  v_left = M v_right.
 - A chain is listed left to right, so the composed matrix of the whole
   chain is the left-to-right product of the element matrices.
 - Amplitudes are normalised so that |amplitude|^2 is photon flux for the
   static fields; 1 W of pump power at wavelength lambda therefore enters
   as |B0|^2 = P / (hbar * omega0).

A scatterer of polarisability zeta has amplitude reflectivity
r = i zeta / (1 - i zeta) and transmissivity t = 1 / (1 - i zeta); its
transfer matrix is [[1+iz, iz], [-iz, 1-iz]] = (1/t) [[t^2-r^2, r], [-r, 1]],
with unit determinant.  Free propagation over d is diag(e^{ikd}, e^{-ikd}).

These entries are written once, in `tmmcavity.opalg` (`_factor`), which
every solve, the noise columns and the `elements` command read.  Every
solve of a chain is a function of the chain and the pump alone: the chain
carries no solver state, and each solve composes the element matrices it
needs itself.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Union

from .constants import c as C_LIGHT, hbar as HBAR

from .errors import ChainError, PassivityError

__all__ = [
    "Polarisability",
    "Scatterer",
    "Segment",
    "Element",
    "Chain",
    "PumpSpec",
]


@dataclass(frozen=True, slots=True)
class Polarisability:
    """Dimensionless complex response of a thin scatterer.

    Im(zeta) > 0 describes absorption; Im(zeta) < 0 would be gain and is
    rejected, because the quantum-noise bookkeeping assumes passivity.
    """

    zeta: complex

    def __post_init__(self):
        z = self.zeta
        if type(z) is not complex:
            if not isinstance(z, numbers.Complex):
                raise PassivityError(f"polarisability must be a number, got {z!r}")
            z = complex(z)
            object.__setattr__(self, "zeta", z)
        if not (math.isfinite(z.real) and math.isfinite(z.imag)):
            raise PassivityError(f"polarisability must be finite, got {z}")
        if z.imag < 0:
            raise PassivityError(
                f"Im(zeta) = {z.imag} < 0 describes a gain medium; unsupported"
            )

    @property
    def reflectivity(self) -> complex:
        """Amplitude reflectivity r = i zeta / (1 - i zeta)."""
        return 1j * self.zeta / (1 - 1j * self.zeta)

    @property
    def transmissivity(self) -> complex:
        """Amplitude transmissivity t = 1 / (1 - i zeta)."""
        return 1 / (1 - 1j * self.zeta)

    @property
    def absorptive(self) -> bool:
        return self.zeta.imag > 0

    @property
    def absorbed_fraction(self) -> float:
        """Fraction of incident flux absorbed: 1 - |r|^2 - |t|^2."""
        return 1.0 - abs(self.reflectivity) ** 2 - abs(self.transmissivity) ** 2


@dataclass(frozen=True, slots=True)
class Scatterer:
    pol: Polarisability

    def __post_init__(self):
        if not isinstance(self.pol, Polarisability):
            raise ChainError(
                f"scatterer needs a Polarisability, got {self.pol!r}; "
                "use Scatterer.of(zeta) for a number")

    @staticmethod
    def of(zeta: complex) -> "Scatterer":
        return Scatterer(Polarisability(zeta))


@dataclass(frozen=True, slots=True)
class Segment:
    """Free-space stretch; zero length is legal and acts as identity."""

    length: float

    def __post_init__(self):
        length = self.length
        if not ((type(length) is float or isinstance(length, numbers.Real))
                and math.isfinite(length) and length >= 0):
            raise ChainError(f"segment length must be finite and >= 0, got {length}")


Element = Union[Scatterer, Segment]


@dataclass(frozen=True, slots=True)
class Chain:
    """Ordered chain of elements with one designated mobile scatterer.

    `k0` is the pump wavenumber in rad/m.
    """

    elements: tuple
    mobile_index: int
    k0: float

    def __post_init__(self):
        try:
            object.__setattr__(self, "elements", tuple(self.elements))
        except TypeError:
            raise ChainError(f"elements must be a sequence, got {self.elements!r}") from None
        if len(self.elements) == 0:
            raise ChainError("chain is empty")
        for el in self.elements:
            if not isinstance(el, (Scatterer, Segment)):
                raise ChainError(f"unsupported element {el!r}")
        if not (isinstance(self.mobile_index, numbers.Integral)
                and 0 <= self.mobile_index < len(self.elements)):
            raise ChainError(
                f"mobile_index {self.mobile_index} outside chain of "
                f"{len(self.elements)} elements"
            )
        if not isinstance(self.elements[self.mobile_index], Scatterer):
            raise ChainError("the mobile element must be a scatterer")
        if not (isinstance(self.k0, numbers.Real) and math.isfinite(self.k0) and self.k0 > 0):
            raise ChainError(f"pump wavenumber must be a positive real, got {self.k0!r}")

    @property
    def mobile(self) -> Scatterer:
        return self.elements[self.mobile_index]


# The wavelengths the solvers accept, in m: far beyond optics on both
# sides.  Outside them float64 gives out: (hbar k0)^2 overflows below
# ~5e-188 m, D underflows to zero above ~1e140 m and the photon energy
# hbar omega0 does above ~4e298 m.
WAVELENGTH_RANGE = (1e-30, 1e30)


def _check_wavelength(wavelength):
    lo, hi = WAVELENGTH_RANGE
    if not lo <= wavelength <= hi:  # NaN fails too
        raise ChainError(
            f"wavelength must be positive and finite, within [{lo:g}, {hi:g}] m, "
            f"got {wavelength}")


def _check_power_and_wavelength(power_watts, wavelength):
    for name, value in (("pump power", power_watts), ("wavelength", wavelength)):
        if not isinstance(value, numbers.Real):
            raise ChainError(f"{name} must be a real number, got {value!r}")
    if not (math.isfinite(power_watts) and power_watts >= 0):
        raise ChainError(f"pump power must be finite and >= 0, got {power_watts}")
    _check_wavelength(wavelength)


@dataclass(frozen=True, slots=True)
class PumpSpec:
    """Monochromatic pump amplitudes in sqrt(photon flux) units.

    Invariant: |B0|^2 + |C0|^2 = power / (hbar omega0), with B0 the
    left-hand input (travelling rightward) and C0 the right-hand input.
    Every number must be finite; anything else raises ChainError.
    """

    B0: complex
    C0: complex
    power_watts: float
    wavelength: float

    def __post_init__(self):
        _check_power_and_wavelength(self.power_watts, self.wavelength)
        for name in ("B0", "C0"):
            amp = getattr(self, name)
            if not isinstance(amp, numbers.Complex):
                raise ChainError(f"pump amplitude {name} must be a number, got {amp!r}")
            amp = complex(amp)
            if not (math.isfinite(amp.real) and math.isfinite(amp.imag)):
                raise ChainError(f"pump amplitude {name} must be finite, got {amp}")
        total = abs(self.B0) ** 2 + abs(self.C0) ** 2
        expect = self.photon_flux
        scale = max(expect, 1.0)
        if abs(total - expect) > 1e-9 * scale:
            raise ChainError(
                "pump amplitudes violate |B0|^2 + |C0|^2 = P/(hbar omega0): "
                f"{total} vs {expect}"
            )

    @property
    def k0(self) -> float:
        return 2 * math.pi / self.wavelength

    @property
    def photon_flux(self) -> float:
        omega0 = 2 * math.pi * C_LIGHT / self.wavelength
        return self.power_watts / (HBAR * omega0)

    @staticmethod
    def one_sided(power_watts: float, wavelength: float, side: str = "left") -> "PumpSpec":
        _check_power_and_wavelength(power_watts, wavelength)
        omega0 = 2 * math.pi * C_LIGHT / wavelength
        amp = math.sqrt(power_watts / (HBAR * omega0))
        if side == "left":
            return PumpSpec(amp, 0.0, power_watts, wavelength)
        if side == "right":
            return PumpSpec(0.0, amp, power_watts, wavelength)
        raise ChainError(f"pump side must be 'left' or 'right', got {side!r}")

