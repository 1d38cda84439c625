"""Optical elements, chains, pump definitions and chain factorization.

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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Union

import numpy as np
from .constants import c as C_LIGHT, hbar as HBAR

from .errors import ChainError, PassivityError
from .opalg import VOMatrix, moving_scatterer_matrix

__all__ = [
    "Polarisability",
    "Scatterer",
    "Segment",
    "Element",
    "Chain",
    "PumpSpec",
    "scatterer_matrix",
    "propagation_matrix",
    "Factorization",
    "factorize",
]


@dataclass(frozen=True)
class Polarisability:
    """Dimensionless complex response of a thin scatterer.

    Im(zeta) > 0 describes absorption; Im(zeta) < 0 would be gain and is
    rejected, because the quantum-noise bookkeeping assumes passivity.
    """

    zeta: complex

    def __post_init__(self):
        z = complex(self.zeta)
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


@dataclass(frozen=True)
class Scatterer:
    pol: Polarisability

    @staticmethod
    def of(zeta: complex) -> "Scatterer":
        return Scatterer(Polarisability(zeta))


@dataclass(frozen=True)
class Segment:
    """Free-space stretch; zero length is legal and acts as identity."""

    length: float

    def __post_init__(self):
        if not math.isfinite(self.length) or self.length < 0:
            raise ChainError(f"segment length must be finite and >= 0, got {self.length}")


Element = Union[Scatterer, Segment]


@dataclass(frozen=True)
class Chain:
    """Ordered chain of elements with one designated mobile scatterer.

    `k0` is the pump wavenumber in rad/m.  `loss_modes_attached` records
    whether the quantum solver should add one vacuum loss mode per
    absorptive scatterer (see `tmmcavity.noise.attach_loss_modes`).
    """

    elements: tuple
    mobile_index: int
    k0: float
    loss_modes_attached: bool = False

    def __post_init__(self):
        object.__setattr__(self, "elements", tuple(self.elements))
        if len(self.elements) == 0:
            raise ChainError("chain is empty")
        for el in self.elements:
            if not isinstance(el, (Scatterer, Segment)):
                raise ChainError(f"unsupported element {el!r}")
        if not (0 <= self.mobile_index < len(self.elements)):
            raise ChainError(
                f"mobile_index {self.mobile_index} outside chain of "
                f"{len(self.elements)} elements"
            )
        if not isinstance(self.elements[self.mobile_index], Scatterer):
            raise ChainError("the mobile element must be a scatterer")
        if not (math.isfinite(self.k0) and self.k0 > 0):
            raise ChainError(f"pump wavenumber must be positive, got {self.k0}")

    @property
    def mobile(self) -> Scatterer:
        return self.elements[self.mobile_index]

    def with_loss_modes(self) -> "Chain":
        return replace(self, loss_modes_attached=True)


@dataclass(frozen=True)
class PumpSpec:
    """Monochromatic pump amplitudes in sqrt(photon flux) units.

    Invariant: |B0|^2 + |C0|^2 = power / (hbar omega0), with B0 the
    left-hand input (travelling rightward) and C0 the right-hand input.
    """

    B0: complex
    C0: complex
    power_watts: float
    wavelength: float

    def __post_init__(self):
        if self.power_watts < 0:
            raise ChainError("pump power must be >= 0")
        if self.wavelength <= 0:
            raise ChainError("wavelength must be positive")
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
        omega0 = 2 * math.pi * C_LIGHT / wavelength
        amp = math.sqrt(power_watts / (HBAR * omega0))
        if side == "left":
            return PumpSpec(amp, 0.0, power_watts, wavelength)
        if side == "right":
            return PumpSpec(0.0, amp, power_watts, wavelength)
        raise ChainError(f"pump side must be 'left' or 'right', got {side!r}")


def scatterer_matrix(pol: Polarisability, k: float | None = None) -> np.ndarray:
    """Static transfer matrix [[1+iz, iz], [-iz, 1-iz]] (k-independent)."""
    if not isinstance(pol, Polarisability):
        pol = Polarisability(pol)
    z = pol.zeta
    return np.array([[1 + 1j * z, 1j * z], [-1j * z, 1 - 1j * z]], dtype=complex)


def propagation_matrix(k: float, d) -> np.ndarray:
    """Free-propagation matrix diag(e^{ikd}, e^{-ikd}); unit determinant.

    A numpy array of lengths gives the stack of their matrices, shape
    (N, 2, 2).
    """
    if isinstance(d, np.ndarray) and d.ndim:
        if not np.all(np.isfinite(d)) or np.any(d < 0):
            raise ChainError("propagation lengths must be finite and >= 0")
        m = np.zeros(d.shape + (2, 2), dtype=complex)
        m[..., 0, 0] = np.exp(1j * k * d)
        m[..., 1, 1] = np.exp(-1j * k * d)
        return m
    if d < 0 or not math.isfinite(d):
        raise ChainError(f"propagation length must be finite and >= 0, got {d}")
    return np.array(
        [[np.exp(1j * k * d), 0.0], [0.0, np.exp(-1j * k * d)]], dtype=complex
    )


def element_matrix(el: Element, k: float) -> np.ndarray:
    if isinstance(el, Scatterer):
        return scatterer_matrix(el.pol, k)
    return propagation_matrix(k, el.length)


def _element_jet(el: Element, k: float) -> VOMatrix:
    """Static jet of one element: its matrix and analytic k-derivative at k,
    diag(i d, -i d) times the matrix for free propagation over d."""
    if isinstance(el, Scatterer):
        return VOMatrix(k, scatterer_matrix(el.pol))
    d = el.length
    m = propagation_matrix(k, d)
    return VOMatrix(k, m, np.array([[1j * d, 0.0], [0.0, -1j * d]]) * m)


def _compose_static(elements, k: float) -> VOMatrix:
    if not elements:
        return VOMatrix.identity(k)
    m = _element_jet(elements[0], k)
    for el in elements[1:]:
        m = m @ _element_jet(el, k)
    return m


@dataclass(frozen=True)
class Factorization:
    """The chain split around the mobile scatterer: M1 * MS_hat * M2.

    Every factor is a first-order jet at the chain's pump wavenumber.
    `m1_inv` is (M1)^-1: every element matrix here has unit determinant,
    so the inverse is the adjugate, and its k-derivative the adjugate of
    M1's derivative.
    """

    m1: VOMatrix
    ms: VOMatrix
    m2: VOMatrix
    m1_inv: VOMatrix

    def composed(self) -> VOMatrix:
        return self.m1 @ self.ms @ self.m2


def _adjugate(m: np.ndarray) -> np.ndarray:
    """Adjugate of a 2x2 matrix or of each matrix of an (N, 2, 2) stack."""
    if m.ndim == 2:
        return np.array([[m[1, 1], -m[0, 1]], [-m[1, 0], m[0, 0]]])
    out = np.empty_like(m)
    out[..., 0, 0] = m[..., 1, 1]
    out[..., 0, 1] = -m[..., 0, 1]
    out[..., 1, 0] = -m[..., 1, 0]
    out[..., 1, 1] = m[..., 0, 0]
    return out


def factorize(chain: Chain) -> Factorization:
    """Split a chain into static left part, moving scatterer, static right
    part, as jets at `chain.k0`."""
    k = chain.k0
    m1 = _compose_static(chain.elements[: chain.mobile_index], k)
    m2 = _compose_static(chain.elements[chain.mobile_index + 1 :], k)
    ms = moving_scatterer_matrix(chain.mobile.pol, k)
    m1_inv = VOMatrix(k, _adjugate(m1.a), _adjugate(m1.da))
    return Factorization(m1=m1, ms=ms, m2=m2, m1_inv=m1_inv)
