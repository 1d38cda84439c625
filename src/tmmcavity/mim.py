"""Membrane-in-the-middle geometry: scans, overlays, coupled-mode comparison.

Geometry: two identical end mirrors of polarisability `mirror_zeta` enclose
a mobile membrane.  A cavity-length detuning dLc is split evenly between
the two gaps and the membrane displacement x moves the membrane only:

    [mirror] -- (Lc/2 + dLc/2 - x) -- [membrane] -- (Lc/2 + dLc/2 + x) -- [mirror]

One unit of dLc = lambda corresponds to two free spectral ranges.  Scans
report, per (x, dLc) grid point, the standing-wave intensity at the
membrane, the static force, the friction coefficient dF/dv, the momentum
diffusion coefficient, and (in cooling regions) the equilibrium k_B T.

The resonance overlay maps the analytic branch shifts dW(x) onto detuning
through dLc = anchor + lambda/4 - (Lc/omega0) * dW(x)  (mod lambda/2), with
the anchor the resonance peak of the bare cavity of the same configuration
(exact for its two thin mirrors), which absorbs both the arbitrary
Lc mod lambda offset and the end-mirror reflection phase.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import asdict, field

import numpy as np

from .constants import c as C_LIGHT
from .dynamics import _velocity_force, solve_dynamic
from .elements import (
    Chain, Polarisability, PumpSpec, Scatterer, Segment, _check_length, _check_mobile_zeta,
    _check_wavelength, _record,
)
from .errors import CalibrationError, ChainError
from .noise import _diffusion, _kbt, diffusion, operator_fields
from .opalg import _right_face, _solve_left_pump, _static_force
from .statics import resonance_shifts

__all__ = [
    "MimConfig",
    "ScanGrid",
    "ScanPoint",
    "ScanResult",
    "CoupledCavityParams",
    "build_mim",
    "pump_for",
    "evaluate_chain",
    "point_quantities",
    "scan",
    "bare_peak",
    "bare_resonance",
    "overlay_base_curves",
    "overlay_candidates",
    "coupled_cavity_force",
    "calibrate_coupled_params",
    "compare_models",
]


@_record
class MimConfig:
    """Parameters of the membrane-in-the-middle setup.

    Lengths in metres, power in watts.  The membrane polarisability is real
    and non-positive (lossless dielectric membrane); the end mirrors share
    one real polarisability `mirror_zeta`, default -30 (|r|^2 ~ 0.99889,
    finesse of order 10^3: resonances resolve on coarse grids in seconds,
    and the value can be overridden freely).  Every number must be a finite
    real, the cavity length between one and `LENGTH_LIMIT` wavelengths and
    |membrane_zeta| at most `MOBILE_ZETA_LIMIT`; anything else raises
    ChainError.
    """

    wavelength: float = 1.064e-6
    cavity_length: float = 6.7e-2
    membrane_zeta: float = -1.0
    mirror_zeta: float = -30.0
    power_watts: float = 1.0
    pump_side: str = "left"

    def __post_init__(self):
        for name in ("wavelength", "cavity_length", "membrane_zeta",
                     "mirror_zeta", "power_watts"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Real) or not math.isfinite(value):
                raise ChainError(f"{name} must be a finite real number, got {value!r}")
            object.__setattr__(self, name, float(value))
        if self.wavelength <= 0 or self.cavity_length <= 0:
            raise ChainError("wavelength and cavity length must be positive")
        _check_wavelength(self.wavelength)
        # each half of the cavity holds a standing wave: Lc/2 >= lambda/2
        if self.cavity_length < self.wavelength:
            raise ChainError(f"cavity length must be at least one wavelength "
                             f"({self.wavelength} m), got {self.cavity_length}")
        _check_length(self.cavity_length, self.wavelength, "cavity length")
        if self.membrane_zeta > 0:
            raise ChainError(
                f"membrane polarisability must be real <= 0, got {self.membrane_zeta}"
            )
        _check_mobile_zeta(self.membrane_zeta)
        if self.power_watts < 0:
            raise ChainError("pump power must be >= 0")
        if self.pump_side not in ("left", "right"):
            raise ChainError(f"pump side must be left or right, got {self.pump_side}")

    @property
    def k0(self) -> float:
        return 2 * math.pi / self.wavelength

    @property
    def omega0(self) -> float:
        return 2 * math.pi * C_LIGHT / self.wavelength

    def replace(self, **kw) -> "MimConfig":
        d = asdict(self)
        d.update(kw)
        return MimConfig(**d)


@_record
class ScanGrid:
    """Rectangular (x, dLc) grid, both in metres; row-major x-outer order."""

    x_start: float
    x_stop: float
    x_count: int
    dlc_start: float
    dlc_stop: float
    dlc_count: int
    _axes: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        for v in (self.x_count, self.dlc_count):
            if not isinstance(v, numbers.Integral):
                raise ChainError(f"grid counts must be integers, got {v!r}")
        if self.x_count < 1 or self.dlc_count < 1:
            raise ChainError("grid counts must be >= 1")
        for v in (self.x_start, self.x_stop, self.dlc_start, self.dlc_stop):
            if not (isinstance(v, numbers.Real) and math.isfinite(v)):
                raise ChainError("grid ranges must be finite real numbers")
        if self.x_count > 1 and self.x_stop <= self.x_start:
            raise ChainError("x_stop must exceed x_start")
        if self.dlc_count > 1 and self.dlc_stop <= self.dlc_start:
            raise ChainError("dlc_stop must exceed dlc_start")

    @property
    def x_values(self) -> np.ndarray:
        return self._axis_values()[0]

    @property
    def dlc_values(self) -> np.ndarray:
        return self._axis_values()[1]

    def _axis_values(self) -> tuple:
        """(x_values, dlc_values), derived on first use and kept read-only,
        so a command that reads the axes several times builds each once."""
        if self._axes is None:
            axes = (np.linspace(self.x_start, self.x_stop, self.x_count),
                    np.linspace(self.dlc_start, self.dlc_stop, self.dlc_count))
            for axis in axes:
                axis.setflags(write=False)
            object.__setattr__(self, "_axes", axes)
        return self._axes


def build_mim(config: MimConfig, x: float = 0.0, dlc: float = 0.0) -> Chain:
    """Five-element chain for membrane displacement x and detuning dlc.

    The membrane stays well inside the cavity: |x| <= wavelength is
    enforced (the analysis assumes |x| << Lc throughout).
    """
    left_gap, right_gap = _gaps(config, x, dlc)
    return Chain(
        elements=(
            Scatterer.of(config.mirror_zeta),
            Segment(left_gap),
            Scatterer.of(config.membrane_zeta),
            Segment(right_gap),
            Scatterer.of(config.mirror_zeta),
        ),
        mobile_index=2,
        k0=config.k0,
    )


def _gaps(config: MimConfig, x, dlc) -> tuple:
    """Left and right gap lengths for displacement x and detuning dlc.

    Scalars or arrays, broadcast against each other (a grid passes its x
    axis as a column and its dLc axis as a row); raises ChainError if any
    |x| exceeds one wavelength or any gap collapses.
    """
    if np.any(abs(x) > config.wavelength):
        raise ChainError(
            f"|x| = {np.max(abs(x))} exceeds one wavelength; displacement must "
            "stay small compared to the cavity length"
        )
    half = config.cavity_length / 2 + dlc / 2
    left_gap = half - x
    right_gap = half + x
    if np.any(left_gap < 0) or np.any(right_gap < 0):
        raise ChainError("detuning or displacement collapses a sub-cavity")
    return left_gap, right_gap


def pump_for(config: MimConfig) -> PumpSpec:
    return PumpSpec.one_sided(config.power_watts, config.wavelength, config.pump_side)


@_record
class ScanPoint:
    """One grid point; quantity fields are None where undefined.

    kBT is None in heating regions (friction >= 0); all quantity fields are
    None when the point's solve is singular.
    """

    x: float
    dlc: float
    intensity: float | None
    F0: float | None
    dFdv: float | None
    D: float | None
    kBT: float | None


def evaluate_chain(chain: Chain, pump: PumpSpec) -> dict:
    """Intensity, forces, diffusion and temperature for one chain.

    The diffusion coefficient carries the full commutator bookkeeping: one
    loss mode per absorber (see `operator_fields`).  kBT is None in heating
    regions.  Intensity, F0 and dF/dv are the grid engine's array formulas
    on one-element arrays, so a left-pumped MIM chain gives the `scan`
    cell's values bit for bit.
    """
    k0, z = chain.k0, chain.mobile.pol.zeta
    fields = solve_dynamic(chain, pump)
    A0, A1, B0f, B1 = (np.array([v]) for v in (fields.A0, fields.A1, fields.B0f, fields.B1))
    friction = _velocity_force(A0, A1, B0f, B1, z, k0)[0] / C_LIGHT
    d_coeff = diffusion(fields.static(), operator_fields(chain), chain.mobile.pol, k0)
    kbt = float(_kbt(d_coeff, friction))
    return {
        "intensity": float((abs(A0 + B0f) ** 2)[0]),
        "F0": float(_static_force(A0, B0f, z, k0)[0]),
        "dFdv": float(friction),
        "D": float(d_coeff),
        "kBT": None if math.isnan(kbt) else kbt,
    }


def point_quantities(config: MimConfig, x: float, dlc: float) -> ScanPoint:
    """Intensity, forces, diffusion and temperature at one grid point.

    The grid engine of `scan` on a batch of one point, so the result equals
    the `scan` cell at the same (x, dlc) bit for bit.
    """
    values = _grid_solve(config, np.array([x], dtype=float), np.array([dlc], dtype=float),
                         _quantities, first_order=True)
    return _scan_point(x, dlc, values[:, 0])


# ---------------------------------------------------------------------------
# grid engine: the MIM chain over arrays of gap lengths
# ---------------------------------------------------------------------------


# Grid points per vectorised block: enough to amortise numpy's per-call
# overhead (a 41 x 41 scan is one block), few enough to keep each (P,)
# complex entry array at 32 KiB.  Stay
# below 16384 points: from 256 KiB on, numpy writes `x * np.conj(y)` into
# its temporary operand, and that in-place complex product rounds
# differently in the last bits, so the output would depend on the block size.
_BLOCK_POINTS = 2048


def _quantities(config: MimConfig, solution) -> np.ndarray:
    """(intensity, F0, dFdv, D, kBT) of `evaluate_chain` as a (5, P) array
    from a first-order kernel solution; NaN marks singular points.

    The MIM is lossless, so the noise columns are the static fields at the
    two unit pumps: the solution's own fields over its pump from the
    left, and from the right the left face r (m1_22, -m1_21) that M1 maps
    to a pure left output, r = 1/b being that output (the composed matrix
    has unit determinant).
    """
    k0 = config.k0
    z = complex(config.membrane_zeta)
    A0, B0f, C0f, D0f, _, _ = solution.fields
    A1, B1 = solution.first[:2]
    out = np.empty((5, A0.size))
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        out[0] = abs(A0 + B0f) ** 2
        out[1] = solution.f0
        out[2] = _velocity_force(A0, A1, B0f, B1, z, k0) / C_LIGHT
        if z == 0:
            out[3] = 0.0  # nothing scatters, no momentum kicks
        else:
            # at zero power the fields are zero, so is every Gram term
            b0 = solution.pump or 1.0
            _, _, m21, m22 = solution.m1
            r = 1 / solution.m[3]
            ar, br = m22 * r, -m21 * r
            cr, dr = _right_face(ar, br, z)
            out[3] = _diffusion(A0, B0f, C0f, D0f, np.stack([A0 / b0, ar]),
                                np.stack([B0f / b0, br]), np.stack([C0f / b0, cr]),
                                np.stack([D0f / b0, dr]), k0)
        singular = solution.singular | ~np.isfinite(out[:4]).all(axis=0)
    out[:4, singular] = np.nan
    out[4] = _kbt(out[3], out[2])
    return out


def _grid_solve(config: MimConfig, x: np.ndarray, dlc: np.ndarray, finish,
                first_order: bool = False) -> np.ndarray:
    """`finish(config, solution)` of the kernel's solutions of the MIM
    chains at the points (x, dlc), broadcast against each other and taken
    in row-major order, one block of points at a time, joined along the
    last axis.

    The kernel always sees a left pump.  A right pump is the left pump of
    the reversed element list, the chain with its gaps swapped (for the
    mirror-symmetric MIM, the chain at -x bit for bit); its F0 is negated
    back, and intensity, dF/dv, D and kBT are the same in both frames.
    """
    mirrored = config.pump_side == "right"
    left, right = (gap.ravel() for gap in _gaps(config, x, dlc))
    if mirrored:
        left, right = right, left
    if not (np.isfinite(left).all() and np.isfinite(right).all()):
        raise ChainError("propagation lengths must be finite and >= 0")
    b0 = complex(PumpSpec.one_sided(config.power_watts, config.wavelength).B0)
    mirror = Scatterer.of(config.mirror_zeta)
    blocks = []
    for start in range(0, left.size, _BLOCK_POINTS):
        block = slice(start, start + _BLOCK_POINTS)
        solution = _solve_left_pump((mirror, left[block]), complex(config.membrane_zeta),
                                    (right[block], mirror), config.k0, b0, first_order)
        if mirrored:
            solution = solution._replace(f0=-solution.f0)
        blocks.append(finish(config, solution))
    return np.concatenate(blocks, axis=-1)


def _scan_point(x: float, dlc: float, values: np.ndarray) -> ScanPoint:
    """ScanPoint of one (intensity, F0, dFdv, D, kBT) column; NaN becomes None."""
    return ScanPoint(x, dlc, *(None if v != v else v for v in values.tolist()))


def _folds(bases: np.ndarray, lo: float, hi: float, lam: float) -> tuple:
    """Every fold n of the branch values `bases` with base + n lambda/2 in
    [lo, hi], as flat columns (which, n, base + n lambda/2): `which`
    indexes `bases` in order, and n ascends within each base."""
    n_lo = np.ceil((lo - bases) / (lam / 2))
    n_hi = np.floor((hi - bases) / (lam / 2))
    counts = np.maximum(n_hi - n_lo + 1, 0).astype(np.intp)
    which = np.repeat(np.arange(bases.size), counts)
    first = np.repeat(np.cumsum(counts) - counts, counts)
    n = (n_lo[which] + (np.arange(which.size) - first)).astype(np.int64)
    return which, n, bases[which] + n * lam / 2


@_record(eq=False)
class ScanResult:
    """Columnar scan: one (x_count, dlc_count) float array per quantity.

    NaN marks an undefined value: every quantity at a singular point, kBT
    outside cooling regions.  `point(i, j)` is the view of one grid point,
    with None for NaN.  `overlay` holds the resonance overlay as columns
    (x, branch, fold, dlc), one row per fold n of a branch curve inside the
    grid's dLc range: `branch` indexes BRANCHES, `fold` is n and `dlc` the
    curve's value plus n lambda/2; rows go by branch, then x, then n.
    """

    config: MimConfig
    grid: ScanGrid
    intensity: np.ndarray
    F0: np.ndarray
    dFdv: np.ndarray
    D: np.ndarray
    kBT: np.ndarray
    overlay: tuple  # columns (x, branch, fold, dlc); branch indexes BRANCHES

    QUANTITIES = ("intensity", "F0", "dFdv", "D", "kBT")
    BRANCHES = ("plus", "minus")

    @property
    def missing_points(self) -> int:
        return int(np.isnan(self.intensity).sum())

    def point(self, i: int, j: int) -> ScanPoint:
        return _scan_point(float(self.grid.x_values[i]), float(self.grid.dlc_values[j]),
                           np.array([getattr(self, q)[i, j] for q in self.QUANTITIES]))


def scan(config: MimConfig, grid: ScanGrid) -> ScanResult:
    """Row-major scan over the grid, evaluated as array arithmetic.

    The grid goes through the closed-form solve in fixed-size blocks of
    points; each cell equals `point_quantities` at the same point bit for
    bit.
    """
    xs = grid.x_values
    shape = (grid.x_count, grid.dlc_count)
    intensity, f0, dfdv, d_coeff, kbt = (
        c.reshape(shape) for c in _grid_solve(config, xs[:, None], grid.dlc_values[None, :],
                                              _quantities, first_order=True))

    lo, hi = float(np.min(grid.dlc_values)), float(np.max(grid.dlc_values))
    which, fold, dlc_fold = _folds(np.concatenate(overlay_base_curves(config, xs)),
                                   lo, hi, config.wavelength)
    overlay = (xs[which % xs.size], which // xs.size, fold, dlc_fold)

    return ScanResult(config=config, grid=grid, intensity=intensity, F0=f0,
                      dFdv=dfdv, D=d_coeff, kBT=kbt, overlay=overlay)


# ---------------------------------------------------------------------------
# bare-cavity calibration and resonance overlay
# ---------------------------------------------------------------------------


def _bare_mirror(config: MimConfig) -> Polarisability:
    """End-mirror polarisability of the bare cavity; CalibrationError if the
    mirrors reflect nothing."""
    pol = Polarisability(config.mirror_zeta)
    if pol.reflectivity == 0:
        raise CalibrationError(
            "mirror_zeta = 0 makes the end mirrors transparent: the bare "
            "cavity has no resonance to calibrate against"
        )
    return pol


def bare_peak(config: MimConfig) -> float:
    """Detuning dlc of the bare cavity's resonance peak, in [-lambda/4, lambda/4).

    With a transparent membrane the chain is a Fabry-Perot of two thin
    mirrors over Lc + dlc.  Its buildup |t_m|^2 / |1 - r_m^2 e^{2i k0 (Lc + dlc)}|^2
    peaks where the round-trip phase 2 k0 (Lc + dlc) + 2 arg(r_m) vanishes
    mod 2 pi, i.e. at dlc = -Lc - arg(r_m) / k0 mod lambda/2; the peak
    nearest dlc = 0 is returned.  Lc is reduced mod lambda/2 first (a float
    remainder is exact), so no digits go to the many wavelengths in Lc.
    Raises CalibrationError for transparent mirrors.
    """
    rm = _bare_mirror(config).reflectivity
    period = config.wavelength / 2
    dlc = -config.cavity_length % period - np.angle(rm) / config.k0
    return float((dlc + period / 2) % period - period / 2)


def bare_resonance(config: MimConfig) -> tuple[float, float]:
    """(dlc_res, fwhm_dlc) of the bare cavity: `bare_peak` and the exact
    full width at half maximum of the two-mirror Airy profile.

    The buildup falls to half its peak where 4R sin^2(k0 ddlc) = (1 - R)^2,
    R = |r_m|^2, so fwhm_dlc = 2 asin((1 - R) / (2 sqrt R)) / k0, with
    1 - R taken as |t_m|^2 = 1 / (1 + zeta_m^2) to keep strong mirrors'
    digits.  Mirrors with R < 3 - 2 sqrt 2 (|mirror_zeta| below ~0.455)
    never fall to half the peak and raise CalibrationError, as do
    transparent mirrors.
    """
    pol = _bare_mirror(config)
    sin_half = abs(pol.transmissivity) ** 2 / (2 * abs(pol.reflectivity))
    if sin_half > 1:
        raise CalibrationError(
            f"bare-cavity intensity never falls to half its peak "
            f"(mirror_zeta = {config.mirror_zeta}): the mirrors are "
            "too weak for a linewidth; use a larger |mirror_zeta|"
        )
    return bare_peak(config), 2 * math.asin(sin_half) / config.k0


def overlay_base_curves(
    config: MimConfig, x_values, anchor: float | None = None
):
    """Resonance branch curves mapped to detuning (one fold each).

    dlc(x) = anchor + lambda/4 - (Lc/omega0) dW_branch(x); copies repeat
    every lambda/2.  `anchor` defaults to the bare resonance peak (`bare_peak`).
    """
    if anchor is None:
        anchor = bare_peak(config)
    xs = np.asarray(x_values, dtype=float)
    shifts = np.reshape(resonance_shifts(config.membrane_zeta, xs,
                                         config.cavity_length, config.k0), (2, -1))
    scale = config.cavity_length / config.omega0
    base_plus, base_minus = anchor + config.wavelength / 4 - scale * shifts
    return base_plus, base_minus


def overlay_candidates(
    config: MimConfig,
    x: float,
    window: tuple[float, float],
    anchor: float | None = None,
) -> list[float]:
    """All predicted resonance detunings inside `window` at position x."""
    bases = np.concatenate(overlay_base_curves(config, [x], anchor=anchor))
    return sorted(_folds(bases, *window, config.wavelength)[2].tolist())


# ---------------------------------------------------------------------------
# coupled-cavities model
# ---------------------------------------------------------------------------


@_record
class CoupledCavityParams:
    """Two-coupled-modes model parameters.

    g = c |t| / Lc is the photon tunnelling rate through the membrane,
    kappa_c the cavity half-linewidth, delta the pump detuning from the
    degenerate sub-cavity resonance at x = 0, and omega_prime the fixed
    maximal linear coupling -2 k0 c / Lc.
    """

    g: float
    kappa_c: float
    omega_prime: float
    power_watts: float

    def __post_init__(self):
        if self.kappa_c <= 0:
            raise ChainError("kappa_c must be positive")
        if self.g < 0:
            raise ChainError("g must be >= 0")


def coupled_cavity_force(
    params: CoupledCavityParams, x: float, delta: float, k0: float
) -> float:
    """Static force of the coupled-cavities model, in newtons.

        F0 = -(2 w' kc / (k0 c)) * [kc^2 + (delta + w' x)^2 - g^2]
             / [(2 kc delta)^2 + (kc^2 + w'^2 x^2 + g^2 - delta^2)^2] * P_in
    """
    w1 = params.omega_prime
    kc = params.kappa_c
    g = params.g
    num = kc**2 + (delta + w1 * x) ** 2 - g**2
    den = (2 * kc * delta) ** 2 + (kc**2 + w1**2 * x**2 + g**2 - delta**2) ** 2
    return -(2 * w1 * kc / (k0 * C_LIGHT)) * (num / den) * params.power_watts


@_record
class CoupledCalibration:
    params: CoupledCavityParams
    dlc_center: float  # detuning of the x = 0 degeneracy point
    anchor: float      # bare resonance peak used for the overlay
    fwhm_dlc: float


# Probe responses of the two degeneracy-point copies closer than this,
# relative to the larger, are a tie.  With a transparent membrane the
# copies are one bare cavity, and rounding of the gaps alone sets them
# apart by up to ~4e-10 (mirror zeta -100, Lc 1-100 mm); a membrane of
# polarisability zeta sets them apart by ~3-6 |zeta|.
_TIE_RTOL = 1e-9


def calibrate_coupled_params(config: MimConfig) -> CoupledCalibration:
    """Calibrate the coupled model against the same chain.

    kappa_c comes from the bare cavity's exact half width (`bare_resonance`:
    the two-mirror Airy profile, not a finesse approximation), g from
    c|t|/Lc with |t|^2 = 1/(1 + zeta^2), and the x = 0 degeneracy point
    from the midpoint of the two analytic branches, anchored like the
    overlay.  Of the two lambda/2-spaced copies of that point, the one
    where the chain responds is picked by four static probes of the grid
    engine, so no scalar solve runs; when the two responses tie, the
    copy nearer dlc = 0 is taken.  The probes sit at x = 0, where the
    mirrored chain of a right pump is the chain itself: both pump sides
    probe it under a left pump and pick the same copy.
    """
    anchor, fwhm = bare_resonance(config)
    kappa_c = config.omega0 * (fwhm / 2) / config.cavity_length
    t_abs = 1.0 / math.sqrt(1.0 + config.membrane_zeta**2)
    g = C_LIGHT * t_abs / config.cavity_length
    w1 = -2 * config.k0 * C_LIGHT / config.cavity_length
    bp, bm = overlay_base_curves(config, [0.0], anchor=anchor)
    lam = config.wavelength
    mid = (bp[0] + bm[0]) / 2
    # the maps repeat only every lambda in dlc (modes one FSR apart carry
    # opposite parity at the membrane), so of the two lambda/2-spaced
    # copies of the degeneracy point only one hosts the physical mode
    # pair; probe the chain response at both and keep the live one.  The
    # response of a copy is |B0f|^2 + |D0f|^2 summed over the two points a
    # coupling split away at x = 0, a singular one counting 0; the four
    # probes are one static batch of the grid engine
    cand = [(mid + lam / 2) % lam - lam / 2]
    cand.append(cand[0] + (lam / 2 if cand[0] < 0 else -lam / 2))
    split_dlc = g * config.cavity_length / config.omega0
    probes = np.array([c + s * split_dlc for c in cand for s in (-1.0, +1.0)])

    def response(config, solution):
        _a0, b0f, _c0f, d0f, _, _ = solution.fields
        with np.errstate(over="ignore", invalid="ignore"):
            return np.where(solution.singular, 0.0, abs(b0f) ** 2 + abs(d0f) ** 2)

    total = _grid_solve(config, np.zeros(probes.size), probes, response)
    responses = total.reshape(2, 2).sum(axis=1)
    if abs(responses[0] - responses[1]) <= _TIE_RTOL * responses.max():
        # a tie (a transparent membrane makes both copies the same bare
        # cavity): rounding must not decide, so take the copy nearer dlc = 0
        center = min(cand, key=abs)
    else:
        center = cand[int(np.argmax(responses))]
    params = CoupledCavityParams(
        g=g, kappa_c=kappa_c, omega_prime=w1, power_watts=config.power_watts
    )
    return CoupledCalibration(params=params, dlc_center=float(center),
                              anchor=anchor, fwhm_dlc=fwhm)


@_record(eq=False)
class ComparisonResult:
    """Columnar comparison: one (x_count, dlc_count) float array per column.

    NaN in `F0_tmm` and `discrepancy` marks a singular chain solve; every
    `discrepancy` and the `summary` are NaN when the chain force is zero
    (or singular) at every grid point, where no normalisation exists.
    """

    config: MimConfig
    grid: ScanGrid
    calibration: CoupledCalibration
    F0_tmm: np.ndarray
    F0_coupled: np.ndarray
    discrepancy: np.ndarray
    summary: float
    """Normalized L2 discrepancy ||F_tmm - F_cc|| / ||F_tmm|| over the grid."""


def compare_models(config: MimConfig, grid: ScanGrid) -> ComparisonResult:
    """Static force from the chain vs the coupled-cavities model.

    The pump detuning at a grid point is delta = omega0 (dlc - dlc_center)
    / Lc: lengthening the cavity lowers its resonances, putting the fixed
    pump on the blue side.  The model's membrane coordinate runs toward the
    right mirror, while the chain layout shortens the left gap for +x, so
    the model is evaluated at -x.  Per-point discrepancies are normalised
    by the RMS chain force over the grid.  The chain force is the static
    solve of the `scan` engine; both models are evaluated as array
    arithmetic over the whole grid.
    """
    cal = calibrate_coupled_params(config)
    x, dlc = grid.x_values[:, None], grid.dlc_values[None, :]
    shape = (grid.x_count, grid.dlc_count)
    tmm = _grid_solve(config, x, dlc, lambda config, solution: np.where(
        solution.singular, np.nan, solution.f0)).reshape(shape)

    delta = config.omega0 * (dlc - cal.dlc_center) / config.cavity_length
    cc = coupled_cavity_force(cal.params, -x, delta, config.k0)

    valid = np.isfinite(tmm)
    rms = float(np.sqrt(np.mean(tmm[valid] ** 2))) if valid.any() else 0.0
    if rms > 0:
        disc = np.abs(tmm - cc) / rms  # NaN where tmm is
        summary = float(np.linalg.norm(tmm[valid] - cc[valid]) / np.linalg.norm(tmm[valid]))
    else:
        disc = np.full_like(tmm, np.nan)
        summary = math.nan
    return ComparisonResult(config=config, grid=grid, calibration=cal, F0_tmm=tmm,
                            F0_coupled=cc, discrepancy=disc, summary=summary)
