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
the anchor measured from the bare cavity of the same configuration, which
absorbs both the arbitrary Lc mod lambda offset and the end-mirror
reflection phase.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass

import numpy as np
from scipy.constants import c as C_LIGHT

from .dynamics import force_with_velocity, solve_dynamic
from .elements import Chain, PumpSpec, Scatterer, Segment
from .errors import CalibrationError, ChainError, SingularSolveError
from .noise import attach_loss_modes, diffusion, operator_fields
from .statics import resonance_shifts, solve_static, static_force

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


@dataclass(frozen=True)
class MimConfig:
    """Parameters of the membrane-in-the-middle setup.

    Lengths in metres, power in watts.  The membrane polarisability is real
    and non-positive (lossless dielectric membrane); the end mirrors share
    one real polarisability `mirror_zeta`, default -30 (|r|^2 ~ 0.99889,
    finesse of order 10^3: resonances resolve on coarse grids in seconds,
    and the value can be overridden freely).
    """

    wavelength: float = 1.064e-6
    cavity_length: float = 6.7e-2
    membrane_zeta: float = -1.0
    mirror_zeta: float = -30.0
    power_watts: float = 1.0
    pump_side: str = "left"

    def __post_init__(self):
        if self.wavelength <= 0 or self.cavity_length <= 0:
            raise ChainError("wavelength and cavity length must be positive")
        if self.membrane_zeta > 0:
            raise ChainError(
                f"membrane polarisability must be real <= 0, got {self.membrane_zeta}"
            )
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


@dataclass(frozen=True)
class ScanGrid:
    """Rectangular (x, dLc) grid, both in metres; row-major x-outer order."""

    x_start: float
    x_stop: float
    x_count: int
    dlc_start: float
    dlc_stop: float
    dlc_count: int

    def __post_init__(self):
        if self.x_count < 1 or self.dlc_count < 1:
            raise ChainError("grid counts must be >= 1")
        for v in (self.x_start, self.x_stop, self.dlc_start, self.dlc_stop):
            if not math.isfinite(v):
                raise ChainError("grid ranges must be finite")
        if self.x_count > 1 and self.x_stop <= self.x_start:
            raise ChainError("x_stop must exceed x_start")
        if self.dlc_count > 1 and self.dlc_stop <= self.dlc_start:
            raise ChainError("dlc_stop must exceed dlc_start")

    @property
    def x_values(self) -> np.ndarray:
        return np.linspace(self.x_start, self.x_stop, self.x_count)

    @property
    def dlc_values(self) -> np.ndarray:
        return np.linspace(self.dlc_start, self.dlc_stop, self.dlc_count)


def build_mim(config: MimConfig, x: float = 0.0, dlc: float = 0.0) -> Chain:
    """Five-element chain for membrane displacement x and detuning dlc.

    The membrane stays well inside the cavity: |x| <= wavelength is
    enforced (the analysis assumes |x| << Lc throughout).
    """
    if abs(x) > config.wavelength:
        raise ChainError(
            f"|x| = {abs(x)} exceeds one wavelength; displacement must stay "
            "small compared to the cavity length"
        )
    half = config.cavity_length / 2 + dlc / 2
    left_gap = half - x
    right_gap = half + x
    if left_gap < 0 or right_gap < 0:
        raise ChainError("detuning or displacement collapses a sub-cavity")
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


def pump_for(config: MimConfig) -> PumpSpec:
    return PumpSpec.one_sided(config.power_watts, config.wavelength, config.pump_side)


@dataclass(frozen=True)
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

    Loss modes are attached automatically for absorptive chains, so the
    diffusion coefficient always carries the full commutator bookkeeping.
    kBT is None in heating regions.
    """
    chain = attach_loss_modes(chain)
    fields = solve_dynamic(chain, pump)
    report = force_with_velocity(fields, chain.mobile.pol, chain.k0)
    ops = operator_fields(chain)
    d_coeff = diffusion(fields.static(), ops, chain.mobile.pol, chain.k0)
    kbt = None
    if report.friction < 0:
        kbt = float(-d_coeff / report.friction)
    return {
        "intensity": float(fields.static().intensity),
        "F0": float(report.F0),
        "dFdv": float(report.friction),
        "D": float(d_coeff),
        "kBT": kbt,
    }


def point_quantities(config: MimConfig, x: float, dlc: float) -> ScanPoint:
    """Intensity, forces, diffusion and temperature at one grid point."""
    try:
        q = evaluate_chain(build_mim(config, x, dlc), pump_for(config))
    except SingularSolveError:
        return ScanPoint(x=x, dlc=dlc, intensity=None, F0=None, dFdv=None,
                         D=None, kBT=None)
    return ScanPoint(x=x, dlc=dlc, intensity=q["intensity"], F0=q["F0"],
                     dFdv=q["dFdv"], D=q["D"], kBT=q["kBT"])


def _scan_chunk(args) -> list:
    config, grid, start, stop = args
    xs = grid.x_values
    dls = grid.dlc_values
    nd = grid.dlc_count
    rows = []
    for flat in range(start, stop):
        i, j = divmod(flat, nd)
        rows.append(point_quantities(config, float(xs[i]), float(dls[j])))
    return rows


@dataclass(frozen=True)
class ScanResult:
    config: MimConfig
    grid: ScanGrid
    points: tuple
    overlay: tuple  # rows (x, branch_label, fold_index, dlc)

    def point(self, i: int, j: int) -> ScanPoint:
        return self.points[i * self.grid.dlc_count + j]

    def quantity_map(self, name: str) -> np.ndarray:
        """Grid array of one quantity; None becomes NaN."""
        vals = np.full((self.grid.x_count, self.grid.dlc_count), np.nan)
        for i in range(self.grid.x_count):
            for j in range(self.grid.dlc_count):
                v = getattr(self.point(i, j), name)
                if v is not None:
                    vals[i, j] = v
        return vals


def scan(config: MimConfig, grid: ScanGrid, workers: int = 1) -> ScanResult:
    """Row-major scan over the grid; deterministic across worker counts.

    Grid points are independent, so the rows are computed in index order
    (possibly chunked over a process pool) and assembled deterministically:
    identical inputs give bit-identical tables regardless of `workers`.
    """
    total = grid.x_count * grid.dlc_count
    if workers <= 1 or total < 4:
        points = _scan_chunk((config, grid, 0, total))
    else:
        nchunks = min(total, workers * 8)
        bounds = np.linspace(0, total, nchunks + 1, dtype=int)
        jobs = [
            (config, grid, int(bounds[i]), int(bounds[i + 1]))
            for i in range(nchunks)
            if bounds[i] < bounds[i + 1]
        ]
        points = []
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for chunk in pool.map(_scan_chunk, jobs):
                points.extend(chunk)

    overlay = []
    lo, hi = float(np.min(grid.dlc_values)), float(np.max(grid.dlc_values))
    base_plus, base_minus = overlay_base_curves(config, grid.x_values)
    lam = config.wavelength
    for label, base in (("plus", base_plus), ("minus", base_minus)):
        for xv, bv in zip(grid.x_values, base):
            n_lo = math.ceil((lo - bv) / (lam / 2))
            n_hi = math.floor((hi - bv) / (lam / 2))
            for n in range(n_lo, n_hi + 1):
                overlay.append((float(xv), label, n, float(bv + n * lam / 2)))

    return ScanResult(config=config, grid=grid, points=tuple(points),
                      overlay=tuple(overlay))


# ---------------------------------------------------------------------------
# bare-cavity calibration and resonance overlay
# ---------------------------------------------------------------------------


def _bare_buildup(config: MimConfig, dlc: float) -> float:
    """Travelling-wave intensity at the membrane plane of the bare cavity.

    The zeta = 0 membrane is a transparent probe; the rightward amplitude
    magnitude is position-independent, which makes the linewidth
    measurement insensitive to where the probe sits.
    """
    bare = config.replace(membrane_zeta=0.0)
    chain = build_mim(bare, 0.0, dlc)
    fields = solve_static(chain, pump_for(bare))
    return abs(fields.B0f) ** 2


def _bare_seed(config: MimConfig) -> tuple[float, float]:
    """Analytic (dlc_guess, width_guess) of the bare resonance.

    Round-trip phase and two-mirror finesse; they only seed the searches.
    """
    lam = config.wavelength
    k0 = config.k0
    rm = Scatterer.of(config.mirror_zeta).pol.reflectivity
    if rm == 0:
        raise CalibrationError(
            "mirror_zeta = 0 makes the end mirrors transparent: the bare "
            "cavity has no resonance to calibrate against"
        )
    # round-trip phase 2 k0 (Lc + dlc) + 2 arg(r_m) = 0 mod 2 pi
    phase = 2 * k0 * config.cavity_length + 2 * np.angle(rm)
    dlc_guess = (-phase % (2 * math.pi)) / (2 * k0)
    dlc_guess = (dlc_guess + lam / 4) % (lam / 2) - lam / 4
    big_r = abs(rm) ** 2
    finesse = math.pi * math.sqrt(big_r) / (1 - big_r)
    return dlc_guess, (lam / 2) / finesse


def bare_peak(config: MimConfig) -> float:
    """Detuning dlc of the bare cavity's resonance peak, measured on the chain.

    The analytic round-trip phase only seeds a bounded search of the
    computed intensity profile, so the position stays self-consistent for
    any mirror polarisability.  Raises CalibrationError for transparent
    mirrors.
    """
    from scipy.optimize import minimize_scalar

    dlc_guess, width_guess = _bare_seed(config)
    span = 6 * width_guess
    res = minimize_scalar(
        lambda d: -_bare_buildup(config, d),
        bounds=(dlc_guess - span, dlc_guess + span),
        method="bounded",
        options={"xatol": width_guess * 1e-9},
    )
    return float(res.x)


def bare_resonance(config: MimConfig) -> tuple[float, float]:
    """(dlc_res, fwhm_dlc) of the bare cavity, measured from the chain.

    The peak comes from `bare_peak`; the full width at half maximum is
    measured on the computed intensity profile rather than taken from
    mirror formulas.  The profile repeats every lambda/2 in dlc, so each
    half-maximum crossing is searched within lambda/4 of the peak; weak
    mirrors whose contrast never falls to half the peak raise
    CalibrationError.
    """
    from scipy.optimize import brentq

    _, width_guess = _bare_seed(config)
    dlc_res = bare_peak(config)
    half = _bare_buildup(config, dlc_res) / 2
    reach = config.wavelength / 4

    def crossing(sign: int) -> float:
        dist = min(width_guess, reach)
        while _bare_buildup(config, dlc_res + sign * dist) > half:
            if dist >= reach:
                raise CalibrationError(
                    f"bare-cavity intensity never falls to half its peak "
                    f"(mirror_zeta = {config.mirror_zeta}): the mirrors are "
                    "too weak for a linewidth; use a larger |mirror_zeta|"
                )
            dist = min(dist + width_guess, reach)
        b = dlc_res + sign * dist
        return brentq(lambda d: _bare_buildup(config, d) - half,
                      min(dlc_res, b), max(dlc_res, b), xtol=width_guess * 1e-9)

    fwhm = crossing(+1) - crossing(-1)
    return dlc_res, float(fwhm)


def overlay_base_curves(
    config: MimConfig, x_values, anchor: float | None = None
):
    """Resonance branch curves mapped to detuning (one fold each).

    dlc(x) = anchor + lambda/4 - (Lc/omega0) dW_branch(x); copies repeat
    every lambda/2.  `anchor` defaults to the measured bare resonance peak.
    """
    if anchor is None:
        anchor = bare_peak(config)
    xs = np.asarray(x_values, dtype=float)
    dplus, dminus = resonance_shifts(config.membrane_zeta, xs,
                                     config.cavity_length, config.k0)
    scale = config.cavity_length / config.omega0
    lam = config.wavelength
    base_plus = anchor + lam / 4 - scale * np.atleast_1d(dplus)
    base_minus = anchor + lam / 4 - scale * np.atleast_1d(dminus)
    return base_plus, base_minus


def overlay_candidates(
    config: MimConfig,
    x: float,
    window: tuple[float, float],
    anchor: float | None = None,
) -> list[float]:
    """All predicted resonance detunings inside `window` at position x."""
    lam = config.wavelength
    bp, bm = overlay_base_curves(config, [x], anchor=anchor)
    lo, hi = window
    out = []
    for b in (float(bp[0]), float(bm[0])):
        n_lo = math.ceil((lo - b) / (lam / 2))
        n_hi = math.floor((hi - b) / (lam / 2))
        out.extend(b + n * lam / 2 for n in range(n_lo, n_hi + 1))
    return sorted(out)


# ---------------------------------------------------------------------------
# coupled-cavities model
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class CoupledCalibration:
    params: CoupledCavityParams
    dlc_center: float  # detuning of the x = 0 degeneracy point
    anchor: float      # measured bare resonance used for the overlay
    fwhm_dlc: float


def calibrate_coupled_params(config: MimConfig) -> CoupledCalibration:
    """Calibrate the coupled model against the same chain.

    kappa_c comes from the measured bare-cavity half width (not from a
    mirror formula), g from c|t|/Lc with |t|^2 = 1/(1 + zeta^2), and the
    x = 0 degeneracy point from the midpoint of the two analytic branches,
    anchored like the overlay.
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
    # pair; probe the chain response at both and keep the live one
    cand = [(mid + lam / 2) % lam - lam / 2]
    cand.append(cand[0] + (lam / 2 if cand[0] < 0 else -lam / 2))
    split_dlc = g * config.cavity_length / config.omega0
    pump = pump_for(config)

    def response(center: float) -> float:
        total = 0.0
        for s in (-1.0, +1.0):
            try:
                fields = solve_static(
                    build_mim(config, 0.0, center + s * split_dlc), pump
                )
                total += abs(fields.B0f) ** 2 + abs(fields.D0f) ** 2
            except SingularSolveError:
                pass
        return total

    center = max(cand, key=response)
    params = CoupledCavityParams(
        g=g, kappa_c=kappa_c, omega_prime=w1, power_watts=config.power_watts
    )
    return CoupledCalibration(params=params, dlc_center=float(center),
                              anchor=anchor, fwhm_dlc=fwhm)


@dataclass(frozen=True)
class ComparisonPoint:
    x: float
    dlc: float
    F0_tmm: float | None
    F0_coupled: float
    discrepancy: float | None


@dataclass(frozen=True)
class ComparisonResult:
    config: MimConfig
    grid: ScanGrid
    calibration: CoupledCalibration
    points: tuple
    summary: float
    """Normalized L2 discrepancy ||F_tmm - F_cc|| / ||F_tmm|| over the grid."""


def compare_models(config: MimConfig, grid: ScanGrid) -> ComparisonResult:
    """Static force from the chain vs the coupled-cavities model.

    The pump detuning at a grid point is delta = omega0 (dlc - dlc_center)
    / Lc: lengthening the cavity lowers its resonances, putting the fixed
    pump on the blue side.  The model's membrane coordinate runs toward the
    right mirror, while the chain layout shortens the left gap for +x, so
    the model is evaluated at -x.  Per-point discrepancies are normalised
    by the RMS chain force over the grid.
    """
    cal = calibrate_coupled_params(config)
    pump = pump_for(config)

    tmm = np.full((grid.x_count, grid.dlc_count), np.nan)
    for i, xv in enumerate(grid.x_values):
        for j, dv in enumerate(grid.dlc_values):
            try:
                chain = build_mim(config, float(xv), float(dv))
                fields = solve_static(chain, pump)
                tmm[i, j] = static_force(fields, chain.mobile.pol, chain.k0)
            except SingularSolveError:
                pass

    k0 = config.k0
    cc = np.zeros_like(tmm)
    for i, xv in enumerate(grid.x_values):
        for j, dv in enumerate(grid.dlc_values):
            delta = config.omega0 * (float(dv) - cal.dlc_center) / config.cavity_length
            cc[i, j] = coupled_cavity_force(cal.params, -float(xv), delta, k0)

    valid = np.isfinite(tmm)
    rms = float(np.sqrt(np.mean(tmm[valid] ** 2))) if valid.any() else 0.0
    norm = rms if rms > 0 else 1.0

    points = []
    for i, xv in enumerate(grid.x_values):
        for j, dv in enumerate(grid.dlc_values):
            if np.isfinite(tmm[i, j]):
                f_tmm = float(tmm[i, j])
                disc = abs(f_tmm - cc[i, j]) / norm
            else:
                f_tmm, disc = None, None
            points.append(ComparisonPoint(
                x=float(xv), dlc=float(dv), F0_tmm=f_tmm,
                F0_coupled=float(cc[i, j]), discrepancy=disc,
            ))

    diff = tmm[valid] - cc[valid]
    summary = float(np.linalg.norm(diff) / np.linalg.norm(tmm[valid])) if valid.any() else math.nan
    return ComparisonResult(config=config, grid=grid, calibration=cal,
                            points=tuple(points), summary=summary)
