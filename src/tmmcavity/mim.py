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
import numbers
from dataclasses import asdict, dataclass

import numpy as np

from .constants import c as C_LIGHT
from .dynamics import _first_order, _velocity_force, force_with_velocity, solve_dynamic
from .elements import (
    Chain,
    PumpSpec,
    Scatterer,
    Segment,
    _adjugate,
    propagation_matrix,
    scatterer_matrix,
)
from .errors import CalibrationError, ChainError, SingularSolveError
from .noise import _diffusion, _kbt, attach_loss_modes, diffusion, operator_fields
from .opalg import VOMatrix, _mm, moving_scatterer_matrix
from .statics import _static_force, _static_solution, resonance_shifts, solve_static

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
    and the value can be overridden freely).  Every number must be a finite
    real; anything else raises ChainError.
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

    Scalars or arrays (elementwise); raises ChainError if any |x| exceeds
    one wavelength or any gap collapses.
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
    kbt = float(_kbt(d_coeff, report.friction))
    return {
        "intensity": float(fields.static().intensity),
        "F0": float(report.F0),
        "dFdv": float(report.friction),
        "D": float(d_coeff),
        "kBT": None if math.isnan(kbt) else kbt,
    }


def point_quantities(config: MimConfig, x: float, dlc: float) -> ScanPoint:
    """Intensity, forces, diffusion and temperature at one grid point.

    The grid engine of `scan` on a batch of one point, so the result equals
    the `scan` cell at the same (x, dlc) bit for bit.
    """
    values = _grid_stages(config, np.array([x], dtype=float),
                          np.array([dlc], dtype=float), _dynamic_stage)
    return _scan_point(x, dlc, values[:, 0])


# ---------------------------------------------------------------------------
# grid engine: the MIM chain over arrays of gap lengths
# ---------------------------------------------------------------------------


# Grid points per vectorised block: enough to amortise numpy's per-call
# overhead, few enough to keep the block's jets at a few hundred kilobytes.
_BLOCK_POINTS = 256


def _grid_points(grid: ScanGrid) -> tuple[np.ndarray, np.ndarray]:
    """x and dlc of every grid point, flat in row-major (x-outer) order."""
    return (np.repeat(grid.x_values, grid.dlc_count),
            np.tile(grid.dlc_values, grid.x_count))


@dataclass(frozen=True)
class _StaticStage:
    """Static solve of a block of MIM chains, one per pair of gap lengths.

    `m1` = mirror P(left) and `m2` = P(right) mirror are the chain's two
    sides around the membrane, `m` the composed matrix and `mu` = m1^-1;
    `fields` are `_static_solution`'s (A0, B0f, C0f, D0f, out_left,
    out_right).  `singular` marks points whose solve divides by zero or
    does not stay finite; every later stage reads it.
    """

    left: np.ndarray
    right: np.ndarray
    p_left: np.ndarray
    p_right: np.ndarray
    m1: np.ndarray
    m2: np.ndarray
    m: np.ndarray
    mu: np.ndarray
    fields: tuple
    F0: np.ndarray
    singular: np.ndarray


def _static_stage(config: MimConfig, pump: PumpSpec, left, right) -> _StaticStage:
    """Static fields and force over arrays of gap lengths, composed like
    `solve_static`."""
    k0 = config.k0
    z = complex(config.membrane_zeta)
    mirror = scatterer_matrix(config.mirror_zeta)
    p_left, p_right = propagation_matrix(k0, left), propagation_matrix(k0, right)
    m1, m2 = _mm(mirror, p_left), _mm(p_right, mirror)
    mu = _adjugate(m1)  # unit determinant
    # singular points divide by zero or overflow; the mask below marks them
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        m = _mm(_mm(m1, scatterer_matrix(config.membrane_zeta)), m2)
        fields = _static_solution(m, mu, complex(pump.B0), complex(pump.C0), z)
        f0 = _static_force(fields[0], fields[1], z, k0)
    singular = (m[:, 1, 1] == 0) | ~np.isfinite(f0)
    return _StaticStage(left, right, p_left, p_right, m1, m2, m, mu, fields, f0, singular)


def _propagation_deriv(d: np.ndarray, p: np.ndarray) -> np.ndarray:
    """k-derivative diag(i d, -i d) P of a stack of propagation matrices."""
    dp = np.zeros_like(p)
    dp[:, 0, 0] = 1j * d * p[:, 0, 0]
    dp[:, 1, 1] = -1j * d * p[:, 1, 1]
    return dp


def _stack_commutator(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """[X, Y^dag] for each point of (N, modes) coefficient stacks."""
    return (x * np.conj(y)).sum(axis=-1)


def _dynamic_stage(config: MimConfig, pump: PumpSpec, st: _StaticStage) -> np.ndarray:
    """(intensity, F0, dFdv, D, kBT) of `evaluate_chain` as a (5, N) array
    for the points of a static stage; NaN marks singular points.

    The first-order jets of the two sides are the stage's m1 and m2 with
    their k-derivatives mirror dP(left) and dP(right) mirror.  The MIM is
    lossless, so the noise columns are the static fields at the two unit
    pumps, from the stage's composed matrix.
    """
    k0 = config.k0
    z = complex(config.membrane_zeta)
    mirror = scatterer_matrix(config.mirror_zeta)
    dm1 = _mm(mirror, _propagation_deriv(st.left, st.p_left))
    dm2 = _mm(_propagation_deriv(st.right, st.p_right), mirror)
    comp = (VOMatrix(k0, st.m1, dm1) @ moving_scatterer_matrix(z, k0)
            @ VOMatrix(k0, st.m2, dm2))
    A0, B0f, C0f, D0f, _, _ = st.fields
    out = np.empty((5, st.m.shape[0]))
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        A1, B1, _, _, _, _ = _first_order(comp, VOMatrix(k0, st.mu, _adjugate(dm1)), k0,
                                          complex(pump.B0), complex(pump.C0), A0, B0f, z)
        out[0] = abs(A0 + B0f) ** 2
        out[1] = st.F0
        out[2] = _velocity_force(A0, A1, B0f, B1, z, k0) / C_LIGHT
        if z == 0:
            out[3] = 0.0  # nothing scatters, no momentum kicks
        else:
            unit_left = _static_solution(st.m, st.mu, 1.0, 0.0, z)
            unit_right = _static_solution(st.m, st.mu, 0.0, 1.0, z)
            vecs = [np.stack([unit_left[i], unit_right[i]], axis=-1) for i in range(4)]
            out[3] = _diffusion(A0, B0f, C0f, D0f, *vecs, _stack_commutator, k0)
        singular = st.singular | ~np.isfinite(out[:4]).all(axis=0)
    out[:4, singular] = np.nan
    out[4] = _kbt(out[3], out[2])
    return out


def _grid_stages(config: MimConfig, x: np.ndarray, dlc: np.ndarray, finish) -> np.ndarray:
    """`finish(config, pump, static_stage)` over the points (x, dlc), one
    block of points at a time, joined along the last axis."""
    left, right = _gaps(config, x, dlc)
    pump = pump_for(config)
    return np.concatenate([
        finish(config, pump, _static_stage(config, pump, left[start:start + _BLOCK_POINTS],
                                           right[start:start + _BLOCK_POINTS]))
        for start in range(0, x.size, _BLOCK_POINTS)], axis=-1)


def _scan_point(x: float, dlc: float, values: np.ndarray) -> ScanPoint:
    """ScanPoint of one (intensity, F0, dFdv, D, kBT) column; NaN becomes None."""
    return ScanPoint(x, dlc, *(None if v != v else v for v in values.tolist()))


def _folds(base: float, lo: float, hi: float, lam: float) -> list:
    """(n, base + n lambda/2) for every fold n of a branch value in [lo, hi]."""
    n_lo = math.ceil((lo - base) / (lam / 2))
    n_hi = math.floor((hi - base) / (lam / 2))
    return [(n, base + n * lam / 2) for n in range(n_lo, n_hi + 1)]


@dataclass(frozen=True, eq=False)
class ScanResult:
    """Columnar scan: one (x_count, dlc_count) float array per quantity.

    NaN marks an undefined value: every quantity at a singular point, kBT
    outside cooling regions.  `point(i, j)` is the view of one grid point,
    with None for NaN.
    """

    config: MimConfig
    grid: ScanGrid
    intensity: np.ndarray
    F0: np.ndarray
    dFdv: np.ndarray
    D: np.ndarray
    kBT: np.ndarray
    overlay: tuple  # rows (x, branch_label, fold_index, dlc)

    QUANTITIES = ("intensity", "F0", "dFdv", "D", "kBT")

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
    x, dlc = _grid_points(grid)
    shape = (grid.x_count, grid.dlc_count)
    intensity, f0, dfdv, d_coeff, kbt = (
        c.reshape(shape) for c in _grid_stages(config, x, dlc, _dynamic_stage))

    overlay = []
    lo, hi = float(np.min(grid.dlc_values)), float(np.max(grid.dlc_values))
    base_plus, base_minus = overlay_base_curves(config, grid.x_values)
    for label, base in (("plus", base_plus), ("minus", base_minus)):
        for xv, bv in zip(grid.x_values.tolist(), base.tolist()):
            overlay.extend((xv, label, n, dv)
                           for n, dv in _folds(bv, lo, hi, config.wavelength))

    return ScanResult(config=config, grid=grid, intensity=intensity, F0=f0,
                      dFdv=dfdv, D=d_coeff, kBT=kbt, overlay=tuple(overlay))


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
    bp, bm = overlay_base_curves(config, [x], anchor=anchor)
    return sorted(dv for b in (float(bp[0]), float(bm[0]))
                  for _, dv in _folds(b, *window, config.wavelength))


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


@dataclass(frozen=True, eq=False)
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
    stage of the `scan` engine; both models are evaluated as array
    arithmetic over the whole grid.
    """
    cal = calibrate_coupled_params(config)
    x, dlc = _grid_points(grid)
    tmm = _grid_stages(config, x, dlc,
                       lambda config, pump, st: np.where(st.singular, np.nan, st.F0))

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
    shape = (grid.x_count, grid.dlc_count)
    return ComparisonResult(config=config, grid=grid, calibration=cal,
                            F0_tmm=tmm.reshape(shape), F0_coupled=cc.reshape(shape),
                            discrepancy=disc.reshape(shape), summary=summary)
