"""Output checks of the benchmark, run outside the timed region.

Three kinds of check, each turning a bad output into a counted failure:

  oracle      intensity and F0 against an mpmath evaluation of the same
              closed form (the field solution of `statics.solve_static`
              and the force of `statics.static_force`) at 50 digits, on
              the float64 inputs the program received;
  invariants  D >= 0, kBT present exactly where dFdv < 0 and equal to
              -D/dFdv, grid coordinates in row-major order, no missing
              point, and for `compare` the coupled-model force and the
              discrepancy column recomputed from the sidecar calibration;
  reference   at the default seed only, every output column against the
              reference outputs in `reference/`, per-column tolerance in
              REFERENCE_RTOL; missing-value markers must match exactly.

A value passes when |x - ref| <= max(QUANTITY_RTOL |ref|, QUANTITY_ATOL
scale), where `scale` is the natural size of the quantity: the pump photon
flux for intensity and the force 2 hbar k0 Phi on a perfect mirror for F0.
Deep in a stop band the field at the mobile scatterer is exponentially
small; the float64 closed form gets it right to ~3e-11 of the pump at
worst but its plain relative error is large (ROADMAP item 3).  That plain
relative error is measured and reported by `Accuracy`, not gated.
"""

from __future__ import annotations

import gzip
import json
import math
import os

import mpmath
import numpy as np
from scipy.constants import c as C_LIGHT, hbar as HBAR

from workloads import POWER_W, WAVELENGTH, Spec, grid_bounds, mobile_index

K0 = 2 * math.pi / WAVELENGTH
FLUX = POWER_W / (HBAR * 2 * math.pi * C_LIGHT / WAVELENGTH)
FORCE_SCALE = 2 * HBAR * K0 * FLUX
DIFFUSION_SCALE = (HBAR * K0) ** 2 * FLUX

MP_DIGITS = 50
# Relative error allowed against the oracle and the reference.  The
# float64 phase k*L of a 6.7 cm gap (~4e5 rad) is rounded by ~3e-11 rad,
# which the cavity's finesse turns into up to ~1e-7 near a resonance.
QUANTITY_RTOL = 1e-6
# Absolute error allowed, as a share of the quantity's scale, where the
# relative error is beyond QUANTITY_RTOL: on the chain_noise chains of
# seeds 0-15 such values are off by at most 2.9e-11 of the scale, so this
# leaves a margin of ~35.
QUANTITY_ATOL = 1e-9
IDENTITY_RTOL = 1e-12    # kBT = -D/dFdv, F0_coupled and discrepancy re-derived
D_FLOOR = -1e-12         # D >= D_FLOOR * DIFFUSION_SCALE counts as D >= 0
REPORTED_RELERR = 1e-6   # plain relative errors beyond this are counted

# reference comparison, per table and column: relative tolerance, with
# QUANTITY_ATOL * max |column| as the absolute floor; 0 asks for the exact
# value
REFERENCE_RTOL = {
    ".csv": {"x": 0.0, "dLc": 0.0, "chain": 0.0},
    ".overlay.csv": {"x": 0.0, "branch": 0.0, "fold": 0.0, "dLc": QUANTITY_RTOL},
}

MIM_CAVITY = 6.7e-2
MIM_MIRROR = -30.0
MIM_MEMBRANE = -1.0

REFERENCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference")


def within(x: float, ref: float, rtol: float, floor: float) -> bool:
    """|x - ref| <= max(rtol |ref|, floor); a NaN never is."""
    return abs(x - ref) <= max(rtol * abs(ref), floor)


class Accuracy:
    """Plain relative errors |x - ref| / |ref| of oracle-checked values."""

    def __init__(self):
        self.errors: list[float] = []

    def add(self, x: float, ref: float):
        if ref != 0:
            self.errors.append(abs(x - ref) / abs(ref))

    def summary(self) -> dict:
        errs = sorted(self.errors)
        if not errs:
            return {"p50": 0.0, "max": 0.0, "over": 0, "n": 0}
        return {
            "p50": errs[len(errs) // 2],
            "max": errs[-1],
            "over": sum(e > REPORTED_RELERR for e in errs),
            "n": len(errs),
        }


# ---------------------------------------------------------------------------
# mpmath oracle
# ---------------------------------------------------------------------------


def _mul(a, b):
    return (a[0] * b[0] + a[1] * b[2], a[0] * b[1] + a[1] * b[3],
            a[2] * b[0] + a[3] * b[2], a[2] * b[1] + a[3] * b[3])


def _scatterer(zr, zi):
    iz = 1j * mpmath.mpc(zr, zi)
    return (1 + iz, iz, -iz, 1 - iz)


def _propagate(m, e):
    """m @ diag(e, 1/e) for a phase factor e = exp(ikL) of unit modulus."""
    inv = mpmath.conj(e)
    return (m[0] * e, m[1] * inv, m[2] * e, m[3] * inv)


def oracle_static(desc, b0: float = None, c0: float = 0.0) -> tuple[float, float]:
    """(intensity, F0) of the closed-form static solution at MP_DIGITS.

    `desc` lists ("s", Re zeta, Im zeta) and ("d", length) elements with
    the mobile scatterer in the middle; a segment may also be given as
    ("e", exp(i k0 length)) with the phase already evaluated in mpmath.
    """
    with mpmath.workdps(MP_DIGITS):
        k = mpmath.mpf(K0)
        im = mobile_index(desc)

        def compose(elements):
            m = (1, 0, 0, 1)
            for el in elements:
                if el[0] == "s":
                    m = _mul(m, _scatterer(el[1], el[2]))
                else:
                    e = el[1] if el[0] == "e" else mpmath.expj(k * el[1])
                    m = _propagate(m, e)
            return m

        m1 = compose(desc[:im])
        m2 = compose(desc[im + 1:])
        zr, zi = desc[im][1], desc[im][2]
        g, a, d, b = _mul(_mul(m1, _scatterer(zr, zi)), m2)
        big_b = mpmath.sqrt(mpmath.mpf(FLUX)) if b0 is None else mpmath.mpf(b0)
        big_c = mpmath.mpf(c0)
        d_out = (big_b - d * big_c) / b
        a_out = g * big_c + a * d_out
        a0 = m1[3] * a_out - m1[1] * big_b
        bf = -m1[2] * a_out + m1[0] * big_b
        z = mpmath.mpc(zr, zi)
        az2 = abs(z) ** 2
        bracket = ((az2 + z.imag) * abs(a0) ** 2 + (az2 - z.imag) * abs(bf) ** 2
                   + 2 * mpmath.re((az2 + 1j * z.real) * a0 * mpmath.conj(bf)))
        f0 = -2 * mpmath.mpf(HBAR) * k * bracket
        return float(abs(a0 + bf) ** 2), float(f0)


class MimOracle:
    """`oracle_static` at points of the default MIM chain.

    The gaps are Lc/2 + dLc/2 -/+ x, so each phase factor is a product of
    exp(i k0 Lc/2), exp(i k0 dLc/2) and exp(-/+ i k0 x), which are cached
    per grid coordinate: a grid of n x n points needs 2n + 1 exponentials.
    """

    def __init__(self):
        with mpmath.workdps(MP_DIGITS):
            self.k = mpmath.mpf(K0)
            self.base = mpmath.expj(self.k * mpmath.mpf(MIM_CAVITY) / 2)
        self._cache: dict[float, object] = {}

    def _expj(self, v: float):
        if v not in self._cache:
            with mpmath.workdps(MP_DIGITS):
                self._cache[v] = mpmath.expj(self.k * mpmath.mpf(v))
        return self._cache[v]

    def __call__(self, x: float, dlc: float) -> tuple[float, float]:
        with mpmath.workdps(MP_DIGITS):
            common = self.base * self._expj(dlc / 2)  # dlc/2 is exact in binary
            ex = self._expj(x)
            left, right = common * mpmath.conj(ex), common * ex
        return oracle_static([("s", MIM_MIRROR, 0.0), ("e", left),
                              ("s", MIM_MEMBRANE, 0.0), ("e", right),
                              ("s", MIM_MIRROR, 0.0)])


def oracle_problems(intensity, f0, ref, acc: Accuracy) -> list[str]:
    problems = []
    for label, value, exact, scale in (("intensity", intensity, ref[0], FLUX),
                                       ("F0", f0, ref[1], FORCE_SCALE)):
        if value is None:
            continue
        acc.add(value, exact)
        if not within(value, exact, QUANTITY_RTOL, QUANTITY_ATOL * scale):
            problems.append(f"{label} {value!r} vs oracle {exact!r} "
                            f"(error {abs(value - exact) / scale:.2e} of scale)")
    return problems


def diffusion_problems(d_coeff, dfdv=None, kbt=None, has_friction=False) -> list[str]:
    problems = []
    if not d_coeff >= D_FLOOR * DIFFUSION_SCALE:
        problems.append(f"D = {d_coeff!r} < 0")
    if has_friction:
        if (kbt is not None) != (dfdv < 0):
            problems.append(f"kBT {'present' if kbt is not None else 'missing'} "
                            f"with dFdv = {dfdv!r}")
        elif kbt is not None and not math.isclose(kbt, -d_coeff / dfdv,
                                                  rel_tol=IDENTITY_RTOL):
            problems.append(f"kBT {kbt!r} != -D/dFdv {-d_coeff / dfdv!r}")
    return problems


# ---------------------------------------------------------------------------
# per-workload checks; each returns one list of problems per operation
# ---------------------------------------------------------------------------


def parse_csv(data: bytes) -> tuple[list[str], list[list]]:
    """Header and rows; numbers as floats, empty fields as None."""
    lines = data.decode("utf-8").splitlines()
    rows = []
    for line in lines[1:]:
        rows.append([None if f == "" else _number(f) for f in line.split(",")])
    return lines[0].split(","), rows


def _number(text: str):
    try:
        return float(text)
    except ValueError:
        return text


def _grid(spec: Spec, seed: int) -> np.ndarray:
    start, stop = grid_bounds(spec, seed)
    return np.linspace(start, stop, spec.grid)


def _grid_problems(rows, spec: Spec, seed: int) -> list[list[str]]:
    """Per-row problems with the coordinates; ValueError on a wrong row count."""
    axis = _grid(spec, seed)
    expect = [(float(x), float(d)) for x in axis for d in axis]
    if len(rows) != len(expect):
        raise ValueError(f"{len(rows)} rows, expected {len(expect)}")
    out = [[] for _ in expect]
    for i, (row, (x, d)) in enumerate(zip(rows, expect)):
        if row[0] != x or row[1] != d:
            out[i].append(f"row {i} at ({row[0]}, {row[1]}), expected ({x}, {d})")
    return out


def check_scan(files: dict, spec: Spec, seed: int, acc: Accuracy) -> list[list[str]]:
    """Problems per grid point of a scan; raises on output it cannot read."""
    header, rows = parse_csv(files[".csv"])
    if header != ["x", "dLc", "intensity", "F0", "dFdv", "D", "kBT"]:
        raise ValueError(f"unexpected header {header}")
    out = _grid_problems(rows, spec, seed)
    oracle = MimOracle()
    for i, row in enumerate(rows):
        x, dlc, intensity, f0, dfdv, d_coeff, kbt = row
        if None in (intensity, f0, dfdv, d_coeff):
            out[i].append(f"missing point at x={x}, dLc={dlc}")
            continue
        out[i] += oracle_problems(intensity, f0, oracle(x, dlc), acc)
        out[i] += diffusion_problems(d_coeff, dfdv, kbt, has_friction=True)
    meta = json.loads(files[".meta.json"])
    missing = sum(row[2] is None for row in rows)
    if meta.get("missing_points") != missing:
        out[0].append(f"meta missing_points {meta.get('missing_points')} != {missing}")
    if ".overlay.csv" not in files:
        out[0].append("no overlay file")
    return out


def check_compare(files: dict, spec: Spec, seed: int, acc: Accuracy) -> list[list[str]]:
    """Problems per grid point of a comparison; raises on output it cannot read."""
    header, rows = parse_csv(files[".csv"])
    if header != ["x", "dLc", "F0_tmm", "F0_coupled", "discrepancy"]:
        raise ValueError(f"unexpected header {header}")
    out = _grid_problems(rows, spec, seed)
    meta = json.loads(files[".meta.json"])
    cal = meta["calibration"]
    tmm = [row[2] for row in rows if row[2] is not None]
    rms = math.sqrt(sum(f * f for f in tmm) / len(tmm)) if tmm else 1.0
    oracle = MimOracle()
    for i, (x, dlc, f_tmm, f_cc, disc) in enumerate(rows):
        if f_tmm is None or disc is None:
            out[i].append(f"missing point at x={x}, dLc={dlc}")
            continue
        out[i] += oracle_problems(None, f_tmm, oracle(x, dlc), acc)
        expect_cc = coupled_force(cal, -x, dlc)
        if not math.isclose(f_cc, expect_cc, rel_tol=1e-9, abs_tol=1e-9 * FORCE_SCALE):
            out[i].append(f"F0_coupled {f_cc!r} != model {expect_cc!r}")
        expect_disc = abs(f_tmm - f_cc) / rms
        if not math.isclose(disc, expect_disc, rel_tol=1e-9, abs_tol=1e-12):
            out[i].append(f"discrepancy {disc!r} != {expect_disc!r}")
    return out


def coupled_force(cal: dict, x: float, dlc: float) -> float:
    """Coupled-cavities force from the calibration in the compare sidecar."""
    omega0 = 2 * math.pi * C_LIGHT / WAVELENGTH
    delta = omega0 * (dlc - cal["dlc_center_m"]) / MIM_CAVITY
    g, kc, w1 = cal["g_rad_s"], cal["kappa_c_rad_s"], cal["omega_prime_rad_s_m"]
    num = kc**2 + (delta + w1 * x) ** 2 - g**2
    den = (2 * kc * delta) ** 2 + (kc**2 + w1**2 * x**2 + g**2 - delta**2) ** 2
    return -(2 * w1 * kc / (K0 * C_LIGHT)) * (num / den) * POWER_W


def check_chain(name: str, desc, out: dict, acc: Accuracy) -> list[str]:
    problems = oracle_problems(out["intensity"], out["F0"], oracle_static(desc), acc)
    if name == "chain_dynamic":
        problems += diffusion_problems(out["D"], out["dFdv"], out["kBT"], has_friction=True)
    else:
        problems += diffusion_problems(out["D"])
    return problems


# ---------------------------------------------------------------------------
# reference outputs (default seed)
# ---------------------------------------------------------------------------


def reference_path(workload: str, suffix: str = ".csv") -> str:
    return os.path.join(REFERENCE_DIR, f"{workload}{suffix}.gz")


def chain_table(name: str, outputs: dict[int, dict]) -> bytes:
    """Chain outputs by chain index as CSV in the CLI's number format."""
    cols = ["intensity", "F0", "dFdv", "D", "kBT"] if name == "chain_dynamic" \
        else ["intensity", "F0", "D"]
    lines = [",".join(["chain"] + cols)]
    for i in sorted(outputs):
        cells = ["" if outputs[i][c] is None else format(outputs[i][c], ".17g")
                 for c in cols]
        lines.append(",".join([str(i)] + cells))
    return ("\n".join(lines) + "\n").encode()


def write_reference(workload: str, tables: dict[str, bytes]):
    os.makedirs(REFERENCE_DIR, exist_ok=True)
    for suffix, data in tables.items():
        with gzip.GzipFile(reference_path(workload, suffix), "wb", mtime=0) as fh:
            fh.write(data)


def reference_tables(workload: str) -> list[str]:
    """Suffixes of the committed reference tables of a workload."""
    return {"mim_scan": [".csv", ".overlay.csv"]}.get(workload, [".csv"])


def compare_reference(workload: str, tables: dict[str, bytes]) -> tuple[list[str], int]:
    """Column-by-column comparison with the committed reference outputs.

    Returns the problems and the number of output rows that differ.
    """
    problems, bad = [], 0
    for suffix in reference_tables(workload):
        path = reference_path(workload, suffix)
        if not os.path.exists(path):
            problems.append(f"no reference file {os.path.basename(path)}")
            bad += 1
            continue
        with gzip.open(path, "rb") as fh:
            ref_header, ref_rows = parse_csv(fh.read())
        if suffix not in tables:
            problems.append(f"no {suffix} output to compare")
            bad += 1
            continue
        header, rows = parse_csv(tables[suffix])
        found, bad_rows = _compare_table(suffix, header, rows, ref_header, ref_rows)
        problems += found
        bad += len(bad_rows)
    return problems, bad


def _compare_table(suffix, header, rows, ref_header, ref_rows) -> tuple[list[str], set]:
    """Problems and the indices of rows that differ from the reference."""
    if header != ref_header:
        return [f"{suffix}: header {header} != reference {ref_header}"], {0}
    floors = []
    for j in range(len(header)):
        numbers = [r[j] for r in ref_rows if isinstance(r[j], float)]
        floors.append(QUANTITY_ATOL * max((abs(v) for v in numbers), default=0.0))
    if header[0] == "chain":  # a short run may not have reached every chain
        by_id = {r[0]: r for r in ref_rows}
        if any(r[0] not in by_id for r in rows):
            return [f"{suffix}: chain ids outside the reference"], {0}
        ref_rows = [by_id[r[0]] for r in rows]
    if len(rows) != len(ref_rows):
        return [f"{suffix}: {len(rows)} rows != reference {len(ref_rows)}"], {0}
    problems, bad_rows = [], set()
    for j, col in enumerate(header):
        ref_col = [r[j] for r in ref_rows]
        rtol = REFERENCE_RTOL[suffix].get(col, QUANTITY_RTOL)
        floor = floors[j] if rtol else 0.0
        bad = set()
        for i, (v, ref) in enumerate(zip((r[j] for r in rows), ref_col)):
            if (v is None) != (ref is None):
                bad.add(i)
            elif isinstance(ref, float) and isinstance(v, float):
                if not (v == ref or within(v, ref, rtol, floor)):
                    bad.add(i)
            elif v != ref:
                bad.add(i)
        if bad:
            problems.append(f"{suffix} column {col}: {len(bad)} rows differ from "
                            f"reference (rtol {rtol:g})")
        bad_rows |= bad
    return problems, bad_rows
