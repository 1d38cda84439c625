"""Command-line front end.

Subcommands:

  elements   tabulate each chain element and its transfer matrix at k0
  point      force, friction, diffusion and temperature at one configuration
  scan       full (x, dLc) scan of the membrane-in-the-middle setup
  compare    chain force vs the coupled-cavities model over a grid
  couplings  resonance shifts and optomechanical couplings over x
  validate   check a configuration and print it fully resolved

All numeric output is written with 17 significant digits so values
round-trip exactly.  Output files are written atomically (temp file plus
rename); a failed run never leaves a partial file behind.  Scans are
deterministic: the same configuration produces byte-identical output for
any `--workers` value (accepted for compatibility; scans are vectorised and
run in one process).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import re
import sys
import tempfile
from dataclasses import asdict

import numpy as np

from . import __version__
from .config import (
    SCHEMA_VERSION,
    RunConfig,
    load_chain_file,
    load_run_config,
    parse_length,
    validate_report,
)
from .elements import PumpSpec, Scatterer, Segment, element_matrix
from .errors import ConfigError, SingularSolveError, TmmCavityError
from .mim import (
    ScanGrid,
    build_mim,
    compare_models,
    evaluate_chain,
    point_quantities,
    pump_for,
    scan,
)
from .statics import couplings, resonance_shifts

_CONFIG_KEY_HELP = """\
configuration file keys (INI; units: lengths accept m/cm/mm/um/nm/pm
suffixes, powers accept W/kW/mW/uW/nW; bare numbers are SI):

  [run]     schema_version   config schema, currently 1 (required)
  [pump]    wavelength       pump wavelength (length; default 1064nm)
            power            input power (power; default 1W)
            side             pump side, left|right (default left)
  [mim]     cavity_length    cavity length (length; default 6.7cm)
            membrane_zeta    membrane polarisability, real <= 0 (default -1)
            mirror_zeta      end-mirror polarisability (default -30)
            membrane_x       membrane displacement for `point` (length)
            cavity_detuning  cavity-length detuning for `point` (length)
  [chain]   path             chain description file (alternative to [mim]
                             for `point` and `elements`)
  [grid]    x_start/x_stop   membrane displacement range (length)
            x_count          number of x samples (int)
            dlc_start/dlc_stop  detuning range (length)
            dlc_count        number of detuning samples (int)
  [output]  path             output file
            format           csv|json (default csv)
            workers          accepted and ignored; scans are vectorised
                             in one process (default 1)

chain description files:

  [chain]      schema_version = 1; wavelength (length)
  [element.N]  kind = scatterer|segment
               zeta = RE IM      scatterer polarisability (two reals)
               mobile = true     marks the one mobile scatterer
               length           segment length (length)
"""


def _atomic_write(path: str, text: str):
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmmcavity-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _grid_columns(grid: ScanGrid) -> dict:
    """x and dLc of a row-major (x-outer) grid table, as keyed columns."""
    rows = np.arange(grid.x_count * grid.dlc_count)
    return {"x": (grid.x_values, rows // grid.dlc_count),
            "dLc": (grid.dlc_values, rows % grid.dlc_count)}


def _cells(table: dict, text: bool):
    """(rows, columns) object array of a table's cells, and its NaN mask.

    A column is a 1-D float array, or a keyed column (keys, index) whose
    row r holds keys[index[r]]; keys are finite floats or strings.  With
    `text`, float keys become 17-digit text, once each however many rows
    repeat them.  The mask marks NaN cells of the float columns, whose
    cells stay floats.
    """
    columns = list(table.values())
    first = columns[0]
    cells = np.empty((len(first[1] if isinstance(first, tuple) else first),
                      len(columns)), dtype=object)
    missing = np.zeros(cells.shape, dtype=bool)
    for j, column in enumerate(columns):
        if isinstance(column, tuple):
            keys, index = column
            if text:
                keys = [k if isinstance(k, str) else "%.17g" % k for k in keys]
            cells[:, j] = np.array(keys, dtype=object)[index]
        else:
            values = np.asarray(column, dtype=float)
            cells[:, j] = values
            missing[:, j] = np.isnan(values)
    return cells, missing


def _csv_text(table: dict) -> str:
    """CSV of a columnar table: numbers at 17 significant digits, NaN empty.

    The whole body is one %-format: each row gets the template of its
    pattern of NaN cells, which leaves those fields empty and takes no
    argument for them.
    """
    cells, missing = _cells(table, text=True)
    fields = ["%s" if isinstance(c, tuple) else "%.17g" for c in table.values()]
    flags = [1 << j for j in range(len(fields))]
    patterns, which = np.unique(missing @ np.array(flags), return_inverse=True)
    templates = np.array([
        ",".join("" if p & f else field for f, field in zip(flags, fields)) + "\n"
        for p in patterns.tolist()
    ], dtype=object)
    body = "".join(templates[which].tolist()) % tuple(cells[~missing].tolist())
    return ",".join(table) + "\n" + body


def _emit_table(table: dict, cfg: RunConfig, meta: dict, default_name: str):
    """Write a columnar table (column name -> column, see `_cells`) as CSV
    (+ metadata sidecar) or a single JSON document with null for NaN."""
    out = cfg.out_path or default_name
    if cfg.out_format == "csv":
        _atomic_write(out, _csv_text(table))
        _atomic_write(out + ".meta.json", json.dumps(meta, indent=2, sort_keys=True) + "\n")
    else:
        cells, missing = _cells(table, text=False)
        cells[missing] = None
        doc = dict(meta)
        doc["columns"] = list(table)
        doc["rows"] = cells.tolist()
        _atomic_write(out, json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return out


def _base_meta(cfg: RunConfig, command: str) -> dict:
    meta = {
        "schema_version": SCHEMA_VERSION,
        "generator": f"tmmcavity {__version__}",
        "command": command,
        "units": {
            "x": "m", "dLc": "m", "intensity": "photon flux (1/s)",
            "F0": "N", "dFdv": "N s/m", "D": "N^2 s", "kBT": "J",
            "delta_omega": "rad/s", "omega_prime": "rad/s/m",
            "omega_double_prime": "rad/s/m^2",
        },
        "config": {
            "wavelength_m": cfg.wavelength,
            "power_W": cfg.power_watts,
            "pump_side": cfg.pump_side,
            "cavity_length_m": cfg.cavity_length,
            "membrane_zeta": cfg.membrane_zeta,
            "mirror_zeta": cfg.mirror_zeta,
            "membrane_x_m": cfg.membrane_x,
            "cavity_detuning_m": cfg.cavity_detuning,
            "chain_path": cfg.chain_path,
            "workers": cfg.workers,
        },
    }
    g = cfg.grid
    if g is not None:
        meta["grid"] = {
            "x_start_m": g.x_start, "x_stop_m": g.x_stop, "x_count": g.x_count,
            "dlc_start_m": g.dlc_start, "dlc_stop_m": g.dlc_stop,
            "dlc_count": g.dlc_count,
        }
    return meta


def _parse_grid_override(text: str) -> ScanGrid:
    parts = text.split(",")
    if len(parts) != 6:
        raise ConfigError("--grid needs x0,x1,nx,dlc0,dlc1,ndlc")
    return ScanGrid(
        x_start=parse_length(parts[0]),
        x_stop=parse_length(parts[1]),
        x_count=int(parts[2]),
        dlc_start=parse_length(parts[3]),
        dlc_stop=parse_length(parts[4]),
        dlc_count=int(parts[5]),
    )


def _load_cfg(args) -> RunConfig:
    if not args.config:
        raise ConfigError("this command needs --config FILE")
    cfg = load_run_config(args.config)
    if args.workers is not None:
        if args.workers < 1:
            raise ConfigError("--workers must be >= 1")
        cfg.workers = args.workers
    if args.grid is not None:
        cfg.grid = _parse_grid_override(args.grid)
    if args.out is not None:
        cfg.out_path = args.out
    if args.format is not None:
        cfg.out_format = args.format
    problems = validate_report(cfg)
    if problems:
        raise ConfigError("invalid configuration: " + "; ".join(problems))
    return cfg


def _resolve_chain(cfg: RunConfig):
    """Chain and pump for point/elements: explicit file or the mim layout."""
    if cfg.chain_path is not None:
        chain = load_chain_file(cfg.chain_path)
        return chain, PumpSpec.one_sided(cfg.power_watts, 2 * np.pi / chain.k0,
                                         cfg.pump_side)
    mim_cfg = cfg.mim_config()
    return build_mim(mim_cfg, cfg.membrane_x, cfg.cavity_detuning), pump_for(mim_cfg)


def _cmd_elements(args) -> int:
    cfg = _load_cfg(args)
    chain, _pump = _resolve_chain(cfg)
    n = len(chain.elements)
    kinds = np.array([isinstance(el, Segment) for el in chain.elements], dtype=int)
    zeta_re, zeta_im, length = np.full((3, n), np.nan)
    for i, el in enumerate(chain.elements):
        if isinstance(el, Scatterer):
            zeta_re[i], zeta_im[i] = el.pol.zeta.real, el.pol.zeta.imag
        else:
            length[i] = el.length
    m = np.array([element_matrix(el, chain.k0) for el in chain.elements]).reshape(n, 4)
    table = {"index": np.arange(n, dtype=float),
             "kind": (("scatterer", "segment"), kinds),
             "zeta_re": zeta_re, "zeta_im": zeta_im, "length": length,
             "mobile": (np.arange(n) == chain.mobile_index).astype(float)}
    for col, entry in enumerate(("m11", "m12", "m21", "m22")):
        table[entry + "_re"] = m[:, col].real
        table[entry + "_im"] = m[:, col].imag
    out = _emit_table(table, cfg, _base_meta(cfg, "elements"), "elements.csv")
    print(f"wrote {n} elements to {out}")
    return 0


def _cmd_point(args) -> int:
    cfg = _load_cfg(args)
    if cfg.chain_path is None:
        # the scan engine on one point: equal to the `scan` cell bit for bit
        x, dlc = cfg.membrane_x, cfg.cavity_detuning
        q = asdict(point_quantities(cfg.mim_config(), x, dlc))
        singular = None if q["intensity"] is not None else (
            "the solve divides by zero or does not stay finite")
    else:
        x = dlc = None  # a chain file has no mim coordinates
        try:
            q, singular = evaluate_chain(*_resolve_chain(cfg)), None
        except SingularSolveError as exc:
            q, singular = None, exc
    if singular is not None:
        print(f"error: singular solve at x={x}, dLc={dlc}: {singular}", file=sys.stderr)
        return 1
    values = {"x": x, "dLc": dlc, **q}  # None (no mim coordinates, no kBT) is NaN
    table = {name: np.array([values[name]], dtype=float)
             for name in ("x", "dLc", "intensity", "F0", "dFdv", "D", "kBT")}
    out = _emit_table(table, cfg, _base_meta(cfg, "point"), "point.csv")
    print(f"wrote point record to {out}")
    return 0


def _cmd_scan(args) -> int:
    cfg = _load_cfg(args)
    grid = cfg.default_grid()
    cfg.grid = grid
    result = scan(cfg.mim_config(), grid)
    table = _grid_columns(grid)
    for q in result.QUANTITIES:
        table[q] = getattr(result, q).ravel()
    meta = _base_meta(cfg, "scan")
    n_missing = result.missing_points
    meta["missing_points"] = n_missing
    out = _emit_table(table, cfg, meta, "scan.csv")
    if cfg.out_format == "csv":
        branches = ("plus", "minus")
        ov = np.array([(xv, branches.index(label), n, dv)
                       for xv, label, n, dv in result.overlay]).reshape(-1, 4)
        overlay = {"x": ov[:, 0], "branch": (branches, ov[:, 1].astype(int)),
                   "fold": ov[:, 2], "dLc": ov[:, 3]}
        _atomic_write(out + ".overlay.csv", _csv_text(overlay))
    print(f"wrote {result.intensity.size} scan rows to {out} ({n_missing} singular points)")
    return 0


def _cmd_compare(args) -> int:
    cfg = _load_cfg(args)
    grid = cfg.default_grid()
    cfg.grid = grid
    result = compare_models(cfg.mim_config(), grid)
    table = _grid_columns(grid)
    table.update(F0_tmm=result.F0_tmm.ravel(), F0_coupled=result.F0_coupled.ravel(),
                 discrepancy=result.discrepancy.ravel())
    meta = _base_meta(cfg, "compare")
    undefined = math.isnan(result.summary)
    meta["summary_normalized_l2_discrepancy"] = None if undefined else result.summary
    meta["calibration"] = {
        "g_rad_s": result.calibration.params.g,
        "kappa_c_rad_s": result.calibration.params.kappa_c,
        "omega_prime_rad_s_m": result.calibration.params.omega_prime,
        "dlc_center_m": result.calibration.dlc_center,
        "bare_anchor_m": result.calibration.anchor,
        "bare_fwhm_m": result.calibration.fwhm_dlc,
    }
    out = _emit_table(table, cfg, meta, "compare.csv")
    summary = ("undefined (no grid point has a nonzero chain force to normalise by)"
               if undefined else f"{result.summary:.6g}")
    print(f"wrote {result.F0_tmm.size} comparison rows to {out}; "
          f"summary discrepancy {summary}")
    return 0


def _cmd_couplings(args) -> int:
    cfg = _load_cfg(args)
    grid = cfg.default_grid()
    cfg.grid = grid
    xs = grid.x_values
    mim_cfg = cfg.mim_config()
    dplus, dminus = resonance_shifts(
        mim_cfg.membrane_zeta, xs, mim_cfg.cavity_length, mim_cfg.k0
    )
    reps = [couplings(mim_cfg.membrane_zeta, xv, mim_cfg.cavity_length, mim_cfg.k0)
            for xv in xs.tolist()]
    table = {"x": xs, "delta_omega_plus": dplus, "delta_omega_minus": dminus,
             "omega_prime": np.array([r.omega_prime for r in reps]),
             "omega_double_prime": np.array([r.omega_double_prime for r in reps])}
    out = _emit_table(table, cfg, _base_meta(cfg, "couplings"), "couplings.csv")
    print(f"wrote {xs.size} coupling rows to {out}")
    return 0


def _cmd_validate(args) -> int:
    if not args.config:
        raise ConfigError("validate needs --config FILE")
    cfg = load_run_config(args.config)
    if args.grid is not None:
        cfg.grid = _parse_grid_override(args.grid)
    problems = validate_report(cfg)
    print("resolved configuration:")
    for line in cfg.resolved_lines():
        print("  " + line)
    if problems:
        print("problems:")
        for p in problems:
            print("  - " + p)
        return 2
    print("configuration OK")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tmmcavity",
        description=(
            "Transfer-matrix engine for radiation forces, friction, "
            "diffusion and cooling of a mobile scatterer in a 1D chain"
        ),
        epilog=_CONFIG_KEY_HELP,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn, blurb in (
        ("elements", _cmd_elements, "tabulate chain elements and matrices"),
        ("point", _cmd_point, "evaluate one configuration"),
        ("scan", _cmd_scan, "scan the (x, dLc) grid"),
        ("compare", _cmd_compare, "chain vs coupled-cavities model"),
        ("couplings", _cmd_couplings, "resonance shifts and couplings"),
        ("validate", _cmd_validate, "validate a configuration file"),
    ):
        p = sub.add_parser(name, help=blurb,
                           epilog=_CONFIG_KEY_HELP,
                           formatter_class=argparse.RawDescriptionHelpFormatter)
        p.add_argument("--config", help="configuration file (INI)")
        p.add_argument("--out", help="output file path")
        p.add_argument("--workers", type=int, default=None,
                       help="accepted and ignored: scans are vectorised "
                            "in one process")
        p.add_argument("--grid", default=None,
                       help="override grid: x0,x1,nx,dlc0,dlc1,ndlc "
                            "(lengths accept unit suffixes)")
        p.add_argument("--format", choices=("csv", "json"), default=None,
                       help="output format (default csv)")
        p.set_defaults(fn=fn)
    return parser


def _glue_grid_value(argv: list[str]) -> list[str]:
    """Rewrite `--grid -532nm,...` as `--grid=-532nm,...`.

    argparse reads a separate value that starts with '-' as an option, so
    a grid with a negative start would only parse in the `=` spelling.
    """
    glued = []
    for arg in argv:
        if glued and glued[-1] == "--grid" and re.match(r"-[\d.]", arg):
            glued[-1] = "--grid=" + arg
        else:
            glued.append(arg)
    return glued


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process."""
    return build_parser()


def run(argv=None) -> int:
    args = _parser().parse_args(_glue_grid_value(sys.argv[1:] if argv is None else list(argv)))
    try:
        return args.fn(args)
    except TmmCavityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
