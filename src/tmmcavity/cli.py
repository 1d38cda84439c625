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
any worker count.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
import tempfile

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
            workers          worker processes for scans (default 1)

chain description files:

  [chain]      schema_version = 1; wavelength (length)
  [element.N]  kind = scatterer|segment
               zeta = RE IM      scatterer polarisability (two reals)
               mobile = true     marks the one mobile scatterer
               length           segment length (length)
"""


def _fmt(value) -> str:
    if value is None:
        return ""
    return format(float(value), ".17g")


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


def _emit_table(columns, rows, cfg: RunConfig, meta: dict, default_name: str):
    """Write a table as CSV (+ metadata sidecar) or a single JSON document."""
    out = cfg.out_path or default_name
    if cfg.out_format == "csv":
        lines = [",".join(columns)]
        for row in rows:
            lines.append(",".join(_fmt(v) if not isinstance(v, str) else v
                                  for v in row))
        _atomic_write(out, "\n".join(lines) + "\n")
        _atomic_write(out + ".meta.json", json.dumps(meta, indent=2, sort_keys=True) + "\n")
    else:
        doc = dict(meta)
        doc["columns"] = list(columns)
        doc["rows"] = [
            [v if (v is None or isinstance(v, str)) else float(v) for v in row]
            for row in rows
        ]
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
        pump = PumpSpec.one_sided(
            cfg.power_watts, 2 * np.pi / chain.k0, cfg.pump_side
        )
        return chain, pump, None, None
    mim_cfg = cfg.mim_config()
    chain = build_mim(mim_cfg, cfg.membrane_x, cfg.cavity_detuning)
    return chain, pump_for(mim_cfg), cfg.membrane_x, cfg.cavity_detuning


def _cmd_elements(args) -> int:
    cfg = _load_cfg(args)
    chain, _pump, _x, _dlc = _resolve_chain(cfg)
    columns = ["index", "kind", "zeta_re", "zeta_im", "length", "mobile",
               "m11_re", "m11_im", "m12_re", "m12_im",
               "m21_re", "m21_im", "m22_re", "m22_im"]
    rows = []
    for i, el in enumerate(chain.elements):
        m = element_matrix(el, chain.k0)
        if isinstance(el, Scatterer):
            kind, zre, zim, length = "scatterer", el.pol.zeta.real, el.pol.zeta.imag, None
        else:
            kind, zre, zim, length = "segment", None, None, el.length
        rows.append([
            i, kind, zre, zim, length, 1.0 if i == chain.mobile_index else 0.0,
            m[0, 0].real, m[0, 0].imag, m[0, 1].real, m[0, 1].imag,
            m[1, 0].real, m[1, 0].imag, m[1, 1].real, m[1, 1].imag,
        ])
    out = _emit_table(columns, rows, cfg, _base_meta(cfg, "elements"),
                      "elements.csv")
    print(f"wrote {len(rows)} elements to {out}")
    return 0


def _cmd_point(args) -> int:
    cfg = _load_cfg(args)
    chain, pump, x, dlc = _resolve_chain(cfg)
    try:
        q = evaluate_chain(chain, pump)
    except SingularSolveError as exc:
        print(f"error: singular solve at x={x}, dLc={dlc}: {exc}", file=sys.stderr)
        return 1
    columns = ["x", "dLc", "intensity", "F0", "dFdv", "D", "kBT"]
    rows = [[x, dlc, q["intensity"], q["F0"], q["dFdv"], q["D"], q["kBT"]]]
    out = _emit_table(columns, rows, cfg, _base_meta(cfg, "point"), "point.csv")
    print(f"wrote point record to {out}")
    return 0


def _cmd_scan(args) -> int:
    cfg = _load_cfg(args)
    grid = cfg.default_grid()
    cfg.grid = grid
    result = scan(cfg.mim_config(), grid, workers=cfg.workers)
    columns = ["x", "dLc", "intensity", "F0", "dFdv", "D", "kBT"]
    rows = [
        [p.x, p.dlc, p.intensity, p.F0, p.dFdv, p.D, p.kBT]
        for p in result.points
    ]
    meta = _base_meta(cfg, "scan")
    n_missing = sum(1 for p in result.points if p.intensity is None)
    meta["missing_points"] = n_missing
    out = _emit_table(columns, rows, cfg, meta, "scan.csv")
    if cfg.out_format == "csv":
        ov_lines = ["x,branch,fold,dLc"]
        for xv, label, n, dv in result.overlay:
            ov_lines.append(f"{_fmt(xv)},{label},{n},{_fmt(dv)}")
        _atomic_write(out + ".overlay.csv", "\n".join(ov_lines) + "\n")
    print(f"wrote {len(rows)} scan rows to {out} ({n_missing} singular points)")
    return 0


def _cmd_compare(args) -> int:
    cfg = _load_cfg(args)
    grid = cfg.default_grid()
    cfg.grid = grid
    result = compare_models(cfg.mim_config(), grid)
    columns = ["x", "dLc", "F0_tmm", "F0_coupled", "discrepancy"]
    rows = [
        [p.x, p.dlc, p.F0_tmm, p.F0_coupled, p.discrepancy]
        for p in result.points
    ]
    meta = _base_meta(cfg, "compare")
    meta["summary_normalized_l2_discrepancy"] = result.summary
    meta["calibration"] = {
        "g_rad_s": result.calibration.params.g,
        "kappa_c_rad_s": result.calibration.params.kappa_c,
        "omega_prime_rad_s_m": result.calibration.params.omega_prime,
        "dlc_center_m": result.calibration.dlc_center,
        "bare_anchor_m": result.calibration.anchor,
        "bare_fwhm_m": result.calibration.fwhm_dlc,
    }
    out = _emit_table(columns, rows, cfg, meta, "compare.csv")
    print(f"wrote {len(rows)} comparison rows to {out}; "
          f"summary discrepancy {result.summary:.6g}")
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
    columns = ["x", "delta_omega_plus", "delta_omega_minus",
               "omega_prime", "omega_double_prime"]
    rows = []
    for i, xv in enumerate(xs):
        rep = couplings(mim_cfg.membrane_zeta, float(xv),
                        mim_cfg.cavity_length, mim_cfg.k0)
        rows.append([
            float(xv), float(np.atleast_1d(dplus)[i]),
            float(np.atleast_1d(dminus)[i]),
            rep.omega_prime, rep.omega_double_prime,
        ])
    out = _emit_table(columns, rows, cfg, _base_meta(cfg, "couplings"),
                      "couplings.csv")
    print(f"wrote {len(rows)} coupling rows to {out}")
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
                       help="worker processes for scans")
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


def run(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(_glue_grid_value(sys.argv[1:] if argv is None else list(argv)))
    try:
        return args.fn(args)
    except TmmCavityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
