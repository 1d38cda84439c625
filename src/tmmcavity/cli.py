"""Command-line front end.

Subcommands:

  elements   tabulate each chain element and its transfer matrix at k0
  point      force, friction, diffusion and temperature at one configuration
  scan       full (x, dLc) scan of the membrane-in-the-middle setup
  compare    chain force vs the coupled-cavities model over a grid
  couplings  resonance shifts and optomechanical couplings over x
  validate   check a configuration and print it fully resolved

All numeric output is written with 17 significant digits so values
round-trip exactly.  A CSV table holds the bytes of `'%.17g' % v` for
each cell (NaN empty), but `_g17.g17` formats a whole block of float
cells in numpy and leaves to Python's `%` only the values whose rounding
it cannot decide for certain and the nonzero values outside [1e-280,
1e290] in magnitude.  Output files are written atomically (temp file
plus rename); a failed run never leaves a partial file behind.  Scans
are deterministic: the same configuration produces byte-identical output
for any `--workers` value (accepted for compatibility; scans are
vectorised and run in one process).
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import os
import re
import sys

import numpy as np

from . import __version__
from .config import (
    SCHEMA_VERSION,
    RunConfig,
    _chain_pump,
    _help_epilog,
    _meta_blocks,
    load_chain_file,
    load_run_config,
    validate_report,
)
from ._g17 import WORDS, g17
from .elements import Scatterer, Segment
from .errors import (
    CalibrationError, ChainError, ConfigError, SingularSolveError, TmmCavityError,
)
from .mim import (
    ScanGrid,
    bare_resonance,
    build_mim,
    compare_models,
    evaluate_chain,
    pump_for,
    scan,
)
from .opalg import _element_entries
from .statics import couplings, resonance_shifts

def _atomic_write(paths: list[str], chunks):
    """Write each (file index, bytes) chunk to paths[index] through temp
    files, and rename them all once every chunk is written.

    Each temp file is created new under a random name with mode 0666, so
    the process umask sets the output's mode as it would for `open`.
    """
    tmps = []
    try:
        handles = []
        try:
            for path in paths:
                directory = os.path.dirname(os.path.abspath(path)) or "."
                tmp = os.path.join(directory, f".tmmcavity-{os.urandom(8).hex()}.tmp")
                fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
                tmps.append(tmp)
                handles.append(os.fdopen(fd, "wb"))
            for i, chunk in chunks:
                handles[i].write(chunk)
        finally:
            for fh in handles:
                fh.close()
        for tmp, path in zip(tmps, paths):
            os.replace(tmp, path)
    except BaseException:
        for tmp in tmps:
            try:
                os.unlink(tmp)
            except OSError:
                pass  # renamed already
        raise


def _grid_columns(grid: ScanGrid) -> dict:
    """x and dLc of a row-major (x-outer) grid table, as keyed columns."""
    rows = np.arange(grid.x_count * grid.dlc_count)
    return {"x": (grid.x_values, rows // grid.dlc_count),
            "dLc": (grid.dlc_values, rows % grid.dlc_count)}


def _rows(column) -> int:
    return len(column[1] if isinstance(column, tuple) else column)


def _cells(table: dict):
    """(rows, columns) object array of a table's cells, None for NaN.

    A column is a 1-D float array, or a keyed column (keys, index) whose
    row r holds keys[index[r]]; keys are finite floats or strings.
    """
    columns = list(table.values())
    cells = np.empty((_rows(columns[0]), len(columns)), dtype=object)
    for j, column in enumerate(columns):
        if isinstance(column, tuple):
            keys, index = column
            cells[:, j] = np.array(keys, dtype=object)[index]
        else:
            values = np.asarray(column, dtype=float)
            cells[:, j] = values
            cells[np.isnan(values), j] = None
    return cells


# float cells per `g17` call, which holds 32 B per cell: a table is cut
# into blocks of rows below this, and a command's consecutive blocks share
# a call up to it, so a 101 x 101 scan or compare table is one call and a
# 4e6-point grid's writer still holds at most 2 MiB of cells
_CSV_BLOCK_CELLS = 1 << 16
# bytes of laid-out rows per chunk handed to the file: one buffer of at most
# this size serves every chunk of a block, and it and the bytes made from it
# stay below glibc's default 128 KiB threshold for mapping fresh pages
_CSV_CHUNK_BYTES = 1 << 16


class _CsvTable:
    """Cell layout of a columnar table's CSV (see `_csv_files`)."""

    def __init__(self, table: dict):
        self.header = (",".join(table) + "\n").encode()
        self.columns = [c if isinstance(c, tuple) else (c, None) for c in table.values()]
        # each cell's last byte: its comma, or the row's newline
        self.seps = [np.uint64(ord(c) << 56) for c in "," * (len(table) - 1) + "\n"]
        # string keys as cells of their bytes, NUL-padded, the last byte free
        self.labels = [np.array(keys, f"S{8 * WORDS}").view("<u8").reshape(-1, WORDS)
                       if len(keys) and isinstance(keys[0], str) else None
                       for keys, _ in self.columns]
        assert all(c is None or not (c[:, -1] >> 56).any() for c in self.labels), "label > 31 B"
        self.chunk_rows = max(1, _CSV_CHUNK_BYTES // (8 * WORDS * len(self.columns)))
        self.n_rows = _rows(next(iter(table.values())))
        # at most one float cell per float column and row of a block
        self.block_rows = max(1, _CSV_BLOCK_CELLS // max(1, sum(c is None for c in self.labels)))

    def blocks(self):
        """(rows, float arrays, indices) of each block of rows: the floats
        the block formats, and per column the block's index into its keys,
        or None where the column's source holds one cell per row.  A float
        keyed column formats each key once, unless it has more keys than
        the block has rows, when it formats the row's value instead; so a
        block has at most `block_rows` float cells per float column.  A
        table without rows has one empty block."""
        for first in range(0, max(self.n_rows, 1), self.block_rows):
            rows = slice(first, min(first + self.block_rows, self.n_rows))
            floats, indices = [], []
            for (keys, index), label in zip(self.columns, self.labels):
                if index is not None and (label is not None or len(keys) <= rows.stop - first):
                    indices.append(index[rows])
                    if label is None:
                        floats.append(np.asarray(keys, dtype=float))
                else:
                    indices.append(None)
                    floats.append(np.asarray(keys, dtype=float)[
                        rows if index is None else index[rows]])
            yield rows, floats, indices

    def chunks(self, n: int, indices: list, cells):
        """Bytes chunks of a block of n rows with `blocks`' indices; `cells`
        holds the `g17` cells of the block's float arrays end to end."""
        labels = [c for c in self.labels if c is not None]
        source = np.concatenate([cells, *labels]) if labels else cells
        # a cell's source index: its column's first cell there plus its key or row
        take = np.empty((n, len(self.columns)), np.intp)
        at, label_at = 0, len(cells)
        for j, ((keys, _), index, label, sep) in enumerate(
                zip(self.columns, indices, self.labels, self.seps)):
            size = n if index is None else len(keys)
            if label is None:
                start, at = at, at + size
            else:
                start, label_at = label_at, label_at + size
            source[start:start + size, -1] |= sep
            np.add(np.arange(n) if index is None else index, start, out=take[:, j])
        out = np.empty((min(n, self.chunk_rows) * len(self.columns), WORDS), "<u8")
        for first in range(0, n, self.chunk_rows):
            part = take[first:first + self.chunk_rows].ravel()
            np.take(source, part, axis=0, out=out[:part.size], mode="clip")
            yield out[:part.size].tobytes().translate(None, b"\0")


def _csv_files(tables: list):
    """CSV of each columnar table (see `_cells`), as (table index, bytes
    chunk) pairs, table after table: numbers at 17 significant digits, NaN
    empty.

    The float cells of consecutive blocks of rows, of one table or the
    next, go through one `g17` call while they hold at most
    `_CSV_BLOCK_CELLS` cells (a scan's table and its overlay take one).
    A keyed column formats each key once per block, and a string key is
    a cell of its own.  Each cell is four words whose last byte is its
    comma or newline, and a chunk of at most `_CSV_CHUNK_BYTES` of rows
    is one gather of cells into a reused buffer; dropping the NUL
    padding leaves the CSV.
    """
    pending, size = [], 0
    for i, table in enumerate(map(_CsvTable, tables)):
        for rows, floats, indices in table.blocks():
            n = sum(f.size for f in floats)
            if pending and size + n > _CSV_BLOCK_CELLS:
                yield from _format_blocks(pending)
                pending, size = [], 0
            pending.append((i, table, rows, floats, indices))
            size += n
    yield from _format_blocks(pending)


def _format_blocks(blocks: list):
    """(table index, bytes) chunks of blocks of `_csv_files`, whose float
    cells take one `g17` call; a table's header leads its first block."""
    cells = g17(np.concatenate([f for _, _, _, floats, _ in blocks for f in floats]))
    end = 0
    for i, table, rows, floats, indices in blocks:
        start, end = end, end + sum(f.size for f in floats)
        if rows.start == 0:
            yield i, table.header
        for chunk in table.chunks(rows.stop - rows.start, indices, cells[start:end]):
            yield i, chunk


def _emit_table(table: dict, cfg: RunConfig, meta: dict, default_name: str,
                extra: dict | None = None):
    """Write a columnar table (column name -> column, see `_cells`) as CSV
    (+ metadata sidecar) or a single JSON document with null for NaN.

    `extra` maps a file suffix to a further table written next to the CSV
    (the scan's overlay), formatted with the main table; JSON output
    leaves it out.
    """
    out = cfg.out_path or default_name
    if cfg.out_format == "csv":
        extra = extra or {}
        paths = [out, *(out + suffix for suffix in extra), out + ".meta.json"]
        meta_chunk = (len(paths) - 1, _json_bytes(meta))
        _atomic_write(paths, itertools.chain(_csv_files([table, *extra.values()]),
                                             [meta_chunk]))
    else:
        doc = dict(meta)
        doc["columns"] = list(table)
        doc["rows"] = _cells(table).tolist()
        _atomic_write([out], [(0, _json_bytes(doc))])
    return out


def _json_bytes(doc: dict) -> bytes:
    return (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode()


def _base_meta(cfg: RunConfig, command: str) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "generator": f"tmmcavity {__version__}",
        "command": command,
        "units": {
            "x": "m", "dLc": "m", "intensity": "photon flux (1/s)",
            "F0": "N", "dFdv": "N s/m", "D": "N^2 s", "kBT": "J",
            "delta_omega": "rad/s", "omega_prime": "rad/s/m",
            "omega_double_prime": "rad/s/m^2",
        },
        **_meta_blocks(cfg),
    }


def _overridden_cfg(args) -> RunConfig:
    """The --config file with the --grid, --out, --format and --workers
    overrides applied."""
    if not args.config:
        raise ConfigError(f"{args.command} needs --config FILE")
    flags = {"grid": args.grid, "output.path": args.out,
             "output.format": args.format, "output.workers": args.workers}
    return load_run_config(args.config,
                           {name: text for name, text in flags.items() if text is not None})


def _load_cfg(args) -> RunConfig:
    cfg = _overridden_cfg(args)
    problems = validate_report(cfg)
    if problems:
        raise ConfigError("invalid configuration: " + "; ".join(problems))
    return cfg


def _resolve_chain(cfg: RunConfig):
    """Chain and pump for point/elements: explicit file or the mim layout."""
    if cfg.chain_path is not None:
        chain = load_chain_file(cfg.chain_path)
        return chain, _chain_pump(chain, cfg.power_watts, cfg.pump_side)
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
    m = np.array([_element_entries(el, chain.k0) for el in chain.elements], dtype=complex)
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
    # a chain file has no mim coordinates
    x, dlc = (cfg.membrane_x, cfg.cavity_detuning) if cfg.chain_path is None else (None, None)
    where = f"at x={x}, dLc={dlc}" if cfg.chain_path is None else f"of chain file {cfg.chain_path}"
    try:
        q = evaluate_chain(*_resolve_chain(cfg))
    except SingularSolveError as exc:
        print(f"error: singular solve {where}: {exc}", file=sys.stderr)
        return 1
    # None (no mim coordinates, no kBT) is NaN
    table = {name: np.array([v], dtype=float) for name, v in {"x": x, "dLc": dlc, **q}.items()}
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
    x, branch, fold, dlc = result.overlay
    overlay = {"x": x, "branch": (result.BRANCHES, branch), "fold": fold, "dLc": dlc}
    out = _emit_table(table, cfg, meta, "scan.csv", {".overlay.csv": overlay})
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
    cfg = _overridden_cfg(args)
    problems = validate_report(cfg)
    print("resolved configuration:")
    for line in cfg.resolved_lines():
        print("  " + line)
    try:
        bare_resonance(cfg.mim_config())
    except CalibrationError as exc:  # no config error: `point` runs any mirror
        print(f"warning: mim.mirror_zeta: {exc}")
    except ChainError:
        pass  # a bad [mim] value is among the problems
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
        epilog=_help_epilog(),
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
                           epilog=parser.epilog,
                           formatter_class=argparse.RawDescriptionHelpFormatter)
        p.add_argument("--config", help="configuration file (INI)")
        p.add_argument("--out", help="output file path")
        p.add_argument("--workers", default=None,
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
