"""Configuration files: flat key-value INI with sections, SI units.

One format serves both the run configuration and standalone chain
description files.  Values are SI; lengths and powers also accept explicit
unit suffixes (``1064nm``, ``6.7cm``, ``1W``, ``250mW``).  Unknown sections
or keys are hard errors: a typo must never be silently ignored.

Each key is declared once, in `_RUN_KEYS` or `_CHAIN_KEYS`; loading,
`validate_report`, the ``tmmcavity --help`` key list and the ``meta.json``
config block are all driven by those tables.  ``tmmcavity --help`` prints
the keys with their units.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Callable, NamedTuple

import numpy as np

from .elements import (
    Chain, PumpSpec, Scatterer, Segment, _check_length, _check_mobile_zeta, _check_wavelength,
)
from .errors import ChainError, ConfigError, TmmCavityError
from .mim import MimConfig, ScanGrid, _gaps, build_mim, pump_for

__all__ = [
    "SCHEMA_VERSION",
    "parse_length",
    "parse_power",
    "RunConfig",
    "load_run_config",
    "load_chain_file",
    "validate_report",
]

SCHEMA_VERSION = 1

_LENGTH_UNITS = {
    "m": 1.0,
    "cm": 1e-2,
    "mm": 1e-3,
    "um": 1e-6,
    "µm": 1e-6,
    "nm": 1e-9,
    "pm": 1e-12,
}
_POWER_UNITS = {
    "W": 1.0,
    "kW": 1e3,
    "mW": 1e-3,
    "uW": 1e-6,
    "µW": 1e-6,
    "nW": 1e-9,
}


def _parse_with_units(text: str, units: dict, kind: str) -> float:
    s = text.strip()
    for suffix in sorted(units, key=len, reverse=True):
        if s.endswith(suffix):
            body = s[: -len(suffix)].strip()
            try:
                return float(body) * units[suffix]
            except ValueError:
                raise ConfigError(f"cannot parse {kind} value {text!r}") from None
    try:
        return float(s)  # bare numbers are SI
    except ValueError:
        raise ConfigError(
            f"cannot parse {kind} value {text!r}; use a bare SI number or a "
            f"suffix from {sorted(units)}"
        ) from None


def parse_length(text: str) -> float:
    """Length in metres; accepts m, cm, mm, um, nm, pm suffixes."""
    return _parse_with_units(text, _LENGTH_UNITS, "length")


def parse_power(text: str) -> float:
    """Power in watts; accepts W, kW, mW, uW, nW suffixes."""
    return _parse_with_units(text, _POWER_UNITS, "power")


def _parse_float(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise ConfigError(f"cannot parse number {text!r}") from None


def _parse_int(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ConfigError(f"cannot parse integer {text!r}") from None


def _parse_bool(text: str) -> bool:
    t = text.strip().lower()
    if t in ("true", "yes", "1", "on"):
        return True
    if t in ("false", "no", "0", "off"):
        return False
    raise ConfigError(f"cannot parse boolean {text!r}")


def _parse_version(text: str) -> int:
    version = _parse_int(text)
    if version != SCHEMA_VERSION:
        raise ConfigError(
            f"unsupported schema_version {version}; this build reads {SCHEMA_VERSION}"
        )
    return version


def _parse_format(text: str) -> str:
    fmt = text.strip().lower()
    if fmt not in ("csv", "json"):
        raise ConfigError(f"must be csv or json, got {fmt!r}")
    return fmt


def _parse_zeta(text: str) -> complex:
    parts = text.split()
    if len(parts) != 2:
        raise ConfigError(f"must be two reals, got {text!r}")
    return complex(_parse_float(parts[0]), _parse_float(parts[1]))


class _Key(NamedTuple):
    """One configuration key."""

    section: str
    key: str
    unit: str  # SI unit of the value; "" when it has none
    doc: str  # its line in `tmmcavity --help`
    field: str = ""  # RunConfig attribute; the ScanGrid field for [grid] keys
    parse: Callable[[str], object] | None = None
    meta: str = ""  # its name in the meta.json sidecar; "" when not recorded


# Run configuration keys, in the order `--help` and `validate` list them.
_RUN_KEYS = (
    _Key("run", "schema_version", "", "config schema version",
         "schema_version", _parse_version),
    _Key("pump", "wavelength", "m", "pump wavelength", "wavelength", parse_length,
         "wavelength_m"),
    _Key("pump", "power", "W", "input power", "power_watts", parse_power, "power_W"),
    _Key("pump", "side", "", "pump side, left|right", "pump_side", str.strip,
         "pump_side"),
    _Key("mim", "cavity_length", "m", "cavity length", "cavity_length", parse_length,
         "cavity_length_m"),
    _Key("mim", "membrane_zeta", "", "membrane polarisability, real <= 0",
         "membrane_zeta", _parse_float, "membrane_zeta"),
    _Key("mim", "mirror_zeta", "", "end-mirror polarisability", "mirror_zeta",
         _parse_float, "mirror_zeta"),
    _Key("mim", "membrane_x", "m", "membrane displacement for `point`", "membrane_x",
         parse_length, "membrane_x_m"),
    _Key("mim", "cavity_detuning", "m", "cavity-length detuning for `point`",
         "cavity_detuning", parse_length, "cavity_detuning_m"),
    _Key("chain", "path", "", "chain description file, in place of [mim] for "
         "`point` and `elements`", "chain_path", str.strip, "chain_path"),
    _Key("grid", "x_start", "m", "first membrane displacement (without [grid], "
         "x and dLc span +-wavelength/2 in 101 steps)", "x_start", parse_length,
         "x_start_m"),
    _Key("grid", "x_stop", "m", "last membrane displacement", "x_stop", parse_length,
         "x_stop_m"),
    _Key("grid", "x_count", "", "number of x samples", "x_count", _parse_int,
         "x_count"),
    _Key("grid", "dlc_start", "m", "first cavity-length detuning", "dlc_start",
         parse_length, "dlc_start_m"),
    _Key("grid", "dlc_stop", "m", "last cavity-length detuning", "dlc_stop",
         parse_length, "dlc_stop_m"),
    _Key("grid", "dlc_count", "", "number of detuning samples", "dlc_count",
         _parse_int, "dlc_count"),
    _Key("output", "path", "", "output file", "out_path", str.strip),
    _Key("output", "format", "", "csv|json", "out_format", _parse_format),
    _Key("output", "workers", "", "accepted and ignored: scans are vectorised in "
         "one process", "workers", _parse_int, "workers"),
)
_RUN_NAMES = {e.field: f"{e.section}.{e.key}" for e in _RUN_KEYS}
_GRID_KEYS = tuple(e for e in _RUN_KEYS if e.section == "grid")

# Chain description file keys; [element.N] stands for every numbered element.
_CHAIN_KEYS = (
    _Key("chain", "schema_version", "", "chain file schema, currently 1"),
    _Key("chain", "wavelength", "m", "pump wavelength"),
    _Key("element.N", "kind", "", "scatterer|segment"),
    _Key("element.N", "zeta", "", "scatterer polarisability, two reals RE IM"),
    _Key("element.N", "mobile", "", "true marks the one mobile scatterer"),
    _Key("element.N", "length", "m", "segment length"),
)


def _read_ini(path: str) -> dict:
    """The file's sections as ``{section: {key: value}}``.

    The grammar is the one the files use: ``[section]`` headers;
    ``key = value`` or ``key: value`` lines, split at the first delimiter,
    the key lower-cased and the value stripped; blank lines; and full-line
    ``#`` or ``;`` comments, indented or not.  Any other line is a
    ConfigError naming the file and the line: a key before any header, a
    duplicate section or key, a line with no delimiter, and an indented
    line that is not a comment (no continuation lines).  ``[DEFAULT]`` is
    an ordinary section name, so the key checks reject it as unknown.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().split("\n")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    sections = {}
    section = None
    for number, line in enumerate(lines, 1):
        text = line.strip()
        if not text or text[0] in "#;":
            continue
        if line[0].isspace():
            problem = "an indented line; continuation lines are not supported"
        elif text[0] == "[":
            name = text[1:-1]
            if text[-1] != "]" or not name:
                problem = "a section header must be the line [name]"
            elif name in sections:
                problem = f"duplicate section [{name}]"
            else:
                section = sections[name] = {}
                continue
        else:
            eq, colon = text.find("="), text.find(":")
            at = eq if colon < 0 or 0 <= eq < colon else colon
            key = text[:at].rstrip().lower()
            if at < 0:
                problem = "expected key = value or key: value"
            elif not key:
                problem = "a key is missing before the delimiter"
            elif section is None:
                problem = "a key before any [section] header"
            elif key in section:
                problem = f"duplicate key {key!r}"
            else:
                section[key] = text[at + 1:].strip()
                continue
        raise ConfigError(f"malformed config file {path}: line {number}: {problem}: "
                          f"{line!r}")
    return sections


def _check_unknown(ini: dict, keys: tuple, path: str) -> list[str]:
    known = {}
    for e in keys:
        known.setdefault(e.section, set()).add(e.key)
    problems = []
    for section, values in ini.items():
        head, numbered, _ = section.partition(".")
        allowed = known.get(head + ".N" if numbered else section)
        if allowed is None:
            problems.append(f"unknown section [{section}]")
            continue
        problems += [f"unknown key {key!r} in section [{section}]"
                     for key in values if key not in allowed]
    return [f"{path}: {p}" for p in problems]


def _value(ini: dict, section: str, key: str, parse):
    """The parsed value of `section.key`; an error of the parse, or of the
    record it builds, names the key."""
    try:
        return parse(ini[section][key])
    except TmmCavityError as exc:
        raise ConfigError(f"{section}.{key}: {exc}") from None


@dataclass
class RunConfig:
    """Fully resolved run configuration with defaults applied."""

    schema_version: int = SCHEMA_VERSION
    wavelength: float = 1.064e-6
    power_watts: float = 1.0
    pump_side: str = "left"
    cavity_length: float = 6.7e-2
    membrane_zeta: float = -1.0
    mirror_zeta: float = -30.0
    membrane_x: float = 0.0
    cavity_detuning: float = 0.0
    chain_path: str | None = None
    grid: ScanGrid | None = None
    out_path: str | None = None
    out_format: str = "csv"
    workers: int = 1
    source_path: str | None = None

    def mim_config(self) -> MimConfig:
        return MimConfig(**self._mim_values())

    def _mim_values(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(MimConfig)}

    def default_grid(self) -> ScanGrid:
        if self.grid is not None:
            return self.grid
        lam = self.wavelength
        return ScanGrid(
            x_start=-lam / 2, x_stop=lam / 2, x_count=101,
            dlc_start=-lam / 2, dlc_stop=lam / 2, dlc_count=101,
        )

    def resolved_lines(self) -> list[str]:
        """Human-readable fully resolved configuration, defaults included."""
        lines = []
        for e in _RUN_KEYS:
            if e.section == "grid":
                continue
            value = getattr(self, e.field)
            text = repr(value) if isinstance(value, float) else str(value)
            name = e.key if e.section == "run" else f"{e.section}.{e.key}"
            lines.append(f"{name} = {text} {e.unit}".rstrip())
        g = self.grid
        if g is None:
            lines.append("grid = (default) x,dlc in [-lambda/2, lambda/2], 101x101")
        else:
            lines.append(
                "grid = x "
                f"[{g.x_start!r}, {g.x_stop!r}] m x {g.x_count}; dlc "
                f"[{g.dlc_start!r}, {g.dlc_stop!r}] m x {g.dlc_count}"
            )
        return lines


# A valid grid that stays valid when any one of its values is replaced by
# another valid value: one point per axis, so no start/stop order applies.
_GRID_BASE = ScanGrid(0.0, 1.0, 1, 0.0, 1.0, 1)


def _built(make, values: dict, base) -> tuple[object, list[str]]:
    """`make(**values)` and no problems, or None and the problems.

    A problem is named by a key whose value fails on its own, the other
    arguments taken from `base` (a valid instance, or RunConfig for its
    defaults); a failure that no single value explains names the keys
    whose base value would mend it.
    """
    try:
        return make(**values), []
    except TmmCavityError as exc:
        joint = exc
    at_base = {f: getattr(base, f) for f in values}

    def error(kwargs):
        try:
            make(**kwargs)
        except TmmCavityError as exc:
            return exc
        return None

    alone = {f: error(at_base | {f: v}) for f, v in values.items()}
    problems = [f"{_RUN_NAMES[f]}: {exc}" for f, exc in alone.items() if exc]
    if problems:
        return None, problems
    mending = [f for f in values if error(values | {f: at_base[f]}) is None]
    return None, [f"{', '.join(_RUN_NAMES[f] for f in mending or values)}: {joint}"]


def load_run_config(path: str, overrides: dict | None = None) -> RunConfig:
    """Parse a run configuration file and build its [grid].

    `overrides` maps ``section.key`` names to text that replaces the file's
    value; a bare section name takes all of that section's keys, as values
    separated by commas in `--help` order (``grid`` = x0,x1,nx,dlc0,dlc1,ndlc).
    The other range checks are `validate_report`'s.
    """
    ini = _read_ini(path)
    for name, text in (overrides or {}).items():
        section, _, key = name.partition(".")
        keys = [key] if key else [e.key for e in _RUN_KEYS if e.section == section]
        values = [text] if key else text.split(",")
        if len(values) != len(keys):
            raise ConfigError(f"{name} needs {len(keys)} comma-separated values "
                              f"{','.join(keys)}; got {text!r}")
        ini.setdefault(section, {}).update(zip(keys, values))
    problems = _check_unknown(ini, _RUN_KEYS, path)
    if problems:
        raise ConfigError("; ".join(problems))

    cfg = RunConfig(source_path=path)
    grid = {}
    for e in _RUN_KEYS:
        if e.key in ini.get(e.section, ()):
            value = _value(ini, e.section, e.key, e.parse)
            if e.section == "grid":
                grid[e.field] = value
            else:
                setattr(cfg, e.field, value)
    if "grid" in ini:
        needed = [e.field for e in _GRID_KEYS]
        missing = [field for field in needed if field not in grid]
        if missing:
            raise ConfigError(
                f"{path}: [grid] section needs all of {sorted(needed)}; "
                f"missing {sorted(missing)}"
            )
        cfg.grid, problems = _built(ScanGrid, grid, _GRID_BASE)
        if problems:
            raise ConfigError("; ".join(problems))
    return cfg


def load_chain_file(path: str) -> Chain:
    """Parse a chain description file into a Chain."""
    ini = _read_ini(path)
    problems = _check_unknown(ini, _CHAIN_KEYS, path)
    if problems:
        raise ConfigError("; ".join(problems))

    chain = ini.get("chain")
    if chain is None:
        raise ConfigError(f"{path}: missing [chain] section")
    if "schema_version" in chain:
        _value(ini, "chain", "schema_version", _parse_version)
    if "wavelength" not in chain:
        raise ConfigError(f"{path}: [chain] needs a wavelength")
    wavelength = _value(ini, "chain", "wavelength", parse_length)
    try:
        _check_wavelength(wavelength)
    except ChainError as exc:
        raise ConfigError(f"{path}: chain.{exc}") from None

    def sort_key(name: str):
        suffix = name.split(".", 1)[1]
        try:
            return (0, int(suffix), suffix)
        except ValueError:
            return (1, 0, suffix)

    def segment(text: str) -> Segment:
        seg = Segment(parse_length(text))
        _check_length(seg.length, wavelength, "segment length")
        return seg

    elements = []
    mobile_index = None
    for section in sorted((s for s in ini if s != "chain"), key=sort_key):
        values = ini[section]
        kind = values.get("kind")
        if kind is None:
            raise ConfigError(f"{path}: [{section}] needs a kind")
        kind = kind.strip().lower()
        if kind == "scatterer":
            if "zeta" not in values:
                raise ConfigError(f"{path}: [{section}] scatterer needs zeta = RE IM")
            elements.append(_value(ini, section, "zeta",
                                   lambda text: Scatterer.of(_parse_zeta(text))))
            if "mobile" in values and _value(ini, section, "mobile", _parse_bool):
                if mobile_index is not None:
                    raise ConfigError(f"{path}: {section}.mobile: more than one mobile element")
                try:
                    _check_mobile_zeta(elements[-1].pol.zeta)
                except ChainError as exc:
                    raise ConfigError(f"{path}: {section}.zeta: {exc}") from None
                mobile_index = len(elements) - 1
        elif kind == "segment":
            if "length" not in values:
                raise ConfigError(f"{path}: [{section}] segment needs a length")
            if "mobile" in values:
                raise ConfigError(f"{path}: {section}.mobile: segments cannot be mobile")
            elements.append(_value(ini, section, "length", segment))
        else:
            raise ConfigError(f"{path}: {section}.kind: unknown element kind {kind!r}; "
                              "must be scatterer or segment")

    if mobile_index is None:
        raise ConfigError(f"{path}: no element marked mobile = true")
    return Chain(
        elements=tuple(elements),
        mobile_index=mobile_index,
        k0=2 * math.pi / wavelength,
    )


def validate_report(cfg: RunConfig) -> list[str]:
    """Every problem of a loaded configuration, each named by its key; an
    empty list means the config is clean.

    The checks are those of the objects the commands build from it (the
    MIM setup and its pump, its chain at membrane_x and cavity_detuning,
    the chain file), then the bounds that no constructor checks.
    """
    problems = _built(lambda **mim: pump_for(MimConfig(**mim)), cfg._mim_values(), RunConfig)[1]
    # the chain at membrane_x and cavity_detuning depends on the cavity
    # geometry only, so it is checked even when a scatterer or the pump is bad
    geometry = _built(MimConfig, {"wavelength": cfg.wavelength,
                                  "cavity_length": cfg.cavity_length}, RunConfig)[0]
    if geometry is not None:
        at = {"membrane_x": cfg.membrane_x, "cavity_detuning": cfg.cavity_detuning}
        problems += _built(lambda membrane_x, cavity_detuning: build_mim(
            geometry, membrane_x, cavity_detuning), at, RunConfig)[1]
    g = cfg.grid
    if g is not None:
        if max(abs(g.x_start), abs(g.x_stop)) > cfg.wavelength:
            problems.append("grid.x_start, grid.x_stop: x range exceeds one wavelength "
                            "(|x| << L_c)")
        elif geometry is not None:
            # both axes ascend from their start, so each gap is shortest at
            # dlc_start and an end of the x axis: `_gaps` judges those points
            # as the grid commands will, and a collapse names its end's key
            ends = {"grid.x_start": g.x_start}
            if g.x_count > 1:
                ends["grid.x_stop"] = g.x_stop
            try:
                _gaps(geometry, np.array(list(ends.values())), g.dlc_start)
            except ChainError:
                for key, x in ends.items():
                    try:
                        _gaps(geometry, x, g.dlc_start)
                    except ChainError as exc:
                        problems.append(f"{key}, grid.dlc_start, mim.cavity_length: {exc}")
        npts = g.x_count * g.dlc_count
        if npts > 4_000_000:
            problems.append(f"grid.x_count, grid.dlc_count: grid has {npts} points; "
                            "bound is 4e6")
    if cfg.workers < 1:
        problems.append(f"output.workers: must be >= 1, got {cfg.workers}")
    if cfg.chain_path is not None:
        try:
            chain = load_chain_file(cfg.chain_path)
        except TmmCavityError as exc:
            problems.append(f"chain.path: {exc}")
        else:
            # a [pump] power that fails on its own is named above already
            if not any(p.startswith("pump.power:") for p in problems):
                problems += _built(lambda power_watts: _chain_pump(chain, power_watts),
                                   {"power_watts": cfg.power_watts}, RunConfig)[1]
    return problems


def _chain_pump(chain: Chain, power_watts: float, side: str = "left") -> PumpSpec:
    """The pump of `point` and `elements` on a chain file: the [pump] power
    and side at the chain's own wavelength."""
    return PumpSpec.one_sided(power_watts, 2 * math.pi / chain.k0, side)


def _meta_blocks(cfg: RunConfig) -> dict:
    """The `config` block of a meta.json sidecar, and its `grid` block when
    the run has a grid."""
    blocks = {"config": {e.meta: getattr(cfg, e.field) for e in _RUN_KEYS
                         if e.meta and e.section != "grid"}}
    if cfg.grid is not None:
        blocks["grid"] = {e.meta: getattr(cfg.grid, e.field) for e in _GRID_KEYS}
    return blocks


def _help_epilog() -> str:
    """The `tmmcavity --help` key list: every run-config and chain-file key."""
    def rows(keys):
        for e in keys:
            default = getattr(RunConfig, e.field, None)
            note = "" if default is None else f" (default {default})"
            yield f"  {'[' + e.section + ']':<13}{e.key:<17}{e.unit:<3}{e.doc}{note}"

    return "\n".join([
        "configuration file keys (INI; lengths accept m/cm/mm/um/nm/pm suffixes,",
        "powers accept W/kW/mW/uW/nW; bare numbers are SI; unit column is SI):",
        "", *rows(_RUN_KEYS), "", "chain description files:", "", *rows(_CHAIN_KEYS),
    ]) + "\n"
