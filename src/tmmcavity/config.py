"""Configuration files: flat key-value INI with sections, SI units.

One format serves both the run configuration and standalone chain
description files.  Values are SI; lengths and powers also accept explicit
unit suffixes (``1064nm``, ``6.7cm``, ``1W``, ``250mW``).  Unknown sections
or keys are hard errors: a typo must never be silently ignored.

Each key is declared once, in `_RUN_KEYS` or `_CHAIN_KEYS`; loading,
`validate_report`, the ``tmmcavity --help`` key list and the ``meta.json``
config block are all driven by those tables.  ``tmmcavity --help`` prints
the keys with their units.  A key lists the checks of its value on its
own, and `_RULES` (run configs) and `_CHAIN_RULES` (chain files) the
bounds across keys, each with the keys it names; they are the checks the
records' constructors make, and one pass (`_problems`) judges both files.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import partial
from typing import Callable, NamedTuple

from .elements import (
    Chain, PumpSpec, Scatterer, Segment, _check_length, _check_mobile_zeta, _check_power,
    _check_pump_side, _check_wavelength, _photon_flux,
)
from .errors import CalibrationError, ChainError, ConfigError, TmmCavityError
from .mim import (
    MimConfig, ScanGrid, _check_axis, _check_cavity, _check_cavity_length, _check_count,
    _check_membrane_zeta, _check_range, _check_reach, _check_real, _half_gap, bare_resonance,
    build_mim, pump_for,
)

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


def _parse_choice(choices: tuple, text: str) -> str:
    choice = text.strip().lower()
    if choice not in choices:
        raise ConfigError(f"must be {' or '.join(choices)}, got {choice!r}")
    return choice


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
    field: str = ""  # RunConfig attribute; a [grid] key's is also its ScanGrid field
    parse: Callable[[str], object] | None = None
    meta: str = ""  # its name in the meta.json sidecar; "" when not recorded
    # the checks of the value on its own, in order, each raising a
    # TmmCavityError; one that returns a value other than None hands the
    # rules that value in its place (chain.path: its chain)
    checks: tuple = ()


def _check_workers(workers):
    if workers < 1:
        raise ConfigError(f"must be >= 1, got {workers}")


# Run configuration keys, in the order `--help` and `validate` list them.
_RUN_KEYS = (
    _Key("run", "schema_version", "", "config schema version",
         "schema_version", _parse_version),
    _Key("pump", "wavelength", "m", "pump wavelength", "wavelength", parse_length,
         "wavelength_m", (partial(_check_real, "wavelength"), _check_wavelength)),
    _Key("pump", "power", "W", "input power", "power_watts", parse_power, "power_W",
         (partial(_check_real, "power_watts"), _check_power)),
    _Key("pump", "side", "", "pump side, left|right", "pump_side", str.strip,
         "pump_side", (_check_pump_side,)),
    _Key("mim", "cavity_length", "m", "cavity length", "cavity_length", parse_length,
         "cavity_length_m", (partial(_check_real, "cavity_length"), _check_cavity_length)),
    _Key("mim", "membrane_zeta", "", "membrane polarisability, real <= 0", "membrane_zeta",
         _parse_float, "membrane_zeta",
         (partial(_check_real, "membrane_zeta"), _check_membrane_zeta)),
    _Key("mim", "mirror_zeta", "", "end-mirror polarisability", "mirror_zeta",
         _parse_float, "mirror_zeta", (partial(_check_real, "mirror_zeta"),)),
    _Key("mim", "membrane_x", "m", "membrane displacement for `point`", "membrane_x",
         parse_length, "membrane_x_m", (partial(_check_real, "membrane_x"),)),
    _Key("mim", "cavity_detuning", "m", "cavity-length detuning for `point`", "cavity_detuning",
         parse_length, "cavity_detuning_m", (partial(_check_real, "cavity_detuning"),)),
    _Key("chain", "path", "", "chain description file, in place of [mim] for `point` and "
         "`elements`", "chain_path", str.strip, "chain_path",
         (lambda path: load_chain_file(path),)),  # defined below
    _Key("grid", "x_start", "m", "first membrane displacement (without [grid], x and dLc "
         "span +-wavelength/2 in 101 steps)", "x_start", parse_length, "x_start_m",
         (_check_range,)),
    _Key("grid", "x_stop", "m", "last membrane displacement", "x_stop", parse_length,
         "x_stop_m", (_check_range,)),
    _Key("grid", "x_count", "", "number of x samples", "x_count", _parse_int, "x_count",
         (_check_count,)),
    _Key("grid", "dlc_start", "m", "first cavity-length detuning", "dlc_start",
         parse_length, "dlc_start_m", (_check_range,)),
    _Key("grid", "dlc_stop", "m", "last cavity-length detuning", "dlc_stop", parse_length,
         "dlc_stop_m", (_check_range,)),
    _Key("grid", "dlc_count", "", "number of detuning samples", "dlc_count", _parse_int,
         "dlc_count", (_check_count,)),
    _Key("output", "path", "", "output file", "out_path", str.strip),
    _Key("output", "format", "", "csv|json", "out_format",
         partial(_parse_choice, ("csv", "json"))),
    _Key("output", "workers", "", "accepted and ignored: scans are vectorised in one "
         "process", "workers", _parse_int, "workers", (_check_workers,)),
)
_RUN_NAMES = {e.field: f"{e.section}.{e.key}" for e in _RUN_KEYS}
_GRID_KEYS = tuple(e for e in _RUN_KEYS if e.section == "grid")

# Chain description file keys; [element.N] stands for every numbered
# element.  An element's zeta hands the rules its Scatterer, and its
# length its Segment.
_CHAIN_KEYS = (
    _Key("chain", "schema_version", "", "chain file schema, currently 1",
         parse=_parse_version),
    _Key("chain", "wavelength", "m", "pump wavelength", parse=parse_length,
         checks=(_check_wavelength,)),
    _Key("element.N", "kind", "", "scatterer|segment",
         parse=partial(_parse_choice, ("scatterer", "segment"))),
    _Key("element.N", "zeta", "", "scatterer polarisability, two reals RE IM",
         parse=_parse_zeta, checks=(Scatterer.of,)),
    _Key("element.N", "mobile", "", "true marks the one mobile scatterer", parse=_parse_bool),
    _Key("element.N", "length", "m", "segment length", parse=parse_length, checks=(Segment,)),
)


def _check_given(kind, what: str, value, element_kind=None):
    """The rule that a key has a value where its element's kind is `kind`
    (None: whatever the kind)."""
    if value is None and element_kind == kind:
        raise ConfigError(f"missing: {what}")


def _check_segment_mobile(mobile, kind):
    if kind == "segment" and mobile is not None:
        raise ConfigError("segments cannot be mobile")


def _check_segment(segment, wavelength):
    if None not in (segment, wavelength):  # Chain's bound, at its 2 pi / k0
        _check_length(segment.length, 2 * math.pi / (2 * math.pi / wavelength),
                      "segment length")


def _check_one_mobile(*mobiles):
    if sum(map(bool, mobiles)) != 1:
        raise ConfigError("more than one mobile element" if any(mobiles)
                          else "no element marked mobile = true")


# The bounds across a chain file's keys, each (fields, check) as in
# `_RULES`, where a key the file does not give is None.  A rule whose
# first key is element.N's is judged for each element; `load_chain_file`
# adds `_check_one_mobile` over the mobile keys the file gives.
_CHAIN_RULES = (
    (("chain.wavelength",), partial(_check_given, None, "the file needs [chain] wavelength")),
    (("element.N.kind",), partial(_check_given, None, "each element needs a kind")),
    (("element.N.zeta", "element.N.kind"),
     partial(_check_given, "scatterer", "a scatterer needs zeta = RE IM")),
    (("element.N.length", "element.N.kind"),
     partial(_check_given, "segment", "a segment needs a length")),
    (("element.N.mobile", "element.N.kind"), _check_segment_mobile),
    (("element.N.length", "chain.wavelength"), _check_segment),
    (("element.N.zeta", "element.N.mobile"),
     lambda scatterer, mobile: mobile and scatterer is not None
     and _check_mobile_zeta(scatterer.pol.zeta)),
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


def _plain(number: str) -> bool:
    """Whether `number` is a positive integer as written plainly: ASCII
    digits, no sign and no leading zero."""
    return number.isascii() and number.isdigit() and number[0] != "0"


def _unknown(ini: dict, keys: tuple) -> list:
    """The problems of the sections and keys of `ini` that `keys` does not
    declare, each named as a value problem is: ``element.2.foo: unknown
    key``.  A numbered section, ``[element.N]``, is known only with a plain
    number (`_plain`)."""
    known = {}
    for e in keys:
        known.setdefault(e.section, set()).add(e.key)
    problems = []
    for section, values in ini.items():
        head, numbered, number = section.partition(".")
        allowed = known.get(head + ".N" if numbered else section)
        if allowed is None:
            problems.append(f"{section}: unknown section")
        elif numbered and not _plain(number):
            problems.append(f"{section}: a section number must be a positive integer, "
                            "without sign or leading zero")
        else:
            problems += [f"{section}.{key}: unknown key" for key in values
                         if key not in allowed]
    return problems


def _value(ini: dict, section: str, key: str, parse):
    """The parsed value of `section.key`; an error of the parse names the key."""
    try:
        return parse(ini[section][key])
    except TmmCavityError as exc:
        raise ConfigError(f"{section}.{key}: {exc}") from None


_MIM_DEFAULTS = {f.name: f.default for f in fields(MimConfig)}


@dataclass
class RunConfig:
    """A run configuration as read, with defaults applied: a field per key,
    its value unjudged (`_build` judges them).  The MIM setup's defaults
    are MimConfig's; the [grid] keys are None without a [grid]."""

    schema_version: int = SCHEMA_VERSION
    wavelength: float = _MIM_DEFAULTS["wavelength"]
    power_watts: float = _MIM_DEFAULTS["power_watts"]
    pump_side: str = _MIM_DEFAULTS["pump_side"]
    cavity_length: float = _MIM_DEFAULTS["cavity_length"]
    membrane_zeta: float = _MIM_DEFAULTS["membrane_zeta"]
    mirror_zeta: float = _MIM_DEFAULTS["mirror_zeta"]
    membrane_x: float = 0.0
    cavity_detuning: float = 0.0
    chain_path: str | None = None
    x_start: float | None = None
    x_stop: float | None = None
    x_count: int | None = None
    dlc_start: float | None = None
    dlc_stop: float | None = None
    dlc_count: int | None = None
    out_path: str | None = None
    out_format: str = "csv"
    workers: int = 1
    source_path: str | None = None

    def mim_config(self) -> MimConfig:
        return MimConfig(**{f.name: getattr(self, f.name) for f in fields(MimConfig)})

    @property
    def has_grid(self) -> bool:
        """Whether any [grid] key has a value; `_build` needs all six."""
        return any(getattr(self, e.field) is not None for e in _GRID_KEYS)

    def default_grid(self) -> ScanGrid:
        """The [grid], or without one x and dLc over +-wavelength/2 in 101
        steps; ScanGrid raises ChainError where the grid fails its checks."""
        if self.has_grid:
            return ScanGrid(**{e.field: getattr(self, e.field) for e in _GRID_KEYS})
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
        if not self.has_grid:
            lines.append("grid = (default) x,dlc in [-lambda/2, lambda/2], 101x101")
        else:
            lines.append(
                "grid = x "
                f"[{self.x_start!r}, {self.x_stop!r}] m x {self.x_count}; dlc "
                f"[{self.dlc_start!r}, {self.dlc_stop!r}] m x {self.dlc_count}"
            )
        return lines


def _check_points(x_count, dlc_count):
    if x_count * dlc_count > 4_000_000:
        raise ConfigError(f"grid has {x_count * dlc_count} points; bound is 4e6")


def _check_flux(wavelength, power_watts):
    if not math.isfinite(flux := _photon_flux(power_watts, wavelength)):
        raise ChainError(f"photon flux P/(hbar omega0) must be finite, got {flux}")


_CAVITY = ("wavelength", "cavity_length")
# The bounds across keys, each (fields, check): the check takes the values
# of the RunConfig fields in that order, and the problem of its
# TmmCavityError names every key.
_RULES = (
    (("x_start", "x_stop", "x_count"), partial(_check_axis, axis="x")),
    (("dlc_start", "dlc_stop", "dlc_count"), partial(_check_axis, axis="dlc")),
    (_CAVITY, _check_cavity),
    # the pump's photon flux stays a float64, at the [pump] wavelength and
    # at a chain file's own
    (("wavelength", "power_watts"), _check_flux),
    (("power_watts", "chain_path"), lambda power, c: _check_flux(2 * math.pi / c.k0, power)),
    (("membrane_x", "wavelength"), _check_reach),
    (("x_start", "x_stop", "wavelength"), lambda x0, x1, lam: _check_reach((x0, x1), lam)),
    (("membrane_x", "cavity_detuning", "cavity_length"), _half_gap),
    # both grid axes ascend from their start, so each gap is shortest at
    # dlc_start and an end of the x axis, whose stop is a point from 2 on
    (("x_start", "dlc_start", "cavity_length"), _half_gap),
    (("x_stop", "x_count", "dlc_start", "cavity_length"),
     lambda x, count, dlc, length: count == 1 or _half_gap(x, dlc, length)),
    (("x_count", "dlc_count"), _check_points),
)


def _problems(values: dict, keys: tuple, names: dict, rules: tuple) -> dict:
    """The problems of `values` ({field: value}, None for a key the file
    does not give) under the key table `keys`, whose fields `names` names,
    as {problem: the fields it names}: each key's first failing check,
    named by the key (a line for each problem its error lists), then each
    failing rule, named by all of its keys.  A key's checks run where it
    has a value, and put any value they hand the rules in `values`; a key
    that fails leaves `values`, and a rule is judged only where every one
    of its keys is in `values`."""
    problems = {}
    for e in keys:
        try:
            for check in e.checks if values.get(e.field) is not None else ():
                if (value := check(values[e.field])) is not None:
                    values[e.field] = value
        except TmmCavityError as exc:
            problems |= {f"{names[e.field]}: {p}": (e.field,) for p in exc.args}
            del values[e.field]  # and no rule of the key is judged
    for fields, check in rules:
        if all(f in values for f in fields):
            try:
                check(*map(values.get, fields))
            except TmmCavityError as exc:
                problems[f"{', '.join(map(names.get, fields))}: {exc}"] = fields
    return problems


def load_run_config(path: str, overrides: dict | None = None) -> RunConfig:
    """Read a run configuration file; its values are judged by `_build`.

    `overrides` maps ``section.key`` names to text that replaces the file's
    value; a bare section name takes all of that section's keys, as values
    separated by commas in `--help` order (``grid`` = x0,x1,nx,dlc0,dlc1,ndlc).
    Only what cannot be read raises a ConfigError here: a malformed line, an
    unknown section or key, and a value that does not parse.
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
    if problems := _unknown(ini, _RUN_KEYS):
        raise ConfigError(*(f"{path}: {p}" for p in problems))

    values = {e.field: _value(ini, e.section, e.key, e.parse)
              for e in _RUN_KEYS if e.key in ini.get(e.section, ())}
    return RunConfig(source_path=path, **values)


def load_chain_file(path: str) -> Chain:
    """Parse a chain description file into a Chain, or raise one
    ConfigError that lists every problem of the file, each ``<file>:
    <key>: <message>``: its unknown sections and keys, each key's checks
    and the rules across keys (`_CHAIN_RULES`), judged as a run config's
    are (`_problems`).  Elements are taken in the order of their numbers."""
    ini = _read_ini(path)
    elements = [f"element.{n}" for n in sorted(int(s[8:]) for s in ini
                                               if s.startswith("element.") and _plain(s[8:]))]
    keys = [e._replace(section=s, field=f"{s}.{e.key}", checks=(e.parse, *e.checks))
            for s in ("chain", *elements) for e in _CHAIN_KEYS
            if e.section.split(".")[0] == s.split(".")[0]]
    # element.N.mobile names the one-mobile rule where no element gives the key
    values = {e.field: ini.get(e.section, {}).get(e.key) for e in keys} | {
        "element.N.mobile": None}
    mobiles = tuple(f"{s}.mobile" for s in elements if "mobile" in ini[s])
    rules = [(tuple(f.replace("element.N", s) for f in fields), check)
             for fields, check in _CHAIN_RULES
             for s in (elements if fields[0].startswith("element.N") else ("",))]
    rules.append((mobiles or ("element.N.mobile",), _check_one_mobile))
    problems = _unknown(ini, _CHAIN_KEYS) + list(
        _problems(values, keys, dict(zip(values, values)), rules))
    if problems:
        raise ConfigError(*(f"{path}: {p}" for p in problems))
    return Chain(elements=tuple(values[f"{s}.zeta"] if values[f"{s}.kind"] == "scatterer"
                                else values[f"{s}.length"] for s in elements),
                 mobile_index=[bool(values[f"{s}.mobile"]) for s in elements].index(True),
                 k0=2 * math.pi / values["chain.wavelength"])


class _Run(NamedTuple):
    """What a command runs, built once by `_build`; the parts serve a run
    without problems only."""

    cfg: RunConfig
    problems: list  # each named by its key; any one stops every command
    warnings: list  # `validate`'s warning lines: some commands stop, the others run
    mim: MimConfig | None
    grid: ScanGrid | None  # the [grid], or the default one
    grid_error: str | None  # the grid's warning, which stops `scan` and `compare`
    chain: Chain | None  # what `point` and `elements` solve, pumped by `pump`
    pump: PumpSpec | None


def _build(cfg: RunConfig) -> _Run:
    """The run of a loaded configuration: its MIM setup, the grid of
    `scan`, `compare` and `couplings`, and the chain and pump of `point`
    and `elements`: the chain file at its own wavelength with the [pump]
    power and side, or the MIM chain at membrane_x and cavity_detuning.

    The problems are those of each key's checks and of the rules across
    keys (`_problems`), the [grid]'s included, and the keys a partial
    [grid] lacks; the records are built where their checks pass, by
    constructors that check again.  End mirrors too weak for the
    bare-cavity calibration and a default grid that collapses a sub-cavity
    are warnings.
    """
    values = {field: value for field, value in vars(cfg).items() if value is not None}
    problems = _problems(values, _RUN_KEYS, _RUN_NAMES, _RULES)
    missing = tuple(e.field for e in _GRID_KEYS if getattr(cfg, e.field) is None)
    if cfg.has_grid and missing:
        problems[f"{', '.join(map(_RUN_NAMES.get, missing))}: missing; "
                 "[grid] needs all six of its keys"] = missing
    mim = pump = chain = grid = grid_error = None
    try:  # the MIM setup where its checks pass; a failure is a problem above
        mim = cfg.mim_config()
        pump = pump_for(mim)
    except TmmCavityError:
        mim = None
    warnings = []
    if mim is not None:
        try:
            bare_resonance(mim)
        except CalibrationError as exc:  # no config error: `point` runs any mirror
            warnings.append(f"mim.mirror_zeta: {exc}")
    if cfg.has_grid:  # the [grid] where its checks pass
        grid = None if problems else cfg.default_grid()
    # the default grid where the cavity's keys and bound pass their checks
    elif not {("wavelength",), ("cavity_length",), _CAVITY} & set(problems.values()):
        grid = cfg.default_grid()
        try:  # x spans +-wavelength/2, so both of its ends collapse alike
            _half_gap(grid.x_start, grid.dlc_start, cfg.cavity_length)
        except ChainError as exc:
            grid_error = (f"mim.cavity_length, [grid]: {exc} on the default grid "
                          "(x and dLc over +-wavelength/2); give a [grid] or a "
                          "cavity of at least 1.5 wavelengths")
            warnings.append(grid_error)
    if not problems:
        chain = values.get("chain_path") or build_mim(mim, cfg.membrane_x, cfg.cavity_detuning)
        if cfg.chain_path is not None:
            pump = PumpSpec.one_sided(cfg.power_watts, 2 * math.pi / chain.k0, cfg.pump_side)
    return _Run(cfg, list(problems), warnings, mim, grid, grid_error, chain, pump)


def validate_report(cfg: RunConfig) -> list[str]:
    """Every problem of a loaded configuration, each named by its key; an
    empty list means the config is clean.  The problems are those met
    building what the commands run (`_build`)."""
    return _build(cfg).problems


def _meta_blocks(cfg: RunConfig, grid: ScanGrid | None) -> dict:
    """The `config` block of a meta.json sidecar, and its `grid` block when
    the command runs a grid."""
    blocks = {"config": {e.meta: getattr(cfg, e.field) for e in _RUN_KEYS
                         if e.meta and e.section != "grid"}}
    if grid is not None:
        blocks["grid"] = {e.meta: getattr(grid, e.field) for e in _GRID_KEYS}
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
