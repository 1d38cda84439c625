"""Configuration parsing, validation, CLI commands, output formats."""

import csv
import json
import os
import subprocess
import sys
from dataclasses import asdict

import numpy as np
import pytest

from tmmcavity import cli
from tmmcavity.config import (
    load_chain_file,
    load_run_config,
    parse_length,
    parse_power,
    validate_report,
)
from tmmcavity.elements import PumpSpec, Scatterer, element_matrix
from tmmcavity.errors import ConfigError
from tmmcavity.mim import ScanGrid, compare_models, evaluate_chain, point_quantities, scan
from tmmcavity.statics import couplings, resonance_shifts

from helpers import singular_column

LAM = 1.064e-6


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


GOOD_RUN = """\
[run]
schema_version = 1

[pump]
wavelength = 1064nm
power = 1W
side = left

[mim]
cavity_length = 5mm
membrane_zeta = -1.0
mirror_zeta = -3.0
membrane_x = 50nm
cavity_detuning = 10nm

[grid]
x_start = -0.2um
x_stop = 0.2um
x_count = 4
dlc_start = -0.1um
dlc_stop = 0.1um
dlc_count = 3

[output]
format = csv
workers = 1
"""

GOOD_CHAIN = """\
[chain]
schema_version = 1
wavelength = 1064nm

[element.1]
kind = scatterer
zeta = -3.0 0.0

[element.2]
kind = segment
length = 2.5mm

[element.3]
kind = scatterer
zeta = -1.0 0.0
mobile = true

[element.4]
kind = segment
length = 2.5mm

[element.5]
kind = scatterer
zeta = -3.0 0.0
"""


class TestUnits:
    def test_length_suffixes(self):
        assert parse_length("1064nm") == pytest.approx(1.064e-6)
        assert parse_length("6.7cm") == pytest.approx(6.7e-2)
        assert parse_length("5mm") == pytest.approx(5e-3)
        assert parse_length("0.5um") == pytest.approx(5e-7)
        assert parse_length("2.5e-3") == pytest.approx(2.5e-3)  # bare SI
        assert parse_length("-532 nm") == pytest.approx(-5.32e-7)

    def test_power_suffixes(self):
        assert parse_power("1W") == 1.0
        assert parse_power("250mW") == pytest.approx(0.25)
        assert parse_power("2") == 2.0

    def test_garbage_rejected(self):
        with pytest.raises(ConfigError):
            parse_length("fast")
        with pytest.raises(ConfigError):
            parse_power("1 Joule")


class TestRunConfig:
    def test_good_config_loads(self, tmp_path):
        cfg = load_run_config(write(tmp_path / "run.ini", GOOD_RUN))
        assert cfg.wavelength == pytest.approx(1.064e-6)
        assert cfg.cavity_length == pytest.approx(5e-3)
        assert cfg.grid.x_count == 4
        assert validate_report(cfg) == []

    def test_unknown_key_is_hard_error(self, tmp_path):
        bad = GOOD_RUN.replace("power = 1W", "power = 1W\npowr = 2W")
        with pytest.raises(ConfigError, match="powr"):
            load_run_config(write(tmp_path / "run.ini", bad))

    def test_unknown_section_is_hard_error(self, tmp_path):
        bad = GOOD_RUN + "\n[plotting]\ncolor = red\n"
        with pytest.raises(ConfigError, match="plotting"):
            load_run_config(write(tmp_path / "run.ini", bad))

    def test_wrong_schema_version(self, tmp_path):
        bad = GOOD_RUN.replace("schema_version = 1", "schema_version = 99")
        with pytest.raises(ConfigError, match="schema_version"):
            load_run_config(write(tmp_path / "run.ini", bad))

    def test_incomplete_grid_rejected(self, tmp_path):
        bad = GOOD_RUN.replace("dlc_count = 3\n", "")
        with pytest.raises(ConfigError, match="dlc_count"):
            load_run_config(write(tmp_path / "run.ini", bad))

    def test_validate_flags_large_membrane_x(self, tmp_path):
        bad = GOOD_RUN.replace("membrane_x = 50nm", "membrane_x = 2128nm")
        cfg = load_run_config(write(tmp_path / "run.ini", bad))
        problems = validate_report(cfg)
        assert any("membrane_x" in p for p in problems)


class TestChainFile:
    def test_good_chain_loads(self, tmp_path):
        chain = load_chain_file(write(tmp_path / "c.ini", GOOD_CHAIN))
        assert len(chain.elements) == 5
        assert chain.mobile_index == 2
        assert chain.k0 == pytest.approx(2 * np.pi / LAM)

    def test_missing_mobile_rejected(self, tmp_path):
        bad = GOOD_CHAIN.replace("mobile = true\n", "")
        with pytest.raises(ConfigError, match="mobile"):
            load_chain_file(write(tmp_path / "c.ini", bad))

    def test_two_mobiles_rejected(self, tmp_path):
        bad = GOOD_CHAIN.replace(
            "[element.1]\nkind = scatterer\nzeta = -3.0 0.0",
            "[element.1]\nkind = scatterer\nzeta = -3.0 0.0\nmobile = true",
        )
        with pytest.raises(ConfigError, match="mobile"):
            load_chain_file(write(tmp_path / "c.ini", bad))

    def test_gain_scatterer_rejected(self, tmp_path):
        bad = GOOD_CHAIN.replace("zeta = -1.0 0.0", "zeta = -1.0 -0.2")
        with pytest.raises(Exception, match="[Gg]ain|Im"):
            load_chain_file(write(tmp_path / "c.ini", bad))

    def test_unknown_kind_rejected(self, tmp_path):
        bad = GOOD_CHAIN.replace("kind = segment", "kind = prism", 1)
        with pytest.raises(ConfigError, match="prism"):
            load_chain_file(write(tmp_path / "c.ini", bad))

    def test_zeta_needs_two_reals(self, tmp_path):
        bad = GOOD_CHAIN.replace("zeta = -1.0 0.0", "zeta = -1.0")
        with pytest.raises(ConfigError, match="two reals"):
            load_chain_file(write(tmp_path / "c.ini", bad))


class TestCliCommands:
    def test_validate_ok(self, tmp_path, capsys):
        path = write(tmp_path / "run.ini", GOOD_RUN)
        code = cli.run(["validate", "--config", path])
        out = capsys.readouterr().out
        assert code == 0
        assert "configuration OK" in out
        assert "mirror_zeta" in out  # resolved config echoed

    def test_validate_reports_all_problems(self, tmp_path, capsys):
        bad = GOOD_RUN.replace("membrane_x = 50nm", "membrane_x = 2128nm")
        bad = bad.replace("membrane_zeta = -1.0", "membrane_zeta = 0.5")
        path = write(tmp_path / "run.ini", bad)
        code = cli.run(["validate", "--config", path])
        out = capsys.readouterr().out
        assert code == 2
        assert "membrane_x" in out and "membrane_zeta" in out

    def test_point_transparent_membrane_is_null_forces(self, tmp_path):
        cfg_text = GOOD_RUN.replace("membrane_zeta = -1.0", "membrane_zeta = 0.0")
        path = write(tmp_path / "run.ini", cfg_text)
        out = str(tmp_path / "point.csv")
        code = cli.run(["point", "--config", path, "--out", out])
        assert code == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 1
        assert float(rows[0]["F0"]) == 0.0
        assert float(rows[0]["dFdv"]) == 0.0
        assert float(rows[0]["D"]) == 0.0
        assert rows[0]["kBT"] == ""  # no cooling without coupling
        meta = json.loads(open(out + ".meta.json").read())
        assert meta["schema_version"] == 1
        assert meta["units"]["F0"] == "N"

    def test_point_chain_file(self, tmp_path):
        chain_path = write(tmp_path / "c.ini", GOOD_CHAIN)
        run = GOOD_RUN.replace("[mim]", "[chain]\npath = %s\n\n[mim]" % chain_path)
        path = write(tmp_path / "run.ini", run)
        out = str(tmp_path / "point.csv")
        assert cli.run(["point", "--config", path, "--out", out]) == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert rows[0]["x"] == ""  # chain mode has no mim coordinates
        assert float(rows[0]["intensity"]) > 0

    def test_elements_table(self, tmp_path):
        chain_path = write(tmp_path / "c.ini", GOOD_CHAIN)
        run = GOOD_RUN.replace("[mim]", "[chain]\npath = %s\n\n[mim]" % chain_path)
        path = write(tmp_path / "run.ini", run)
        out = str(tmp_path / "elements.csv")
        assert cli.run(["elements", "--config", path, "--out", out]) == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 5
        assert rows[2]["kind"] == "scatterer"
        assert float(rows[2]["mobile"]) == 1.0
        # scatterer matrix entry m11 = 1 + i z with z = -1: (1, -1)
        assert float(rows[2]["m11_re"]) == pytest.approx(1.0)
        assert float(rows[2]["m11_im"]) == pytest.approx(-1.0)

    def test_couplings_strong_membrane_bound(self, tmp_path):
        cfg_text = GOOD_RUN.replace("cavity_length = 5mm", "cavity_length = 6.7cm")
        cfg_text = cfg_text.replace("membrane_zeta = -1.0", "membrane_zeta = -1e6")
        cfg_text = cfg_text.replace("x_count = 4", "x_count = 101")
        cfg_text = cfg_text.replace("x_start = -0.2um", "x_start = -532nm")
        cfg_text = cfg_text.replace("x_stop = 0.2um", "x_stop = 532nm")
        path = write(tmp_path / "run.ini", cfg_text)
        out = str(tmp_path / "couplings.csv")
        assert cli.run(["couplings", "--config", path, "--out", out]) == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        w1_max = max(abs(float(r["omega_prime"])) for r in rows)
        assert w1_max / (2 * np.pi) * 1e-9 == pytest.approx(8.42e6, rel=5e-3)

    def test_scan_csv_and_grid_override(self, tmp_path):
        path = write(tmp_path / "run.ini", GOOD_RUN)
        out = str(tmp_path / "scan.csv")
        code = cli.run([
            "scan", "--config", path, "--out", out,
            "--grid=-0.1um,0.1um,3,-0.05um,0.05um,3",
        ])
        assert code == 0
        with open(out) as fh:
            header = fh.readline().strip()
            rows = fh.read().strip().splitlines()
        assert header == "x,dLc,intensity,F0,dFdv,D,kBT"
        assert len(rows) == 9
        assert os.path.exists(out + ".overlay.csv")
        meta = json.loads(open(out + ".meta.json").read())
        assert meta["grid"]["x_count"] == 3

    def test_grid_negative_start_both_spellings(self, tmp_path):
        # a separate value starting with '-' must not be read as an option
        path = write(tmp_path / "run.ini", GOOD_RUN)
        grid = "-0.1um,0.1um,3,-0.05um,0.05um,3"
        outputs = []
        for i, flag in enumerate((["--grid", grid], ["--grid=" + grid])):
            out = str(tmp_path / f"scan{i}.csv")
            assert cli.run(["scan", "--config", path, "--out", out] + flag) == 0
            meta = json.loads(open(out + ".meta.json").read())
            outputs.append((meta["grid"], open(out, "rb").read()))
        assert outputs[0] == outputs[1]
        assert outputs[0][0] == {
            "x_start_m": -1e-7, "x_stop_m": 1e-7, "x_count": 3,
            "dlc_start_m": -5e-8, "dlc_stop_m": 5e-8, "dlc_count": 3,
        }

    def test_scan_deterministic_across_workers(self, tmp_path):
        path = write(tmp_path / "run.ini", GOOD_RUN)
        out1 = str(tmp_path / "scan1.csv")
        out2 = str(tmp_path / "scan2.csv")
        assert cli.run(["scan", "--config", path, "--out", out1,
                        "--workers", "1"]) == 0
        assert cli.run(["scan", "--config", path, "--out", out2,
                        "--workers", "3"]) == 0
        assert open(out1, "rb").read() == open(out2, "rb").read()

    def test_json_format(self, tmp_path):
        path = write(tmp_path / "run.ini", GOOD_RUN)
        out = str(tmp_path / "point.json")
        assert cli.run(["point", "--config", path, "--out", out,
                        "--format", "json"]) == 0
        doc = json.loads(open(out).read())
        assert doc["columns"][0] == "x"
        assert len(doc["rows"]) == 1
        assert doc["units"]["dFdv"] == "N s/m"

    def test_full_precision_round_trip(self, tmp_path):
        from tmmcavity.mim import MimConfig, point_quantities

        path = write(tmp_path / "run.ini", GOOD_RUN)
        out = str(tmp_path / "point.csv")
        assert cli.run(["point", "--config", path, "--out", out]) == 0
        with open(out) as fh:
            row = list(csv.DictReader(fh))[0]
        cfg = MimConfig(
            wavelength=1.064e-6, cavity_length=5e-3, membrane_zeta=-1.0,
            mirror_zeta=-3.0, power_watts=1.0,
        )
        p = point_quantities(cfg, parse_length("50nm"), parse_length("10nm"))
        # 17 significant digits: the parsed value is bit-identical
        assert float(row["F0"]) == p.F0
        assert float(row["dFdv"]) == p.dFdv
        assert float(row["D"]) == p.D

    def test_no_temp_files_left(self, tmp_path):
        path = write(tmp_path / "run.ini", GOOD_RUN)
        out = str(tmp_path / "p.csv")
        assert cli.run(["point", "--config", path, "--out", out]) == 0
        stray = [f for f in os.listdir(tmp_path) if f.endswith(".tmp")]
        assert stray == []

    def test_compare_command(self, tmp_path):
        path = write(tmp_path / "run.ini", GOOD_RUN)
        out = str(tmp_path / "cmp.csv")
        code = cli.run([
            "compare", "--config", path, "--out", out,
            "--grid=-66.5nm,66.5nm,5,-120nm,120nm,7",
        ])
        assert code == 0
        meta = json.loads(open(out + ".meta.json").read())
        assert "summary_normalized_l2_discrepancy" in meta
        assert meta["calibration"]["kappa_c_rad_s"] > 0

    def test_help_lists_config_keys_with_units(self, capsys):
        with pytest.raises(SystemExit):
            cli.run(["--help"])
        out = capsys.readouterr().out
        for key in ("wavelength", "cavity_length", "membrane_zeta",
                    "mirror_zeta", "x_start", "dlc_count", "workers",
                    "schema_version", "power"):
            assert key in out
        assert "nm" in out and "cm" in out  # unit suffixes documented

    def test_missing_config_flag(self, capsys):
        code = cli.run(["scan"])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_parser_built_once(self, monkeypatch, tmp_path):
        """Repeated commands in one process share one argparse parser (each
        build leaves hundreds of objects in reference cycles) and still
        give identical output."""
        calls = []
        real = cli.build_parser

        def counting():
            calls.append(1)
            return real()

        monkeypatch.setattr(cli, "build_parser", counting)
        cli._parser.cache_clear()
        path = write(tmp_path / "run.ini", GOOD_RUN)
        outputs = {"scan": set(), "point": set()}
        for i in range(3):
            for command in outputs:
                out = tmp_path / f"{command}{i}.csv"
                assert cli.run([command, "--config", path, "--out", str(out)]) == 0
                outputs[command].add(out.read_bytes())
        assert len(calls) == 1
        assert all(len(found) == 1 for found in outputs.values())

    def test_console_entry_point(self, tmp_path):
        res = subprocess.run(
            [sys.executable, "-m", "tmmcavity.cli", "--version"],
            capture_output=True, text=True,
        )
        assert res.returncode == 0
        assert "0.1.0" in res.stdout


def _per_cell(v) -> str:
    return v if isinstance(v, str) else "" if v is None else format(float(v), ".17g")


def _per_cell_csv(columns, rows) -> bytes:
    """A table written cell by cell: the rule the columnar writer must
    reproduce byte for byte."""
    lines = [",".join(columns)] + [",".join(_per_cell(v) for v in row) for row in rows]
    return ("\n".join(lines) + "\n").encode()


SCAN_COLUMNS = ["x", "dLc", "intensity", "F0", "dFdv", "D", "kBT"]
COMPARE_COLUMNS = ["x", "dLc", "F0_tmm", "F0_coupled", "discrepancy"]


def _grid_run(tmp_path, singular_x):
    """GOOD_RUN on a 5 x 9 grid whose largest x is `singular_x`."""
    grid = (f"[grid]\nx_start = {-singular_x!r}\nx_stop = {singular_x!r}\nx_count = 5\n"
            f"dlc_start = {-0.25 * LAM!r}\ndlc_stop = {0.25 * LAM!r}\ndlc_count = 9\n")
    text = GOOD_RUN.split("[grid]")[0] + grid + "\n[output]\nformat = csv\n"
    return write(tmp_path / "run.ini", text)


def _grid_rows(result, names):
    """Rows (x, dLc, *columns) of a columnar grid result, row-major, None
    for NaN: the per-point view the grid tables are checked against."""
    g = result.grid
    return [[x, dlc] + [None if np.isnan(v) else float(v)
                        for v in (getattr(result, n)[i, j] for n in names)]
            for i, x in enumerate(g.x_values.tolist())
            for j, dlc in enumerate(g.dlc_values.tolist())]


def _strict_json(text):
    """Parse JSON, failing on the NaN/Infinity tokens `json` would accept."""
    def not_json(token):
        raise AssertionError(f"{token} in a JSON document")

    return json.loads(text, parse_constant=not_json)


class TestTableOutput:
    """Every CLI table, written from columns, against the per-cell rule."""

    X_SING = 0.2 * LAM

    def test_scan_bytes(self, monkeypatch, tmp_path):
        singular_column(monkeypatch, self.X_SING)
        path = _grid_run(tmp_path, self.X_SING)
        out = tmp_path / "scan.csv"
        assert cli.run(["scan", "--config", path, "--out", str(out)]) == 0
        cfg = load_run_config(path)
        result = scan(cfg.mim_config(), cfg.default_grid())
        rows = _grid_rows(result, SCAN_COLUMNS[2:])
        assert sum(r[2] is None for r in rows) == 9  # the singular column
        assert any(r[2] is not None and r[6] is None for r in rows)  # heating
        assert any(r[6] is not None for r in rows)  # cooling
        assert out.read_bytes() == _per_cell_csv(SCAN_COLUMNS, rows)
        overlay = ["x,branch,fold,dLc"] + [
            f"{_per_cell(x)},{label},{n},{_per_cell(d)}" for x, label, n, d in result.overlay
        ]
        assert len(overlay) > 1
        assert (tmp_path / "scan.csv.overlay.csv").read_bytes() == (
            "\n".join(overlay) + "\n").encode()

    def test_compare_bytes(self, monkeypatch, tmp_path):
        singular_column(monkeypatch, self.X_SING)
        path = _grid_run(tmp_path, self.X_SING)
        out = tmp_path / "cmp.csv"
        assert cli.run(["compare", "--config", path, "--out", str(out)]) == 0
        cfg = load_run_config(path)
        rows = _grid_rows(compare_models(cfg.mim_config(), cfg.default_grid()),
                          COMPARE_COLUMNS[2:])
        assert sum(r[2] is None for r in rows) == 9
        assert out.read_bytes() == _per_cell_csv(COMPARE_COLUMNS, rows)

    @pytest.mark.parametrize("chain_file", [False, True])
    def test_point_bytes(self, tmp_path, chain_file):
        run = GOOD_RUN
        if chain_file:
            chain_path = write(tmp_path / "c.ini", GOOD_CHAIN)
            run = run.replace("[mim]", "[chain]\npath = %s\n\n[mim]" % chain_path)
        path = write(tmp_path / "run.ini", run)
        out = tmp_path / "point.csv"
        assert cli.run(["point", "--config", path, "--out", str(out)]) == 0
        cfg = load_run_config(path)
        if chain_file:
            chain = load_chain_file(cfg.chain_path)
            pump = PumpSpec.one_sided(cfg.power_watts, 2 * np.pi / chain.k0, cfg.pump_side)
            x = dlc = None
            q = evaluate_chain(chain, pump)
        else:
            x, dlc = cfg.membrane_x, cfg.cavity_detuning
            q = asdict(point_quantities(cfg.mim_config(), x, dlc))
        row = [x, dlc, q["intensity"], q["F0"], q["dFdv"], q["D"], q["kBT"]]
        assert out.read_bytes() == _per_cell_csv(SCAN_COLUMNS, [row])

    def test_point_equals_scan_cell(self, tmp_path):
        """`point` with [mim] runs the scan engine on one point: its row is
        the scan cell at the same (x, dLc), bit for bit."""
        path = write(tmp_path / "run.ini", GOOD_RUN)
        out = tmp_path / "point.csv"
        assert cli.run(["point", "--config", path, "--out", str(out)]) == 0
        cfg = load_run_config(path)
        x, dlc = cfg.membrane_x, cfg.cavity_detuning
        # linspace keeps both ends exact: cell (0, 1) is (x, dlc)
        result = scan(cfg.mim_config(), ScanGrid(x, x + 1e-9, 2, dlc - 1e-9, dlc, 2))
        row = _grid_rows(result, SCAN_COLUMNS[2:])[1]
        assert row[:2] == [x, dlc]
        assert out.read_bytes() == _per_cell_csv(SCAN_COLUMNS, [row])

    def test_point_singular_exits_1(self, monkeypatch, tmp_path, capsys):
        x, dlc = parse_length("50nm"), parse_length("10nm")
        singular_column(monkeypatch, x)
        path = write(tmp_path / "run.ini", GOOD_RUN)
        out = tmp_path / "point.csv"
        assert cli.run(["point", "--config", path, "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith(
            f"error: singular solve at x={x}, dLc={dlc}: ")
        assert not out.exists()

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_compare_transparent_membrane_summary_undefined(self, tmp_path, capsys, fmt):
        """Zero chain force everywhere: no normalisation, so the summary is
        undefined (null, never a bare NaN token) and no RuntimeWarning
        escapes."""
        path = write(tmp_path / "run.ini",
                     GOOD_RUN.replace("membrane_zeta = -1.0", "membrane_zeta = 0.0"))
        out = tmp_path / f"cmp.{fmt}"
        assert cli.run(["compare", "--config", path, "--out", str(out),
                        "--format", fmt]) == 0
        assert ("summary discrepancy undefined (no grid point has a nonzero chain "
                "force to normalise by)") in capsys.readouterr().out
        if fmt == "csv":
            meta = _strict_json((tmp_path / "cmp.csv.meta.json").read_text())
            with open(out) as fh:
                rows = list(csv.DictReader(fh))
            assert len(rows) == 12
            assert all(float(r["F0_tmm"]) == 0.0 and r["discrepancy"] == "" for r in rows)
        else:
            meta = _strict_json(out.read_text())
            assert all(row[2] == 0.0 and row[4] is None for row in meta["rows"])
        assert meta["summary_normalized_l2_discrepancy"] is None

    def test_compare_all_singular_summary_undefined(self, monkeypatch, tmp_path, capsys):
        singular_column(monkeypatch, self.X_SING)
        path = write(tmp_path / "run.ini", GOOD_RUN)
        out = tmp_path / "cmp.csv"
        x = repr(self.X_SING)
        assert cli.run(["compare", "--config", path, "--out", str(out),
                        f"--grid={x},{x},1,-0.1um,0.1um,3"]) == 0
        assert "summary discrepancy undefined (no grid point has a nonzero" in (
            capsys.readouterr().out)
        meta = _strict_json((tmp_path / "cmp.csv.meta.json").read_text())
        assert meta["summary_normalized_l2_discrepancy"] is None

    @pytest.mark.parametrize("zeta", ["-1.0", "0.0"])
    def test_couplings_bytes(self, tmp_path, zeta):
        path = write(tmp_path / "run.ini",
                     GOOD_RUN.replace("membrane_zeta = -1.0", f"membrane_zeta = {zeta}"))
        out = tmp_path / "couplings.csv"
        assert cli.run(["couplings", "--config", path, "--out", str(out)]) == 0
        cfg = load_run_config(path)
        m = cfg.mim_config()
        xs = cfg.default_grid().x_values
        dplus, dminus = resonance_shifts(m.membrane_zeta, xs, m.cavity_length, m.k0)
        rows = []
        for i, xv in enumerate(xs):
            rep = couplings(m.membrane_zeta, float(xv), m.cavity_length, m.k0)
            rows.append([float(xv), float(dplus[i]), float(dminus[i]),
                         rep.omega_prime, rep.omega_double_prime])
        columns = ["x", "delta_omega_plus", "delta_omega_minus",
                   "omega_prime", "omega_double_prime"]
        assert out.read_bytes() == _per_cell_csv(columns, rows)

    def test_elements_bytes(self, tmp_path):
        chain_path = write(tmp_path / "c.ini", GOOD_CHAIN)
        run = GOOD_RUN.replace("[mim]", "[chain]\npath = %s\n\n[mim]" % chain_path)
        path = write(tmp_path / "run.ini", run)
        out = tmp_path / "elements.csv"
        assert cli.run(["elements", "--config", path, "--out", str(out)]) == 0
        chain = load_chain_file(chain_path)
        rows = []
        for i, el in enumerate(chain.elements):
            m = element_matrix(el, chain.k0)
            if isinstance(el, Scatterer):
                kind, zre, zim, length = "scatterer", el.pol.zeta.real, el.pol.zeta.imag, None
            else:
                kind, zre, zim, length = "segment", None, None, el.length
            rows.append([i, kind, zre, zim, length, 1.0 if i == chain.mobile_index else 0.0,
                         *(part for v in m.ravel() for part in (v.real, v.imag))])
        columns = ["index", "kind", "zeta_re", "zeta_im", "length", "mobile",
                   "m11_re", "m11_im", "m12_re", "m12_im",
                   "m21_re", "m21_im", "m22_re", "m22_im"]
        assert out.read_bytes() == _per_cell_csv(columns, rows)

    @pytest.mark.parametrize("command", ["scan", "compare"])
    def test_grid_json(self, monkeypatch, tmp_path, command):
        singular_column(monkeypatch, self.X_SING)
        path = _grid_run(tmp_path, self.X_SING)
        out = tmp_path / f"{command}.json"
        assert cli.run([command, "--config", path, "--out", str(out),
                        "--format", "json"]) == 0
        text = out.read_text()
        doc = _strict_json(text)
        assert json.dumps(doc, indent=2, sort_keys=True) + "\n" == text
        cfg = load_run_config(path)
        if command == "scan":
            result = scan(cfg.mim_config(), cfg.default_grid())
            columns = SCAN_COLUMNS
            assert doc["missing_points"] == 9
        else:
            result = compare_models(cfg.mim_config(), cfg.default_grid())
            columns = COMPARE_COLUMNS
        assert doc["columns"] == columns
        assert doc["rows"] == _grid_rows(result, columns[2:])
        assert sum(row[2] is None for row in doc["rows"]) == 9  # NaN is null


def test_cli_import_loads_no_scipy():
    """`import tmmcavity.cli` stays scipy-free: scipy is imported only by
    the calibration, inside the commands that need it."""
    import tmmcavity

    src = os.path.dirname(os.path.dirname(os.path.abspath(tmmcavity.__file__)))
    code = ("import sys, tmmcavity, tmmcavity.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src})
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "[]"
