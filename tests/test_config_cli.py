"""Configuration parsing, validation, CLI commands, output formats."""

import configparser
import csv
import io
import json
import os
import re
import stat
import subprocess
import sys
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from tmmcavity import cli, config, opalg
from tmmcavity.config import (
    load_chain_file,
    load_run_config,
    parse_length,
    parse_power,
    validate_report,
)
from tmmcavity.elements import PumpSpec, Scatterer
from tmmcavity.errors import CalibrationError, ChainError, ConfigError
from tmmcavity.mim import (
    MimConfig,
    ScanGrid,
    bare_resonance,
    build_mim,
    compare_models,
    evaluate_chain,
    point_quantities,
    pump_for,
    scan,
)
from tmmcavity.statics import couplings, resonance_shifts

from helpers import singular_column, static_matrix, wall_clock_limit

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
        assert parse_length("1064nm") == pytest.approx(1.064e-6, rel=1e-6, abs=0)
        assert parse_length("6.7cm") == pytest.approx(6.7e-2, rel=1e-6, abs=0)
        assert parse_length("5mm") == pytest.approx(5e-3, rel=1e-6, abs=0)
        assert parse_length("0.5um") == pytest.approx(5e-7, rel=1e-6, abs=0)
        assert parse_length("2.5e-3") == pytest.approx(2.5e-3, rel=1e-6, abs=0)  # bare SI
        assert parse_length("-532 nm") == pytest.approx(-5.32e-7, rel=1e-6, abs=0)

    def test_power_suffixes(self):
        assert parse_power("1W") == 1.0
        assert parse_power("250mW") == pytest.approx(0.25, rel=1e-6, abs=0)
        assert parse_power("2") == 2.0

    def test_garbage_rejected(self):
        with pytest.raises(ConfigError):
            parse_length("fast")
        with pytest.raises(ConfigError):
            parse_power("1 Joule")


class TestRunConfig:
    def test_good_config_loads(self, tmp_path):
        cfg = load_run_config(write(tmp_path / "run.ini", GOOD_RUN))
        assert cfg.wavelength == pytest.approx(1.064e-6, rel=1e-6, abs=0)
        assert cfg.cavity_length == pytest.approx(5e-3, rel=1e-6, abs=0)
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

    def test_colon_delimiters_case_folded_keys_and_indented_comments(self, tmp_path):
        text = GOOD_RUN.replace("power = 1W", "  # the pump\n\t; in watts\nPower: 1W")
        text = text.replace("x_count = 4", "X_Count:4").replace("side = left", "side =  left  ")
        cfg = load_run_config(write(tmp_path / "run.ini", text))
        good = load_run_config(write(tmp_path / "good.ini", GOOD_RUN))
        assert cfg.resolved_lines() == good.resolved_lines()
        assert cfg.grid == good.grid

    def test_validate_and_scan_agree_where_a_sub_cavity_collapses(self, tmp_path):
        """A gap of exactly zero at the grid's ends passes `validate` and
        `scan` alike, and one ulp more of x fails both, the problem naming
        only the end that collapses its gap."""
        half = 1.6e-6 / 2 + -0.2e-6 / 2  # `_gaps`' half length at dlc_start
        grid = "[grid]\nx_start = {}\nx_stop = {}\nx_count = 3\n" \
               "dlc_start = -0.2e-6\ndlc_stop = 0\ndlc_count = 2\n"
        base = "[mim]\ncavity_length = 1.6e-6\n\n" + grid
        cfg = load_run_config(write(tmp_path / "ok.ini", base.format(-half, half)))
        assert validate_report(cfg) == []
        result = scan(cfg.mim_config(), cfg.grid)
        assert result.intensity.shape == (3, 2)
        for x_start, x_stop, key in ((-half, np.nextafter(half, 1), "grid.x_stop"),
                                     (np.nextafter(-half, -1), half, "grid.x_start")):
            cfg = load_run_config(write(tmp_path / "bad.ini", base.format(x_start, x_stop)))
            assert validate_report(cfg) == [
                f"{key}, grid.dlc_start, mim.cavity_length: "
                "detuning or displacement collapses a sub-cavity"]
            with pytest.raises(ChainError, match="collapses a sub-cavity"):
                scan(cfg.mim_config(), cfg.grid)


class TestChainFile:
    def test_good_chain_loads(self, tmp_path):
        chain = load_chain_file(write(tmp_path / "c.ini", GOOD_CHAIN))
        assert len(chain.elements) == 5
        assert chain.mobile_index == 2
        assert chain.k0 == pytest.approx(2 * np.pi / LAM, rel=1e-6, abs=0)

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

    @pytest.mark.parametrize("wavelength", ["0", "-1nm", "nan", "inf", "1e300", "1e-300"])
    def test_wavelength_must_be_positive_and_finite(self, tmp_path, wavelength):
        bad = GOOD_CHAIN.replace("wavelength = 1064nm", f"wavelength = {wavelength}")
        with pytest.raises(ConfigError, match="chain.wavelength must be positive"):
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

    @pytest.mark.parametrize("mirror_zeta, warned", [("-0.3", True), ("0", True),
                                                     ("-30", False)])
    def test_validate_warns_when_compare_cannot_calibrate(self, tmp_path, capsys,
                                                          mirror_zeta, warned):
        """Mirrors too weak for the bare-cavity calibration pass `validate`
        (exit 0: `point` runs them) with one warning line naming
        mim.mirror_zeta and carrying `bare_resonance`'s message, and
        `compare` then fails on them."""
        path = write(tmp_path / "run.ini",
                     GOOD_RUN.replace("mirror_zeta = -3.0", f"mirror_zeta = {mirror_zeta}"))
        assert cli.run(["validate", "--config", path]) == 0
        out = capsys.readouterr().out
        warnings = [line for line in out.splitlines() if line.startswith("warning:")]
        assert "configuration OK" in out
        if warned:
            with pytest.raises(CalibrationError) as exc:
                bare_resonance(MimConfig(mirror_zeta=float(mirror_zeta)))
            assert warnings == [f"warning: mim.mirror_zeta: {exc.value}"]
        else:
            assert warnings == []
        code = cli.run(["compare", "--config", path, "--out", str(tmp_path / "c.csv")])
        assert code == (2 if warned else 0)

    def test_chain_file_pump_is_checked_at_its_wavelength(self, tmp_path, capsys):
        """`point` and `elements` pump a chain file at the file's wavelength:
        1e289 W is a finite amplitude at the [pump] 1064 nm but not at a
        chain's 1000 m, so `validate` and both commands exit 2 naming
        pump.power, and a [pump] power that fails on its own is named once."""
        chain_path = write(tmp_path / "c.ini", GOOD_CHAIN.replace(
            "wavelength = 1064nm", "wavelength = 1000").replace("length = 2.5mm", "length = 2500"))
        run = GOOD_RUN.replace("[mim]", "[chain]\npath = %s\n\n[mim]" % chain_path)
        path = write(tmp_path / "run.ini", run.replace("power = 1W", "power = 1e289W"))
        problem = "pump.power: pump amplitude B0 must be finite, got (inf+0j)"
        assert validate_report(load_run_config(path)) == [problem]
        assert validate_report(load_run_config(write(tmp_path / "mim.ini", GOOD_RUN.replace(
            "power = 1W", "power = 1e289W")))) == []
        for command in ("validate", "point", "elements"):
            out = tmp_path / f"{command}.csv"
            assert cli.run([command, "--config", path, "--out", str(out)]) == 2, command
            captured = capsys.readouterr()
            assert problem in captured.out + captured.err, command
            assert not out.exists()
        negative = write(tmp_path / "neg.ini", run.replace("power = 1W", "power = -1W"))
        assert [p.split(":")[0] for p in validate_report(load_run_config(negative))] == [
            "pump.power"]

    def test_validate_reports_all_problems(self, tmp_path, capsys):
        bad = GOOD_RUN.replace("membrane_x = 50nm", "membrane_x = 2128nm")
        bad = bad.replace("membrane_zeta = -1.0", "membrane_zeta = 0.5")
        path = write(tmp_path / "run.ini", bad)
        code = cli.run(["validate", "--config", path])
        out = capsys.readouterr().out
        assert code == 2
        assert "membrane_x" in out and "membrane_zeta" in out

    def test_validate_names_each_constructor_problem_by_key(self, tmp_path, capsys):
        bad = GOOD_RUN.replace("mirror_zeta = -3.0", "mirror_zeta = inf")
        bad = bad.replace("membrane_zeta = -1.0", "membrane_zeta = nan")
        bad = bad.replace("power = 1W", "power = nan")
        path = write(tmp_path / "run.ini", bad)
        assert cli.run(["validate", "--config", path]) == 2
        problems = capsys.readouterr().out.split("problems:\n")[1].splitlines()
        assert [p.split(":")[0] for p in problems] == [
            "  - mim.membrane_zeta", "  - mim.mirror_zeta", "  - pump.power"]
        assert cli.run(["scan", "--config", path, "--out", str(tmp_path / "s.csv")]) == 2
        assert "mim.membrane_zeta" in capsys.readouterr().err

    def test_grid_order_problem_names_the_keys_that_mend_it(self, tmp_path):
        bad = GOOD_RUN.replace("x_start = -0.2um", "x_start = 0.3um")
        with pytest.raises(ConfigError, match=re.escape(
                "grid.x_start, grid.x_stop, grid.x_count: x_stop must exceed x_start")):
            load_run_config(write(tmp_path / "run.ini", bad))

    def test_validate_applies_overrides(self, tmp_path, capsys):
        path = write(tmp_path / "run.ini", GOOD_RUN)
        assert cli.run(["validate", "--config", path, "--workers", "3", "--out", "zz.csv",
                        "--format", "json", "--grid=-0.1um,0.1um,3,-0.05um,0.05um,5"]) == 0
        out = capsys.readouterr().out
        for line in ("output.path = zz.csv", "output.format = json", "output.workers = 3",
                     "grid = x [-1e-07, 1e-07] m x 3; dlc [-5e-08, 5e-08] m x 5"):
            assert f"  {line}\n" in out
        assert cli.run(["validate", "--config", path, "--workers", "0"]) == 2
        assert "  - output.workers: must be >= 1, got 0\n" in capsys.readouterr().out

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
        assert float(rows[2]["m11_re"]) == pytest.approx(1.0, rel=1e-6, abs=0)
        assert float(rows[2]["m11_im"]) == pytest.approx(-1.0, rel=1e-6, abs=0)

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
        assert w1_max / (2 * np.pi) * 1e-9 == pytest.approx(8.42e6, rel=5e-3, abs=0)

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

    @pytest.mark.parametrize("command", ["scan", "compare"])
    def test_grid_axes_built_once_per_command(self, tmp_path, monkeypatch, command):
        # the scan reads each axis for its points, its overlay bounds and the
        # table's key columns; the grid derives each once and keeps it
        path = write(tmp_path / "run.ini", GOOD_RUN)
        axes = []
        real = np.linspace
        monkeypatch.setattr(np, "linspace", lambda *a, **k: axes.append(a) or real(*a, **k))
        assert cli.run([command, "--config", path, "--out", str(tmp_path / "out.csv")]) == 0
        assert axes == [(-2e-7, 2e-7, 4), (-1e-7, 1e-7, 3)]
        grid = load_run_config(path).grid
        assert grid.x_values is grid.x_values
        for values, (start, stop, count) in ((grid.x_values, axes[0]), (grid.dlc_values, axes[1])):
            assert values.tobytes() == real(start, stop, count).tobytes()
            with pytest.raises(ValueError):  # shared by every reader, so read-only
                values[0] = 0.0

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

    @pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o027, 0o640)])
    def test_output_files_take_the_umask(self, tmp_path, umask, mode):
        """The table and both sidecars get the mode `open` would give them."""
        path = write(tmp_path / "run.ini", GOOD_RUN)
        out = str(tmp_path / "scan.csv")
        old = os.umask(umask)
        try:
            assert cli.run(["scan", "--config", path, "--out", out]) == 0
        finally:
            os.umask(old)
        modes = {p: stat.S_IMODE(os.stat(p).st_mode)
                 for p in (out, out + ".overlay.csv", out + ".meta.json")}
        assert modes == dict.fromkeys(modes, mode)

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
        # every key of both schemas, on one line with its section and unit
        for e in config._RUN_KEYS + config._CHAIN_KEYS:
            row = rf"^  \[{re.escape(e.section)}\] +{e.key} +{e.unit}"
            assert re.search(row, out, re.M), e

    def test_schema_reaches_validate_and_meta(self, tmp_path, capsys):
        """Every run-config key is echoed by `validate`, and a scan's sidecar
        keeps its config and grid names."""
        path = write(tmp_path / "run.ini", GOOD_RUN)
        assert cli.run(["validate", "--config", path]) == 0
        echo = capsys.readouterr().out
        g = load_run_config(path).grid
        for e in config._RUN_KEYS:
            if e.section == "grid":  # one line for the whole grid
                assert f"{getattr(g, e.field)!r}" in echo.split("  grid = ")[1]
            else:
                name = e.key if e.section == "run" else f"{e.section}.{e.key}"
                assert f"\n  {name} = " in echo, e
        out = tmp_path / "scan.csv"
        assert cli.run(["scan", "--config", path, "--out", str(out)]) == 0
        meta = json.loads((tmp_path / "scan.csv.meta.json").read_text())
        assert sorted(meta["config"]) == sorted([
            "wavelength_m", "power_W", "pump_side", "cavity_length_m", "membrane_zeta",
            "mirror_zeta", "membrane_x_m", "cavity_detuning_m", "chain_path", "workers"])
        assert sorted(meta["grid"]) == sorted([
            "x_start_m", "x_stop_m", "x_count", "dlc_start_m", "dlc_stop_m", "dlc_count"])

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


def _overlay_csv(result) -> bytes:
    """The scan's overlay table written cell by cell."""
    rows = [[x, result.BRANCHES[b], n, d]
            for x, b, n, d in zip(*(column.tolist() for column in result.overlay))]
    return _per_cell_csv(["x", "branch", "fold", "dLc"], rows)


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
        overlay = _overlay_csv(result)
        assert overlay.count(b"\n") > 1
        assert (tmp_path / "scan.csv.overlay.csv").read_bytes() == overlay

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

    def test_point_singular_exits_1(self, tmp_path, capsys):
        """A singular [mim] point exits 1: the message names the point and,
        as for a chain file, the cause (end mirrors of zeta -1e200
        overflow the composition)."""
        x, dlc = parse_length("50nm"), parse_length("10nm")
        path = write(tmp_path / "run.ini",
                     GOOD_RUN.replace("mirror_zeta = -3.0", "mirror_zeta = -1e200"))
        out = tmp_path / "point.csv"
        assert cli.run(["point", "--config", path, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: singular solve at x={x}, dLc={dlc}: "
                              "the composed chain matrix overflowed")
        assert "|zeta|" in err and "vanished" not in err
        assert not out.exists()

    def test_point_overflowing_fields_exit_1(self, tmp_path, capsys):
        """At 1e288 W the kernel's solve stays finite but the finish's force
        and noise terms overflow: `point` exits 1 exactly where the `scan`
        cell is missing, and the message asks for a smaller pump power
        rather than blaming the composition."""
        path = write(tmp_path / "run.ini", GOOD_RUN.replace("power = 1W", "power = 1e288W"))
        cfg = load_run_config(path)
        mim_cfg, x, dlc = cfg.mim_config(), cfg.membrane_x, cfg.cavity_detuning
        opalg._chain_solution(build_mim(mim_cfg, x, dlc), pump_for(mim_cfg), True)  # no raise
        assert point_quantities(mim_cfg, x, dlc).intensity is None
        out = tmp_path / "point.csv"
        assert cli.run(["point", "--config", path, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: singular solve at x={x}, dLc={dlc}: the fields at the "
                              "scatterer overflow float64")
        assert err.rstrip().endswith("reduce the pump power")
        assert not out.exists()

    def test_point_singular_chain_file_exits_1(self, tmp_path, capsys):
        """A chain file has no mim coordinates: the message names the file."""
        chain_path = write(tmp_path / "c.ini",
                           GOOD_CHAIN.replace("zeta = -3.0 0.0", "zeta = -1e200 0.0"))
        path = write(tmp_path / "run.ini",
                     GOOD_RUN.replace("[mim]", "[chain]\npath = %s\n\n[mim]" % chain_path))
        out = tmp_path / "point.csv"
        assert cli.run(["point", "--config", path, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        # mirrors of zeta -1e200 overflow the composition: the message says so
        assert err.startswith(f"error: singular solve of chain file {chain_path}: "
                              "the composed chain matrix overflowed")
        assert "|zeta|" in err and "vanished" not in err
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
            m = static_matrix(el, chain.k0)
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

    # grid shapes of the sweep below: one point, one row, one column, and
    # tables across the writer's 64 KiB chunks (292 rows of a scan table,
    # 409 of a compare table); the other configs draw theirs
    SWEEP_SHAPES = [(1, 1), (1, 7), (9, 1), (17, 18), (21, 20), (7, 59)]

    def test_random_configs_bytes(self, tmp_path):
        """24 seeded random MIM configs, both pump sides: each `scan` table
        and overlay and each `compare` table against the per-cell rule."""
        rng = np.random.default_rng(26)
        path = tmp_path / "run.ini"
        for case in range(24):
            nx, nd = (self.SWEEP_SHAPES[case] if case < len(self.SWEEP_SHAPES)
                      else rng.integers(1, 13, 2).tolist())
            lam = float(rng.uniform(0.5e-6, 1.6e-6))
            x0, x1 = sorted(rng.uniform(-lam / 2, lam / 2, 2).tolist())
            d0 = float(rng.uniform(-lam, lam / 2))
            membrane = 0.0 if case % 8 == 7 else float(rng.uniform(-8.0, 0.0))
            write(path, f"[pump]\nwavelength = {lam!r}\nside = {('left', 'right')[case % 2]}\n"
                        f"\n[mim]\ncavity_length = {float(rng.uniform(1e-4, 0.1))!r}\n"
                        f"membrane_zeta = {membrane!r}\n"
                        f"mirror_zeta = {float(rng.uniform(-40.0, -0.6))!r}\n"
                        f"\n[grid]\nx_start = {x0!r}\nx_stop = {x1!r}\nx_count = {nx}\n"
                        f"dlc_start = {d0!r}\ndlc_stop = {d0 + float(rng.uniform(1e-9, lam))!r}\n"
                        f"dlc_count = {nd}\n")
            cfg = load_run_config(str(path))
            mim_cfg, grid = cfg.mim_config(), cfg.default_grid()
            result = scan(mim_cfg, grid)
            for command, columns, want in (
                    ("scan", SCAN_COLUMNS, result),
                    ("compare", COMPARE_COLUMNS, compare_models(mim_cfg, grid))):
                out = tmp_path / f"{command}.csv"
                assert cli.run([command, "--config", str(path), "--out", str(out)]) == 0
                assert out.read_bytes() == _per_cell_csv(
                    columns, _grid_rows(want, columns[2:])), (case, command)
            assert (tmp_path / "scan.csv.overlay.csv").read_bytes() == _overlay_csv(result), case


def test_cli_import_loads_no_scipy(tmp_path):
    """`import tmmcavity.cli` and the `scan` and `compare` commands (the
    bare-cavity calibration included) run with every scipy import blocked
    and load no scipy module: numpy is the only run-time dependency."""
    import tmmcavity

    src = os.path.dirname(os.path.dirname(os.path.abspath(tmmcavity.__file__)))
    path = write(tmp_path / "run.ini", GOOD_RUN)
    code = f"""
import sys

class BlockScipy:
    def find_spec(self, name, path=None, target=None):
        if name.startswith("scipy"):
            raise ImportError("blocked: " + name)

sys.meta_path.insert(0, BlockScipy())
import tmmcavity, tmmcavity.cli
codes = [tmmcavity.cli.run([command, "--config", {path!r},
                            "--grid=-0.2um,0.2um,5,-0.1um,0.1um,5",
                            "--out", {str(tmp_path)!r} + "/" + command + ".csv"])
         for command in ("scan", "compare")]
print(codes, sorted(m for m in sys.modules if m.startswith("scipy")))
"""
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src})
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip().splitlines()[-1] == "[0, 0] []"
    for command in ("scan", "compare"):
        assert len((tmp_path / f"{command}.csv").read_text().splitlines()) == 26


def test_every_exported_name_resolves():
    """Each name in the package's and every module's `__all__` exists."""
    import importlib
    import pkgutil

    import tmmcavity

    modules = [tmmcavity] + [
        importlib.import_module(f"tmmcavity.{info.name}")
        for info in pkgutil.iter_modules(tmmcavity.__path__)
    ]
    assert len(modules) > 10
    missing = [f"{mod.__name__}.{name}" for mod in modules
               for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert missing == []


_INI_NAMES = st.text("abcXYZ019_.-", min_size=1, max_size=6)
_INI_KEYS = st.text("abcdeXYZ_09 ", min_size=1, max_size=6).map(str.strip).filter(bool)
_INI_VALUES = st.text(st.one_of(st.sampled_from("=:#;[] \t"),
                                st.characters(blacklist_categories=("Cc", "Cs"))), max_size=10)
_INI_EXTRA = st.sampled_from(["", "", "\n", "# c\n", "  ; c = d\n", "\t#\n", "   \n"])


@st.composite
def _ini_texts(draw):
    """(text, sections as {name: {key: value}}) in the accepted grammar."""
    sections = draw(st.dictionaries(
        _INI_NAMES.filter(lambda name: name != "DEFAULT"),
        st.lists(st.tuples(_INI_KEYS, _INI_VALUES), max_size=4,
                 unique_by=lambda kv: kv[0].lower()),
        max_size=4))
    text = draw(_INI_EXTRA)
    for name, items in sections.items():
        text += f"[{name}]\n" + draw(_INI_EXTRA)
        for key, value in items:
            delimiter = draw(st.sampled_from(["=", " = ", ":", " : ", "  =\t"]))
            text += f"{key}{delimiter}{value}\n" + draw(_INI_EXTRA)
    return text, {name: {key.lower(): value.strip() for key, value in items}
                  for name, items in sections.items()}


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_ini_texts(), st.sampled_from(["none", "section", "key", "headless"]))
def test_read_ini_matches_configparser(tmp_path, case, fault):
    """`_read_ini` reads the accepted grammar as configparser does, and
    rejects duplicate sections and keys and a key before any header as
    configparser does."""
    text, expected = case
    if fault == "section" and expected:
        text += f"[{next(iter(expected))}]\n"
    elif fault == "key" and any(expected.values()):
        name = next(n for n, keys in expected.items() if keys)
        header = f"\n[{name}]\n"  # at a line start, unlike a value ending in it
        text = ("\n" + text).replace(
            header, f"{header}{next(iter(expected[name])).upper()} = again\n", 1)
    elif fault == "headless":
        text = "key = value\n" + text
    else:
        fault = "none"
    path = write(tmp_path / "t.ini", text)
    cp = configparser.ConfigParser(interpolation=None)
    if fault == "none":
        cp.read_string(text)
        assert config._read_ini(path) == {s: dict(cp[s]) for s in cp.sections()} == expected
    else:
        with pytest.raises(configparser.Error):
            cp.read_string(text)
        with pytest.raises(ConfigError, match="malformed config file"):
            config._read_ini(path)


def test_readme_ini_examples_load(tmp_path):
    """The README's run config validates clean and its chain file loads."""
    readme = open(os.path.join(os.path.dirname(__file__), "..", "README.md"),
                  encoding="utf-8").read()
    run, chain = re.findall(r"```ini\n(.*?)```", readme, flags=re.S)
    assert validate_report(load_run_config(write(tmp_path / "run.ini", run))) == []
    assert load_chain_file(write(tmp_path / "chain.ini", chain)).mobile_index == 2


def _numeric(key) -> bool:
    try:
        return isinstance(key.parse("1"), (int, float))
    except ConfigError:
        return False


def _malformed_inputs():
    """(id, run config, extra arguments, key the rejection must name)."""
    cases = []
    for e in config._RUN_KEYS:
        for value in ("nan", "inf") if _numeric(e) else ():
            text, n = re.subn(rf"^{e.key} = .*$", f"{e.key} = {value}", GOOD_RUN, flags=re.M)
            assert n == 1, e
            cases.append((f"{e.section}.{e.key}={value}", text, [], f"{e.section}.{e.key}"))
    # a huge membrane zeta (F0's squares overflow from ~1e95, the couplings
    # from ~1e103, zeta^2 itself from ~1.4e154) and cavity lengths whose
    # coupled-cavities rates underflow or overflow
    for key, old, values in (("membrane_zeta", "-1.0", ("-1e95", "-1e103", "-1.4e154")),
                             ("cavity_length", "5mm", ("1e100", "1e300", "1e-300"))):
        for value in values:
            text = GOOD_RUN.replace(f"{key} = {old}", f"{key} = {value}")
            cases.append((f"mim.{key}={value}", text, [], f"mim.{key}"))
    chain_run = GOOD_RUN.replace("[mim]", "[chain]\npath = {chain}\n\n[mim]")
    # a grid whose ends collapse both sub-cavities of a 1.6 um cavity
    collapsed = GOOD_RUN.replace("cavity_length = 5mm", "cavity_length = 1.6um").replace(
        "x_start = -0.2um", "x_start = -1um").replace("x_stop = 0.2um", "x_stop = 1um")
    cases += [
        ("chain-wavelength-0", chain_run, [], "chain.wavelength"),
        ("grid-count-abc", GOOD_RUN, ["--grid", "0,1nm,abc,0,1nm,3"], "grid.x_count"),
        ("grid-count-2.5", GOOD_RUN, ["--grid", "0,1nm,2.5,0,1nm,3"], "grid.x_count"),
        ("unknown-key", GOOD_RUN.replace("power = 1W", "power = 1W\npowr = 2W"), [], "powr"),
        ("workers-0", GOOD_RUN, ["--workers", "0"], "output.workers"),
        ("grid-collapses-sub-cavity", collapsed, [], "grid.x_stop, grid.dlc_start"),
        # a finite power whose pump amplitude overflows float64
        ("pump-power-overflows", GOOD_RUN.replace("power = 1W", "power = 1e300W"), [],
         "pump.power"),
    ]
    # INI syntax errors name the file (run<i>.ini in the sweep) and the line
    for case, (text, where) in _ini_syntax_errors(GOOD_RUN, "power = 1W").items():
        cases.append((case, text, [], _ini_key(f"run{len(cases)}.ini", where)))
    return cases


def _ini_syntax_errors(good: str, entry: str) -> dict:
    """{case id: (text, where)} of files that break the INI grammar at the
    first line `entry` of `good`: `where` is the line number of the error,
    or the message of a file rejected as a whole (None: the path does not
    exist, bytes: not UTF-8)."""
    line = good.splitlines().index(entry) + 1
    key = entry.split(" = ")[0]

    def at_entry(text):
        return good.replace(entry, text, 1)

    return {
        "ini-key-before-header": (f"{entry}\n{good}", 1),
        "ini-duplicate-section": (good + f"\n{good.splitlines()[0]}\n", good.count("\n") + 2),
        "ini-duplicate-key": (at_entry(f"{entry}\n{key.upper()} = 0"), line + 1),
        "ini-no-delimiter": (at_entry(entry.replace(" = ", " ")), line),
        "ini-empty-key": (at_entry(entry.replace(key, "")), line),
        "ini-continuation": (at_entry(f"{entry}\n  0"), line + 1),
        "ini-indented-key": (at_entry(f"{entry}\n  {entry}"), line + 1),
        "ini-header-comment": (good.replace("]\n", "]  # header\n", 1), 1),
        "ini-default-section": ("[DEFAULT]\n" + good, "unknown section [DEFAULT]"),
        "ini-missing": (None, "cannot read config file"),
        "ini-not-utf8": (at_entry(entry + "\xff").encode("latin-1"), "cannot read config file"),
    }


def _ini_key(file: str, where) -> str:
    """The text a rejection of an `_ini_syntax_errors` case must carry."""
    return f"{file}: line {where}" if isinstance(where, int) else where


MALFORMED = _malformed_inputs()
_RUN_COMMANDS = ("validate", "scan", "compare", "couplings")


def _malformed_chains():
    """(id, chain file text, key the failure must name) for each [chain]
    and [element.N] key set to nan, inf, a huge finite value and garbage."""
    targets = (("chain", "schema_version"), ("chain", "wavelength"), ("element.2", "kind"),
               ("element.2", "length"), ("element.3", "zeta"), ("element.3", "mobile"),
               ("element.1", "zeta"))
    cases = []
    for section, key in targets:
        for label, value in (("nan", "nan"), ("inf", "inf"), ("huge", "1e300"),
                             ("garbage", "abc")):
            if key == "zeta":
                value = f"-{value} 0.0"
            cp = configparser.ConfigParser(interpolation=None)
            cp.read_string(GOOD_CHAIN)
            cp[section][key] = value
            text = io.StringIO()
            cp.write(text)
            cases.append((f"{section}.{key}={label}", text.getvalue(), f"{section}.{key}"))
    for case, (text, where) in _ini_syntax_errors(GOOD_CHAIN, "kind = segment").items():
        cases.append((case, text, _ini_key(f"chain{len(cases)}.ini", where)))
    return cases


MALFORMED_CHAINS = _malformed_chains()
_CHAIN_COMMANDS = ("point-left", "point-right", "elements", "validate")


# Runs the `tmmcavity` console entry (`cli.main`) once per argument list,
# all in one interpreter so the package is imported once; an exception that
# escapes prints its traceback to stderr like the real entry.
_SWEEP_DRIVER = r"""
import json, sys, traceback
from tmmcavity import cli
for argv in json.loads(sys.argv[1]):
    sys.argv = ["tmmcavity"] + argv
    try:
        cli.main()
        code = 0
    except SystemExit as exc:
        code = exc.code
    except Exception:
        traceback.print_exc()
        code = None
    for stream in (sys.stdout, sys.stderr):
        print(f"\0exit {code}", file=stream, flush=True)
"""


def _run_sweep(root, runs: list) -> dict:
    """{name: (exit code, stdout, stderr)} of (name, argv) runs of the
    driver in one interpreter, where a RuntimeWarning is an error."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(config.__file__)))
    res = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-c", _SWEEP_DRIVER,
                          json.dumps([a for _, a in runs])],
                         capture_output=True, text=True, cwd=root,
                         env={**os.environ, "PYTHONPATH": src})
    outs = [re.split(r"\0exit (\S+)\n", stream)
            for stream in (res.stdout, res.stderr)]
    assert len(outs[1]) == 2 * len(runs) + 1, res.stderr[-2000:]
    return {name: (outs[1][2 * i + 1], outs[0][2 * i], outs[1][2 * i])
            for i, (name, _) in enumerate(runs)}


def _assert_rejected(code, out, err, key):
    """A typed rejection: exit 2, an `error:` or problem line that names
    the key, and no traceback or warning."""
    assert "Traceback" not in err and "Warning" not in err, err
    assert code == "2", (out, err)
    lines = [ln for ln in (out + err).splitlines() if ln.startswith(("error:", "  - "))]
    assert lines and any(key in ln for ln in lines), (out, err)


@pytest.mark.parametrize("case,key", [(c[0], c[3]) for c in MALFORMED],
                         ids=[c[0] for c in MALFORMED])
def test_malformed_input_is_rejected_without_traceback(sweep, case, key):
    """`validate`, `scan`, `compare` and `couplings` all exit 2 on each
    malformed input, with an `error:` or problem line that names the key,
    and never a traceback or a RuntimeWarning."""
    for command in _RUN_COMMANDS:
        _assert_rejected(*sweep["run", case, command], key)


def _write_case(path, text, chain=""):
    """The path of a sweep case's file: text is written with its chain
    file's path filled in, bytes as they are, and None is never written."""
    if isinstance(text, bytes):
        path.write_bytes(text)
    elif text is not None:
        write(path, text.replace("{chain}", chain))
    return str(path)


@pytest.fixture(scope="module")
def sweep(tmp_path_factory):
    """{(kind, case id, command): (exit code, stdout, stderr)} of the
    malformed run configs ("run") and chain files ("chain"), `point` on a
    chain file pumped from each side."""
    root = tmp_path_factory.mktemp("sweep")
    chain = write(root / "c.ini", GOOD_CHAIN.replace("wavelength = 1064nm", "wavelength = 0"))
    runs = []
    for i, (case, text, extra, _key) in enumerate(MALFORMED):
        path = _write_case(root / f"run{i}.ini", text, chain)
        for command in _RUN_COMMANDS:
            runs.append((("run", case, command), [command, "--config", path,
                                                  "--out", str(root / f"out{i}.csv")] + extra))
    for i, (case, text, _key) in enumerate(MALFORMED_CHAINS):
        chain = _write_case(root / f"chain{i}.ini", text)
        for command in _CHAIN_COMMANDS:
            name, _, side = command.partition("-")
            run = write(root / f"chain{i}-{command}.ini",
                        f"[pump]\nside = {side or 'left'}\n\n[chain]\npath = {chain}\n")
            runs.append((("chain", case, command), [name, "--config", run,
                                                    "--out", str(root / f"out{i}.csv")]))
    return _run_sweep(root, runs)


@pytest.mark.parametrize("case,key", [(c[0], c[2]) for c in MALFORMED_CHAINS],
                         ids=[c[0] for c in MALFORMED_CHAINS])
def test_malformed_chain_file_is_rejected_without_traceback(sweep, case, key):
    """`point` from either side, `elements` and `validate` exit 2 on each
    malformed chain-file value, with a line that names the key, and never
    a traceback or a RuntimeWarning.  A huge zeta on a fixed scatterer is
    a legal (perfect) mirror, which every command runs cleanly."""
    for command in _CHAIN_COMMANDS:
        code, out, err = sweep["chain", case, command]
        if case == "element.1.zeta=huge":
            assert "Traceback" not in err and "Warning" not in err, err
            assert code == "0", (out, err)
        else:
            _assert_rejected(code, out, err, key)


def _random_run_configs(count: int, seed: int) -> list:
    """Seeded MIM run configs over the whole range the checks accept, or
    near it: wavelengths 1e-30..1e30 m, powers 0..1e300 W, cavities of
    1..1e10 wavelengths, membrane zeta 0..-1e8 (down to -1e-300), end
    mirrors of either sign, either pump side, and a 3 x 3 grid and a
    point within lambda/4."""
    rng = np.random.default_rng(seed)
    texts = []
    for _ in range(count):
        lam = float(10 ** rng.uniform(-30, 30))
        power = 0.0 if rng.random() < 0.1 else float(10 ** rng.uniform(-20, 300))
        zeta = 0.0 if rng.random() < 0.1 else -float(10 ** rng.uniform(-300, 8))
        x, dlc = (float(v) for v in rng.uniform(-lam / 4, lam / 4, 2))
        texts.append(
            f"[pump]\nwavelength = {lam!r}\npower = {power!r}\n"
            f"side = {rng.choice(['left', 'right'])}\n\n"
            f"[mim]\ncavity_length = {lam * float(10 ** rng.uniform(0, 10))!r}\n"
            f"membrane_zeta = {zeta!r}\n"
            f"mirror_zeta = {float(rng.choice([-1, 1]) * 10 ** rng.uniform(-1, 3))!r}\n"
            f"membrane_x = {x!r}\ncavity_detuning = {dlc!r}\n\n"
            f"[grid]\nx_start = {-lam / 4!r}\nx_stop = {lam / 4!r}\nx_count = 3\n"
            f"dlc_start = {-lam / 4!r}\ndlc_stop = {lam / 4!r}\ndlc_count = 3\n")
    return texts


def test_accepted_configs_fail_only_typed(tmp_path):
    """Seeded configs over the whole accepted range through `validate`,
    `scan`, `compare` and `point`, with RuntimeWarning an error: nothing
    prints a traceback or a warning, and each command exits 0, 1 (a
    singular `point`) or 2 with an `error:` line.  A config `validate`
    rejects is rejected by every command; of one it accepts, a command
    exits 2 only with the calibration error `validate` warned of."""
    commands = ("scan", "compare", "point")
    configs = _random_run_configs(48, 27)
    runs = []
    for i, text in enumerate(configs):
        path = write(tmp_path / f"random{i}.ini", text)
        for command in ("validate",) + commands:
            runs.append(((i, command), [command, "--config", path,
                                       "--out", str(tmp_path / f"out{i}.csv")]))
    with wall_clock_limit(60.0):
        results = _run_sweep(tmp_path, runs)
    accepted = 0
    for i in range(len(configs)):
        code, out, err = results[i, "validate"]
        assert "Traceback" not in err and "Warning" not in err, err
        assert code in ("0", "2"), (out, err)
        warned = [ln[len("warning: mim.mirror_zeta: "):] for ln in out.splitlines()
                  if ln.startswith("warning: mim.mirror_zeta: ")]
        accepted += code == "0"
        for command in commands:
            c_code, _, c_err = results[i, command]
            assert "Traceback" not in c_err and "Warning" not in c_err, (command, c_err)
            errors = [ln for ln in c_err.splitlines() if ln.startswith("error: ")]
            if code == "2":
                assert c_code == "2" and errors, (command, out, c_err)
            elif c_code == "1":
                assert command == "point" and errors, (command, out, c_err)
            elif c_code == "2":
                assert errors == [f"error: {w}" for w in warned], (command, out, c_err)
            else:
                assert c_code == "0" and not errors, (command, out, c_err)
    assert accepted >= len(configs) // 2
