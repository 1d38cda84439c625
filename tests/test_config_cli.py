"""Configuration parsing, validation, CLI commands, output formats."""

import csv
import json
import os
import subprocess
import sys

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
from tmmcavity.errors import ConfigError

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

    def test_console_entry_point(self, tmp_path):
        res = subprocess.run(
            [sys.executable, "-m", "tmmcavity.cli", "--version"],
            capture_output=True, text=True,
        )
        assert res.returncode == 0
        assert "0.1.0" in res.stdout
