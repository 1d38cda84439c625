"""The committed benchmark trajectory: the BENCH_<pr>.json files that
`record_bench.py` writes at the root of the tree, checked for their
schema without running the benchmark."""

import glob
import json
import os
import re

ROOT = os.path.join(os.path.dirname(__file__), "..")


def _read(name: str):
    with open(os.path.join(ROOT, name), encoding="utf-8") as fh:
        return json.load(fh)


def test_bench_files_follow_the_schema():
    """Each file records the clean git revision it measured, the CPU,
    Python and numpy, the note that peak_rss_mb on the chain workloads
    counts requests, and for every workload of BENCHMARK.json each of its
    end-to-end metrics, next to the default scan, the tier-1 wall time and
    `operator_fields` at 33 to 321 elements, each as a median between its
    quartiles over at least two samples, with its unit."""
    paths = sorted(glob.glob(os.path.join(ROOT, "BENCH_*.json")))
    assert paths
    bench = _read("BENCHMARK.json")
    units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    for path in paths:
        assert re.fullmatch(r"BENCH_\d+\.json", os.path.basename(path)), path
        record = _read(path)
        assert re.fullmatch(r"[0-9a-f]{40}", record["rev"]) and record["dirty"] is False
        assert all(record["environment"][key] for key in ("cpu", "python", "numpy"))
        assert any("peak_rss_mb" in note and "chain_" in note for note in record["notes"])
        workloads = record["workloads"]
        for workload in bench["workloads"]:
            metrics = workloads[workload["name"]]
            assert {name: metrics[name]["unit"] for name in units} == units, workload
        assert set(workloads["operator_fields"]) == {"n33_s", "n81_s", "n161_s", "n321_s"}
        for name in ("cli_scan_101x101", "tier1"):
            assert set(workloads[name]) == {"wall_s"}
        for name, metrics in workloads.items():
            for metric, m in metrics.items():
                assert m["n"] >= 2 and m["unit"], (name, metric)
                assert m["q1"] <= m["median"] <= m["q3"], (name, metric)
