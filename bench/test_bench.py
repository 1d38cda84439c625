"""Self-tests of the benchmark: tracer arithmetic, checkers, smoke runs.

    python3 -m pytest bench -q

Run from the root of a source tree.  The smoke runs use the `--tiny` size
(a 5x5 grid, one chain per element count) and take a few seconds each.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import SpanTable, Tracer  # noqa: E402


# ---------------------------------------------------------------------------
# tracer
# ---------------------------------------------------------------------------


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_of_nested_calls():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def leaf():
        clock.now += 1.0

    def inner(n):
        clock.now += 0.5
        for _ in range(n):
            leaf()
        clock.now += 0.5

    def outer():
        clock.now += 2.0
        inner(0)
        inner(2)
        clock.now += 3.0

    leaf, inner, outer = (tracer.wrap(n, f) for n, f in
                          (("leaf", leaf), ("inner", inner), ("outer", outer)))
    outer()
    table = SpanTable(tracer)
    # outer 0..9: inner 2..3 and 3..6 inside it; leaves 3.5..4.5 and 4.5..5.5
    assert table.inclusive("outer") == pytest.approx(9.0)
    assert table.self_total("outer") == pytest.approx(9.0 - 1.0 - 3.0)
    assert table.self_total("inner") == pytest.approx(1.0 + 1.0)
    assert table.self_total("leaf") == pytest.approx(2.0)
    assert sum(table.self_s) == pytest.approx(table.inclusive("outer"))
    assert table.calls("leaf") == 2
    assert table.descendants_named("outer", "leaf") == 2
    assert len(table.children_named("inner", "leaf")) == 2


def test_self_time_counts_overlapping_children_once():
    tracer = Tracer()
    for name, start, end, parent in (("p", 0.0, 10.0, -1), ("a", 1.0, 4.0, 0),
                                     ("b", 3.0, 6.0, 0), ("c", 8.0, 12.0, 0)):
        tracer.name.append(tracer._name_id(name))
        tracer.start.append(start)
        tracer.end.append(end)
        tracer.parent.append(parent)
        for arr in (tracer.request, tracer.size, tracer.error):
            arr.append(0)
    # children cover [1, 6] and [8, 10] of the parent: 7 of its 10 seconds
    assert tracer.self_times()[0] == pytest.approx(3.0)


def test_install_wraps_every_binding_and_uninstall_restores():
    import tmmcavity
    from tmmcavity import dynamics, mim, opalg, statics

    before = (mim.solve_dynamic, dynamics.solve_static, statics.solve_static,
              tmmcavity.solve_static, opalg.VOMatrix.static_at)
    tracer = Tracer()
    with tracer:
        assert mim.solve_dynamic is not before[0]
        assert dynamics.solve_static is statics.solve_static is tmmcavity.solve_static
        assert dynamics.solve_static is not before[1]
        chain = mim.build_mim(mim.MimConfig(), 50e-9, 10e-9)
        mim.evaluate_chain(chain, mim.pump_for(mim.MimConfig()))
    after = (mim.solve_dynamic, dynamics.solve_static, statics.solve_static,
             tmmcavity.solve_static, opalg.VOMatrix.static_at)
    assert after == before
    table = SpanTable(tracer)
    assert table.calls("dynamics.solve_dynamic") == 1
    assert table.calls("opalg.vo_mul") > 0
    assert table.calls("opalg.VOMatrix.static_at") > 0
    assert not any(n.startswith("opalg.KFunction") for n in table.by_name)


# ---------------------------------------------------------------------------
# checkers
# ---------------------------------------------------------------------------


def _perturb_cell(data: bytes, row: int, col: int, factor: float, delta: float = 0.0) -> bytes:
    lines = data.decode().splitlines()
    cells = lines[row + 1].split(",")
    cells[col] = format(float(cells[col]) * factor + delta, ".17g")
    lines[row + 1] = ",".join(cells)
    return ("\n".join(lines) + "\n").encode()


@pytest.fixture(scope="module")
def tiny_scan(tmp_path_factory):
    spec = workloads.tiny(workloads.SPECS["mim_scan"])
    job = workloads.make_job(spec, 3, str(tmp_path_factory.mktemp("scan")))
    job.request(0)
    job.collect(None)
    return spec, job.first_files


def test_scan_checker_passes_real_output(tiny_scan):
    spec, files = tiny_scan
    found = checks.check_scan(files, spec, 3, checks.Accuracy())
    assert not any(found)


@pytest.mark.parametrize("col,factor,delta", [
    (2, 1.0, 1e-4 * checks.FLUX),         # intensity
    (3, 1.0, 1e-4 * checks.FORCE_SCALE),  # F0
    (6, 1.5, 0.0),                         # kBT no longer -D/dFdv
])
def test_scan_checker_flags_perturbed_row(tiny_scan, col, factor, delta):
    spec, files = tiny_scan
    _, rows = checks.parse_csv(files[".csv"])
    row = next(i for i, r in enumerate(rows) if r[6] is not None)
    bad = dict(files)
    bad[".csv"] = _perturb_cell(files[".csv"], row, col, factor, delta)
    found = checks.check_scan(bad, spec, 3, checks.Accuracy())
    assert [i for i, problems in enumerate(found) if problems] == [row]


def test_chain_checker_flags_perturbed_force():
    spec = workloads.tiny(workloads.SPECS["chain_dynamic"])
    job = workloads.make_job(spec, 3, "")
    out = job.request(0)
    assert checks.check_chain(spec.name, job.descs[0], out, checks.Accuracy()) == []
    bad = dict(out, F0=out["F0"] + 1e-4 * checks.FORCE_SCALE)
    assert checks.check_chain(spec.name, job.descs[0], bad, checks.Accuracy())
    negative = dict(out, D=-abs(out["D"]))
    assert checks.check_chain(spec.name, job.descs[0], negative, checks.Accuracy())


@pytest.mark.parametrize("label", ["intensity", "F0"])
def test_chain_checker_flags_zeroed_stop_band_value(label):
    # a value below 1e-6 of its scale, where the plain relative error of the
    # closed form is large, must still be checked against its absolute floor
    scale = {"intensity": checks.FLUX, "F0": checks.FORCE_SCALE}[label]
    spec = workloads.SPECS["chain_noise"]
    job = workloads.make_job(spec, workloads.DEFAULT_SEED, "")
    for i, desc in enumerate(job.descs[:40]):
        exact = dict(zip(("intensity", "F0"), checks.oracle_static(desc)))[label]
        if 10 * checks.QUANTITY_ATOL * scale < abs(exact) < 1e-6 * scale:
            out = job.request(i)
            assert checks.check_chain(spec.name, desc, out, checks.Accuracy()) == []
            zeroed = dict(out, **{label: 0.0})
            assert checks.check_chain(spec.name, desc, zeroed, checks.Accuracy())
            return
    pytest.fail(f"no stop-band {label} among the first 40 chains")


def test_reference_comparison_flags_zeroed_stop_band_value():
    import gzip

    with gzip.open(checks.reference_path("chain_noise"), "rb") as fh:
        ref = fh.read()
    _, rows = checks.parse_csv(ref)
    top = max(abs(r[2]) for r in rows)
    row = next(i for i, r in enumerate(rows)
               if 10 * checks.QUANTITY_ATOL * top < abs(r[2]) < 1e-6 * top)
    _, bad = checks.compare_reference("chain_noise", {".csv": _perturb_cell(ref, row, 2, 0.0)})
    assert bad == 1


def test_reference_comparison_flags_perturbed_row():
    import gzip

    with gzip.open(checks.reference_path("chain_noise"), "rb") as fh:
        ref = fh.read()
    assert checks.compare_reference("chain_noise", {".csv": ref}) == ([], 0)
    problems, bad = checks.compare_reference(
        "chain_noise", {".csv": _perturb_cell(ref, 5, 2, 1.0, 1e-4 * checks.FORCE_SCALE)})
    assert bad == 1 and "F0" in problems[0]
    lines = ref.decode().splitlines()
    cells = lines[3].split(",")
    cells[3] = ""  # a missing-value marker where the reference has a number
    lines[3] = ",".join(cells)
    _, bad = checks.compare_reference("chain_noise", {".csv": ("\n".join(lines) + "\n").encode()})
    assert bad == 1


def test_guard_turns_a_hang_into_a_counted_failure(monkeypatch):
    import time

    import worker
    from tmmcavity import mim

    class Hang:
        def request(self, i):
            # loops forever: no half maximum for this mirror (ROADMAP item 5)
            mim.bare_resonance(mim.MimConfig(mirror_zeta=-0.3))

        def collect(self, out):
            return out

    spec = workloads.tiny(workloads.SPECS["chain_dynamic"])
    monkeypatch.setitem(worker.REQUEST_LIMIT_S, spec.name, 0.5)
    with worker.Guard() as guard:
        lat, _, results = worker.run_requests(Hang(), spec, guard, time.time() + 60,
                                              range(2))
    assert [err.split(":")[0] for _, err in results] == ["RequestTimeout"] * 2
    assert all(0.4 < t < 5.0 for t in lat)


# ---------------------------------------------------------------------------
# smoke runs and the contract
# ---------------------------------------------------------------------------


def _bench_json() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def test_metric_lists_match_benchmark_json():
    bench = _bench_json()
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == list(layers.PER_LAYER)
    assert [w["name"] for w in bench["workloads"]] == list(workloads.NAMES)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.NAMES)
def test_tiny_smoke_run(workload, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "1", "--trace", str(trace), "--tiny"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    key = "per_layer" if trace else "end_to_end"
    assert list(result["metrics"]) == [m["name"] for m in _bench_json()[key]]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    cmd = [sys.executable, "bench/run.py", "--workload", "mim_scan", "--seed", "1",
           "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
