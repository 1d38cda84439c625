"""Record one point of the benchmark trajectory: BENCH_<pr>.json.

    python3 record_bench.py BENCH_31.json

Run from the root of a source tree, on a quiet host: it takes about as
long as `bench/spread.py --seeds 1-10` (every workload of BENCHMARK.json
for its run_seconds, once per seed) plus a few minutes.  It records:

- each end-to-end metric of each BENCHMARK.json workload, over the seeds
  (read back from the runs `bench/spread.py` appends to
  .bench_out/spread.jsonl);
- `cli_scan_101x101`: the wall time of a default `tmmcavity scan` (no
  [grid]: 101 x 101 points), in-process after one warm-up command, its
  outputs unlinked before each;
- `tier1`: the wall time of the tier-1 suite, 5 runs;
- `operator_fields`: seconds per chain of `noise.operator_fields` on 10
  random chains each of 33, 81, 161 and 321 elements (30% of scatterers
  absorbing), the best of 3 calls per chain.

Every metric is written as its median and quartiles (statistics.quantiles,
n=4) over its samples, with its unit and sample count, next to the
environment (CPU, Python, numpy) and the git revision measured.  BLAS is
pinned to one thread in every process this script starts.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.abspath(__file__))
ENV = {**os.environ, "PYTHONPATH": os.path.join(ROOT, "src"), "OPENBLAS_NUM_THREADS": "1",
       "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
# one measurement for every record, so that any two of them compare
SEEDS = "1-10"  # bench/spread.py seeds
REPEATS = 5  # tier-1 runs
SIZES = (33, 81, 161, 321)
NOTES = [
    "peak_rss_mb on the chain_* workloads counts requests: bench/worker.py keeps about "
    "0.6 KB per request, so it grows with the request count, and so with speed, until "
    "the worker stops keeping them (ROADMAP.md, 'Repair the benchmark').",
    "The bench metrics are host-speed corrected by bench/run.py (bench/NOTES.md); the "
    "other workloads are raw wall time.",
]

# Runs in a fresh interpreter: seconds per default 101 x 101 `scan` command.
_SCAN = r"""
import contextlib, io, json, os, sys, time
from tmmcavity import cli
ini, out, count = sys.argv[1], sys.argv[2], int(sys.argv[3])
times = []
for i in range(count + 1):
    for suffix in ("", ".meta.json", ".overlay.csv"):
        if os.path.exists(out + suffix):
            os.unlink(out + suffix)
    with contextlib.redirect_stdout(io.StringIO()):
        start = time.perf_counter()
        code = cli.run(["scan", "--config", ini, "--out", out])
        times.append(time.perf_counter() - start)
    assert code == 0, code
print(json.dumps(times[1:]))
"""

# Runs in a fresh interpreter: seconds per chain of `operator_fields`.
_NOISE = r"""
import json, math, sys, time
import numpy as np
from tmmcavity import Chain, Scatterer, Segment
from tmmcavity.noise import operator_fields
rng = np.random.default_rng(int(sys.argv[1]))
result = {}
for n in json.loads(sys.argv[2]):
    times = []
    for _ in range(10):
        elements = []
        for i in range(n):
            if i % 2:
                elements.append(Segment(float(rng.uniform(0.5e-3, 5e-3))))
            else:
                im = float(rng.uniform(0.005, 0.05)) if rng.random() < 0.3 else 0.0
                elements.append(Scatterer.of(complex(rng.uniform(-3, -0.3), im)))
        mobile = n // 2 - (n // 2) % 2  # the middle scatterer
        chain = Chain(tuple(elements), mobile, 2 * math.pi / 1.064e-6)
        best = math.inf
        for _ in range(3):
            start = time.perf_counter()
            operator_fields(chain)
            best = min(best, time.perf_counter() - start)
        times.append(best)
    result[f"n{n}"] = times
print(json.dumps(result))
"""


def summary(values: list, unit: str) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"unit": unit, "median": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values)}


def python_json(code: str, *args: str) -> object:
    proc = subprocess.run([sys.executable, "-c", code, *args], capture_output=True,
                          text=True, env=ENV, cwd=ROOT, check=True)
    return json.loads(proc.stdout)


def bench_workloads() -> dict:
    """{workload: {metric: summary}} of the runs `bench/spread.py` makes."""
    log = os.path.join(ROOT, ".bench_out", "spread.jsonl")
    start = os.path.getsize(log) if os.path.exists(log) else 0
    subprocess.run([sys.executable, os.path.join("bench", "spread.py"), "--seeds", SEEDS],
                   cwd=ROOT, env=ENV, check=True)
    runs = {}
    with open(log, encoding="utf-8") as fh:
        fh.seek(start)
        for line in fh:
            run = json.loads(line)
            if not run["correct"]:
                raise SystemExit(f"{run['workload']} seed {run['seed']}: incorrect output")
            for name, metric in run["metrics"].items():
                runs.setdefault(run["workload"], {}).setdefault(name, (metric["unit"], []))[
                    1].append(metric["value"])
    return {workload: {name: summary(values, unit) for name, (unit, values) in metrics.items()}
            for workload, metrics in runs.items()}


def tier1_seconds() -> list:
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        # the schema test reads the file this run has yet to write
        subprocess.run([sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
                        "-p", "no:cacheprovider", "--deselect",
                        "tests/test_bench_record.py::test_bench_files_follow_the_schema"],
                       cwd=ROOT, env=ENV, check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
    return times


def environment() -> dict:
    cpu = platform.processor()
    if os.path.exists("/proc/cpuinfo"):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    numpy = python_json("import json, numpy; print(json.dumps(numpy.__version__))")
    return {"cpu": cpu, "cpus": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy, "platform": platform.platform()}


def git_rev() -> dict:
    def git(*args):
        return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                              check=True).stdout.strip()

    return {"rev": git("rev-parse", "HEAD"),
            "dirty": bool(git("status", "--porcelain", "--", "src", "bench"))}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("out", help="the file to write, BENCH_<pr>.json")
    args = ap.parse_args(argv)

    record = {**git_rev(), "environment": environment(), "notes": NOTES}
    workloads = bench_workloads()
    with tempfile.TemporaryDirectory() as tmp:
        ini = os.path.join(tmp, "run.ini")
        open(ini, "w", encoding="utf-8").close()  # every default: a 101 x 101 grid
        scan = python_json(_SCAN, ini, os.path.join(tmp, "scan.csv"), "20")
    workloads["cli_scan_101x101"] = {"wall_s": summary(scan, "s")}
    workloads["tier1"] = {"wall_s": summary(tier1_seconds(), "s")}
    noise = python_json(_NOISE, "1", json.dumps(SIZES))
    workloads["operator_fields"] = {f"{n}_s": summary(v, "s") for n, v in noise.items()}
    record["workloads"] = workloads
    with open(os.path.join(ROOT, args.out), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
