"""tmmcavity benchmark: one workload run, end-to-end or traced.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source tree (the directory holding `src/tmmcavity`).
Workloads: mim_scan, mim_compare, chain_dynamic, chain_noise (see
workloads.py and NOTES.md).  Each run starts fresh interpreters: SETUP_PROBES
that only set up, for the set-up time, and one that sets up, runs the
workload and checks its outputs.

Prints the metrics by name with unit and sample count, the check verdicts
and an environment record, then as the last line one JSON object with the
keys correct, attempted, failed and metrics: the end-to-end metrics with
`--trace 0`, the per-layer metrics of a traced pass with `--trace 1`.  The
full result also goes to .bench_out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import layers  # noqa: E402
import workloads  # noqa: E402

PACKAGE_DIR = os.path.join("src", "tmmcavity")
SETUP_PROBES = 6          # set-up-only interpreters; the workload's own is one more
RUN_LIMIT_S = 170.0       # the whole run, probes included
REQUEST_DEADLINE_S = 150.0  # no request starts later than this into the run

END_TO_END = (
    ("setup_s", "s"),
    ("points_per_s", "1/s"),
    ("call_p50_ms", "ms"),
    ("call_p95_ms", "ms"),
    ("peak_rss_mb", "MB"),
)


def child_env() -> dict:
    env = dict(os.environ)
    src = os.path.abspath("src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(args: list[str], timeout: float) -> dict:
    """Run worker.py with `args`; its last stdout line is JSON."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py")] + args
    proc = subprocess.run(cmd, env=child_env(), capture_output=True, text=True,
                          timeout=max(timeout, 1.0))
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def percentile(values: list[float], q: int) -> float:
    """q-th percentile, interpolated between closest ranks."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def source_digest() -> str:
    h = hashlib.sha256()
    for name in sorted(os.listdir(PACKAGE_DIR)):
        if name.endswith(".py"):
            with open(os.path.join(PACKAGE_DIR, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()[:16]


def git_rev() -> str | None:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def end_to_end(setups: list[float], lat: list[float], res: dict) -> dict:
    """Metric -> (value, samples) from set-up times and request times.

    points_per_s is grid points (MIM) or chain evaluations over the summed
    request time.
    """
    return {
        "setup_s": (statistics.median(setups), len(setups)),
        "points_per_s": (res["points_per_request"] * len(lat) / sum(lat), len(lat)),
        "call_p50_ms": (1e3 * statistics.median(lat), len(lat)),
        "call_p95_ms": (1e3 * percentile(lat, 95), len(lat)),
        "peak_rss_mb": (res["peak_rss_mb"], 1),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="tmmcavity benchmark (one workload run)")
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--tiny", action="store_true",
                    help="smoke-test size: a 5x5 grid or one chain per size")
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(PACKAGE_DIR, "__init__.py")):
        print(f"error: no {PACKAGE_DIR} here; run from the root of a tmmcavity source tree",
              file=sys.stderr)
        return 2

    began = time.time()
    load_before = os.getloadavg()[0]
    base = ["--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--deadline", str(began + REQUEST_DEADLINE_S)]
    if args.tiny:
        base.append("--tiny")
    try:
        probes = []
        if not args.trace:
            for _ in range(SETUP_PROBES):
                left = RUN_LIMIT_S - (time.time() - began)
                probes.append(run_child(base + ["--setup-only"], left))
        left = RUN_LIMIT_S - (time.time() - began)
        res = run_child(base, left)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"error: benchmark run failed: {exc}", file=sys.stderr)
        return 1
    probes.append(res)

    env = {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
           **res["versions"], "git_rev": git_rev(), "source_sha256": source_digest(),
           "blas_threads": res["blas_threads"],
           "loadavg_1min_before": load_before, "loadavg_1min_after": os.getloadavg()[0]}

    if args.trace:
        values = {name: (res["layers"][name], 1) for name, _ in layers.PER_LAYER}
        wall = {}
        units = layers.UNITS
    else:
        values = end_to_end([p["setup_corrected_s"] for p in probes],
                            res["latencies_corrected_s"], res)
        wall = end_to_end([p["setup_s"] for p in probes], res["latencies_s"], res)
        units = dict(END_TO_END)

    attempted, failed = res["attempted"], res["failed"]
    acc = res["accuracy"]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"requests {len(res['latencies_s'])}")
    for name, (value, n) in values.items():
        raw = f"; wall {wall[name][0]:.6g}" if name in wall and wall[name] != values[name] else ""
        print(f"  {name:44s} {value:.6g} {units[name]}  (n={n}{raw})")
    print(f"  failed_frac {failed / attempted:.6g}  ({failed} of {attempted} operations)")
    print(f"  checks: {'pass' if failed == 0 else 'FAIL'}; reference: {res['reference']}")
    for problem in res["problems"]:
        print(f"    {problem}")
    if res["n_problems"] > len(res["problems"]):
        print(f"    ... {res['n_problems'] - len(res['problems'])} more")
    print(f"  closed form vs mpmath, plain relative error (informational): "
          f"p50 {acc['p50']:.3g}, max {acc['max']:.3g}, "
          f"{acc['over']} of {acc['n']} values beyond 1e-6")
    if args.trace:
        total = sum(res["self_by_module"].values())
        shares = ", ".join(f"{m} {v / total:.1%}" for m, v in
                           sorted(res["self_by_module"].items(), key=lambda kv: -kv[1]))
        print(f"  self time by module ({total:.3g} s traced): {shares}")
        print(f"  spans written to {res['spans']}")
    print(f"  env {json.dumps(env, sort_keys=True)}")

    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "env": env,
              "setup_samples_s": [p["setup_s"] for p in probes],
              "metrics": {k: {"value": v, "unit": units[k], "n": n}
                          for k, (v, n) in values.items()},
              "wall_metrics": {k: v for k, (v, _) in wall.items()},
              **{k: res[k] for k in ("attempted", "failed", "problems", "reference",
                                     "accuracy", "latencies_s", "latencies_corrected_s")}}
    if args.trace:
        record["self_by_module"] = res["self_by_module"]
    os.makedirs(".bench_out", exist_ok=True)
    with open(os.path.join(".bench_out", f"result-{args.workload}-seed{args.seed}"
                           f"-trace{args.trace}.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, (v, _) in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
