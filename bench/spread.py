"""All workloads in one command, and the run-to-run spread over seeds.

    python3 bench/spread.py [--seeds 1-10]

Runs bench/run.py once per workload of BENCHMARK.json and seed, one run at
a time, for the file's run_seconds, and prints each run's report (metrics
with unit and sample count, check verdicts).  With two or more seeds it
then prints for each metric the median and the interquartile range as a
share of the median (statistics.quantiles with n=4), next to the metric's
bound in BENCHMARK.json and the same spread of the uncorrected wall-time
values (see speed.py), and then the largest spread as a share of its
bound, setup_s included.  `--seeds 0` runs every workload once at the
default seed.  All results are appended to .bench_out/spread.jsonl.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def seeds_arg(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def median_spread(vals: list[float]) -> tuple[float, float]:
    """Median and interquartile range over the median."""
    med = statistics.median(vals)
    q1, _, q3 = statistics.quantiles(vals, n=4)
    return med, (q3 - q1) / med


def main(argv=None) -> int:
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    args = ap.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    os.makedirs(".bench_out", exist_ok=True)
    worst = (0.0, "")
    for workload in (w["name"] for w in bench["workloads"]):
        values: dict[str, list[float]] = {}
        wall: dict[str, list[float]] = {}
        for seed in args.seeds:
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(bench["run_seconds"]),
                   "--trace", "0"]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=200)
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
                return 1
            lines = proc.stdout.strip().splitlines()
            print("\n".join(lines[:-1]), flush=True)
            result = json.loads(lines[-1])
            with open(os.path.join(".bench_out", "spread.jsonl"), "a", encoding="utf-8") as fh:
                fh.write(json.dumps({"workload": workload, "seed": seed, **result}) + "\n")
            if not result["correct"]:
                print(f"{workload} seed {seed}: {result['failed']} of "
                      f"{result['attempted']} operations failed")
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            with open(os.path.join(".bench_out", f"result-{workload}-seed{seed}-trace0.json"),
                      encoding="utf-8") as fh:
                for name, v in json.load(fh)["wall_metrics"].items():
                    wall.setdefault(name, []).append(v)
        if len(args.seeds) < 2:
            continue
        for name, vals in values.items():
            med, spread = median_spread(vals)
            wall_med, wall_spread = median_spread(wall[name])
            worst = max(worst, (spread / bounds[name], f"{name} on {workload}"))
            print(f"{workload:14s} {name:14s} median {med:12.6g}  IQR/median {spread:.4f}"
                  f"  bound {bounds[name]}  ({len(vals)} runs)  "
                  f"wall: median {wall_med:.6g}, IQR/median {wall_spread:.4f}")
    if len(args.seeds) > 1:
        print(f"largest spread as a share of its bound: {worst[0]:.2f} ({worst[1]})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
