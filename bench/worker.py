"""One workload run in a fresh interpreter; prints one JSON line.

    python3 bench/worker.py --workload NAME --seed N --seconds S --trace 0|1
                            --deadline UNIX_TIME [--setup-only] [--tiny]

`--setup-only` stops after set-up and its host-speed samples.

`run.py` starts this script with `src` on PYTHONPATH and BLAS pinned to one
thread.  Set-up (importing tmmcavity and building the workload's inputs)
is timed from the first line of the script.  With `--trace 0` requests
run in a closed loop until `--seconds` have passed; with `--trace 1` every
request of one pass runs untraced, under the tracer and untraced again.  Outputs are
checked afterwards, outside the timed region.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()  # set-up is timed from here

import argparse
import itertools
import json
import os
import resource
import shutil
import signal
import statistics
import sys
import tempfile

import workloads

REQUEST_LIMIT_S = {"mim_scan": 90.0, "mim_compare": 30.0,
                   "chain_dynamic": 10.0, "chain_noise": 10.0}
CHECK_RESERVE_S = 25.0  # time kept free after the last request for checks
OUT_DIR = ".bench_out"  # span files
SETUP_KERNEL_SAMPLES = 10  # host-speed samples right after set-up; their median is used


class RequestTimeout(Exception):
    """A request ran past its wall-clock limit."""


class Guard:
    """Wall-clock limit on one request, raised as RequestTimeout (SIGALRM)."""

    def __enter__(self):
        self._old = signal.signal(signal.SIGALRM, self._fire)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)

    def _fire(self, signum, frame):
        raise RequestTimeout(f"request exceeded {self.limit:.1f} s")

    def arm(self, limit: float):
        self.limit = limit
        signal.setitimer(signal.ITIMER_REAL, limit)

    def disarm(self):
        signal.setitimer(signal.ITIMER_REAL, 0)


def run_requests(job, spec, guard, deadline, indices, seconds=None, tracer=None):
    """Closed loop over request `indices`, stopping once `seconds` have passed.

    Returns per-request wall times, the same corrected for host speed
    (speed.py), and (output, error) pairs.  A request that raises or passes
    its limit is recorded as an error; the loop goes on.  No request starts
    after `deadline` (Unix time).
    """
    import speed

    intervals, results = [], []
    limit = REQUEST_LIMIT_S[spec.name]
    log = speed.SpeedLog()
    with log:
        begin = time.perf_counter()
        for n, i in enumerate(indices):
            if seconds is not None and n > 0 and time.perf_counter() - begin >= seconds:
                break
            remaining = deadline - time.time()
            if remaining < 1.0:
                results.append((None, "run deadline reached"))
                break
            if tracer is not None:
                tracer.current_request = i
            out, err = None, None
            t0 = time.perf_counter()
            try:
                guard.arm(min(limit, remaining))
                try:
                    out = job.request(i)
                finally:
                    guard.disarm()
            except Exception as exc:  # every failure is counted, none aborts the run
                err = f"{type(exc).__name__}: {exc}"
            intervals.append((t0, time.perf_counter()))
            results.append((job.collect(out) if err is None else None, err))
    return *log.corrected(intervals), results


def verify(spec, seed, job, results, acc):
    """(attempted, failed, problems, reference verdict) over all requests."""
    import checks

    per_request = spec.points_per_request
    attempted = failed = 0
    problems: list[str] = []
    first: dict[int, object] = {}
    bad_of: dict[int, int] = {}
    n_keys = 1 if spec.is_mim else len(job.chains)
    for i, (out, err) in enumerate(results):
        attempted += per_request
        key = i % n_keys
        if err is not None:
            failed += per_request
            problems.append(f"request {i}: {err}")
            continue
        if key not in first:
            first[key] = out
            try:
                if spec.name == "mim_scan":
                    found = checks.check_scan(job.first_files, spec, seed, acc)
                elif spec.name == "mim_compare":
                    found = checks.check_compare(job.first_files, spec, seed, acc)
                else:
                    found = [checks.check_chain(spec.name, job.descs[key], out, acc)]
            except Exception as exc:  # unreadable output fails every operation
                found = [[f"output not checkable: {type(exc).__name__}: {exc}"]] * per_request
            bad_of[key] = sum(bool(p) for p in found)
            problems += [f"request {i}: {p}" for ps in found for p in ps]
        elif out != first[key]:
            failed += per_request
            problems.append(f"request {i}: output differs from request {key}")
            continue
        failed += bad_of[key]

    verdict = "skipped (seed is not the default seed)"
    if spec != workloads.SPECS[spec.name]:
        verdict = "skipped (smoke-test size)"
    elif seed == workloads.DEFAULT_SEED:
        if spec.is_mim:
            tables = job.first_files or {}
        else:
            tables = {".csv": checks.chain_table(spec.name, first)}
        try:
            found, bad = checks.compare_reference(spec.name, tables)
        except Exception as exc:  # unreadable output fails the first request
            found, bad = [f"not comparable: {type(exc).__name__}: {exc}"], per_request
        failed += bad
        verdict = "pass" if not found else "fail: " + "; ".join(found)
        problems += found
    return attempted, failed, problems, verdict


def blas_threads() -> int | None:
    """Thread count reported by the OpenBLAS that numpy loaded, if any."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def versions() -> dict:
    import mpmath
    import numpy
    import scipy

    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__, "mpmath": mpmath.__version__}


def traced_pass(job, spec, guard, deadline, label):
    """One pass whose every request runs untraced, traced, untraced.

    Traced time over the mean of the two untraced times around it, all
    corrected for host speed, measures the tracer's overhead; bracketing
    cancels a steady drift in host speed, which matters on `mim_*`, whose
    pass is a single command.  The per-layer metrics come from the traced
    runs; their spans include the host-speed samples taken inside them
    (~1% of the time).  Returns the metrics; wall and corrected latencies
    and results of the first untraced, the traced and the second untraced
    run of every request, in that order; self time by module and the span
    file.
    """
    import layers
    from tracer import SpanTable, Tracer

    tracer = Tracer()
    # runs[k] holds the k-th run of every request: untraced, traced, untraced
    runs = [([], [], []) for _ in range(3)]
    written = 0
    for i in range(spec.requests_per_pass):
        for k, (lat, cor, res) in enumerate(runs):
            if k == 1:
                before = getattr(job, "bytes_written", 0)
                with tracer:
                    out = run_requests(job, spec, guard, deadline, [i], tracer=tracer)
                written += getattr(job, "bytes_written", 0) - before
            else:
                out = run_requests(job, spec, guard, deadline, [i])
            lat += out[0]
            cor += out[1]
            res += out[2]
    table = SpanTable(tracer)
    metrics = layers.layer_metrics(table)
    cor_u = sum(runs[0][1]) + sum(runs[2][1])
    metrics["trace.overhead_frac"] = sum(runs[1][1]) / (cor_u / 2) - 1
    metrics["cli.bytes_written"] = written
    os.makedirs(OUT_DIR, exist_ok=True)
    span_file = os.path.join(OUT_DIR, f"spans-{label}.csv.gz")
    tracer.write(span_file)
    lat, cor, res = (sum((r[j] for r in runs), []) for j in range(3))
    return metrics, lat, cor, res, table.self_by_module(), span_file


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--deadline", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--tiny", action="store_true")
    args = ap.parse_args(argv)
    spec = workloads.SPECS[args.workload]
    if args.tiny:
        spec = workloads.tiny(spec)

    os.makedirs(".bench_tmp", exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{spec.name}-", dir=".bench_tmp")
    try:
        job = workloads.make_job(spec, args.seed, workdir)
        setup_s = time.perf_counter() - T_START
        import speed  # after set-up: it imports numpy

        kernel_s = statistics.median(speed.probe() for _ in range(SETUP_KERNEL_SAMPLES))
        setup = {"setup_s": setup_s,
                 "setup_corrected_s": setup_s * speed.NOMINAL_KERNEL_S / kernel_s}
        if args.setup_only:
            print(json.dumps(setup))
            return 0

        result = dict(setup, points_per_request=spec.points_per_request)
        with Guard() as guard:
            if args.trace:
                label = f"{spec.name}-seed{args.seed}"
                metrics, lat, corrected, results, by_module, span_file = traced_pass(
                    job, spec, guard, args.deadline - CHECK_RESERVE_S, label)
                result.update(layers=metrics, self_by_module=by_module, spans=span_file)
            else:
                lat, corrected, results = run_requests(
                    job, spec, guard, args.deadline - CHECK_RESERVE_S, itertools.count(),
                    seconds=args.seconds)
        result["latencies_corrected_s"] = corrected
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        result["latencies_s"] = lat

        import checks  # after the peak RSS is read: it imports mpmath

        acc = checks.Accuracy()
        attempted, failed, problems, verdict = verify(spec, args.seed, job, results, acc)
        accuracy = acc.summary()
        result.update(attempted=attempted, failed=failed, problems=problems[:20],
                      n_problems=len(problems), reference=verdict,
                      accuracy=accuracy, versions=versions(),
                      blas_threads=blas_threads())
        if args.trace:
            result["layers"].update({
                "accuracy.relerr.p50": accuracy["p50"],
                "accuracy.relerr.max": accuracy["max"],
                "accuracy.relerr_over_1e-6": accuracy["over"],
            })
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
