"""Regenerate the reference outputs of the default seed.

    PYTHONPATH=src python3 bench/make_reference.py [WORKLOAD ...]

Runs one pass of each workload at workloads.DEFAULT_SEED, checks it
against the mpmath oracle and the invariants, and only then writes
bench/reference/<workload>*.csv.gz.  Rewrite the references only when a
change to the program is meant to change its outputs, and say so.
"""

from __future__ import annotations

import os
import sys
import tempfile

import checks
import workloads


def reference_outputs(name: str, workdir: str) -> tuple[dict, list[str]]:
    spec = workloads.SPECS[name]
    seed = workloads.DEFAULT_SEED
    job = workloads.make_job(spec, seed, workdir)
    acc = checks.Accuracy()
    if spec.is_mim:
        job.request(0)
        job.collect(None)
        check = checks.check_scan if name == "mim_scan" else checks.check_compare
        found = check(job.first_files, spec, seed, acc)
        tables = {s: job.first_files[s] for s in checks.reference_tables(name)}
    else:
        outputs = [job.request(i) for i in range(spec.chains)]
        found = [checks.check_chain(name, d, o, acc) for d, o in zip(job.descs, outputs)]
        tables = {".csv": checks.chain_table(name, dict(enumerate(outputs)))}
    return tables, [p for ps in found for p in ps]


def main(names) -> int:
    status = 0
    for name in names or workloads.NAMES:
        os.makedirs(".bench_tmp", exist_ok=True)
        with tempfile.TemporaryDirectory(dir=".bench_tmp") as workdir:
            tables, problems = reference_outputs(name, workdir)
        if problems:
            print(f"{name}: not written, {len(problems)} check failures, first: {problems[0]}")
            status = 1
            continue
        checks.write_reference(name, tables)
        print(f"{name}: wrote {', '.join(checks.reference_path(name, s) for s in tables)}")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
