"""Regenerate the ROADMAP baseline tables from traced calls.

    python3 bench/baseline.py

Run from the root of a source tree.  Prints two markdown tables:

  - the default MIM point (x = 50 nm, dLc = 10 nm): median time over
    REPEATS calls of
    point_quantities, factorize, solve_dynamic (with and without the
    factorize it calls), solve_static, operator_fields, diffusion,
    force_with_velocity and bare_resonance;
  - the chain-length buckets: solve_dynamic on the chain_dynamic chains and
    solve_static and operator_fields on the chain_noise chains, median per
    call over REPEATS chains of each element count.

Times come from the same spans as the benchmark's traced pass, so they
include the tracer's own small cost per call.
"""

from __future__ import annotations

import os
import statistics
import sys

sys.path.insert(0, os.path.abspath("src"))
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(var, "1")

import workloads  # noqa: E402
from tracer import SpanTable, Tracer  # noqa: E402

DEFAULT_POINT = (50e-9, 10e-9)
REPEATS = 20


def per_call(table: SpanTable, name: str, size: int | None = None) -> list[float]:
    return [table.dur[i] for i in table.by_name.get(name, ())
            if size is None or table.t.size[i] == size]


def fmt(seconds: float) -> str:
    if seconds >= 1:
        return f"{seconds:.2f} s"
    if seconds >= 1e-3:
        return f"{seconds * 1e3:.2f} ms"
    return f"{seconds * 1e6:.0f} µs"


def default_point_rows() -> list[tuple[str, float]]:
    import tmmcavity as tc

    config = tc.MimConfig()
    tc.point_quantities(config, *DEFAULT_POINT)  # warm-up
    tracer = Tracer()
    with tracer:
        for _ in range(REPEATS):
            tc.mim.point_quantities(config, *DEFAULT_POINT)
        for _ in range(REPEATS // 4):
            tc.mim.bare_resonance(config)
    t = SpanTable(tracer)
    dyn = [t.dur[i] for i in t.by_name["dynamics.solve_dynamic"]]
    fac_in_dyn = {t.t.parent[i]: t.dur[i] for i in t.children_named(
        "dynamics.solve_dynamic", "elements.factorize")}
    given_fac = [t.dur[i] - fac_in_dyn.get(i, 0.0) for i in t.by_name["dynamics.solve_dynamic"]]
    med = statistics.median
    return [
        ("`point_quantities` (everything)", med(per_call(t, "mim.point_quantities"))),
        ("`factorize` (closure-tree build)", med(per_call(t, "elements.factorize"))),
        ("`solve_dynamic` including its `factorize`", med(dyn)),
        ("`solve_dynamic` given a factorization", med(given_fac)),
        ("`solve_static`", med(per_call(t, "statics.solve_static"))),
        ("`operator_fields`", med(per_call(t, "noise.operator_fields"))),
        ("`diffusion`", med(per_call(t, "noise.diffusion"))),
        ("`force_with_velocity`", med(per_call(t, "dynamics.force_with_velocity"))),
        ("`bare_resonance` (calibration)", med(per_call(t, "mim.bare_resonance"))),
    ]


def bucket_rows() -> list[tuple[str, dict[int, float]]]:
    import tmmcavity as tc

    pump = tc.PumpSpec.one_sided(workloads.POWER_W, workloads.WAVELENGTH)
    rows = []
    for name, spans in (("chain_dynamic", ("dynamics.solve_dynamic",)),
                        ("chain_noise", ("statics.solve_static", "noise.operator_fields"))):
        spec = workloads.SPECS[name]
        descs = workloads.chain_descriptions(spec, workloads.DEFAULT_SEED)
        chains = [tc.noise.attach_loss_modes(workloads.build_chain(d))
                  for d in descs[: REPEATS * len(spec.sizes)]]
        tracer = Tracer()
        with tracer:
            for chain in chains:
                if name == "chain_dynamic":
                    tc.dynamics.solve_dynamic(chain, pump)
                else:
                    tc.statics.solve_static(chain, pump)
                    tc.noise.operator_fields(chain)
        t = SpanTable(tracer)
        for span in spans:
            rows.append((span, {n: statistics.median(per_call(t, span, n))
                                for n in spec.sizes}))
    return rows


def main() -> int:
    print(f"| layer (default MIM point, x=50 nm, dLc=10 nm) | median per call "
          f"({REPEATS} calls) |")
    print("|---|---|")
    for label, seconds in default_point_rows():
        print(f"| {label} | {fmt(seconds)} |")
    print()
    for span, by_size in bucket_rows():
        sizes = sorted(by_size)
        print(f"| `{span}`, elements | " + " | ".join(str(n) for n in sizes) + " |")
        print("|---|" + "---|" * len(sizes))
        print("| median per call | " + " | ".join(fmt(by_size[n]) for n in sizes) + " |")
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
