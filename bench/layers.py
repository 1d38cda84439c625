"""Per-layer metrics of a traced pass, computed from its spans.

Layers are the package's modules.  `self_s` is self time summed over a
function's spans, `.s` inclusive time, and `.s.nK` inclusive time on
K-element chains.  Every metric is reported on every workload; a layer a
workload does not reach reads 0.
"""

from __future__ import annotations

from tracer import VOMATRIX_EVAL, SpanTable

DYNAMIC_SIZES = (5, 9, 13)
NOISE_SIZES = (33, 49, 65, 81)

# (name, unit); BENCHMARK.json lists the same metrics in the same order
PER_LAYER = (
    [("opalg.vo_mul.calls", "count"), ("opalg.vo_mul.self_s", "s"),
     ("opalg.eval.calls", "count"), ("opalg.eval.self_s", "s"),
     ("elements.factorize.calls", "count"), ("elements.factorize.self_s", "s"),
     ("dynamics.solve_dynamic.calls", "count"), ("dynamics.solve_dynamic.self_s", "s")]
    + [(f"dynamics.solve_dynamic.s.n{n}", "s") for n in DYNAMIC_SIZES]
    + [("dynamics.force_with_velocity.self_s", "s"),
       ("statics.solve_static.calls", "count"), ("statics.solve_static.self_s", "s")]
    + [(f"statics.solve_static.s.n{n}", "s") for n in NOISE_SIZES]
    + [("statics.static_force.self_s", "s"),
       ("network.solve_network.calls", "count"), ("network.solve_network.self_s", "s")]
    + [(f"network.solve_network.s.n{n}", "s") for n in NOISE_SIZES]
    + [("network.unknowns", "count"), ("network.matrix_bytes", "B"),
       ("noise.operator_fields.calls", "count"), ("noise.operator_fields.self_s", "s"),
       ("noise.columns", "count"), ("noise.diffusion.self_s", "s"),
       ("noise.attach_loss_modes.self_s", "s"),
       ("mim.point_quantities.calls", "count"), ("mim.point_quantities.singular", "count"),
       ("mim.evaluate_chain.self_s", "s"), ("mim.build_mim.self_s", "s"),
       ("mim.scan.self_s", "s"), ("mim.compare_models.self_s", "s"),
       ("mim.coupled_cavity_force.calls", "count"),
       ("mim.coupled_cavity_force.self_s", "s"),
       ("mim.bare_resonance.calls", "count"), ("mim.bare_resonance.s", "s"),
       ("mim.bare_resonance.solve_static_calls", "count"),
       ("mim.calibrate_coupled_params.s", "s"), ("mim.overlay_base_curves.s", "s"),
       ("cli.run.self_s", "s"), ("cli.bytes_written", "B"),
       ("config.load_run_config.s", "s"),
       ("trace.overhead_frac", "ratio"), ("trace.spans", "count"),
       ("accuracy.relerr.p50", "ratio"), ("accuracy.relerr.max", "ratio"),
       ("accuracy.relerr_over_1e-6", "count")]
)
UNITS = dict(PER_LAYER)


def layer_metrics(table: SpanTable) -> dict[str, float]:
    """Every span-derived metric of PER_LAYER (all but cli.bytes_written,
    trace.overhead_frac and the accuracy figures, which the caller adds)."""
    m: dict[str, float] = {}
    t = table

    def calls_self(name, span):
        m[f"{name}.calls"] = t.calls(span)
        m[f"{name}.self_s"] = t.self_total(span)

    calls_self("opalg.vo_mul", "opalg.vo_mul")
    evals = [f"opalg.VOMatrix.{a}" for a in VOMATRIX_EVAL]
    m["opalg.eval.calls"] = sum(t.calls(e) for e in evals)
    m["opalg.eval.self_s"] = sum(t.self_total(e) for e in evals)
    calls_self("elements.factorize", "elements.factorize")

    calls_self("dynamics.solve_dynamic", "dynamics.solve_dynamic")
    for n in DYNAMIC_SIZES:
        m[f"dynamics.solve_dynamic.s.n{n}"] = t.inclusive("dynamics.solve_dynamic", n)
    m["dynamics.force_with_velocity.self_s"] = t.self_total("dynamics.force_with_velocity")

    calls_self("statics.solve_static", "statics.solve_static")
    for n in NOISE_SIZES:
        m[f"statics.solve_static.s.n{n}"] = t.inclusive("statics.solve_static", n)
    m["statics.static_force.self_s"] = t.self_total("statics.static_force")

    calls_self("network.solve_network", "network.solve_network")
    for n in NOISE_SIZES:
        m[f"network.solve_network.s.n{n}"] = t.inclusive("network.solve_network", n)
    sizes = [t.t.size[i] for i in t.by_name.get("network.solve_network", ())]
    m["network.unknowns"] = sum(2 * (n + 1) for n in sizes)
    m["network.matrix_bytes"] = sum(16 * (2 * (n + 1)) ** 2 for n in sizes)

    calls_self("noise.operator_fields", "noise.operator_fields")
    m["noise.columns"] = len(t.children_named("noise.operator_fields",
                                              "network.solve_network"))
    m["noise.diffusion.self_s"] = t.self_total("noise.diffusion")
    m["noise.attach_loss_modes.self_s"] = t.self_total("noise.attach_loss_modes")

    m["mim.point_quantities.calls"] = t.calls("mim.point_quantities")
    singular = {t.t.parent[i] for i in t.children_named("mim.point_quantities",
                                                        "mim.evaluate_chain")
                if t.t.error[i]}
    m["mim.point_quantities.singular"] = len(singular)
    for fn in ("evaluate_chain", "build_mim", "scan", "compare_models"):
        m[f"mim.{fn}.self_s"] = t.self_total(f"mim.{fn}")
    calls_self("mim.coupled_cavity_force", "mim.coupled_cavity_force")
    calls = t.calls("mim.bare_resonance")
    m["mim.bare_resonance.calls"] = calls
    m["mim.bare_resonance.s"] = t.inclusive("mim.bare_resonance")
    iters = t.descendants_named("mim.bare_resonance", "statics.solve_static")
    m["mim.bare_resonance.solve_static_calls"] = iters / calls if calls else 0
    m["mim.calibrate_coupled_params.s"] = t.inclusive("mim.calibrate_coupled_params")
    m["mim.overlay_base_curves.s"] = t.inclusive("mim.overlay_base_curves")

    m["cli.run.self_s"] = t.self_total("cli.run")
    m["config.load_run_config.s"] = t.inclusive("config.load_run_config")
    m["trace.spans"] = len(t.t)
    return m
