"""The package's module layering and the entry points the benchmark calls.

The chain engine sits below the MIM application, and each module imports
only from the layers below it:

    constants/errors -> elements -> opalg -> noise -> statics -> dynamics
    -> mim -> config -> cli

`_g17`, the CSV writer's kernel, serves `cli` alone.
"""

import ast
import importlib
import pathlib

import tmmcavity

LAYERS = ("constants errors", "elements", "opalg", "noise", "statics", "dynamics", "mim",
          "config", "cli")
RANK = {name: rank for rank, layer in enumerate(LAYERS) for name in layer.split()}


def _package_imports() -> dict:
    """{module: set of names it imports from the package}, read from every
    `from .x import`, `from . import x` and `from tmmcavity.x import` in
    the module's source, at any depth."""
    imports = {}
    for path in sorted(pathlib.Path(tmmcavity.__file__).parent.glob("*.py")):
        names = set()
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom):
                module = node.module or ""
                if node.level == 0:
                    if module != "tmmcavity" and not module.startswith("tmmcavity."):
                        continue
                    module = module[len("tmmcavity."):]
                if module:
                    names.add(module.split(".")[0])
                else:  # `from . import x`: a module or a name of the package root
                    names.update(alias.name for alias in node.names)
            elif isinstance(node, ast.Import):
                names.update(alias.name.split(".")[1] for alias in node.names
                             if alias.name.startswith("tmmcavity."))
        imports[path.stem] = names
    return imports


def test_imports_point_strictly_down_the_layers():
    """Every module has a layer, and none imports from its own layer or
    one above it, so no cycle exists and the engine below `mim` never
    reaches `mim`, `config` or `cli`; besides the layers, a module takes
    only `_g17` and the package's `__version__`, and those only in `cli`."""
    imports = _package_imports()
    assert set(imports) == set(RANK) | {"__init__", "_g17"}
    upward = sorted(f"{module} -> {name}" for module in RANK for name in imports[module]
                    if name in RANK and RANK[name] >= RANK[module])
    assert upward == []
    others = sorted(f"{module} -> {name}" for module in RANK for name in imports[module]
                    if name not in RANK)
    assert others == ["cli -> __version__", "cli -> _g17"]
    assert imports["_g17"] == set()


# What `bench/workloads.py` calls in the package: (module, attribute path).
BENCH_ENTRY_POINTS = (
    ("tmmcavity.mim", "evaluate_chain"),
    ("tmmcavity.statics", "solve_static"),
    ("tmmcavity.statics", "static_force"),
    ("tmmcavity.noise", "attach_loss_modes"),
    ("tmmcavity.noise", "operator_fields"),
    ("tmmcavity.noise", "diffusion"),
    ("tmmcavity", "PumpSpec.one_sided"),
    ("tmmcavity", "Chain"),
    ("tmmcavity", "Scatterer.of"),
    ("tmmcavity", "Segment"),
    ("tmmcavity.cli", "run"),
    ("tmmcavity.config", "load_run_config"),
)


def test_benchmark_entry_points_resolve():
    """Each name the benchmark's workloads call resolves and is callable,
    so a moved name fails here rather than as a failed benchmark run."""
    missing = []
    for module, path in BENCH_ENTRY_POINTS:
        obj = importlib.import_module(module)
        for attr in path.split("."):
            obj = getattr(obj, attr, None)
        if not callable(obj):
            missing.append(f"{module}.{path}")
    assert missing == []
