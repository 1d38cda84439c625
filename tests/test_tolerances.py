"""Every `pytest.approx` in the suite states its absolute tolerance.

approx's default absolute tolerance of 1e-12 silently outweighs `rel` for
small quantities: a friction of ~4e-17 N s/m checked "at rel 1e-10" would
pass for any value within 1e-12.  So each call gives `abs` explicitly:
`abs=0` to let `rel` alone decide, or a scale of the quantity.
"""

import ast
import pathlib

TESTS = pathlib.Path(__file__).parent


def test_every_approx_call_sets_abs():
    missing = []
    for path in sorted(TESTS.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name == "approx" and not any(k.arg == "abs" for k in node.keywords):
                missing.append(f"{path.name}:{node.lineno}")
    assert missing == []
