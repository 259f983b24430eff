"""AST scan: the arithmetic modules stay exact.  No float literal, no true
division, no float() or round(), and no import of fractions, decimal or
math, so every value they compute is an int or built from ints."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "bangles"
EXACT_MODULES = ("poly", "_polypure", "mutation", "snakegraph", "shear", "harness", "curve", "surface")
BANNED_IMPORTS = {"fractions", "decimal", "math"}


def _inexact(tree: ast.Module):
    """(line, what) for every construct that could bring in a float."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            out.append((node.lineno, f"float literal {node.value!r}"))
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            out.append((node.lineno, "true division /"))
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id in ("float", "round"):
            out.append((node.lineno, f"{node.func.id}() call"))
        elif isinstance(node, ast.Import):
            out += [(node.lineno, f"import {a.name}") for a in node.names if a.name.split(".")[0] in BANNED_IMPORTS]
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] in BANNED_IMPORTS:
            out.append((node.lineno, f"import from {node.module}"))
    return sorted(out)


def test_arithmetic_modules_stay_exact():
    found = []
    for name in EXACT_MODULES:
        path = PACKAGE / f"{name}.py"
        found += [f"{name}.py:{line}: {what}" for line, what in _inexact(ast.parse(path.read_text(), str(path)))]
    assert not found, "inexact arithmetic:\n" + "\n".join(found)


def test_the_scan_sees_each_banned_construct():
    src = "import math\nfrom fractions import Fraction\nx = 1.5\ny = a / b\ny /= 2\nz = round(float(y))\n"
    whats = [what for _, what in _inexact(ast.parse(src))]
    assert whats == [
        "import math",
        "import from fractions",
        "float literal 1.5",
        "true division /",
        "true division /",
        "float() call",
        "round() call",
    ]
