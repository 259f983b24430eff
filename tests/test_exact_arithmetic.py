"""AST scan: the arithmetic modules stay exact.  No float literal, no true
division, no power (`**` or `pow`: an int to a negative int is a float),
no float() or round(), no import of fractions, decimal or math, and no
`array` or `.cast` but to signed ints, so every value they compute is an
int or built from ints."""

import ast
from pathlib import Path

import pytest

from bangles import _polypure

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "bangles"
EXACT_MODULES = ("poly", "_polypure", "mutation", "snakegraph", "shear", "harness", "curve", "surface")
BANNED_IMPORTS = {"fractions", "decimal", "math"}
SIGNED_TYPECODES = {"b", "h", "i", "q"}


def _typecodes(tree: ast.Module, code):
    """The typecodes an `array` or `.cast` typecode argument can be: a
    string literal, or a subscript of a module-level dict literal, any of
    its values; None stands for one the scan cannot read."""
    if isinstance(code, ast.Constant):
        return {code.value}
    if isinstance(code, ast.Subscript) and isinstance(code.value, ast.Name):
        for node in tree.body:
            if isinstance(node, ast.Assign) and isinstance(node.value, ast.Dict):
                if any(isinstance(t, ast.Name) and t.id == code.value.id for t in node.targets):
                    return {v.value if isinstance(v, ast.Constant) else None for v in node.value.values}
    return {None}


def _inexact(tree: ast.Module):
    """(line, what) for every construct that could bring in a float."""
    out = []
    for node in ast.walk(tree):
        called = isinstance(node, ast.Call) and getattr(node.func, "id", getattr(node.func, "attr", None))
        if called in ("array", "cast"):
            codes = _typecodes(tree, node.args[0] if node.args else None)
            out += [(node.lineno, f"{called} typecode {c!r}") for c in sorted(codes - SIGNED_TYPECODES, key=repr)]
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            out.append((node.lineno, f"float literal {node.value!r}"))
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            out.append((node.lineno, "true division /"))
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Pow):
            out.append((node.lineno, "power **"))
        elif called == "pow":
            out.append((node.lineno, "pow() call"))
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
    src = (
        "import math\nfrom fractions import Fraction\nx = 1.5\ny = a / b\ny /= 2\nz = round(float(y))\n"
        "CODES = {8: 'b', 32: 'f'}\n"
        "array('d', x)\narray.array('q', x)\narray(CODES[w], x)\narray(code, x)\n"
        "memoryview(x).cast('B')\nmemoryview(x).cast('d')\nview.cast('q')\nview.cast(CODES[w])\n"
        "p = 2 ** e\np **= 2\nq = pow(2, e)\nr = operator.pow(2, e)\n"
    )
    whats = [what for _, what in _inexact(ast.parse(src))]
    assert whats == [
        "import math",
        "import from fractions",
        "float literal 1.5",
        "true division /",
        "true division /",
        "float() call",
        "round() call",
        "array typecode 'd'",
        "array typecode 'f'",
        "array typecode None",
        "cast typecode 'B'",
        "cast typecode 'd'",
        "cast typecode 'f'",
        "power **",
        "power **",
        "pow() call",
        "pow() call",
    ]


@pytest.mark.parametrize("width, code", sorted(_polypure._TYPECODES.items()))
def test_each_field_width_has_a_typecode_that_wide(width, code):
    assert memoryview(bytes(8)).cast(code).itemsize * 8 == width
