"""Every imported name is used: an AST scan of the package and its tests."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _unused_imports(tree: ast.Module):
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            used.update(elt.value for elt in node.value.elts)
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_no_unused_imports():
    unused = []
    for path in sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "tests").rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        unused += [f"{path.relative_to(ROOT)}:{line}: {name}" for line, name in _unused_imports(tree)]
    assert not unused, "imported but never used:\n" + "\n".join(unused)
