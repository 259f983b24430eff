"""AST scans: every imported name is used, in the package and its tests,
every private module-level helper of the package has a caller, every
public one has a caller outside the tests or is exported, each name kept
for tests only is a public function no program code calls, and the
package keeps no unbounded function caches and no keys made of object
ids."""

import ast
from collections import Counter
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


_SCOPES = (
    ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp
)


def _locals(scope):
    """Names a function, lambda or comprehension binds itself: its parameters
    and what its own body assigns or defines, less names declared global or
    nonlocal.  An import binds a name to what it imports, so it is left out."""
    bound, declared = set(), set()
    if hasattr(scope, "args"):
        a = scope.args
        bound.update(arg.arg for arg in a.posonlyargs + a.args + a.kwonlyargs + [a.vararg, a.kwarg] if arg)
    todo = list(ast.iter_child_nodes(scope))
    while todo:
        sub = todo.pop()
        if isinstance(sub, ast.Name) and not isinstance(sub.ctx, ast.Load):
            bound.add(sub.id)
        elif isinstance(sub, ast.ExceptHandler) and sub.name:
            bound.add(sub.name)
        elif isinstance(sub, (ast.Global, ast.Nonlocal)):
            declared.update(sub.names)
        if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(sub.name)
        if not isinstance(sub, _SCOPES + (ast.ClassDef,)):
            todo.extend(ast.iter_child_nodes(sub))
    return bound - declared


def _names(node):
    """Counts of every name and attribute referenced under node.  A name that
    a function, lambda or comprehension around it binds as a parameter or
    local is that local, not a reference to a module-level definition."""
    counts = Counter()
    todo = [(node, frozenset())]
    while todo:
        sub, hidden = todo.pop()
        if isinstance(sub, _SCOPES):
            hidden = hidden | _locals(sub)
        if isinstance(sub, ast.Name) and sub.id not in hidden:
            counts[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            counts[sub.attr] += 1
        todo.extend((child, hidden) for child in ast.iter_child_nodes(sub))
    return counts


def _orphans(trees):
    """Module-level private functions and classes that no code outside their
    own definition names."""
    everywhere = sum((_names(tree) for tree in trees.values()), Counter())
    out = []
    for path, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            name = node.name
            if not name.startswith("_") or name.startswith("__"):
                continue
            if everywhere[name] == _names(node)[name]:
                out.append(f"{path.relative_to(ROOT)}:{node.lineno}: {name}")
    return out


def test_no_orphaned_private_helpers():
    paths = sorted((ROOT / "src" / "bangles").rglob("*.py"))
    trees = {path: ast.parse(path.read_text(), str(path)) for path in paths}
    orphans = _orphans(trees)
    assert not orphans, "private helper never referenced:\n" + "\n".join(orphans)


# Public names that only tests call, each kept on purpose.
TEST_ONLY_PUBLIC = {
    "brute_force_sum": "matching-enumeration reference the transfer scan is compared against",
    "gamma_transform": "shear transport law the extended-matrix mutation is compared against",
}


def _test_only_public(package, callers, kept):
    """Problems with the package's public functions and classes, given the
    parsed package modules, every parsed module the program runs (package
    included), and the names kept for tests: a public name nothing outside
    its own definition names, unless exported or kept; and a kept name that
    is no public function of the package, or that the program now calls."""
    everywhere = sum((_names(tree) for tree in callers.values()), Counter())
    exported = set()
    for tree in callers.values():
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
            ):
                exported.update(elt.value for elt in node.value.elts)
    out, public = [], set()
    for path, tree in package.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            name = node.name
            public.add(name)
            uncalled = everywhere[name] == _names(node)[name]
            if name in kept and not uncalled:
                out.append(f"{path}:{node.lineno}: {name} is kept for tests but has a program caller")
            elif uncalled and name not in exported | kept:
                out.append(f"{path}:{node.lineno}: {name} is public but only tests call it")
    out += [f"{name} is kept for tests but is no public function" for name in sorted(kept - public)]
    return out


def test_no_test_only_public_functions():
    package = sorted((ROOT / "src" / "bangles").rglob("*.py"))
    callers = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "perfbench").rglob("*.py"))
    trees = {path: ast.parse(path.read_text(), str(path)) for path in callers}
    problems = _test_only_public(
        {path.relative_to(ROOT): trees[path] for path in package}, trees, TEST_ONLY_PUBLIC.keys()
    )
    assert not problems, "\n".join(problems)


def test_test_only_guard_flags_stale_entries():
    package = {
        "pkg.py": ast.parse(
            "def used(): pass\n"
            "def lonely(): pass\n"
            "def oracle(): pass\n"
            "def adopted(): pass\n"
            "def listed(): pass\n"
            "__all__ = ['listed']\n"
        )
    }
    program = {**package, "cli.py": ast.parse("used()\nadopted()\n")}
    assert _test_only_public(package, program, {"oracle", "adopted", "gone"}) == [
        "pkg.py:2: lonely is public but only tests call it",
        "pkg.py:4: adopted is kept for tests but has a program caller",
        "gone is kept for tests but is no public function",
    ]


def test_test_only_guard_ignores_same_named_locals():
    # shadowed's only "callers" are a parameter, a local, a loop variable, a
    # comprehension variable, a lambda parameter and a nested def of that
    # name; a function-level import of imported is a real caller
    package = {
        "pkg.py": ast.parse(
            "def shadowed(): pass\n"
            "def imported(): pass\n"
            "def user(shadowed):\n"
            "    return shadowed\n"
            "def other():\n"
            "    shadowed = 1\n"
            "    for shadowed in []: pass\n"
            "    f = lambda shadowed: shadowed\n"
            "    def inner():\n"
            "        return shadowed\n"
            "    return [shadowed for shadowed in ()], f, inner\n"
            "def nested():\n"
            "    def shadowed(): pass\n"
            "    return shadowed()\n"
            "def importer():\n"
            "    from pkg import imported\n"
            "    return imported()\n"
        )
    }
    program = {**package, "cli.py": ast.parse("user(1)\nother()\nnested()\nimporter()\n")}
    assert _test_only_public(package, program, set()) == [
        "pkg.py:1: shadowed is public but only tests call it",
    ]


def _function_caches(tree: ast.Module):
    """Lines that import or name functools.lru_cache or functools.cache."""
    banned = {"lru_cache", "cache"}
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            out += [(node.lineno, alias.name) for alias in node.names if alias.name in banned]
        elif (
            isinstance(node, ast.Attribute)
            and node.attr in banned
            and isinstance(node.value, ast.Name)
            and node.value.id == "functools"
        ):
            out.append((node.lineno, f"functools.{node.attr}"))
    return out


def test_no_function_caches():
    """A value is cached on the object that owns it (`cached_property`) or in
    `snakegraph`'s weak map of live graphs, so it is freed with its owner and
    a long sweep's memory stays bounded; a function cache would outlive it."""
    found = []
    for path in sorted((ROOT / "src" / "bangles").rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        found += [f"{path.relative_to(ROOT)}:{line}: {name}" for line, name in _function_caches(tree)]
    assert not found, "function cache in the package:\n" + "\n".join(found)


def test_function_cache_guard_sees_both_spellings():
    src = (
        "import functools\n"
        "from functools import cache, cached_property\n"
        "@functools.lru_cache(8)\n"
        "def f(): pass\n"
    )
    assert _function_caches(ast.parse(src)) == [(2, "cache"), (3, "functools.lru_cache")]


def _id_calls(tree: ast.Module):
    """Lines that call the builtin id()."""
    return sorted(
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "id"
    )


def test_no_id_keys():
    """Caches and dedup keys are keyed by value: an id is reused once its
    object is freed, so an id key can match an object it never saw."""
    found = []
    for path in sorted((ROOT / "src" / "bangles").rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        found += [f"{path.relative_to(ROOT)}:{line}: id(...)" for line in _id_calls(tree)]
    assert not found, "id() call in the package:\n" + "\n".join(found)


def test_id_guard_sees_calls_not_names():
    src = (
        "seen = {id(x) for x in xs}\n"
        "key = (self.id, ident)\n"
        "cache[id(obj)] = obj\n"
    )
    assert _id_calls(ast.parse(src)) == [1, 3]
