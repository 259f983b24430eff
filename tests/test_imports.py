"""AST scans: every imported name is used, in the package and its tests,
every private module-level helper of the package has a caller, every
public one has a caller outside the tests or is exported, every default
of a public function is both passed and left out by the program, the
tests' oracles import nothing private of the package, the package keeps
no unbounded function caches and no keys made of object ids, it never
reads `.transportable`, no harness `except` skips anything but a
TransportError silently, and it
imports neither `dataclasses` nor `array`; a subprocess checks that
importing the CLI loads neither, nor `inspect`."""

import ast
import os
import re
import subprocess
import sys
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


def _references(node):
    """(name, node) for every name referenced under node, and for every
    attribute read off a name that an import under node binds (`mod.f`,
    not `obj.f`).  A name that a function, lambda or comprehension around
    it binds as a parameter or local is that local, not a reference to a
    module-level definition or a module."""
    modules = {
        alias.asname or alias.name.split(".")[0]
        for sub in ast.walk(node)
        if isinstance(sub, (ast.Import, ast.ImportFrom))
        for alias in sub.names
    }
    todo = [(node, frozenset())]
    while todo:
        sub, hidden = todo.pop()
        if isinstance(sub, _SCOPES):
            hidden = hidden | _locals(sub)
        if isinstance(sub, ast.Name) and sub.id not in hidden:
            yield sub.id, sub
        elif isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name):
            if sub.value.id in modules - hidden:
                yield sub.attr, sub
        todo.extend((child, hidden) for child in ast.iter_child_nodes(sub))


def _names(node):
    """Counts of the names `_references` finds under node."""
    return Counter(name for name, _ in _references(node))


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


def _test_only_public(package, callers):
    """The package's public functions and classes that nothing outside their
    own definition names and no `__all__` exports, given the parsed package
    modules and every parsed module the program runs (package included)."""
    everywhere = sum((_names(tree) for tree in callers.values()), Counter())
    exported = set()
    for tree in callers.values():
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
            ):
                exported.update(elt.value for elt in node.value.elts)
    out = []
    for path, tree in package.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            name = node.name
            if everywhere[name] == _names(node)[name] and name not in exported:
                out.append(f"{path}:{node.lineno}: {name} is public but only tests call it")
    return out


def test_no_test_only_public_functions():
    package = sorted((ROOT / "src" / "bangles").rglob("*.py"))
    callers = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "perfbench").rglob("*.py"))
    trees = {path: ast.parse(path.read_text(), str(path)) for path in callers}
    problems = _test_only_public({path.relative_to(ROOT): trees[path] for path in package}, trees)
    assert not problems, "\n".join(problems)


def test_test_only_guard_ignores_same_named_locals():
    # shadowed's only "callers" are a parameter, a local, a loop variable, a
    # comprehension variable, a lambda parameter, a nested def of that name
    # and an attribute of a parameter (obj.shadowed); a function-level
    # import of imported is a real caller, and so is mod.moduled with mod an
    # imported module; listed is exported
    package = {
        "pkg.py": ast.parse(
            "def shadowed(): pass\n"
            "def imported(): pass\n"
            "def moduled(): pass\n"
            "def listed(): pass\n"
            "__all__ = ['listed']\n"
            "def user(shadowed, obj):\n"
            "    return shadowed, obj.shadowed\n"
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
    program = {
        **package,
        "cli.py": ast.parse("import pkg as mod\nuser(1, 2)\nother()\nnested()\nimporter()\nmod.moduled()\n"),
    }
    assert _test_only_public(package, program) == [
        "pkg.py:1: shadowed is public but only tests call it",
    ]


def _defaults(fn):
    """{parameter with a default: its position, or None if keyword-only}."""
    a = fn.args
    positional = a.posonlyargs + a.args
    out = {arg.arg: i for i, arg in enumerate(positional) if i >= len(positional) - len(a.defaults)}
    out.update((arg.arg, None) for arg, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None)
    return out


def _one_way_defaults(package, callers, exempt=()):
    """Defaults of the package's public module-level functions that the
    program's calls do not both pass and leave out, given the parsed
    package modules, every parsed module the program runs (package
    included) and (path, name) pairs to skip.  A call is resolved by name,
    as `_references` resolves it.  A reference that is not the callee of a
    call (a dict value, a callback) and a call with `*` or `**` arguments
    may do either, so they count as both."""
    funcs = {
        node.name: (path, node)
        for path, tree in package.items()
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_") and (path, node.name) not in exempt
    }
    ways = {name: {param: set() for param in _defaults(node)} for name, (_, node) in funcs.items()}
    for tree in callers.values():
        call_of = {n.func: n for n in ast.walk(tree) if isinstance(n, ast.Call)}
        for name, ref in _references(tree):
            if not ways.get(name):
                continue
            call = call_of.get(ref)
            unknown = call is None or any(isinstance(x, ast.Starred) for x in call.args)
            unknown = unknown or any(kw.arg is None for kw in call.keywords)
            for param, pos in _defaults(funcs[name][1]).items():
                if unknown:
                    ways[name][param] |= {True, False}
                else:
                    by_keyword = param in {kw.arg for kw in call.keywords}
                    ways[name][param].add(by_keyword or (pos is not None and pos < len(call.args)))
    out = []
    for name, (path, node) in funcs.items():
        for param, seen in ways[name].items():
            if seen != {True, False}:
                how = "always passed" if seen == {True} else "never passed"
                out.append(f"{path}:{node.lineno}: {name}({param}) is {how}")
    return out


def _entry_point():
    """(path, function) of the console script that pyproject.toml names,
    read as text (`tomllib` needs Python 3.11)."""
    text = (ROOT / "pyproject.toml").read_text()
    section = text.split("[project.scripts]", 1)[1].split("\n[", 1)[0]
    module, func = re.search(r'=\s*"([\w.]+):(\w+)"', section).groups()
    return Path("src", *module.split(".")).with_suffix(".py"), func


def test_every_default_is_both_passed_and_left_out():
    """A default that every call passes is a required parameter in
    disguise, and one no call passes is a constant: either way a reader
    of the signature is told about a choice the program never makes."""
    paths = sorted((ROOT / "src" / "bangles").rglob("*.py"))
    callers = paths + sorted((ROOT / "perfbench").glob("*.py"))
    trees = {path.relative_to(ROOT): ast.parse(path.read_text(), str(path)) for path in callers}
    package = {path.relative_to(ROOT): trees[path.relative_to(ROOT)] for path in paths}
    problems = _one_way_defaults(package, trees, {_entry_point()})
    assert not problems, "\n".join(problems)


def test_default_guard_resolves_calls_like_the_other_guards():
    package = {
        "pkg.py": ast.parse(
            "def both(a, b=1): pass\n"
            "def always(a, b=1): pass\n"
            "def never(a, b=1, *, c=2): pass\n"
            "def keyword(a, *, b=1): pass\n"
            "def callback(a=1): pass\n"
            "def starred(a=1): pass\n"
            "def shadowed(a=1): pass\n"
            "def entry(argv=None): pass\n"
            "def _private(a=1): pass\n"
            "def plain(a): pass\n"
        )
    }
    program = {
        **package,
        "cli.py": ast.parse(
            "import pkg as mod\n"
            "both(1)\n"
            "mod.both(1, 2)\n"
            "always(1, 2)\n"
            "always(1, b=2)\n"
            "never(1)\n"
            "keyword(1)\n"
            "keyword(1, b=2)\n"
            "table = {'f': callback}\n"
            "callback(1)\n"
            "starred(*args)\n"
            "def user(shadowed):\n"
            "    return shadowed(2)\n"
            "shadowed()\n"
            "entry()\n"
            "_private()\n"
            "plain(1)\n"
        ),
    }
    assert _one_way_defaults(package, program, {("pkg.py", "entry")}) == [
        "pkg.py:2: always(b) is always passed",
        "pkg.py:3: never(b) is never passed",
        "pkg.py:3: never(c) is never passed",
        "pkg.py:7: shadowed(a) is never passed",
    ]


def _private_imports(tree: ast.Module):
    """Lines that import a `_`-prefixed module or name of the package."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module:
            names = [f"{node.module}.{alias.name}" for alias in node.names]
        elif isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        else:
            continue
        out += [(node.lineno, name) for name in names if name.startswith("bangles.") and "._" in name]
    return out


def test_oracles_import_nothing_private():
    """The tests' oracles reach the package only through its public names,
    so they cannot share the private code they check (the monkeypatch test
    in `test_snakegraph` checks the calls, this the imports)."""
    tree = ast.parse((ROOT / "tests" / "oracles.py").read_text())
    assert _private_imports(tree) == []


def test_private_import_guard_sees_every_spelling():
    src = (
        "import bangles._polypure\n"
        "from bangles import _polypure, surface\n"
        "from bangles.snakegraph import _scan, build_band_graph\n"
        "from bangles._polypure import columns\n"
        "from collections import _private\n"
    )
    assert _private_imports(ast.parse(src)) == [
        (1, "bangles._polypure"),
        (2, "bangles._polypure"),
        (3, "bangles.snakegraph._scan"),
        (4, "bangles._polypure.columns"),
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


def _transportable_reads(tree: ast.Module):
    """Lines that read or set the attribute `transportable`, as `x.transportable`
    or as getattr(x, "transportable")."""
    return sorted(
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and node.attr == "transportable"
        or isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "getattr"
        and any(isinstance(a, ast.Constant) and a.value == "transportable" for a in node.args[1:2])
    )


def test_no_transportable_reads():
    """`flip` alone decides whether curves can follow a flip, by handing
    out no quad for one they cannot; `QuadRecord.transportable` is always
    True and is kept only for the benchmark, so the package never reads it."""
    found = []
    for path in sorted((ROOT / "src" / "bangles").rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        found += [f"{path.relative_to(ROOT)}:{line}" for line in _transportable_reads(tree)]
    assert not found, "reads of .transportable in the package:\n" + "\n".join(found)


def test_transportable_guard_sees_both_spellings():
    src = (
        "ok = q.transportable\n"
        "transportable = True\n"
        "ok = getattr(q, 'transportable')\n"
        "ok = getattr(q, 'arc')\n"
        "ok = res.quad.transportable and k\n"
    )
    assert _transportable_reads(ast.parse(src)) == [1, 3, 5]


def _silent_handlers(tree: ast.Module):
    """Lines of `except` handlers that neither catch exactly `TransportError`
    nor call `_error_report` to add a failing report."""
    out = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ExceptHandler):
            continue
        if isinstance(node.type, ast.Name) and node.type.id == "TransportError":
            continue
        calls = [n.func for n in ast.walk(node) if isinstance(n, ast.Call)]
        if not any(isinstance(f, ast.Name) and f.id == "_error_report" for f in calls):
            out.append(node.lineno)
    return out


def test_sweeps_skip_nothing_but_transport_errors():
    """A sweep skips exactly the flips the walker skips, those that raise
    TransportError; any other error it catches becomes a failing report,
    so a check that cannot run fails instead of vanishing."""
    path = ROOT / "src" / "bangles" / "harness.py"
    lines = _silent_handlers(ast.parse(path.read_text(), str(path)))
    assert not lines, f"harness.py: except handlers that skip silently at lines {lines}"


def test_silent_skip_guard_sees_every_spelling():
    src = (
        "try: f()\nexcept TransportError: continue\n"
        "try: f()\nexcept (TransportError, ShearError): pass\n"
        "try: f()\nexcept ShearError: continue\n"
        "try: f()\nexcept Exception as e: out.append(_error_report(c, i, e))\n"
        "try: f()\nexcept Exception as e: out.extend(_error_report(c, i, e) for i in ids)\n"
        "try: f()\nexcept: pass\n"
        "try: f()\nexcept curve.TransportError: pass\n"
        "try: f()\nexcept Exception as e: log(error_report(e))\n"
    )
    assert _silent_handlers(ast.parse(src)) == [4, 6, 12, 14, 16]


# Every `bangles` command starts a fresh interpreter, so what the package
# imports is paid on every run: `dataclasses` pulls in `inspect`, `ast`,
# `dis` and `tokenize`, and `array` is an extension module of its own.
HEAVY_IMPORTS = ("dataclasses", "array")


def _heavy_imports(tree: ast.Module):
    """(line, module) for every absolute import of a `HEAVY_IMPORTS` module."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out += [(node.lineno, a.name) for a in node.names if a.name.split(".")[0] in HEAVY_IMPORTS]
        elif isinstance(node, ast.ImportFrom) and not node.level and node.module.split(".")[0] in HEAVY_IMPORTS:
            out.append((node.lineno, node.module))
    return out


def test_package_imports_no_dataclasses_or_array():
    found = []
    for path in sorted((ROOT / "src" / "bangles").rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        found += [f"{path.relative_to(ROOT)}:{line}: {name}" for line, name in _heavy_imports(tree)]
    assert not found, "heavy import in the package:\n" + "\n".join(found)


def test_heavy_import_guard_sees_every_spelling():
    src = (
        "import dataclasses\n"
        "from array import array\n"
        "import os, array as arr\n"
        "def f():\n"
        "    from dataclasses import replace\n"
        "from .array import columns\n"
        "import arrays\n"
    )
    assert _heavy_imports(ast.parse(src)) == [(1, "dataclasses"), (2, "array"), (3, "array"), (5, "dataclasses")]


def test_cli_import_loads_no_heavy_modules():
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import bangles.cli\n"
        "print(' '.join(sorted(set(sys.modules) - before)))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True).stdout
    added = set(out.split())
    assert "bangles.cli" in added
    assert added.isdisjoint({"dataclasses", "inspect", "array"}), sorted(added & {"dataclasses", "inspect", "array"})
