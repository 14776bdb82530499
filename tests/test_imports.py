"""Every module-level import of the package is used by its module, every
module-level _private name (a function, a class or an assigned value) is
used by the package besides its definition, every local a function assigns
is read, every parameter default is overridden by some call, no function
imports a module, and classifying a germ and probing its tail part leave
scipy unloaded.

No linter ships with the package, so this parses each module and fails on
an imported name that the module never references, on a private name that
no other statement of the package references, on a function-local name
that a single-target assignment binds and nothing reads, on a parameter
default that no call in the repository passes (a value with one use is a
constant, not a parameter), or on an import inside a function.  __init__.py
is left out of the import check: its imports are the public re-exports.
scipy is a test-only dependency: a fresh interpreter that imports
swallowkit, then runs classify and tail_probes, must not load it.
"""

import ast
import math
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "swallowkit"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source):
    tree = ast.parse(source)
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_checker_sees_an_unused_import():
    src = "import math\nfrom numpy import pi as p, e\nfrom . import x\nprint(e, x.y)\n"
    assert unused_imports(src) == [(1, "math"), (2, "p")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    assert unused_imports(path.read_text()) == []


def _bound_names(stmt):
    """The names a module-level statement binds: a def or class, or the
    plain names an assignment targets."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return {stmt.name}
    if isinstance(stmt, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
        targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
        return {n.id for t in targets for n in ast.walk(t)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)}
    return set()


def _referenced_names(stmt):
    """The names a statement reads, as a name, an attribute or an import."""
    used = set()
    for n in ast.walk(stmt):
        if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store):
            used.add(n.id)
        elif isinstance(n, ast.Attribute):
            used.add(n.attr)
        elif isinstance(n, ast.alias):
            used.add(n.name)
    return used


def dead_private_helpers(sources):
    """(module, name) of each module-level _private name (not a dunder) of
    the modules {name: source}, a function, a class or an assigned value,
    that no statement of them references besides the one that defines it."""
    defined, used = [], {}
    for mod, src in sources.items():
        for k, stmt in enumerate(ast.parse(src).body):
            defined += [(mod, k, name) for name in _bound_names(stmt)
                        if name.startswith("_") and not name.startswith("__")]
            used[mod, k] = _referenced_names(stmt)
    return sorted((mod, name) for mod, k, name in defined
                  if not any(name in names for at, names in used.items() if at != (mod, k)))


def test_checker_sees_a_dead_helper():
    sources = {"a": "def _dead():\n    pass\n\n\ndef _used():\n    pass\n\n\n"
                    "class _Gone:\n    pass\n",
               "b": "from .a import _used\n\n\ndef f(m):\n    return _used(), m._kept\n\n\n"
                    "def _kept():\n    pass\n"}
    assert dead_private_helpers(sources) == [("a", "_Gone"), ("a", "_dead")]


def test_checker_sees_an_unused_private_name():
    """An assigned value counts as a definition, and neither a write to it,
    nor a read in the statement that defines it (a recursion), nor a dunder
    counts as a use."""
    sources = {"a": "_TABLE = {}\n_LIMIT: int = 3\n_X, _Y = 1, 2\n_COUNT = 0\n__all__ = []\n\n\n"
                    "def _walk(n):\n    return _walk(n - 1) if n else _Y\n\n\n"
                    "def f():\n    global _COUNT\n    _COUNT += 1\n    return _TABLE\n",
               "b": "from .a import _LIMIT\n"}
    assert dead_private_helpers(sources) == [("a", "_COUNT"), ("a", "_X"), ("a", "_walk")]


def test_no_dead_private_helpers():
    sources = {p.name: p.read_text() for p in SRC.glob("*.py")}
    assert dead_private_helpers(sources) == []


def dead_locals(source):
    """(function, name) of each name a function binds by a single-target
    assignment `name = ...` and that nothing in the function, its nested
    functions included, reads; global and nonlocal names are not locals."""
    found = set()

    def visit(scope):
        """The names read in scope and the scopes it holds; records the dead
        locals of scope if it is a function."""
        bound, read, declared = set(), set(), set()
        todo = list(ast.iter_child_nodes(scope))
        while todo:
            n = todo.pop()
            if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                read |= visit(n)
                continue
            if isinstance(n, ast.Assign) and len(n.targets) == 1 \
                    and isinstance(n.targets[0], ast.Name):
                bound.add(n.targets[0].id)
            elif isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                read.add(n.id)
            elif isinstance(n, ast.AugAssign) and isinstance(n.target, ast.Name):
                read.add(n.target.id)
            elif isinstance(n, (ast.Global, ast.Nonlocal)):
                declared.update(n.names)
            todo.extend(ast.iter_child_nodes(n))
        if isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef)):
            found.update((scope.name, name) for name in bound - read - declared)
        return read

    visit(ast.parse(source))
    return sorted(found)


def test_checker_sees_a_dead_local():
    src = ("def f(x):\n    a = x + 1\n    b, c = x, 2\n    d = e = 3\n    k = 4\n"
           "    n = 0\n    n += 1\n\n    def g():\n        nonlocal k\n        k = 5\n"
           "        z = k\n    return g\n")
    assert dead_locals(src) == [("f", "a"), ("g", "z")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_dead_locals(path):
    assert dead_locals(path.read_text()) == []


def parameter_defaults(source):
    """(callable, parameter, position) of each parameter default of the
    functions in source; position is None for a keyword-only parameter.  A
    method's positions leave out self or cls, and __init__ goes by the name
    of its class, which is the name its callers call."""
    found = []

    def visit(node, cls):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, child.name)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = child.args
                pos = args.posonlyargs + args.args
                if cls is not None and not any(getattr(d, "id", None) == "staticmethod"
                                               for d in child.decorator_list):
                    pos = pos[1:]
                name = cls if cls is not None and child.name == "__init__" else child.name
                first = len(pos) - len(args.defaults)
                found.extend((name, p.arg, first + i) for i, p in enumerate(pos[first:]))
                found.extend((name, p.arg, None)
                             for p, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None)
                visit(child, None)
            else:
                visit(child, cls)

    visit(ast.parse(source), None)
    return found


def unpassed_defaults(defining, calling):
    """(module, callable, parameter) of each parameter default of the modules
    {name: source} of defining that no call in the sources calling passes, by
    keyword or by position.  A call is matched by the name it calls (f(...)
    or x.f(...)); a call with *args passes every position, one with
    **kwargs every keyword."""
    calls = {}
    for src in calling:
        for n in ast.walk(ast.parse(src)):
            if isinstance(n, ast.Call):
                name = getattr(n.func, "id", None) or getattr(n.func, "attr", None)
                npos = math.inf if any(isinstance(a, ast.Starred) for a in n.args) else len(n.args)
                calls.setdefault(name, []).append((npos, {k.arg for k in n.keywords}))
    return sorted((mod, name, param)
                  for mod, src in defining.items()
                  for name, param, pos in parameter_defaults(src)
                  if not any(param in kws or None in kws or (pos is not None and npos > pos)
                             for npos, kws in calls.get(name, ())))


def test_checker_sees_a_default_without_a_caller():
    defining = {"a": "def f(x, y=1, *, z=2):\n    pass\n\n\n"
                     "def g(s=3, *, t=4):\n    pass\n\n\n"
                     "class C:\n    def __init__(self, p=0, q=1):\n        pass\n\n"
                     "    def m(self, r=2, w=5):\n        pass\n\n"
                     "    @staticmethod\n    def k(e=6):\n        pass\n"}
    calling = ["f(0, 1)\nC(q=1)\nobj.m(5)\nC.k(0)\ng(*a)\ng(**kw)\n"]
    assert unpassed_defaults(defining, calling) == [("a", "C", "p"), ("a", "f", "z"),
                                                    ("a", "m", "w")]


def test_every_parameter_default_has_a_caller():
    """Every default of the package is overridden by some call in src,
    tests, tools or perfbench."""
    calling = [p.read_text() for d in ("src", "tests", "tools", "perfbench")
               for p in sorted((ROOT / d).rglob("*.py"))]
    defining = {p.name: p.read_text() for p in SRC.glob("*.py")}
    assert unpassed_defaults(defining, calling) == []


def function_level_imports(source):
    """(function, module) of each import inside a function, named by the
    innermost function that holds it."""
    found = []

    def visit(node, fn):
        for child in ast.iter_child_nodes(node):
            if fn is not None and isinstance(child, ast.Import):
                found.extend((fn, alias.name) for alias in child.names)
            elif fn is not None and isinstance(child, ast.ImportFrom):
                found.append((fn, "." * child.level + (child.module or "")))
            inner = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, child.name if inner else fn)

    visit(ast.parse(source), None)
    return sorted(found)


def test_checker_sees_a_function_level_import():
    src = ("import os\n\n\ndef f():\n    import math\n\n    def g():\n"
           "        from . import x\n    return g\n\n\nclass C:\n"
           "    def m(self):\n        from .a import b\n")
    assert function_level_imports(src) == [("f", "math"), ("g", "."), ("m", ".a")]


def test_no_function_level_imports():
    found = [(p.name,) + imp for p in sorted(SRC.glob("*.py"))
             for imp in function_level_imports(p.read_text())]
    assert found == []


def test_classify_and_tail_probes_leave_scipy_unloaded():
    """In a fresh interpreter, since the test modules import scipy."""
    code = ("import sys\n"
            "import swallowkit\n"
            "from swallowkit import frontal\n"
            "from swallowkit.builder import SwallowtailData, build\n"
            "g = build(SwallowtailData(xi=('2', '3*u', '0'), b=('0', '0', '1')))\n"
            "assert frontal.classify(g).is_swallowtail\n"
            "assert len(frontal.tail_probes(g, n=20)) == 20\n"
            "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC.parent)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


def test_no_memo_keyed_by_array_bytes():
    """No array entry outlives the outermost array call (fields module
    docstring): after classify of a germ extracted twice, which reads it
    at array points, and after an array call that raises inside a nested
    one, the scope of shared array points is closed and every JetFn memo
    holds scalar points (u, v) only."""
    import gc

    import numpy as np

    from swallowkit import fields
    from swallowkit.builder import SwallowtailData, build, extract_data
    from swallowkit.frontal import classify
    from swallowkit.jets import Jet2, JetError

    germ = build(SwallowtailData(xi=("2", "3*u", "0"), b=("0", "0", "1")))
    assert classify(build(extract_data(build(extract_data(germ))))).is_swallowtail

    def fails(u, v, order):
        inner.jet(u, v, order)
        raise JetError("fails after a nested array call")

    inner = fields.JetFn(lambda u, v, order: Jet2.variable("u", u, order, np.shape(u)))
    with pytest.raises(JetError):
        fields.JetFn(fails).jet(np.array([0.1, 0.2]), 0.0, 2)
    assert fields._SCOPE.entries is None
    memos = [o._memo._d for o in gc.get_objects() if isinstance(o, fields.JetFn)]
    assert memos and any(memos)
    assert all(type(k) is tuple and len(k) == 2 and all(type(x) is float for x in k)
               for d in memos for k in d)
