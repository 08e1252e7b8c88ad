"""Every package module uses each name it imports.

A stdlib-ast stand-in for a linter's unused-import rule, so that folding
one routine into another cannot leave a dead import behind.
"""

import ast
from pathlib import Path

import grkoszul

PACKAGE_DIR = Path(grkoszul.__file__).parent


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, bound name) of each import whose name the module never reads."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(node.lineno, (a.asname or a.name).split(".")[0])
                         for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [(node.lineno, a.asname or a.name) for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [(line, name) for line, name in imported if name not in used]


def test_detector_flags_only_unread_names():
    source = ("from __future__ import annotations\n"
              "import os.path\n"
              "from a import b, c as d\n"
              "print(os, d)\n")
    assert unused_imports(source) == [(3, "b")]


def test_no_module_imports_a_name_it_never_uses():
    modules = sorted(PACKAGE_DIR.glob("*.py"))
    assert len(modules) >= 10
    found = [
        f"{path.name}:{line}: {name}"
        for path in modules
        for line, name in unused_imports(path.read_text())
    ]
    assert found == []


# The paper's two gr# constructions: the README advertises them as entry
# points, though no command calls them.  `Representation.action`, the dense
# view of a module's columns, is read by the benchmark's tracer, which keys
# modules by it.
ADVERTISED_ENTRY_POINTS = {"gr_sharp", "gr_of_surjection", "Representation.action"}


def unreferenced_functions(sources: dict[str, str]) -> list[str]:
    """module:name of each public module-level function that no module reads,
    neither by name nor as an attribute, and module:Class.name of each public
    method or property of a module-level class that no module reads as an
    attribute."""
    defined, names, attributes = [], set(), set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                defined.append((module, node.name, node.name, False))
            elif isinstance(node, ast.ClassDef):
                defined += [(module, f"{node.name}.{item.name}", item.name, True)
                            for item in node.body if isinstance(item, ast.FunctionDef)]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
    return [f"{module}:{qualified}" for module, qualified, name, method in defined
            if not name.startswith("_") and name not in attributes
            and (method or name not in names)]


def test_function_detector_flags_only_unread_functions():
    sources = {"a.py": "def f():\n    return g()\n\ndef g():\n    pass\n\ndef _h():\n    pass\n",
               "b.py": "import a\n\ndef k():\n    return a.f\n\ndef unused():\n    pass\n"}
    assert unreferenced_functions(sources) == ["b.py:k", "b.py:unused"]


def test_method_detector_flags_only_unread_methods_and_properties():
    source = ("class C:\n"
              "    def __init__(self):\n        self.used()\n"
              "    def used(self):\n        return self.shown\n"
              "    @property\n    def shown(self):\n        pass\n"
              "    @property\n    def hidden(self):\n        pass\n"
              "    def unused(self):\n        pass\n"
              "    def _private(self):\n        pass\n"
              "C()\nunused = 1\n")
    assert unreferenced_functions({"c.py": source}) == ["c.py:C.hidden", "c.py:C.unused"]


def test_every_public_function_is_called_in_the_package():
    sources = {path.name: path.read_text() for path in sorted(PACKAGE_DIR.glob("*.py"))}
    found = unreferenced_functions(sources)
    assert sorted(name.split(":")[1] for name in found) == sorted(ADVERTISED_ENTRY_POINTS)


# Defaulted parameters that no package call sets, each kept on purpose.
OPTIONAL_PARAMETER_EXEMPTIONS = {
    # the entry point: perfbench and the tests drive it with an explicit argv
    "cli.py:main(argv)",
    # the benchmark's tracer builds matrices with an explicit column count
    "exactlin.py:MatrixExact.__init__(ncols)",
    # ROADMAP item 5 decides whether the subalgebra comparison and the
    # graded surjection stay
    "rep_homology.py:gr_ext1_compare(sub)",
    "rep_homology.py:gr_of_surjection(graded)",
}


def _decorators(node) -> set:
    """The names a definition is decorated with, `@dataclass(frozen=True)`
    and `@functools.cache` giving dataclass and cache."""
    targets = [d.func if isinstance(d, ast.Call) else d for d in node.decorator_list]
    return {t.id if isinstance(t, ast.Name) else getattr(t, "attr", None) for t in targets}


def _init_field(item) -> bool:
    """An annotated class attribute that a dataclass's __init__ takes."""
    value = item.value
    return not (isinstance(value, ast.Call) and any(
        kw.arg == "init" and isinstance(kw.value, ast.Constant) and kw.value.value is False
        for kw in value.keywords))


def optional_parameters(sources: dict[str, str]) -> dict[str, bool]:
    """module:qualname(param) of each defaulted parameter of a function,
    method or constructor, mapped to whether some call in the sources sets
    it.

    Calls are matched by name: f(...) and x.f(...) reach every function or
    method called f, and C(...) reaches C's __init__, for a dataclass its
    fields.  An argument that passes the caller's own same-named parameter
    straight through sets the callee's only if the caller's is required or
    is itself set somewhere."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    callees: dict[str, list] = {}  # called name -> [(label, positional names, skipped)]
    optional: set[tuple[str, str]] = set()
    labels: dict[ast.AST, str] = {}

    def define(body, module, prefix, cls=None):
        for node in body:
            if isinstance(node, ast.FunctionDef):
                label = labels[node] = f"{module}:{prefix}{node.name}"
                a = node.args
                positional = [x.arg for x in a.posonlyargs + a.args]
                optional.update((label, p) for p in positional[len(positional) - len(a.defaults):])
                optional.update((label, kw.arg) for kw, d in zip(a.kwonlyargs, a.kw_defaults)
                                if d is not None)
                method = cls is not None and "staticmethod" not in _decorators(node)
                name = cls if method and node.name == "__init__" else node.name
                callees.setdefault(name, []).append((label, positional, int(method)))
                define(node.body, module, f"{prefix}{node.name}.")
            elif isinstance(node, ast.ClassDef):
                if "dataclass" in _decorators(node):
                    fields = [item for item in node.body if isinstance(item, ast.AnnAssign)
                              and isinstance(item.target, ast.Name) and _init_field(item)]
                    init = f"{module}:{prefix}{node.name}.__init__"
                    optional.update((init, f.target.id) for f in fields if f.value is not None)
                    callees.setdefault(node.name, []).append(
                        (init, [f.target.id for f in fields], 0))
                define(node.body, module, f"{prefix}{node.name}.", node.name)

    for module, tree in trees.items():
        define(tree.body, module, "")

    settings: set[tuple[str, str]] = set()
    passed_through: list[tuple[tuple[str, str], tuple[str, str]]] = []  # (caller's, callee's)

    def visit(node, scope):
        if isinstance(node, ast.FunctionDef):
            scope = scope + [node]
        elif isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            for label, positional, skipped in callees.get(name, []):
                given = list(zip(positional[skipped:], node.args))
                given += [(kw.arg, kw.value) for kw in node.keywords if kw.arg]
                for param, value in given:
                    owner = next((f for f in reversed(scope) if param in _parameters(f)), None)
                    if (isinstance(value, ast.Name) and value.id == param
                            and owner is not None):
                        passed_through.append(((labels[owner], param), (label, param)))
                    else:
                        settings.add((label, param))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    for tree in trees.values():
        visit(tree, [])
    grown = True
    while grown:
        grown = False
        for caller, callee in passed_through:
            if callee not in settings and (caller not in optional or caller in settings):
                settings.add(callee)
                grown = True
    return {f"{label}({param})": (label, param) in settings for label, param in sorted(optional)}


def unset_optional_parameters(sources: dict[str, str]) -> list[str]:
    return [name for name, is_set in optional_parameters(sources).items() if not is_set]


def _parameters(func: ast.FunctionDef) -> set:
    a = func.args
    return {x.arg for x in a.posonlyargs + a.args + a.kwonlyargs}


def test_optional_parameter_detector_flags_only_unset_defaults():
    source = ("from dataclasses import dataclass, field\n"
              "def f(a, b=1, *, c=2):\n    return g(a, b) + g(a, c=c)\n"
              "def g(a, b=0, c=0):\n    return h(b) + h(c)\n"
              "def h(b=0, c=3):\n    return k(c)\n"
              "def k(c=0):\n    return c\n"
              "class C:\n"
              "    def __init__(self, x=0, y=0):\n        self.m(1)\n"
              "    def m(self, u, v=0):\n        pass\n"
              "def j(x):\n    return C(x=x)\n"
              "@dataclass\nclass D:\n"
              "    a: int\n    b: int = 0\n    c: int = 1\n"
              "    d: dict = field(default_factory=dict, init=False)\n"
              "f(1)\nC(y=2)\nD(1, 2)\n")
    # f's b and c are never set, so passing them on sets neither g(b) nor
    # g(c), nor h(c) on to k(c); h(c) in g passes g's c as h's b, which sets
    # it, and h's own c no call sets.  j passes its required x on, which
    # sets C's.  C(...) reaches __init__ past self, as self.m(1) reaches m,
    # and D's init=False field is no parameter
    assert unset_optional_parameters({"m.py": source}) == [
        "m.py:C.m(v)", "m.py:D.__init__(c)", "m.py:f(b)", "m.py:f(c)",
        "m.py:g(b)", "m.py:g(c)", "m.py:h(c)", "m.py:k(c)"]


def test_every_optional_parameter_is_set_in_the_package():
    sources = {path.name: path.read_text() for path in sorted(PACKAGE_DIR.glob("*.py"))}
    assert unset_optional_parameters(sources) == sorted(OPTIONAL_PARAMETER_EXEMPTIONS)
