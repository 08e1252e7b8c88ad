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
