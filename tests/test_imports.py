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
