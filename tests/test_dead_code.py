"""Delete what nothing calls: every module-level function and class of
the package, and every method of such a class other than a dunder, is
used somewhere in it.

A definition counts as used when some ``Name`` or ``Attribute`` node of
any package module names it, or a ``from ... import`` brings it in; the
re-exports of ``orbitcat/__init__.py`` are such imports.  A method counts
by its bare name, so it is used when any attribute of that name is read.
A name that only tests call is dead code kept alive by its tests, and
fails here.
"""

import ast
from pathlib import Path

import orbitcat

PACKAGE = Path(orbitcat.__file__).parent


def unused_definitions(package: Path) -> list:
    defined, used = [], set()
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.append((path.name, node.name, node.name))
            if isinstance(node, ast.ClassDef):
                defined.extend((path.name, f"{node.name}.{item.name}", item.name)
                               for item in node.body
                               if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                               and not (item.name.startswith("__") and item.name.endswith("__")))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used.update(alias.name for alias in node.names)
    return [f"{module}:{qualname}" for module, qualname, name in defined if name not in used]


def test_no_unused_module_level_definitions():
    assert unused_definitions(PACKAGE) == []
