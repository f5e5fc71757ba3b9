"""No ``assert`` statement in the package.

``python -O`` strips assert statements, so a certificate or input check
written as one would pass silently there.  Failed facts raise
``CertificationError`` and bad input raises ``ValueError`` instead.
"""

import ast
from pathlib import Path

import orbitcat

PACKAGE = Path(orbitcat.__file__).parent


def assert_statements(package: Path) -> list:
    found = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    return found


def test_no_assert_statements():
    assert assert_statements(PACKAGE) == []
