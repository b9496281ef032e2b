"""Every guarantee of the package is checked by code that still runs under
``python -O``, which strips assert statements: the package has none."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "shallowtd"


def test_package_has_no_assert_statement():
    found = [f"{path.relative_to(PACKAGE.parent)}:{node.lineno}"
             for path in sorted(PACKAGE.rglob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []
