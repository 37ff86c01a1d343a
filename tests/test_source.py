"""Checks on the library source itself."""
import ast
import pathlib

import dpformation

SRC = pathlib.Path(dpformation.__file__).parent


def test_no_assert_statements():
    # python -O strips assert statements, so library invariants must raise
    found = [f"{path.relative_to(SRC)}:{node.lineno}"
             for path in sorted(SRC.rglob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert not found, f"assert statements in the library: {found}"
