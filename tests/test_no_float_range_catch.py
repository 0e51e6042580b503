"""No except clause in the package catches a float-range error.

Input is checked against the model envelope where it enters, and inside
that envelope no float under- or overflows, so an ArithmeticError (or its
OverflowError and ZeroDivisionError) is a defect to surface, not a case
to handle. Each module is parsed, not imported, so a handler anywhere is
caught: a bare name, a tuple of names, or an attribute such as
builtins.OverflowError.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "curvedcomb"
MODULES = sorted(PACKAGE.glob("*.py"))
FLOAT_RANGE = {"ArithmeticError", "OverflowError", "ZeroDivisionError", "FloatingPointError"}


def _names(node: ast.expr | None) -> set[str]:
    if node is None:
        return set()
    if isinstance(node, ast.Tuple):
        return set().union(*(_names(e) for e in node.elts))
    if isinstance(node, ast.Name):
        return {node.id}
    if isinstance(node, ast.Attribute):
        return {node.attr}
    return set()


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_handler_names_a_float_range_error(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.ExceptHandler):
            caught = _names(node.type) & FLOAT_RANGE
            assert not caught, f"{path.name}:{node.lineno} catches {sorted(caught)}"


def test_the_scan_sees_a_handler():
    source = "try:\n    pass\nexcept (ValueError, builtins.OverflowError):\n    pass\n"
    handler = next(
        n for n in ast.walk(ast.parse(source)) if isinstance(n, ast.ExceptHandler)
    )
    assert _names(handler.type) & FLOAT_RANGE == {"OverflowError"}
