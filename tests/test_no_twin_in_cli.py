"""The CLI names no `*_at_side_nominals` function of transduction.

The twins take the two sides' closed-form gaps; the CLI places the sides
through a plan instead (compare reads the sweep's rest face table), so
the twins can be replaced by one way of placing the sides without a CLI
change. The source of cli.py is parsed, and every name it binds, loads,
imports or reads as an attribute is checked.
"""

import ast
from pathlib import Path

CLI = Path(__file__).resolve().parent.parent / "src" / "curvedcomb" / "cli.py"


def twin_names(source: str) -> list[str]:
    """Each name in source that ends in _at_side_nominals, in walk order."""
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            names.append(node.id)
        elif isinstance(node, ast.Attribute):
            names.append(node.attr)
        elif isinstance(node, ast.alias):
            names += [node.name, node.asname or ""]
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            names.append(node.name)
    return [name for name in names if name.endswith("_at_side_nominals")]


def test_cli_names_no_side_nominals_twin():
    assert twin_names(CLI.read_text(encoding="utf-8")) == []


def test_the_scan_sees_a_twin():
    source = (
        "from .transduction import gain_at_side_nominals as g\n"
        "import curvedcomb.transduction as t\n"
        "t.sensitivity_at_side_nominals(c, d1, d2, m, dr, 0.0)\n"
    )
    assert twin_names(source) == ["gain_at_side_nominals", "sensitivity_at_side_nominals"]
