"""The runtime imports only the standard library and its own modules.

Each module of the package is parsed, not imported, so an import behind a
function body or a condition is caught as well as one at the top.
"""

import ast
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "curvedcomb"
MODULES = sorted(PACKAGE.glob("*.py"))


def test_package_has_modules():
    assert PACKAGE / "__init__.py" in MODULES


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_imports_are_stdlib_or_package(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            tops = [alias.name.partition(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            tops = [node.module.partition(".")[0]]
        elif isinstance(node, ast.ImportFrom):
            # a relative import may not climb out of the package
            assert node.level == 1, f"{path.name}:{node.lineno} leaves the package"
            continue
        else:
            continue
        for top in tops:
            assert top in sys.stdlib_module_names, (
                f"{path.name}:{node.lineno} imports {top}"
            )
