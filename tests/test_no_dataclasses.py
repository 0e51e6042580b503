"""The CLI process builds no dataclass.

`dataclasses` imports `inspect` (and with it `ast`, `dis` and
`tokenize`), and each frozen dataclass builds its methods from source at
import time: together they cost a fresh `curvedcomb` process more than
the work of most subcommands. The value types are named tuples and
slotted records (`model._Record`) instead. Each module is parsed, not
imported, so an import behind a function body or a condition is caught
as well.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
MODULES = sorted((SRC / "curvedcomb").glob("*.py"))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_imports_dataclasses(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        for name in names:
            assert name.partition(".")[0] != "dataclasses", (
                f"{path.name}:{node.lineno} imports {name}"
            )


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    probe = (
        "import sys, curvedcomb.cli; "
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"
