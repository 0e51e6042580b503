"""The package names that the benchmark under bench/ reaches still exist.

bench/ drives the package through attribute chains on `cc` (import
curvedcomb as cc) and `cli` (import curvedcomb.cli as cli) and through
`from curvedcomb... import`, and bench/tracer.py wraps a fixed list of
layer functions. The names are read from the bench sources, so a rename
or deletion in the package fails here rather than in a benchmark run.
"""

import ast
import functools
import importlib
import importlib.util
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"
ALIASES = {"cc": "curvedcomb", "cli": "curvedcomb.cli"}


def _chain(node: ast.Attribute) -> list[str]:
    """["cc", "cli", "main"] for cc.cli.main; [] unless rooted at a name."""
    names = []
    while isinstance(node, ast.Attribute):
        names.append(node.attr)
        node = node.value
    return [node.id, *reversed(names)] if isinstance(node, ast.Name) else []


def _used_names() -> list[tuple[str, str]]:
    """(module, dotted attribute) of every package name a bench source uses."""
    used = set()
    for path in sorted(BENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            chain = _chain(node)
            if len(chain) > 1 and chain[0] in ALIASES:
                used.add((ALIASES[chain[0]], ".".join(chain[1:])))
            elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith(
                "curvedcomb"
            ):
                used.update((node.module, alias.name) for alias in node.names)
    return sorted(used)


USED = _used_names()


@pytest.mark.parametrize("module, name", USED, ids=[".".join(pair) for pair in USED])
def test_bench_name_exists(module, name):
    importlib.import_module("curvedcomb.cli")  # bench reads cc.cli
    functools.reduce(getattr, name.split("."), importlib.import_module(module))


def test_tracer_installs_and_uninstalls():
    spec = importlib.util.spec_from_file_location("bench_tracer", BENCH / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    import curvedcomb.cli  # noqa: F401  (the tracer wraps cli.main)
    from curvedcomb import capacitance

    original = capacitance.cap_convex
    t = tracer.Tracer()
    t.install()
    try:
        assert capacitance.cap_convex is not original
    finally:
        t.uninstall()
    assert capacitance.cap_convex is original
