"""Usage errors and help of the command line, and main's argument reader.

tests/data/cli_usage.json holds the exit code, stdout and stderr of each
line in it, run in process with COLUMNS=80: no subcommand, an unknown
one, a missing and a bad --kind, values that do not convert, a value flag
as the last token, an explicit value given to a switch, and --help of the
top level and of each subcommand. They were captured from the argparse
parser of build_parser(), which once read every command line. main now
reads a valid line with its own reader over cli._PARAMS and leaves help,
an empty line and an unknown subcommand to that parser; both must give
these bytes. argparse words its messages and wraps its help by
interpreter version, so the file is compared only on the Python minor
version that wrote it.

The reader and build_parser().parse_args must also read every CLI line
of the behaviour corpus to the same namespace and RunConfig: the
benchmark counts its expected CSV rows through build_parser().
"""

import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path

import pytest

from curvedcomb import cli
from test_behaviour import CLI_LINES, CONFIG_FILE

STORED = json.loads((Path(__file__).parent / "data" / "cli_usage.json").read_text())


def outcome(line: str) -> dict:
    out, err = StringIO(), StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(line.split())
        except SystemExit as exc:  # --help prints, then exits
            code = exc.code
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


@pytest.mark.parametrize("line", STORED["lines"])
def test_usage_is_argparse_byte_for_byte(line, tmp_path, monkeypatch):
    if STORED["python"].split(".")[:2] != sys.version.split(".")[:2]:
        pytest.skip(f"usage captured on Python {STORED['python'].split()[0]}")
    monkeypatch.setenv("COLUMNS", str(STORED["columns"]))
    monkeypatch.chdir(tmp_path)
    assert outcome(line) == STORED["lines"][line]
    assert list(tmp_path.iterdir()) == []


def _read(read, argv: list[str]):
    """The namespace and RunConfig that read gives argv, or its error."""
    try:
        args = read(argv)
        return vars(args), cli.resolve_config(args)
    except (cli.UsageError, ValueError) as err:
        return type(err).__name__, str(err)


@pytest.mark.parametrize("line", CLI_LINES)
def test_the_reader_and_argparse_read_one_config(line, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    Path("cfg.json").write_text(json.dumps(CONFIG_FILE))
    argv = line.split()
    assert _read(cli._read_args, argv) == _read(lambda a: cli.build_parser().parse_args(a), argv)


def test_a_value_is_the_next_token_whatever_it_starts_with(tmp_path, monkeypatch):
    # argparse refused "--csv --verify" as a flag without its value
    monkeypatch.chdir(tmp_path)
    assert outcome("compare --csv --verify")["exit"] == 0
    assert [p.name for p in tmp_path.iterdir()] == ["--verify"]


@pytest.mark.parametrize(
    "line", ["compare --perm 1e-11", "compare --gap 3", "capacitance --kind convex --ver"]
)
def test_a_flag_is_never_abbreviated(line, tmp_path, monkeypatch):
    # argparse took a unique prefix of a flag for the flag
    monkeypatch.chdir(tmp_path)
    rest = line.split(maxsplit=1)[1].removeprefix("--kind convex ")
    assert outcome(line) == {
        "exit": 1, "stdout": "", "stderr": f"usage error: unrecognized arguments: {rest}\n"
    }
