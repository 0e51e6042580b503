"""Usage errors and help of the command line, and main's argument reader.

tests/data/cli_usage.json holds the exit code, stdout and stderr of each
line in it, run in process with COLUMNS=80: no subcommand, an unknown
one, a missing and a bad --kind, values that do not convert, a value flag
as the last token, an explicit value given to a switch, and --help of the
top level and of each subcommand. main reads a valid line with its own
reader over cli._PARAMS and hands every other line to the argparse parser
of build_parser(), which prints help and words every usage error.
argparse words its messages and wraps its help by interpreter version, so
the file is compared only on the Python minor version that wrote it; on
any version, main's usage error is the message that build_parser() gives
for the same line. Regenerate the file on the running interpreter with

    PYTHONPATH=src python tests/test_cli_usage.py

which first prints each line whose outcome moved, with a line diff.

The reader and build_parser().parse_args must also read every CLI line
of the behaviour corpus to the same namespace and RunConfig: the
benchmark counts its expected CSV rows through build_parser().
"""

import json
import os
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path

import pytest

from curvedcomb import cli
from test_behaviour import CLI_LINES, CONFIG_FILE, moved

USAGE = Path(__file__).parent / "data" / "cli_usage.json"
STORED = json.loads(USAGE.read_text())
USAGE_ERRORS = [line for line, stored in STORED["lines"].items() if stored["exit"] != 0]


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


@pytest.mark.parametrize("line", USAGE_ERRORS)
def test_argparse_words_each_usage_error(line, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(cli.UsageError) as err:
        cli.build_parser().parse_args(line.split())
    builds, build = [], cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: builds.append(line) or build())
    assert outcome(line) == {"exit": 1, "stdout": "", "stderr": f"usage error: {err.value}\n"}
    assert builds == [line]


@pytest.mark.parametrize(
    "line, message",
    [
        ("compare --r-um -1e-3 --bogus", "unrecognized arguments: --bogus"),
        ("compare --bogus --r-um -1e-3", "unrecognized arguments: --bogus"),
        ("compare --gap-um -abc", "argument --gap-um: invalid float value: '-abc'"),
        ("compare --r-um --", "argument --r-um: expected one argument"),
        ("compare --r-um=--", "argument --r-um: expected one argument"),
    ],
)
def test_argparse_reads_each_value_as_the_reader_does(line, message, tmp_path, monkeypatch):
    # argparse alone reads "-1e-3" and "-abc" after a space as flags, and
    # "--r-um=--" as an --r-um of no value that it neither converts nor refuses
    monkeypatch.chdir(tmp_path)
    assert outcome(line) == {"exit": 1, "stdout": "", "stderr": f"usage error: {message}\n"}


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


def test_help_is_never_abbreviated(tmp_path, monkeypatch):
    # argparse's top-level parser took "--he" for --help
    monkeypatch.chdir(tmp_path)
    assert outcome("--he") == {
        "exit": 1, "stdout": "",
        "stderr": "usage error: the following arguments are required: command\n",
    }


def capture() -> dict:
    """The stored lines' outcomes on the running interpreter, each run in
    its own empty directory, in the layout of the usage file."""
    os.environ["COLUMNS"] = str(STORED["columns"])
    lines, home = {}, os.getcwd()
    for line in STORED["lines"]:
        with tempfile.TemporaryDirectory() as work:
            os.chdir(work)
            try:
                lines[line] = outcome(line)
            finally:
                os.chdir(home)
    return {"python": sys.version, "columns": STORED["columns"], "lines": lines}


if __name__ == "__main__":
    fresh = capture()
    was = {"platform": STORED["python"], "cli": STORED["lines"]}
    print("\n".join(moved(was, {"platform": fresh["python"], "cli": fresh["lines"]}))
          or "nothing moved")
    USAGE.write_text(json.dumps(fresh, indent=1) + "\n")
