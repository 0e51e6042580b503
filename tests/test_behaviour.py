"""Every public per-point call and a set of CLI lines against a stored corpus.

tests/data/behaviour.json holds, for each public per-point function of
transduction and each pairing, the sha256 of the reprs of its outcomes
over a fixed grid: two profiles, three gaps, both anchors and feedback
modes, accelerations (or bridge displacements) at and off rest, over
range, infinite, NaN, bool and str, and bad gaps in each gap argument.
It also holds validate_geometry's verdict, (ok, violations), for each
pairing, gap and anchor at the same displacements and at contact, and
the results of sensitivity_sweep, gain_curve and maximize_sensitivity
(all seven pairings) over a grid of plans that crosses both anchors, arc
modes and feedback modes with skipped and unrealizable arcs, invalid
curve cells, over-range points and plans with no valid point.
An error counts as its (type name, message). A repr keeps every bit of
a float, so any change to a result, an error or its wording fails.
allowed_displacement_interval is fed only real-number gaps here; its
refusal of a bool, non-number or NaN gap is pinned in
test_transduction.py's TestPerPointInputs.

The corpus also holds the stdout, stderr and exit code of CLI lines run
in process, each in its own empty directory, and the sha256 of every
file a line writes. They cover all five subcommands, both feedback modes
and anchors, a config file, --verify, --csv, --svg, validate --json and
exits 1, 2 and 3.

Bits are compared only on the interpreter version and C library that
wrote the corpus, as another libm may round a transcendental function
differently. Regenerate the corpus only for an intended change of
behaviour:

    PYTHONPATH=src python tests/test_behaviour.py

Before it rewrites the corpus, that prints each per-point key whose hash
moved and each CLI line whose outcome moved, with a line diff of its
stdout and stderr.
"""

import difflib
import hashlib
import json
import math
import os
import platform
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path

import pytest

from curvedcomb import (
    ArcProfile,
    DriveModel,
    ElectrodeConfig,
    FeedbackMode,
    GapAnchor,
    GapState,
    MechanicalModel,
    SweepPlan,
    validate_geometry,
    Variant,
    allowed_displacement_interval,
    bridge_at_side_nominals,
    bridge_capacitances,
    fd_sensitivity,
    gain,
    gain_at_side_nominals,
    gain_curve,
    maximize_sensitivity,
    net_sensitivity,
    sensitivity,
    sensitivity_at_side_nominals,
    sensitivity_sweep,
    side_nominal_gaps,
)
from curvedcomb.cli import main
from curvedcomb.sweep import ArcMode

CORPUS = Path(__file__).parent / "data" / "behaviour.json"

# the reference cell's profile and one whose convex bow (4.3 um) is
# deeper than the two smaller gaps under the face-plane anchor
PROFILES = (ArcProfile(100e-6, 0.2, 2e-6), ArcProfile(40e-6, 0.9, 3e-6))
GAPS = (0.6e-6, 2e-6, 7e-6)
MECH = MechanicalModel(2.6e-10, 1.0, 21)
# 9.8 m/s^2 moves the mass 2.5 nm; 1e4 m/s^2 (2.6 um) is over range
ACCELS = (0.0, -0.0, 1e-12, -1e-12, 9.8, -50.0, 1e4, -1e4,
          math.inf, -math.inf, math.nan, True, "1")
DELTAS = (0.0, -0.0, 1e-21, -1e-21, 2.5e-9, -1.3e-8, 3e-6, -3e-6,
          math.inf, -math.inf, math.nan, True, "1e-9")
BAD_GAPS = (math.inf, -1e-6, 0.0, 1e-15, math.nan, True, False, "2e-6", None)
REAL_BAD_GAPS = BAD_GAPS[:4]


def _outcome(call, *args) -> str:
    try:
        return repr(call(*args))
    except Exception as err:  # an error is an outcome like a result
        return repr((type(err).__name__, str(err)))


def per_point_outcomes():
    """(key, outcome) of every call of the grid, in a fixed order."""
    for prof in PROFILES:
        for variant in Variant:
            config = ElectrodeConfig.for_variant(variant, prof)
            for feedback in FeedbackMode:
                drive = DriveModel(1.0, feedback)
                for g in GAPS:
                    yield from _plain_forms(config, g, drive)
                    if feedback is FeedbackMode.MATCHED_SUM:
                        yield from _verdicts(config, g)
                    for anchor in GapAnchor:
                        d1, d2 = side_nominal_gaps(config, g, anchor)
                        yield from _side_forms(config, d1, d2, drive)
    for s in ACCELS:
        yield "net_sensitivity", _outcome(net_sensitivity, s, MECH)


def _plain_forms(config, g, drive):
    key = f"/{config.variant.value}"
    for a in ACCELS:
        yield "gain" + key, _outcome(gain, config, g, MECH, drive, a)
        yield "sensitivity" + key, _outcome(sensitivity, config, g, MECH, drive, a)
    for x in DELTAS:
        yield "bridge_capacitances" + key, _outcome(
            lambda: bridge_capacitances(config, GapState(g, x), drive))
    for b in BAD_GAPS:
        yield "gain" + key, _outcome(gain, config, b, MECH, drive, 9.8)
        yield "sensitivity" + key, _outcome(sensitivity, config, b, MECH, drive, 9.8)


def _verdicts(config, g):
    key = f"validate_geometry/{config.variant.value}"
    for anchor in GapAnchor:
        for x in (*DELTAS, g, -g):  # +-g: side 1 or 2 at contact
            yield key, _outcome(lambda: _verdict(validate_geometry(config, GapState(g, x), anchor)))


def _verdict(report):
    return report.ok, report.violations


def _side_forms(config, d1, d2, drive):
    key = f"/{config.variant.value}"
    twins = (
        ("gain_at_side_nominals", gain_at_side_nominals),
        ("sensitivity_at_side_nominals", sensitivity_at_side_nominals),
        ("fd_sensitivity", fd_sensitivity),
    )
    gap_pairs = [(b, d2) for b in BAD_GAPS] + [(d1, b) for b in BAD_GAPS]
    for name, call in twins:
        for a in ACCELS:
            yield name + key, _outcome(call, config, d1, d2, MECH, drive, a)
        for b1, b2 in gap_pairs:
            yield name + key, _outcome(call, config, b1, b2, MECH, drive, 9.8)
    for x in DELTAS:
        yield "bridge_at_side_nominals" + key, _outcome(
            bridge_at_side_nominals, config, d1, d2, x, drive)
    for b1, b2 in gap_pairs:
        yield "bridge_at_side_nominals" + key, _outcome(
            bridge_at_side_nominals, config, b1, b2, 1e-9, drive)
    yield "allowed_displacement_interval" + key, _outcome(
        allowed_displacement_interval, config, d1, d2)
    for b in REAL_BAD_GAPS:
        yield "allowed_displacement_interval" + key, _outcome(
            allowed_displacement_interval, config, b, d2)
        yield "allowed_displacement_interval" + key, _outcome(
            allowed_displacement_interval, config, d1, b)


# the sweep plans' cells: (R, phi, h, gap, variants). At R = 15 um the
# phi grid passes pi (unrealizable arcs) and on the face plane the convex
# bow leaves no gap (skipped arcs, invalid curve cells); +-700 g passes
# the travel limit (over-range points). The variants come unordered and
# one twice; the last cell's Biconvex has no valid point on the face plane.
SWEEP_CELLS = (
    (100e-6, 0.2, 2e-6, 2e-6, (*reversed(Variant), Variant.BICONVEX)),
    (15e-6, 0.9, 3e-6, 1e-6, tuple(Variant)),
    (15e-6, 0.9, 3e-6, 0.1e-6, (Variant.BICONVEX,)),
)
# the optimizer's bounds: the whole arc grid, a narrow span and one point
ARC_BOUNDS = ((5e-6, 60e-6), (6e-6, 12e-6), (8e-6, 8e-6))


def sweep_plans():
    for r, phi, h, g, variants in SWEEP_CELLS:
        for anchor in GapAnchor:
            for mode in ArcMode:
                for feedback in FeedbackMode:
                    yield SweepPlan(
                        variants, ArcProfile(r, phi, h), GapState(g), MECH,
                        DriveModel(1.0, feedback), mode, anchor,
                        arc_range_m=ARC_BOUNDS[0], arc_points=8,
                        accel_range_g=(-700.0, 700.0), accel_points=7,
                    )


def sweep_outcomes():
    """(key, outcome) of every sweep, curve and solve of the plan grid."""
    for plan in sweep_plans():
        yield "sensitivity_sweep", _outcome(sensitivity_sweep, plan)
        yield "gain_curve", _outcome(gain_curve, plan)
        for variant in Variant:
            for bounds in ARC_BOUNDS:
                yield f"maximize_sensitivity/{variant.value}", _outcome(
                    maximize_sensitivity, variant, bounds, plan)


def digests(outcomes) -> dict:
    """{key: [call count, sha256 of its outcomes, one per line]}."""
    hashes: dict = {}
    for key, outcome in outcomes:
        entry = hashes.setdefault(key, [0, hashlib.sha256()])
        entry[0] += 1
        entry[1].update(outcome.encode() + b"\n")
    return {key: [n, h.hexdigest()] for key, (n, h) in hashes.items()}


CONFIG_FILE = {"geometry": {"r_um": 150.0, "arc_um": 30.0}, "drive": {"feedback_mode": "nominal"}}

CLI_LINES = [
    "capacitance --kind convex",
    "capacitance --kind concave --verify",
    "capacitance --kind flat --b-um 15 --verify --gap-anchor apex",
    # 7e-15 m above the concave edge-contact bound: the oracle cannot converge
    "capacitance --kind concave --r-um 100 --phi 0.2 --gap-um 0.49958348 --verify",
    "gain-curve --csv curve.csv --svg curve.svg --accel-points 9",
    "gain-curve --csv curve.csv --feedback nominal --gap-anchor apex"
    " --accel-min-g -900 --accel-max-g 900 --accel-points 7",
    "gain-curve --accel-points 5",
    "sensitivity-sweep --csv sweep.csv --verify --arc-points 6",
    "sensitivity-sweep --csv sweep.csv --svg sweep.svg --feedback nominal"
    " --gap-anchor apex --arc-points 8 --arc-max-um 120",
    "sensitivity-sweep --csv sweep.csv --verify --feedback nominal --arc-points 4"
    " --arc-mode vary-r-fixed-arc --phi 0.3",
    "compare",
    "compare --feedback nominal --gap-anchor apex --csv rank.csv",
    "compare --config cfg.json --variants planar,biconcave,planoconvex",
    "compare --phi 0.9 --gap-um 1",
    "compare --gap-um 0.01 --phi 1.5 --variants biconvex",
    "compare --r-um -1",
    "compare --variants nope",
    "compare --variants planoconcave,biconvex,planar,biconvex --gap-anchor apex --csv rank.csv",
    "compare --bogus 1",
    "validate --points 10",
    "validate --points 10 --json --feedback nominal",
    "validate --json",
    "validate --json --points 61 --feedback nominal",
    "validate --points 0",
    "validate --phi 0.9 --gap-um 1",
]


def run_cli_line(line: str, work: Path) -> dict:
    """Exit code, stdout, stderr and written files of one CLI line, run in
    process in work, an empty directory, beside a config file cfg.json."""
    Path(work, "cfg.json").write_text(json.dumps(CONFIG_FILE))
    out, err = StringIO(), StringIO()
    cwd = os.getcwd()
    os.chdir(work)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = main(line.split())
    finally:
        os.chdir(cwd)
    files = {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(Path(work).iterdir())
        if p.name != "cfg.json"
    }
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue(), "files": files}


def platform_tag() -> dict:
    return {"python": sys.version, "libc": list(platform.libc_ver())}


def compute() -> dict:
    cli = {}
    for line in CLI_LINES:
        with tempfile.TemporaryDirectory() as work:
            cli[line] = run_cli_line(line, Path(work))
    return {
        "platform": platform_tag(),
        "per_point": digests(per_point_outcomes()),
        "sweeps": digests(sweep_outcomes()),
        "cli": cli,
    }


def moved(old: dict, new: dict) -> list[str]:
    """What differs between two corpora, one printable line each: the
    platform, per-point and sweep keys whose hash moved, then CLI lines whose exit, output
    or files moved, with a line diff of each moved stream."""
    report = []
    if old.get("platform") != new.get("platform"):
        report.append(f"platform: {old.get('platform')} -> {new.get('platform')}")
    for section, label in (("per_point", "per-point"), ("sweeps", "sweep")):
        was, now = old.get(section, {}), new.get(section, {})
        for key in sorted(was.keys() | now.keys()):
            if was.get(key) != now.get(key):
                report.append(f"{label} {key}: {was.get(key)} -> {now.get(key)}")
    old_cli, new_cli = old.get("cli", {}), new.get("cli", {})
    for line in [*new_cli, *(k for k in old_cli if k not in new_cli)]:
        was, now = old_cli.get(line), new_cli.get(line)
        if was == now:
            continue
        report.append(f"cli `{line}`")
        was, now = was or {}, now or {}
        for field in ("exit", "files"):
            if was.get(field) != now.get(field):
                report.append(f"  {field}: {was.get(field)} -> {now.get(field)}")
        for stream in ("stdout", "stderr"):
            report.extend(
                "  " + diff_line
                for diff_line in difflib.unified_diff(
                    was.get(stream, "").splitlines(), now.get(stream, "").splitlines(),
                    f"{stream} before", f"{stream} after", n=0, lineterm="",
                )
            )
    return report


def _libm_key(tag: dict) -> tuple:
    # the interpreter's minor version and the C library
    return tag["python"].split(".")[:2], tag["libc"]


@pytest.fixture(scope="module")
def corpus() -> dict:
    stored = json.loads(CORPUS.read_text())
    if _libm_key(stored["platform"]) != _libm_key(platform_tag()):
        pytest.skip(f"corpus written on {stored['platform']}: regenerate it here")
    return stored


def test_per_point_calls_match_the_corpus(corpus):
    got, want = digests(per_point_outcomes()), corpus["per_point"]
    assert got.keys() == want.keys()
    assert [k for k in want if got[k] != want[k]] == []


def test_sweeps_match_the_corpus(corpus):
    got, want = digests(sweep_outcomes()), corpus["sweeps"]
    assert got.keys() == want.keys()
    assert [k for k in want if got[k] != want[k]] == []


def test_the_sweep_plans_reach_every_branch():
    reasons, curve_points = set(), set()
    for plan in sweep_plans():
        try:
            skipped = sensitivity_sweep(plan).metadata["skipped"]
            reasons |= {e["reason"].split(" ", 1)[0] for e in skipped}
        except ValueError:
            reasons.add("no valid point")
        try:
            over_range = gain_curve(plan).metadata["over_range"]
            curve_points |= {e["accel_g"] is None for e in over_range}
        except ValueError:
            curve_points.add("no valid point")
    # "side" names a face that does not admit its gap; "angular_extent_rad"
    # an arc no profile realizes; True an invalid curve cell, False an
    # over-range point
    assert reasons == {"side", "angular_extent_rad", "no valid point"}
    assert curve_points == {True, False, "no valid point"}


@pytest.mark.parametrize("line", CLI_LINES)
def test_cli_line_matches_the_corpus(corpus, line, tmp_path):
    assert run_cli_line(line, tmp_path) == corpus["cli"][line]


def test_cli_lines_cover_every_exit_code(corpus):
    assert {entry["exit"] for entry in corpus["cli"].values()} == {0, 1, 2, 3}


def test_moved_names_each_moved_key_and_diffs_each_moved_stream():
    old = {"per_point": {"gain/a": [1, "x"], "gain/b": [1, "y"]},
           "cli": {"l1": {"exit": 0, "stdout": "s\nq 1\n", "stderr": "", "files": {}},
                   "l2": {"exit": 0, "stdout": "same\n", "stderr": "", "files": {}}}}
    new = {"per_point": {"gain/a": [1, "x"], "gain/b": [1, "z"]},
           "cli": {"l1": {"exit": 3, "stdout": "s\nq 2\n", "stderr": "", "files": {}},
                   "l2": {"exit": 0, "stdout": "same\n", "stderr": "", "files": {}}}}
    assert moved(old, new) == [
        "per-point gain/b: [1, 'y'] -> [1, 'z']",
        "cli `l1`",
        "  exit: 0 -> 3",
        "  --- stdout before",
        "  +++ stdout after",
        "  @@ -2 +2 @@",
        "  -q 1",
        "  +q 2",
    ]
    assert moved(new, new) == []


if __name__ == "__main__":
    fresh = compute()
    stored = json.loads(CORPUS.read_text()) if CORPUS.exists() else {}
    print("\n".join(moved(stored, fresh)) or "nothing moved")
    CORPUS.parent.mkdir(exist_ok=True)
    CORPUS.write_text(json.dumps(fresh, indent=1, sort_keys=True) + "\n")
