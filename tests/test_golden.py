"""Reference-cell sweep and gain-curve rows against a stored fixture.

tests/data/reference_rows.json holds the rows of sensitivity_sweep and
gain_curve at the reference cell for both feedback modes and both gap
anchors. Every float must agree within 4 ulps, so a different libm does
not fail the test while any change to an evaluation order or a formula
does. Regenerate the fixture only for an intended change of the model:

    PYTHONPATH=src python tests/test_golden.py
"""

import json
import math
import struct
from pathlib import Path

import pytest

from curvedcomb import (
    ArcProfile,
    DriveModel,
    FeedbackMode,
    GapAnchor,
    GapState,
    MechanicalModel,
    SweepPlan,
    Variant,
    gain_curve,
    sensitivity_sweep,
)

FIXTURE = Path(__file__).parent / "data" / "reference_rows.json"
MAX_ULPS = 4

CASES = [(f, a) for f in FeedbackMode for a in GapAnchor]


def _plan(feedback: FeedbackMode, anchor: GapAnchor) -> SweepPlan:
    # the reference cell of conftest.py; +-700 g passes the convex travel
    # limit under the face-plane anchor, so both results hold rejections
    return SweepPlan(
        variants=tuple(Variant),
        profile=ArcProfile(100e-6, 0.2, 2e-6),
        gap=GapState(2e-6),
        mech=MechanicalModel(2.6e-10, 1.0, 21),
        drive=DriveModel(1.0, feedback),
        gap_anchor=anchor,
        arc_points=5,
        accel_range_g=(-700.0, 700.0),
        accel_points=3,
    )


def _rows(result) -> list[list]:
    return [
        [row.variant.value] + [v for k, v in row._asdict().items() if k != "variant"]
        for row in result.rows
    ]


def compute(feedback: FeedbackMode, anchor: GapAnchor) -> dict:
    plan = _plan(feedback, anchor)
    sweep = sensitivity_sweep(plan)
    curve = gain_curve(plan)
    return {
        "sweep_rows": _rows(sweep),
        # skip reasons name only rules; over-range reasons carry printed
        # floats, so only their grid point is kept
        "skipped": [
            [s["variant"], s["arc_length_m"], s["reason"]]
            for s in sweep.metadata["skipped"]
        ],
        "curve_rows": _rows(curve),
        "over_range": [
            [o["variant"], o["accel_g"]] for o in curve.metadata["over_range"]
        ],
        "fitted_slope_mv_per_g": curve.metadata["fitted_slope_mv_per_g"],
    }


def _key(feedback: FeedbackMode, anchor: GapAnchor) -> str:
    return f"{feedback.value}/{anchor.value}"


def _ordinal(x: float) -> int:
    """Integer whose order is the float order, one step per ulp."""
    (i,) = struct.unpack("<q", struct.pack("<d", x))
    return i if i >= 0 else -(i & 0x7FFFFFFFFFFFFFFF)


def _assert_close(got, want, path: str) -> None:
    if isinstance(want, float):
        assert isinstance(got, float) and math.isfinite(got), (path, got)
        assert abs(_ordinal(got) - _ordinal(want)) <= MAX_ULPS, (path, got, want)
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), (path, got, want)
        for i, (g, w) in enumerate(zip(got, want)):
            _assert_close(g, w, f"{path}[{i}]")
    elif isinstance(want, dict):
        assert isinstance(got, dict) and got.keys() == want.keys(), (path, got, want)
        for k in want:
            _assert_close(got[k], want[k], f"{path}.{k}")
    else:
        assert got == want, (path, got, want)


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(FIXTURE.read_text())


@pytest.mark.parametrize("feedback, anchor", CASES)
def test_rows_match_fixture(golden, feedback, anchor):
    key = _key(feedback, anchor)
    _assert_close(json.loads(json.dumps(compute(feedback, anchor))), golden[key], key)


def test_ulp_distance():
    one = 1.0
    assert _ordinal(math.nextafter(one, 2.0)) - _ordinal(one) == 1
    assert _ordinal(math.nextafter(0.0, 1.0)) - _ordinal(-math.nextafter(0.0, 1.0)) == 2
    assert _ordinal(-0.0) == _ordinal(0.0)


if __name__ == "__main__":
    FIXTURE.parent.mkdir(exist_ok=True)
    data = {_key(f, a): compute(f, a) for f, a in CASES}
    FIXTURE.write_text(json.dumps(data, separators=(",", ":")) + "\n")
