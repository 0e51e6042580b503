"""How often the fused (C, dC/dd) face kernel runs per result.

A sensitivity sweep evaluates each distinct face (kind, profile, gap)
once: at one arc length every variant shares its faces, so an arc costs
at most three kernel calls (convex, concave, flat) under either feedback
mode. A curve point evaluates each face once: two kernel calls under
either feedback mode; nominal feedback adds the two rest capacitances
once per variant whose cell is valid. An optimizer step is at rest,
where C_fb = c1 + c2 under either feedback mode, so it resolves and
evaluates each distinct face kind of its pairing once: one call for a
symmetric pairing, two for a mixed one. Skipped cells and over-range
points cost none. Counting calls rather than timing keeps this
deterministic.
"""

import sys

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
    capacitance,
    gain_curve,
    maximize_sensitivity,
    sensitivity_sweep,
    sweep,
)
from conftest import STD_GAP, STD_H, STD_PHI, STD_R

REST_CALLS_PER_CELL = {FeedbackMode.MATCHED_SUM: 0, FeedbackMode.NOMINAL: 2}


@pytest.fixture
def kernel_calls(monkeypatch) -> list:
    """Records every _face_eval call, at each module that binds it."""
    calls: list = []
    original = capacitance._face_eval

    def counted(*args):
        calls.append(args)
        return original(*args)

    for name, module in list(sys.modules.items()):
        if name.startswith("curvedcomb") and vars(module).get("_face_eval") is original:
            monkeypatch.setattr(module, "_face_eval", counted)
    return calls


def make_plan(feedback: FeedbackMode) -> SweepPlan:
    # under the face-plane anchor the long convex arcs leave no gap, and
    # +-700 g passes the convex travel limit: both kinds of rejection occur
    return SweepPlan(
        variants=tuple(Variant),
        profile=ArcProfile(STD_R, STD_PHI, STD_H),
        gap=GapState(STD_GAP),
        mech=MechanicalModel(2.6e-10, 1.0, 21),
        drive=DriveModel(1.0, feedback),
        gap_anchor=GapAnchor.FACE_PLANE,
        arc_points=8,
        accel_range_g=(-700.0, 700.0),
        accel_points=5,
    )


@pytest.mark.parametrize("feedback", list(FeedbackMode))
def test_sensitivity_sweep_row(kernel_calls, feedback):
    plan = make_plan(feedback)
    result = sensitivity_sweep(plan)
    assert result.metadata["skipped"]
    # a call is (resolved face, gap, permittivity); the face leads with
    # its kind and profile
    faces = [(face[0], face[1], gap) for face, gap, _ in kernel_calls]
    assert len(set(faces)) == len(faces)
    assert 0 < len(kernel_calls) <= 3 * plan.arc_points


@pytest.mark.parametrize("feedback", list(FeedbackMode))
def test_gain_curve_point(kernel_calls, feedback):
    plan = make_plan(feedback)
    result = gain_curve(plan)
    assert result.metadata["over_range"]
    # an invalid cell is one over-range entry with no acceleration
    invalid = [o for o in result.metadata["over_range"] if o["accel_g"] is None]
    valid_cells = len(plan.variants) - len(invalid)
    assert len(kernel_calls) == (
        2 * len(result.rows) + REST_CALLS_PER_CELL[feedback] * valid_cells
    )


@pytest.mark.parametrize("feedback", list(FeedbackMode))
def test_maximize_sensitivity_evaluation(kernel_calls, monkeypatch, feedback):
    evaluations = []
    evaluate = sweep._sensitivity_at_arc

    def counted(*args):
        evaluations.append(args)
        return evaluate(*args)

    resolved = []
    resolve = capacitance._resolve_face

    def counted_resolve(*args):
        resolved.append(args)
        return resolve(*args)

    monkeypatch.setattr(sweep, "_sensitivity_at_arc", counted)
    for name, module in list(sys.modules.items()):
        if name.startswith("curvedcomb") and vars(module).get("_resolve_face") is resolve:
            monkeypatch.setattr(module, "_resolve_face", counted_resolve)
    # each step resolves and evaluates each distinct face kind once
    for variant, kinds in ((Variant.BICONCAVE, 1), (Variant.PLANO_CONCAVE, 2)):
        for calls in (evaluations, resolved, kernel_calls):
            calls.clear()
        maximize_sensitivity(variant, (5e-6, 30e-6), make_plan(feedback))
        assert len(evaluations) > 10
        assert len(kernel_calls) == kinds * len(evaluations)
        assert len(resolved) == kinds * len(evaluations)
