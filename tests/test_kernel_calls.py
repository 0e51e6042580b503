"""How often the (C, dC/dd) face kernels (_flat, _convex, _concave) run
per result.

A sensitivity sweep evaluates each distinct face (kind, profile, gap)
once: at one arc length every variant shares its faces, so an arc costs
at most three kernel calls (convex, concave, flat) under either feedback
mode. A gain curve resolves each distinct face kind once, and at one
acceleration its variants share their displaced faces: each distinct
(side, kind, displaced gap) of an accepted row is evaluated once, at
most six kernel calls for the seven pairings under either feedback mode
(28 on the seven-pairing plan below, where one evaluation per row side
made 60); nominal feedback adds one rest capacitance per distinct kind of
a valid cell. An optimizer step is at rest,
where C_fb = c1 + c2 under either feedback mode, so it resolves and
evaluates each distinct face kind of its pairing once (one call for a
symmetric pairing, two for a mixed one) and builds no PlanarProfile, as
a flat face is cut to the step's arc; a symmetric pairing's solve makes
only its two bound steps. A public gain or sensitivity resolves each
distinct face kind of its pairing once (1 resolve for a symmetric
pairing, 2 for a mixed one, where resolving each side made 2) and
evaluates each side once, on gaps the travel check has tested: 2 kernel
calls, plus, off rest under nominal feedback, each distinct rest face
(one face at one gap for a symmetric pairing, 3 calls in all; 4 for a
mixed one), whose gaps alone take the side-naming domain test; at rest
C_fb = c1 + c2 under either mode, where evaluating the rest pair again
made 4. fd_sensitivity resolves its faces once, in the same way, and
each of its four stencil gains evaluates both sides: 1 or 2 resolves and
8 kernel calls, plus the nominal rest faces once per call (0, 1 or 2),
where routing each gain through the public gain made 10 resolves and 8
or 16 kernel calls.
Skipped cells and over-range points cost no call of their own, and their
reasons are read off the face table: no ElectrodeConfig is built and
validate_geometry is not called. The compare subcommand reads S at rest
off the sweep's face table on the plan's own profile: its seven default
pairings resolve and evaluate each of their three face kinds once (3
resolves, at most 3 kernel calls), and it builds no ElectrodeConfig and
calls neither validate_geometry nor any per-point function, where placing
each pairing through the per-point path made 7 configs, 11 resolves and
14 kernel calls. The finite-difference column of sensitivity-sweep
--verify runs fd_sensitivity's stencil on each row's rest cell, read off
the face table that the sweep built for the row's arc, so the run builds
one ArcProfile per arc and the plan's own, as without --verify (where a
second walk once built each arc's profile and table again): per row
exactly the stencil's 8 kernel calls under either feedback mode, nominal
feedback's rest C_fb taken from the row's c1 + c2, and no ElectrodeConfig,
PlanarProfile or side_nominal_gaps call, where placing each row through
the per-point path built a config and placed its sides per row, and
nominal feedback evaluated the rest faces again (9 or 10 kernel calls).
validate's derivative and symmetry suites resolve each draw's distinct
face kinds once and build no ElectrodeConfig or GapState: a derivative
point makes one bridge evaluation and one stencil, 10 kernel calls plus
nominal feedback's rest faces, where the public sensitivity and
fd_sensitivity built the cell twice and validate_geometry placed it again.
Counting calls rather than timing keeps this deterministic.
"""

import inspect
import random
import sys

import pytest

from curvedcomb import (
    ArcProfile,
    DriveModel,
    ElectrodeConfig,
    FeedbackMode,
    GapAnchor,
    GapState,
    MechanicalModel,
    PlanarProfile,
    SweepPlan,
    Variant,
    capacitance,
    fd_sensitivity,
    gain_at_side_nominals,
    gain_curve,
    maximize_sensitivity,
    model,
    sensitivity_at_side_nominals,
    sensitivity_sweep,
    side_nominal_gaps,
    sweep,
    transduction,
)
from curvedcomb import _validate, cli
from curvedcomb.cli import main
from curvedcomb.model import SIDE_KINDS
from conftest import STD_GAP, STD_H, STD_PHI, STD_R


def rest_calls(variant: Variant, feedback: FeedbackMode) -> int:
    """Kernel calls of a rest C_fb: none under matched-sum feedback, else one
    per distinct rest face, as a symmetric pairing places its two sides at
    one gap."""
    return 0 if feedback is FeedbackMode.MATCHED_SUM else len(set(SIDE_KINDS[variant]))


# ids of the call lists that have a counted call in progress
_IN_PROGRESS: set = set()


def count_calls(monkeypatch, name: str, calls: list, owner=capacitance) -> list:
    """Records in calls every call of owner.<name>, at each module that
    binds the name, except a call made inside another one recorded in the
    same list: a resolve that delegates to another counts once."""
    original = getattr(owner, name)

    def counted(*args):
        if id(calls) in _IN_PROGRESS:
            return original(*args)
        calls.append(args)
        _IN_PROGRESS.add(id(calls))
        try:
            return original(*args)
        finally:
            _IN_PROGRESS.discard(id(calls))

    for mod_name, module in list(sys.modules.items()):
        if mod_name.startswith("curvedcomb") and vars(module).get(name) is original:
            monkeypatch.setattr(module, name, counted)
    return calls


@pytest.fixture
def kernel_calls(monkeypatch) -> list:
    # a resolved face carries its kernel, so patch before any resolution
    calls: list = []
    for name in ("_flat", "_convex", "_concave"):
        count_calls(monkeypatch, name, calls)
    return calls


@pytest.fixture
def resolve_calls(monkeypatch) -> list:
    # a face is resolved from its profile (_resolve_face) or, in the sweeps,
    # the optimizer and a per-point call's cell, from checked numbers
    # (_resolve_at_arc, _resolve_flat)
    calls: list = []
    for name in ("_resolve_face", "_resolve_at_arc", "_resolve_flat"):
        count_calls(monkeypatch, name, calls)
    return calls


@pytest.fixture
def side_tests(monkeypatch) -> list:
    # transduction._face(face, side, gap): the domain test that names the side
    return count_calls(monkeypatch, "_face", [], owner=transduction)


def count_builds(monkeypatch, cls) -> list:
    """Records in the returned list every instance of cls built."""
    builds: list = []
    init = cls.__init__

    def counted(self, *args):
        builds.append(self)
        init(self, *args)

    monkeypatch.setattr(cls, "__init__", counted)
    return builds


@pytest.fixture
def planar_builds(monkeypatch) -> list:
    return count_builds(monkeypatch, PlanarProfile)


@pytest.fixture
def config_builds(monkeypatch) -> list:
    return count_builds(monkeypatch, ElectrodeConfig)


def make_plan(feedback: FeedbackMode, phi: float = STD_PHI) -> SweepPlan:
    # under the face-plane anchor the long convex arcs leave no gap, and
    # +-700 g passes the convex travel limit: both kinds of rejection occur
    return SweepPlan(
        variants=tuple(Variant),
        profile=ArcProfile(STD_R, phi, STD_H),
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
    # a call is (resolved face, gap); the face is (kernel, lo, hi, kind,
    # *constants), and its kind and constants tell faces apart
    faces = [(face[3], face[4:], gap) for face, gap in kernel_calls]
    assert len(set(faces)) == len(faces)
    assert 0 < len(kernel_calls) <= 3 * plan.arc_points


@pytest.mark.parametrize("feedback", list(FeedbackMode))
def test_gain_curve_point(kernel_calls, feedback):
    plan = make_plan(feedback)
    result = gain_curve(plan)
    assert result.metadata["over_range"]
    # an invalid cell is one over-range entry with no acceleration
    invalid = {o["variant"] for o in result.metadata["over_range"] if o["accel_g"] is None}
    faces = set()
    for row in result.rows:
        config = ElectrodeConfig.for_variant(row.variant, plan.profile)
        d1, d2 = side_nominal_gaps(config, plan.gap.gap_m, plan.gap_anchor)
        k1, k2 = SIDE_KINDS[row.variant]
        faces |= {(1, k1, d1 - row.displacement_m), (2, k2, d2 + row.displacement_m)}
    rest_kinds = set()
    if feedback is FeedbackMode.NOMINAL:
        rest_kinds = {k for v in plan.variants if v.value not in invalid for k in SIDE_KINDS[v]}
    assert len(kernel_calls) == len(faces) + len(rest_kinds)
    if feedback is FeedbackMode.MATCHED_SUM:
        assert (len(kernel_calls), 2 * len(result.rows)) == (28, 60)


@pytest.mark.parametrize("feedback", list(FeedbackMode))
def test_skipped_cells_build_no_config(config_builds, monkeypatch, feedback):
    # the reason of a skipped cell, an invalid curve cell and an invalid
    # optimizer bound is read off the face table, not from validate_geometry
    validations = count_calls(monkeypatch, "validate_geometry", [], owner=model)
    plan = make_plan(feedback)
    assert sensitivity_sweep(plan).metadata["skipped"]
    # at phi = 0.5 the convex bow (3.1 um) is deeper than the 2 um gap
    over_range = gain_curve(make_plan(feedback, phi=0.5)).metadata["over_range"]
    assert any(o["accel_g"] is None for o in over_range)
    with pytest.raises(ValueError, match="invalid geometry"):
        maximize_sensitivity(Variant.BICONVEX, (5e-6, 60e-6), plan)
    assert (config_builds, validations) == ([], [])


def test_compare_reads_the_rest_face_table(
    kernel_calls, resolve_calls, config_builds, monkeypatch, capsys
):
    # the per-point path: validate_geometry, the gap placement, each public
    # function of transduction and the cell that every one of them builds
    per_point = count_calls(monkeypatch, "validate_geometry", [], owner=model)
    count_calls(monkeypatch, "side_nominal_gaps", per_point, owner=model)
    for name in ("_cell", *transduction.__all__):
        if inspect.isfunction(getattr(transduction, name)):
            count_calls(monkeypatch, name, per_point, owner=transduction)
    assert main(["compare"]) == 0
    assert "Biconvex" in capsys.readouterr().out
    assert sorted(call[0].value for call in resolve_calls) == ["concave", "convex", "flat"]
    assert 0 < len(kernel_calls) <= 3
    assert (config_builds, per_point) == ([], [])


def test_sweep_verify_builds_one_profile_per_arc(monkeypatch, tmp_path, capsys):
    # the fd column's cells come off the rest face tables that the sweep
    # built, one profile per arc: the run builds the plan's profile and one
    # per arc, with --verify as without it
    builds = count_builds(monkeypatch, ArcProfile)
    for verify in ([], ["--verify"]):
        builds.clear()
        assert main(["sensitivity-sweep", *verify, "--csv", str(tmp_path / "s.csv")]) == 0
        assert ("agreed" in capsys.readouterr().out) == bool(verify)
        rows = len((tmp_path / "s.csv").read_text().splitlines()) - 1
        assert len(builds) == 1 + cli.RunConfig().arc_points < rows


@pytest.mark.parametrize("feedback", list(FeedbackMode))
def test_validate_evaluates_one_resolved_cell_per_draw(
    kernel_calls, resolve_calls, config_builds, monkeypatch, capsys, feedback
):
    # validate's derivative and symmetry suites resolve each draw's faces
    # once and evaluate them on transduction's private frame: no config or
    # gap state, no validate_geometry and no public per-point call
    gap_builds = count_builds(monkeypatch, GapState)
    per_point = count_calls(monkeypatch, "validate_geometry", [], owner=model)
    for name in ("_cell", "_point", *transduction.__all__):
        if inspect.isfunction(getattr(transduction, name)):
            count_calls(monkeypatch, name, per_point, owner=transduction)
    argv = ["validate", "--points", "10", "--feedback", feedback.value]
    assert main(argv) == 0 and "FAIL" not in capsys.readouterr().out
    # the one GapState is RunConfig.plan's
    assert (config_builds, len(gap_builds), per_point) == ([], 1, [])


@pytest.mark.parametrize("feedback", list(FeedbackMode))
def test_validate_derivative_point(kernel_calls, resolve_calls, monkeypatch, feedback):
    # each point: one bridge evaluation (2 kernel calls, plus nominal
    # feedback's rest faces off rest) for S and one stencil (8) for the fd
    # value; each draw resolves its pairing's distinct face kinds once
    calls: dict = {}
    for name in ("_evaluate", "_fd_stencil", "_random_cell"):  # the suite module's calls only
        made, original = calls.setdefault(name, []), getattr(_validate, name)
        monkeypatch.setattr(_validate, name, lambda *a, made=made, f=original: made.append(a) or f(*a))
    points = 4
    _validate._suite_derivative(random.Random(7), points, feedback)
    kinds = [len(set(call[2])) for call in calls["_random_cell"]]
    assert len(calls["_random_cell"]) > points * len(_validate._CURVED_VARIANTS)  # redraws
    assert len(resolve_calls) == sum(kinds)
    assert len(calls["_evaluate"]) == len(calls["_fd_stencil"]) == points * 6
    assert len(kernel_calls) == points * sum(
        10 + rest_calls(v, feedback) for v in _validate._CURVED_VARIANTS
    )


@pytest.mark.parametrize("feedback", list(FeedbackMode))
def test_sweep_verify_runs_only_the_stencil(
    kernel_calls, config_builds, planar_builds, monkeypatch, tmp_path, feedback
):
    # each row's fd value is the stencil's four gains, two kernel calls
    # each, on the row's rest cell: no per-row config, flat face or gap
    # placement, and nominal feedback's rest C_fb is the row's c1 + c2
    placements = count_calls(monkeypatch, "side_nominal_gaps", [], owner=model)
    csv = tmp_path / "s.csv"
    kernels = []
    for verify in ([], ["--verify"]):
        for calls in (kernel_calls, config_builds, planar_builds, placements):
            calls.clear()
        argv = ["sensitivity-sweep", *verify, "--csv", str(csv), "--feedback", feedback.value]
        assert main(argv) == 0
        kernels.append(len(kernel_calls))
        # the one flat face is RunConfig.plan's check of the flat face length
        assert (len(config_builds), len(planar_builds), placements) == (0, 1, [])
    rows = len(csv.read_text().splitlines()) - 1
    assert kernels[1] - kernels[0] == 8 * rows


@pytest.mark.parametrize("feedback", list(FeedbackMode))
def test_gain_curve_resolves_each_face_kind_once(resolve_calls, feedback):
    # the seven pairings use three face kinds, read off one shared table
    gain_curve(make_plan(feedback))
    assert sorted(call[0].value for call in resolve_calls) == ["concave", "convex", "flat"]


@pytest.mark.parametrize("feedback", list(FeedbackMode))
def test_maximize_sensitivity_evaluation(
    kernel_calls, resolve_calls, planar_builds, monkeypatch, feedback
):
    evaluations = []
    evaluate = sweep._sensitivity_at_arc

    def counted(*args):
        evaluations.append(args)
        return evaluate(*args)

    monkeypatch.setattr(sweep, "_sensitivity_at_arc", counted)
    # each bound resolves and evaluates each distinct face kind once; every
    # pairing compares its two bounds, PlanoConcave also on the face plane
    # with phi growing under nominal feedback (the plan's case)
    for variant, kinds in (
        (Variant.BICONCAVE, 1), (Variant.PLANO_CONVEX, 2), (Variant.PLANO_CONCAVE, 2),
    ):
        plan = make_plan(feedback)
        for calls in (evaluations, resolve_calls, kernel_calls):
            calls.clear()
        maximize_sensitivity(variant, (5e-6, 30e-6), plan)
        assert len(evaluations) == 2
        assert len(kernel_calls) == kinds * len(evaluations)
        assert len(resolve_calls) == kinds * len(evaluations)
        assert planar_builds == []


@pytest.mark.parametrize("feedback", list(FeedbackMode))
@pytest.mark.parametrize("variant", [Variant.BICONVEX, Variant.PLANO_CONCAVE])
def test_fd_sensitivity_stencil(kernel_calls, resolve_calls, side_tests, variant, feedback):
    config = ElectrodeConfig.for_variant(variant, ArcProfile(STD_R, STD_PHI, STD_H))
    mech, drive = MechanicalModel(2.6e-10, 1.0, 21), DriveModel(1.0, feedback)
    fd_sensitivity(config, STD_GAP, STD_GAP, mech, drive, 0.0)
    assert len(resolve_calls) == len(set(SIDE_KINDS[variant]))
    rest = rest_calls(variant, feedback)
    assert len(kernel_calls) == 8 + rest
    assert [(side, gap) for _, side, gap in side_tests] == [(1, STD_GAP), (2, STD_GAP)][:rest]


@pytest.mark.parametrize("feedback", list(FeedbackMode))
@pytest.mark.parametrize("point", [gain_at_side_nominals, sensitivity_at_side_nominals])
def test_per_point_path(kernel_calls, resolve_calls, side_tests, point, feedback):
    # the cell resolves each distinct face kind once; the travel check tests
    # each displaced gap once and each side is evaluated once; nominal
    # feedback adds each distinct rest face, side-tested, off rest only: at
    # rest its C_fb is C1 + C2, as under matched-sum feedback
    mech, drive = MechanicalModel(2.6e-10, 1.0, 21), DriveModel(1.0, feedback)
    for variant in (Variant.PLANAR, Variant.BICONVEX, Variant.PLANO_CONCAVE):
        config = ElectrodeConfig.for_variant(variant, ArcProfile(STD_R, STD_PHI, STD_H))
        d1, d2 = side_nominal_gaps(config, STD_GAP, GapAnchor.FACE_PLANE)
        for accel in (0.0, -0.0, 9.8, -50.0):
            for calls in (kernel_calls, resolve_calls, side_tests):
                calls.clear()
            point(config, d1, d2, mech, drive, accel)
            assert len(resolve_calls) == len(set(SIDE_KINDS[variant]))
            rest = 0 if accel == 0.0 else rest_calls(variant, feedback)
            assert len(kernel_calls) == 2 + rest
            assert [(side, gap) for _, side, gap in side_tests] == [(1, d1), (2, d2)][:rest]
