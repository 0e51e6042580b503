import math
import re
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curvedcomb import (
    __version__,
    ArcMode,
    ArcProfile,
    DEFAULT_ARC_BOUNDS_M,
    DriveModel,
    ElectrodeConfig,
    FeedbackMode,
    GapAnchor,
    GapState,
    MechanicalModel,
    OverRangeError,
    STANDARD_GRAVITY,
    SweepPlan,
    SweepRow,
    Variant,
    bridge_at_side_nominals,
    gain_at_side_nominals,
    gain_curve,
    maximize_sensitivity,
    net_sensitivity,
    sensitivity_at_side_nominals,
    sensitivity_sweep,
    side_nominal_gaps,
    validate_geometry,
)
from curvedcomb import sweep
from curvedcomb.model import _ENVELOPE
from curvedcomb.sweep import (
    _least_squares_slope, _linspace, _ordered_variants, _sensitivity_at_arc, _solve_of,
)
from conftest import STD_GAP, STD_H, STD_PHI, STD_R


def make_plan(**overrides) -> SweepPlan:
    base = dict(
        variants=tuple(Variant),
        profile=ArcProfile(STD_R, STD_PHI, STD_H),
        gap=GapState(STD_GAP),
        mech=MechanicalModel(2.6e-10, 1.0, 21),
        drive=DriveModel(1.0),
        arc_mode=ArcMode.VARY_R_FIXED_ARC,
        arc_points=12,
    )
    base.update(overrides)
    return SweepPlan(**base)


class TestPlanValidation:
    def test_rejects_empty_variants(self):
        with pytest.raises(ValueError):
            make_plan(variants=())

    def test_rejects_reversed_arc_range(self):
        with pytest.raises(ValueError):
            make_plan(arc_range_m=(60e-6, 5e-6))

    def test_rejects_single_point_grids(self):
        with pytest.raises(ValueError):
            make_plan(arc_points=1)
        with pytest.raises(ValueError):
            make_plan(accel_points=1)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("arc_range_m", (5e-6, math.inf)),
            ("arc_range_m", (math.nan, 60e-6)),
            ("accel_range_g", (-math.inf, 1.0)),
            ("accel_range_g", (-1.0, math.nan)),
            ("arc_points", 2.5),
            ("arc_points", True),
            ("accel_points", 3.0),
            ("accel_points", "21"),
        ],
    )
    def test_rejects_non_finite_ranges_and_non_int_counts(self, field, value):
        with pytest.raises(ValueError, match=field):
            make_plan(**{field: value})

    @pytest.mark.parametrize("field", ["arc_points", "accel_points"])
    def test_rejects_a_point_count_beyond_the_envelope(self, field):
        # 10**400 once reached the grid step and overflowed converting to float
        make_plan(**{field: 10**6})
        for count in (10**6 + 1, 10**400):
            with pytest.raises(ValueError, match=f"{field} = {count} is outside"):
                make_plan(**{field: count})

    def test_fixed_arc_mode_needs_positive_angle(self):
        # the plan profile itself refuses phi = 0: its arc length is 0
        with pytest.raises(ValueError, match="arc_length_m must be positive"):
            make_plan(
                profile=ArcProfile(STD_R, 0.0, STD_H), arc_mode=ArcMode.VARY_R_FIXED_ARC
            )


class TestSensitivitySweep:
    def test_grid_shape_and_order(self):
        plan = make_plan(variants=(Variant.PLANAR, Variant.BICONVEX))
        result = sensitivity_sweep(plan)
        assert len(result.rows) == 2 * plan.arc_points
        # variant-major in declaration order, arc ascending within
        assert [r.variant for r in result.rows[: plan.arc_points]] == [
            Variant.PLANAR
        ] * plan.arc_points
        arcs = [r.arc_length_m for r in result.rows[: plan.arc_points]]
        assert arcs == sorted(arcs)
        assert arcs[0] == pytest.approx(plan.arc_range_m[0], rel=1e-12)
        assert arcs[-1] == pytest.approx(plan.arc_range_m[1], rel=1e-12)

    def test_variant_order_is_canonical_and_deduplicated(self):
        plan = make_plan(
            variants=(Variant.BICONVEX, Variant.PLANAR, Variant.BICONVEX)
        )
        result = sensitivity_sweep(plan)
        seen = []
        for row in result.rows:
            if row.variant not in seen:
                seen.append(row.variant)
        assert seen == [Variant.PLANAR, Variant.BICONVEX]

    def test_fixed_arc_mode_scales_radius(self):
        plan = make_plan(variants=(Variant.BICONVEX,))
        result = sensitivity_sweep(plan)
        for row in result.rows:
            assert row.phi_rad == STD_PHI
            assert row.radius_m == pytest.approx(
                row.arc_length_m / STD_PHI, rel=1e-12
            )

    def test_fixed_radius_mode_scales_angle(self):
        plan = make_plan(
            variants=(Variant.BICONCAVE,),
            arc_mode=ArcMode.VARY_PHI_FIXED_R,
            arc_range_m=(5e-6, 30e-6),
        )
        result = sensitivity_sweep(plan)
        for row in result.rows:
            assert row.radius_m == STD_R
            assert row.phi_rad == pytest.approx(row.arc_length_m / STD_R, rel=1e-12)

    def test_planar_rows_ignore_arc_length(self):
        plan = make_plan(variants=(Variant.PLANAR,))
        result = sensitivity_sweep(plan)
        # planar S depends only on d, not on b: constant up to ulp noise
        for row in result.rows:
            assert row.s_mv_per_g == pytest.approx(1.2748645, rel=1e-12)

    def test_net_column_scales_by_comb_count(self):
        plan = make_plan(variants=(Variant.BICONVEX,))
        for row in sensitivity_sweep(plan).rows:
            assert row.s_net_mv_per_g == pytest.approx(21 * row.s_mv_per_g, rel=1e-15)

    def test_metadata_echo(self):
        plan = make_plan(variants=(Variant.PLANAR,))
        echo = sensitivity_sweep(plan).metadata["plan"]
        assert echo["version"] == __version__
        assert echo["arc_mode"] == ArcMode.VARY_R_FIXED_ARC.value
        assert echo["gap_anchor"] == GapAnchor.FACE_PLANE.value
        assert echo["comb_count"] == 21

    def test_invalid_points_skipped_with_reason(self):
        # fixed radius: past arc = 2R acos(1 - d/R) the convex bulge spans
        # the whole face-plane gap
        plan = make_plan(
            variants=(Variant.BICONVEX,),
            arc_mode=ArcMode.VARY_PHI_FIXED_R,
            arc_range_m=(5e-6, 60e-6),
            arc_points=20,
        )
        result = sensitivity_sweep(plan)
        skipped = result.metadata["skipped"]
        assert skipped, "expected the long arcs to drop out"
        assert len(result.rows) + len(skipped) == 20
        assert all(item["reason"] for item in skipped)
        assert min(item["arc_length_m"] for item in skipped) > max(
            r.arc_length_m for r in result.rows
        )

    def test_trends_also_hold_at_fixed_radius(self):
        # same directional story in vary-phi mode, on the subrange where
        # the R = 100 um bow still fits the 2 um gap
        plan = make_plan(
            variants=(Variant.BICONVEX, Variant.PLANAR, Variant.BICONCAVE),
            arc_mode=ArcMode.VARY_PHI_FIXED_R,
            arc_range_m=(5e-6, 37e-6),
            arc_points=10,
        )
        result = sensitivity_sweep(plan)
        assert not result.metadata["skipped"]
        series = {}
        for row in result.rows:
            series.setdefault(row.variant, []).append(row.s_mv_per_g)
        vex, flat, cave = (
            series[Variant.BICONVEX],
            series[Variant.PLANAR],
            series[Variant.BICONCAVE],
        )
        assert all(a < b for a, b in zip(vex, vex[1:]))
        assert all(a > b for a, b in zip(cave, cave[1:]))
        assert all(v > f > c for v, f, c in zip(vex, flat, cave))

    def test_raises_when_nothing_is_valid(self):
        plan = make_plan(
            variants=(Variant.BICONCAVE,),
            gap=GapState(0.1e-6),  # below every concave sagitta in range
            gap_anchor=GapAnchor.APEX,
        )
        with pytest.raises(ValueError):
            sensitivity_sweep(plan)


def _cell_profile(plan: SweepPlan, arc: float) -> ArcProfile:
    h = plan.profile.thickness_m
    if plan.arc_mode is ArcMode.VARY_PHI_FIXED_R:
        return ArcProfile(plan.profile.radius_m, arc / plan.profile.radius_m, h)
    phi = plan.profile.angular_extent_rad
    return ArcProfile(arc / phi, phi, h)


def _per_cell_row(plan: SweepPlan, variant: Variant, arc: float) -> SweepRow:
    """The sweep row of one cell through the public per-cell path."""
    prof = _cell_profile(plan, arc)
    config = ElectrodeConfig.for_variant(variant, prof)
    d1, d2 = side_nominal_gaps(config, plan.gap.gap_m, plan.gap_anchor)
    bridge = bridge_at_side_nominals(config, d1, d2, 0.0, plan.drive)
    point = gain_at_side_nominals(config, d1, d2, plan.mech, plan.drive, 0.0)
    s = sensitivity_at_side_nominals(config, d1, d2, plan.mech, plan.drive, 0.0)
    return SweepRow(
        variant=variant,
        arc_length_m=arc,
        radius_m=prof.radius_m,
        phi_rad=prof.angular_extent_rad,
        accel_g=0.0,
        displacement_m=point.displacement_m,
        c1_f=bridge.c1_f,
        c2_f=bridge.c2_f,
        gain=point.gain,
        v_out_v=point.v_out_volts,
        s_mv_per_g=s * 1e3,
        s_net_mv_per_g=net_sensitivity(s, plan.mech) * 1e3,
    )


@pytest.mark.parametrize("feedback", list(FeedbackMode))
@pytest.mark.parametrize("anchor", list(GapAnchor))
@pytest.mark.parametrize("mode", list(ArcMode))
def test_sweep_rows_equal_the_per_cell_path(feedback, anchor, mode):
    """The arc-major sweep shares face evaluations between variants; every
    row must still equal, bit for bit, what the public per-cell functions
    give, and every skip must carry validate_geometry's reason."""
    plan = make_plan(
        drive=DriveModel(1.0, feedback), gap_anchor=anchor, arc_mode=mode
    )
    result = sensitivity_sweep(plan)
    cells = {(r.variant, r.arc_length_m) for r in result.rows}
    for row in result.rows:
        assert row == _per_cell_row(plan, row.variant, row.arc_length_m)
    for skip in result.metadata["skipped"]:
        variant, arc = Variant(skip["variant"]), skip["arc_length_m"]
        cells.add((variant, arc))
        config = ElectrodeConfig.for_variant(variant, _cell_profile(plan, arc))
        report = validate_geometry(config, plan.gap, plan.gap_anchor)
        assert not report.ok
        assert skip["reason"] == "; ".join(
            f"side {v.side}: {v.rule}" for v in report.violations
        )
    assert len(cells) == len(Variant) * plan.arc_points


@pytest.mark.parametrize("feedback", list(FeedbackMode))
@pytest.mark.parametrize("anchor", list(GapAnchor))
@pytest.mark.parametrize("mode", list(ArcMode))
def test_optimizer_step_equals_the_per_cell_path(feedback, anchor, mode):
    """An optimizer step reads S at rest from each distinct face, as the
    sweep reads a row; it must equal, bit for bit, what the public
    per-cell function gives, and an invalid cell must carry
    validate_geometry's reason under the step's prefix."""
    plan = make_plan(
        drive=DriveModel(1.0, feedback), gap_anchor=anchor, arc_mode=mode
    )
    outcomes = set()
    for variant in Variant:
        for arc in _linspace(1e-6, 120e-6, 25):
            config = ElectrodeConfig.for_variant(variant, _cell_profile(plan, arc))
            report = validate_geometry(config, plan.gap, plan.gap_anchor)
            outcomes.add(report.ok)
            if report.ok:
                d1, d2 = side_nominal_gaps(config, plan.gap.gap_m, plan.gap_anchor)
                s = sensitivity_at_side_nominals(
                    config, d1, d2, plan.mech, plan.drive, 0.0
                )
                assert _sensitivity_at_arc(_solve_of(plan, variant), arc) == s
                continue
            reason = "; ".join(f"side {v.side}: {v.rule}" for v in report.violations)
            with pytest.raises(ValueError) as info:
                _sensitivity_at_arc(_solve_of(plan, variant), arc)
            assert str(info.value) == (
                f"invalid geometry for {variant.value} at arc {arc} m: {reason}"
            )
    assert outcomes == {True, False}


def test_optimizer_step_on_unrealizable_arc_keeps_the_profile_message():
    # at R = 10 um a 60 um arc needs phi = 6 rad, outside [0, pi)
    plan = make_plan(
        profile=ArcProfile(10e-6, 0.2, STD_H), arc_mode=ArcMode.VARY_PHI_FIXED_R
    )
    with pytest.raises(ValueError) as expected:
        ArcProfile(10e-6, 60e-6 / 10e-6, STD_H)
    for variant in Variant:
        with pytest.raises(ValueError) as info:
            maximize_sensitivity(variant, (1e-6, 60e-6), plan)
        assert str(info.value) == str(expected.value)


@pytest.mark.parametrize("feedback", list(FeedbackMode))
@pytest.mark.parametrize("anchor", list(GapAnchor))
def test_curve_rows_equal_the_per_point_path(feedback, anchor):
    """A curve shares its displaced faces between variants and evaluates
    nominal feedback's rest capacitance once per kind; every row must
    still equal, bit for bit, what the public per-point functions give at
    its acceleration, and every over-range point must carry the
    OverRangeError message."""
    # +-900 g passes the travel limit of every variant under both anchors
    plan = make_plan(
        drive=DriveModel(1.0, feedback),
        gap_anchor=anchor,
        accel_range_g=(-900.0, 900.0),
        accel_points=13,
    )
    result = gain_curve(plan)
    rows, over_range = iter(result.rows), iter(result.metadata["over_range"])
    prof = plan.profile
    for variant in Variant:
        config = ElectrodeConfig.for_variant(variant, prof)
        d1, d2 = side_nominal_gaps(config, plan.gap.gap_m, plan.gap_anchor)
        args = (config, d1, d2, plan.mech, plan.drive)
        for a_g in _linspace(*plan.accel_range_g, plan.accel_points):
            accel = a_g * STANDARD_GRAVITY
            try:
                point = gain_at_side_nominals(*args, accel)
            except OverRangeError as err:
                reason = str(err)
                assert next(over_range) == {
                    "variant": variant.value, "accel_g": a_g, "reason": reason
                }
                continue
            s = sensitivity_at_side_nominals(*args, accel)
            assert next(rows) == SweepRow(
                variant=variant,
                arc_length_m=prof.arc_length(),
                radius_m=prof.radius_m,
                phi_rad=prof.angular_extent_rad,
                accel_g=a_g,
                displacement_m=point.displacement_m,
                c1_f=point.bridge.c1_f,
                c2_f=point.bridge.c2_f,
                gain=point.gain,
                v_out_v=point.v_out_volts,
                s_mv_per_g=s * 1e3,
                s_net_mv_per_g=net_sensitivity(s, plan.mech) * 1e3,
            )
    assert next(rows, None) is None and next(over_range, None) is None
    assert result.rows and result.metadata["over_range"]


# Envelope property: the face tables of the sweep and the curve against the
# public per-cell and per-point path, on plans drawn over the envelope.


def log_uniform(quantity: str, lo: float | None = None, hi: float | None = None):
    """Floats log-uniform over [lo, hi], by default q's envelope interval."""
    env_lo, env_hi = _ENVELOPE[quantity]
    lo, hi = lo or env_lo, hi or env_hi
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda e: min(max(10.0**e, lo), hi))


@st.composite
def envelope_plans(draw) -> SweepPlan:
    """A plan over the envelope: R, phi, h, gap, mass, stiffness, comb
    count, drive, both anchors, arc modes and feedback modes, an arc range
    around the plan's arc and an acceleration range up to 1.1 times the
    planar travel limit on either side (within the envelope)."""
    r = draw(log_uniform("length"))
    # arc <= 3 R keeps phi below pi
    arc = draw(log_uniform("length", hi=min(1.0, 3.0 * r)))
    profile = ArcProfile(r, arc / r, draw(log_uniform("length")))
    gap = draw(log_uniform("length"))
    mech = MechanicalModel(
        draw(log_uniform("mass")), draw(log_uniform("stiffness")),
        draw(st.integers(0, 6).map(lambda e: 10**e)),
    )
    limit_g = gap * mech.spring_n_per_m / (mech.mass_kg * STANDARD_GRAVITY)
    reach = min(1.1 * limit_g, _ENVELOPE["accel_g"][1])
    ends = draw(st.lists(st.floats(-1.0, 1.0), min_size=2, max_size=2, unique=True))
    accel_range = tuple(sorted(u * reach for u in ends))
    arc_ends = [min(max(arc * 10.0**e, 1e-9), 1.0) for e in
                draw(st.lists(st.floats(-3.0, 1.0), min_size=2, max_size=2))]
    arc_range = tuple(sorted(arc_ends))
    if not (accel_range[0] < accel_range[1] and arc_range[0] < arc_range[1]):
        arc_range, accel_range = (1e-9, 1.0), (-reach, reach)
    return SweepPlan(
        variants=tuple(draw(st.lists(st.sampled_from(list(Variant)), min_size=1, max_size=7))),
        profile=profile,
        gap=GapState(gap),
        mech=mech,
        drive=DriveModel(
            draw(log_uniform("voltage")),
            draw(st.sampled_from(list(FeedbackMode))),
            draw(log_uniform("permittivity")),
        ),
        arc_mode=draw(st.sampled_from(list(ArcMode))),
        gap_anchor=draw(st.sampled_from(list(GapAnchor))),
        arc_range_m=arc_range,
        arc_points=draw(st.integers(2, 8)),
        accel_range_g=accel_range,
        accel_points=draw(st.integers(2, 9)),
    )


def _reason(report) -> str:
    return "; ".join(f"side {v.side}: {v.rule}" for v in report.violations)


def _per_cell_sweep(plan: SweepPlan) -> tuple[list, list]:
    """The sweep's rows and skips through the public per-cell path."""
    rows, skipped = [], []
    for variant in _ordered_variants(plan.variants):
        for arc in _linspace(*plan.arc_range_m, plan.arc_points):
            try:
                config = ElectrodeConfig.for_variant(variant, _cell_profile(plan, arc))
            except ValueError as err:
                reason = str(err)
            else:
                report = validate_geometry(config, plan.gap, plan.gap_anchor)
                if report.ok:
                    rows.append(_per_cell_row(plan, variant, arc))
                    continue
                reason = _reason(report)
            skipped.append({"variant": variant.value, "arc_length_m": arc, "reason": reason})
    return rows, skipped


def _per_point_curve(plan: SweepPlan) -> tuple[list, list, dict]:
    """The curve's rows, over-range entries and slopes through the public
    per-point path; a cell invalid at rest is one entry with
    validate_geometry's reason."""
    rows, over_range, slopes = [], [], {}
    prof = plan.profile
    for variant in _ordered_variants(plan.variants):
        config = ElectrodeConfig.for_variant(variant, prof)
        report = validate_geometry(config, plan.gap, plan.gap_anchor)
        if not report.ok:
            over_range.append({"variant": variant.value, "accel_g": None, "reason": _reason(report)})
            continue
        d1, d2 = side_nominal_gaps(config, plan.gap.gap_m, plan.gap_anchor)
        args = (config, d1, d2, plan.mech, plan.drive)
        curve = []
        for a_g in _linspace(*plan.accel_range_g, plan.accel_points):
            accel = a_g * STANDARD_GRAVITY
            try:
                point = gain_at_side_nominals(*args, accel)
            except OverRangeError as err:
                over_range.append({"variant": variant.value, "accel_g": a_g, "reason": str(err)})
                continue
            s = sensitivity_at_side_nominals(*args, accel)
            curve.append(SweepRow(
                variant, prof.arc_length(), prof.radius_m, prof.angular_extent_rad, a_g,
                point.displacement_m, point.bridge.c1_f, point.bridge.c2_f, point.gain,
                point.v_out_volts, s * 1e3, net_sensitivity(s, plan.mech) * 1e3,
            ))
        rows += curve
        xs, ys = [r.accel_g for r in curve], [r.v_out_v for r in curve]
        if len(xs) >= 2 and (slope := _least_squares_slope(xs, ys)) is not None:
            slopes[variant.value] = slope * 1e3
    return rows, over_range, slopes


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(plan=envelope_plans())
def test_face_tables_equal_the_public_path_over_the_envelope(plan):
    """Every sweep row and skip reason, and every curve row, over-range
    entry and slope, equals the public per-cell and per-point path bit for
    bit (their reprs, which tell -0.0 from 0.0, are equal), cells invalid
    at rest included."""
    rows, skipped = _per_cell_sweep(plan)
    if rows:
        result = sensitivity_sweep(plan)
        assert repr(list(result.rows)) == repr(rows)
        assert result.metadata["skipped"] == skipped
    else:
        with pytest.raises(ValueError) as info:
            sensitivity_sweep(plan)
        assert str(info.value).endswith("first reason: " + skipped[0]["reason"])
    rows, over_range, slopes = _per_point_curve(plan)
    if rows:
        result = gain_curve(plan)
        assert repr(list(result.rows)) == repr(rows)
        assert repr(result.metadata["over_range"]) == repr(over_range)
        assert repr(result.metadata["fitted_slope_mv_per_g"]) == repr(slopes)
    else:
        with pytest.raises(ValueError, match="no valid grid points in the gain-curve plan"):
            gain_curve(plan)


def test_sweep_row_is_an_immutable_hashable_record():
    plan = make_plan(
        variants=(Variant.BICONVEX,), accel_range_g=(-1.0, 1.0), accel_points=2
    )
    row = gain_curve(plan).rows[-1]
    with pytest.raises(AttributeError):
        row.gain = 0.0
    assert {row, row._replace()} == {row}
    assert SweepRow._fields == (
        "variant",
        "arc_length_m",
        "radius_m",
        "phi_rad",
        "accel_g",
        "displacement_m",
        "c1_f",
        "c2_f",
        "gain",
        "v_out_v",
        "s_mv_per_g",
        "s_net_mv_per_g",
    )
    assert repr(row) == (
        "SweepRow(variant=<Variant.BICONVEX: 'Biconvex'>, arc_length_m=2e-05, "
        "radius_m=0.0001, phi_rad=0.2, accel_g=1.0, "
        "displacement_m=2.5497289999999997e-09, c1_f=2.1441226512443576e-16, "
        "c2_f=2.1374757712936698e-16, gain=0.0015524295589467477, "
        "v_out_v=0.0015524295589467477, s_mv_per_g=1.5524296587111084, "
        "s_net_mv_per_g=32.601022832933275)"
    )


OUTSIDE_LENGTHS = "outside the model's length range"
OUTSIDE_ARCS = "outside the model's arc_length range"


@pytest.mark.parametrize("mode", list(ArcMode))
def test_sweep_refuses_arcs_below_the_envelope(mode):
    # a subnormal arc length, whose C would underflow, is refused by the plan
    for arc_range in ((1e-320, 2e-320), (1e-320, 20e-6)):
        with pytest.raises(ValueError, match="arc_range_m min = 1e-320 is " + OUTSIDE_LENGTHS):
            make_plan(variants=(Variant.PLANAR,), arc_mode=mode, arc_range_m=arc_range)
    # the shortest arc of the envelope evaluates to a finite, nonzero S
    result = sensitivity_sweep(
        make_plan(
            variants=(Variant.PLANAR,),
            arc_mode=mode,
            arc_range_m=(1e-9, 20e-6),
            arc_points=2,
        )
    )
    assert [r.arc_length_m for r in result.rows] == [1e-9, 20e-6]
    assert all(0.0 < r.s_mv_per_g < math.inf for r in result.rows)
    assert result.metadata["skipped"] == []


@pytest.mark.parametrize("feedback", list(FeedbackMode))
@pytest.mark.parametrize("bounds", [(1e-320, 1e-6), (5e-324, 5e-324), (1e-155, 1e-6)])
def test_optimizer_refuses_arcs_below_the_envelope(feedback, bounds):
    plan = make_plan(drive=DriveModel(1.0, feedback))
    for variant in Variant:
        # each bound is held to the arc length interval before any profile
        refused = f"arc_bounds_m min = {bounds[0]} is " + OUTSIDE_ARCS
        with pytest.raises(ValueError, match=re.escape(refused)):
            maximize_sensitivity(variant, bounds, plan)
    # from the shortest arc of the envelope, at fixed R = 100 um so that
    # concave faces stay valid, every S is finite and nonzero
    plan = make_plan(drive=DriveModel(1.0, feedback), arc_mode=ArcMode.VARY_PHI_FIXED_R)
    for variant in Variant:
        arc, s = maximize_sensitivity(variant, (1e-9, 1e-6), plan)
        assert 1e-9 <= arc <= 1e-6 and 0.0 < abs(s) < math.inf


def test_sweep_and_optimizer_span_arcs_up_to_the_envelope():
    # an arc of 1e308 m, where matched-sum C_fb**2 would overflow, is refused;
    # at the longest arc of the envelope both feedback modes evaluate
    for feedback in FeedbackMode:
        overrides = dict(
            variants=(Variant.PLANAR,),
            profile=ArcProfile(STD_R, 2.0, STD_H),
            drive=DriveModel(1.0, feedback),
            arc_points=2,
        )
        refused = "arc_range_m max = 1e[+]308 is " + OUTSIDE_LENGTHS
        with pytest.raises(ValueError, match=refused):
            make_plan(arc_range_m=(1e-6, 1e308), **overrides)
        plan = make_plan(arc_range_m=(1e-6, 1.0), **overrides)
        result = sensitivity_sweep(plan)
        assert [r.arc_length_m for r in result.rows] == [1e-6, 1.0]
        assert all(0.0 < r.s_mv_per_g < math.inf for r in result.rows)
        refused = "arc_bounds_m max = 1e[+]308 is " + OUTSIDE_ARCS
        with pytest.raises(ValueError, match=refused):
            maximize_sensitivity(Variant.PLANAR, (1e-6, 1e308), plan)
        arc, s = maximize_sensitivity(Variant.PLANAR, (1e-6, 1.0), plan)
        assert 1e-6 <= arc <= 1.0 and 0.0 < s < math.inf


@pytest.mark.parametrize("bounds", [(1.0, 1e7), (1e-6, 1e308), (1e-6, 1.0), (0.5, 1.0)])
def test_optimizer_ends_at_a_bound_up_to_the_longest_arc(monkeypatch, bounds):
    """Arcs above the envelope's longest, 1 m, are refused; up to it a
    solve evaluates its two bounds and returns one of them."""
    calls = []

    def counted(*args):
        calls.append(args)
        return _sensitivity_at_arc(*args)

    monkeypatch.setattr(sweep, "_sensitivity_at_arc", counted)
    # PlanoConcave on the face plane with phi growing under nominal feedback,
    # the case proved by computation; at R = 1 m and a 0.1 um gap its
    # concave face admits every arc of the envelope
    plan = make_plan(
        profile=ArcProfile(1.0, 0.5, STD_H),
        gap=GapState(1e-7),
        drive=DriveModel(1.0, FeedbackMode.NOMINAL),
        arc_mode=ArcMode.VARY_PHI_FIXED_R,
        gap_anchor=GapAnchor.FACE_PLANE,
    )
    if bounds[1] > 1.0:
        with pytest.raises(ValueError, match="arc_bounds_m max = .* is " + OUTSIDE_ARCS):
            maximize_sensitivity(Variant.PLANO_CONCAVE, bounds, plan)
        return
    arc, s = maximize_sensitivity(Variant.PLANO_CONCAVE, bounds, plan)
    assert len(calls) == 2 and arc in bounds
    assert s == _sensitivity_at_arc(_solve_of(plan, Variant.PLANO_CONCAVE), arc)


class TestGainCurve:
    def test_rows_and_slopes(self):
        plan = make_plan(
            variants=(Variant.PLANAR, Variant.BICONVEX),
            accel_range_g=(-1.0, 1.0),
            accel_points=9,
        )
        result = gain_curve(plan)
        assert len(result.rows) == 2 * 9
        slopes = result.metadata["fitted_slope_mv_per_g"]
        # secant slope over +-1 g agrees with the rest-point derivative
        assert slopes["Planar"] == pytest.approx(1.2748645, rel=1e-9)
        assert slopes["Biconvex"] == pytest.approx(1.5524296, rel=1e-3)

    def test_over_range_points_recorded(self):
        plan = make_plan(
            variants=(Variant.PLANAR,),
            gap=GapState(0.5e-6),
            accel_range_g=(-250.0, 250.0),
            accel_points=11,
        )
        result = gain_curve(plan)
        assert result.metadata["over_range"]
        assert len(result.rows) + len(result.metadata["over_range"]) == 11

    def test_accel_grid_hits_endpoints(self):
        plan = make_plan(
            variants=(Variant.PLANAR,), accel_range_g=(-2.0, 2.0), accel_points=5
        )
        accels = [r.accel_g for r in gain_curve(plan).rows]
        assert accels == [-2.0, -1.0, 0.0, 1.0, 2.0]

    def test_grid_whose_span_overflows_stays_finite_and_ordered(self):
        big = sys.float_info.max  # big - (-big) would overflow to inf
        for accel_range in ((-big, big), (-1e308, 1e308)):
            with pytest.raises(ValueError, match="outside the model's accel_g range"):
                make_plan(accel_range_g=accel_range)
        # the widest grid of the envelope is finite, ordered, and hits 0 g
        grid = _linspace(*make_plan(accel_range_g=(-1e6, 1e6)).accel_range_g, 1001)
        assert all(math.isfinite(x) for x in grid) and grid == sorted(grid)
        assert (grid[0], grid[500], grid[-1]) == (-1e6, 0.0, 1e6)
        assert _linspace(-1e6, 1e6, 3) == [-1e6, 0.0, 1e6]


class TestMaximizeSensitivity:
    def test_biconvex_peaks_at_long_arc_bound(self):
        plan = make_plan(variants=(Variant.BICONVEX,))
        arc, s = maximize_sensitivity(Variant.BICONVEX, DEFAULT_ARC_BOUNDS_M, plan)
        assert arc == pytest.approx(60e-6, rel=1e-6)
        assert s > 0

    def test_biconcave_peaks_at_short_arc_bound(self):
        plan = make_plan(variants=(Variant.BICONCAVE,))
        arc, _ = maximize_sensitivity(Variant.BICONCAVE, DEFAULT_ARC_BOUNDS_M, plan)
        assert arc == pytest.approx(5e-6, rel=1e-6)

    @pytest.mark.parametrize("variant", list(Variant))
    def test_beats_dense_grid(self, variant):
        plan = make_plan()
        lo, hi = DEFAULT_ARC_BOUNDS_M
        arc_best, s_best = maximize_sensitivity(variant, (lo, hi), plan)
        n = 200
        rows = sensitivity_sweep(
            make_plan(variants=(variant,), arc_range_m=(lo, hi), arc_points=n)
        ).rows
        grid_best = max(abs(rows[i].s_mv_per_g) for i in range(n))
        assert abs(s_best) * 1e3 >= grid_best * (1 - 1e-12)
        assert lo <= arc_best <= hi

    def test_invalid_bound_raises(self):
        plan = make_plan(
            arc_mode=ArcMode.VARY_PHI_FIXED_R, gap_anchor=GapAnchor.FACE_PLANE
        )
        with pytest.raises(ValueError):
            maximize_sensitivity(Variant.BICONVEX, (5e-6, 60e-6), plan)

    def test_shortest_arc_of_the_envelope_at_a_radius_that_rounds_it_short(self):
        # at this radius R * (1e-9 / R) lies one ulp below 1e-9: the rebuilt
        # profile is still in the envelope, a row and an optimizer bound
        r = 0.25809494367433444
        assert r * (1e-9 / r) < 1e-9
        plan = make_plan(
            profile=ArcProfile(r, STD_PHI, STD_H), arc_mode=ArcMode.VARY_PHI_FIXED_R,
            arc_range_m=(1e-9, 2e-9), arc_points=2,
        )
        result = sensitivity_sweep(plan)
        assert result.metadata.get("skipped", []) == []
        assert {row.arc_length_m for row in result.rows} == {1e-9, 2e-9}
        for variant in Variant:
            arc, s = maximize_sensitivity(variant, (1e-9, 2e-9), plan)
            assert 1e-9 <= arc <= 2e-9 and math.isfinite(s) and s != 0

    def test_degenerate_interval(self):
        plan = make_plan()
        arc, s = maximize_sensitivity(Variant.BICONVEX, (20e-6, 20e-6), plan)
        assert arc == 20e-6
        assert s != 0
