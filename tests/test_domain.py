"""One admissible-gap rule: side_gap_bounds decides, for every face kind,
whether a closed form evaluates, whether validate_geometry reports ok,
and whether a travel request is over range. Checked at each bound and
one ulp on either side, where two roundings of one bound can disagree."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curvedcomb import (
    ArcProfile,
    DriveModel,
    ElectrodeConfig,
    FaceKind,
    FeedbackMode,
    GapAnchor,
    GapState,
    GeometryDomainError,
    MechanicalModel,
    OverRangeError,
    PlanarProfile,
    Variant,
    allowed_displacement_interval,
    bridge_at_side_nominals,
    cap_concave,
    cap_convex,
    cap_planar,
    dcap_dgap,
    face_capacitance,
    gain_at_side_nominals,
    quad_capacitance,
    sensitivity_at_side_nominals,
    side_gap_bounds,
    side_nominal_gaps,
    validate_geometry,
)

NAN = float("nan")
PROPERTY = settings(max_examples=150, deadline=None, derandomize=True, database=None)

# unit mass over unit stiffness, so the displacement equals the acceleration
UNIT_MECH = MechanicalModel(1.0, 1.0)

profiles = st.builds(
    ArcProfile,
    radius_m=st.floats(10e-6, 1000e-6),
    angular_extent_rad=st.floats(1e-3, 3.0),
    thickness_m=st.just(2e-6),
)
variants = st.sampled_from(list(Variant))
anchors = st.sampled_from(list(GapAnchor))


def around(x: float) -> list[float]:
    """x and its two floating-point neighbours."""
    return [math.nextafter(x, -math.inf), x, math.nextafter(x, math.inf)]


def finite_bounds(kind: FaceKind, face) -> list[float]:
    """The finite bounds of side_gap_bounds, the ones to probe."""
    return [b for b in side_gap_bounds(kind, face) if b < math.inf]


def evaluates(kind: FaceKind, face, gap_m: float) -> bool:
    """Whether both the capacitance and its gap derivative evaluate."""
    try:
        face_capacitance(kind, face, gap_m)
        dcap_dgap(kind, face, gap_m)
    except GeometryDomainError:
        return False
    return True


def sides(config: ElectrodeConfig):
    """(kind, face) of side 1 and side 2."""
    return [
        (k, config.planar_face if k is FaceKind.FLAT else config.profile)
        for k in config.side_kinds()
    ]


@PROPERTY
@given(profile=profiles, kind=st.sampled_from(list(FaceKind)))
def test_closed_forms_evaluate_exactly_inside_bounds(profile, kind):
    face = profile
    if kind is FaceKind.FLAT:
        face = PlanarProfile(profile.arc_length(), profile.thickness_m)
    lo, hi = side_gap_bounds(kind, face)
    for bound in finite_bounds(kind, face):
        for g in around(bound):
            assert evaluates(kind, face, g) == (lo < g < hi), (kind, g, lo, hi)


def _gap_candidates(config: ElectrodeConfig, gap_m: float, anchor: GapAnchor):
    """(nominal gap, displacement) pairs that put a displaced gap at a bound."""
    out = [(gap_m, 0.0)]
    if anchor is GapAnchor.APEX:
        # at rest the nominal gap is the closed-form gap of both sides
        for kind, face in sides(config):
            for bound in finite_bounds(kind, face):
                out += [(g, 0.0) for g in around(bound)]
    d1, d2 = side_nominal_gaps(config, gap_m, anchor)
    for bound in allowed_displacement_interval(config, d1, d2):
        if math.isfinite(bound):
            out += [(gap_m, delta) for delta in around(bound)]
    return out


@PROPERTY
@given(
    profile=profiles,
    variant=variants,
    anchor=anchors,
    gap_rel=st.floats(0.5, 4.0),
)
def test_validate_geometry_ok_iff_both_closed_forms_evaluate(
    profile, variant, anchor, gap_rel
):
    config = ElectrodeConfig.for_variant(variant, profile)
    base_gap = gap_rel * max(profile.sagitta(), 1e-7)
    for gap_m, delta in _gap_candidates(config, base_gap, anchor):
        report = validate_geometry(config, GapState(gap_m, delta), anchor)
        d1, d2 = side_nominal_gaps(config, gap_m, anchor)
        gaps = (d1 - delta, d2 + delta)
        failing = [not evaluates(k, f, g) for (k, f), g in zip(sides(config), gaps)]
        assert report.ok == (not any(failing)), (variant, anchor, gap_m, delta, report)
        # one violation per failing side
        assert len(report.violations) == sum(failing)


@PROPERTY
@given(
    profile=profiles,
    variant=variants,
    anchor=anchors,
    gap_rel=st.floats(0.5, 4.0),
    feedback=st.sampled_from(list(FeedbackMode)),
)
def test_travel_limit_is_over_range_never_domain_error(
    profile, variant, anchor, gap_rel, feedback
):
    config = ElectrodeConfig.for_variant(variant, profile)
    gap = GapState(gap_rel * max(profile.sagitta(), 1e-7))
    if not validate_geometry(config, gap, anchor).ok:
        return
    drive = DriveModel(1.0, feedback)
    d1, d2 = side_nominal_gaps(config, gap.gap_m, anchor)
    lo, hi = allowed_displacement_interval(config, d1, d2)
    for accel in around(lo) + around(hi):
        for evaluate in (gain_at_side_nominals, sensitivity_at_side_nominals):
            try:
                evaluate(config, d1, d2, UNIT_MECH, drive, accel)
            except OverRangeError as err:
                assert err.first_invalid_accel_m_s2 in (lo, hi)


@pytest.mark.parametrize("radius_m", [100e-6, 1e-300, 1e3])
@pytest.mark.parametrize("kind", [FaceKind.CONVEX, FaceKind.FLAT])
def test_gap_floor_keeps_closed_forms_finite_and_nonzero(kind, radius_m):
    # at a subnormal gap g**2 underflows to 0, so convex and flat faces
    # admit gaps only above a positive floor; one ulp above it both
    # closed forms are finite and nonzero, at any radius
    face = ArcProfile(radius_m, 0.2, 2e-6)
    if kind is FaceKind.FLAT:
        face = PlanarProfile(face.arc_length(), face.thickness_m)
    floor = side_gap_bounds(kind, face)[0]
    assert 0.0 < floor < 1e-100
    for gap in (math.nextafter(0.0, 1.0), floor):
        assert not evaluates(kind, face, gap)
    gap = math.nextafter(floor, 1.0)
    c, dc = face_capacitance(kind, face, gap), dcap_dgap(kind, face, gap)
    assert 0.0 < c < math.inf and -math.inf < dc < 0.0


class TestNanIsRejected:
    def test_closed_forms(self, profile):
        face = PlanarProfile(profile.arc_length(), profile.thickness_m)
        for call in (
            lambda: cap_convex(profile, NAN),
            lambda: cap_concave(profile, NAN),
            lambda: cap_planar(face, NAN),
            lambda: dcap_dgap(FaceKind.CONVEX, profile, NAN),
            lambda: dcap_dgap(FaceKind.CONCAVE, profile, NAN),
            lambda: dcap_dgap(FaceKind.FLAT, face, NAN),
        ):
            with pytest.raises(GeometryDomainError):
                call()

    @pytest.mark.parametrize("gap_m", [NAN, math.inf, -math.inf])
    @pytest.mark.parametrize("kind", list(FaceKind))
    def test_quadrature(self, kind, gap_m, profile):
        face = profile
        if kind is FaceKind.FLAT:
            face = PlanarProfile(profile.arc_length(), profile.thickness_m)
        with pytest.raises(ValueError, match="positive finite gap"):
            quad_capacitance(kind, face, gap_m)

    @pytest.mark.parametrize("variant", list(Variant))
    def test_validate_geometry_without_the_constructor_check(self, variant, profile):
        # validate_geometry's own rule rejects NaN even when GapState's
        # constructor check has been bypassed
        state = GapState(2e-6)
        object.__setattr__(state, "displacement_m", NAN)
        config = ElectrodeConfig.for_variant(variant, profile)
        report = validate_geometry(config, state)
        assert not report.ok
        assert {v.side for v in report.violations} == {1, 2}

    @pytest.mark.parametrize("variant", list(Variant))
    def test_transduction(self, variant, profile, mech, drive):
        config = ElectrodeConfig.for_variant(variant, profile)
        d = 2e-6
        for evaluate in (gain_at_side_nominals, sensitivity_at_side_nominals):
            with pytest.raises(OverRangeError):
                evaluate(config, d, d, mech, drive, NAN)
            with pytest.raises(OverRangeError):
                evaluate(config, NAN, d, mech, drive, 0.0)
        with pytest.raises(GeometryDomainError):
            bridge_at_side_nominals(config, d, d, NAN, drive)
