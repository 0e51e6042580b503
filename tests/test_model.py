import math
import re

import pytest

from curvedcomb import (
    ArcProfile,
    ArcMode,
    DriveModel,
    ElectrodeConfig,
    FaceKind,
    FeedbackMode,
    GapAnchor,
    GapState,
    MechanicalModel,
    PlanarProfile,
    SweepPlan,
    Variant,
    dcap_dgap,
    displacement,
    face_capacitance,
    gain_curve,
    maximize_sensitivity,
    quad_capacitance,
    sensitivity_sweep,
    side_gap_bounds,
    side_nominal_gaps,
    validate_geometry,
)

NAN = float("nan")
INF = float("inf")
ALL_VARIANTS = tuple(Variant)
CURVED_VARIANTS = tuple(v for v in Variant if v is not Variant.PLANAR)


class TestArcProfile:
    def test_derived_quantities(self):
        p = ArcProfile(100e-6, 0.2, 2e-6)
        assert p.arc_length() == pytest.approx(20e-6, rel=1e-15)
        assert p.sagitta() == pytest.approx(100e-6 * (1 - math.cos(0.1)), rel=1e-15)
        # sagitta identity: R(1 - cos(phi/2)) == 2 R sin^2(phi/4)
        assert p.sagitta() == pytest.approx(
            2 * 100e-6 * math.sin(0.05) ** 2, rel=1e-12
        )

    @pytest.mark.parametrize(
        "r, phi, h",
        [(0.0, 0.2, 2e-6), (-1e-6, 0.2, 2e-6), (100e-6, -0.1, 2e-6),
         (100e-6, math.pi, 2e-6), (100e-6, 0.2, 0.0),
         (NAN, 0.2, 2e-6), (INF, 0.2, 2e-6), (100e-6, NAN, 2e-6),
         (100e-6, 0.2, NAN), (100e-6, 0.2, INF)],
    )
    def test_rejects_bad_parameters(self, r, phi, h):
        with pytest.raises(ValueError):
            ArcProfile(r, phi, h)

    def test_zero_angle_is_refused_and_the_shortest_arc_allowed(self):
        # phi = 0 gives an arc length of 0, outside the model envelope
        with pytest.raises(ValueError, match="arc_length_m must be positive and finite"):
            ArcProfile(100e-6, 0.0, 2e-6)
        # the shortest arc of the envelope is a valid, nearly flat profile
        p = ArcProfile(1e-9, 1.0, 2e-6)
        assert p.arc_length() == 1e-9
        assert 0.0 < p.sagitta() < 1e-9


class TestPlanarProfile:
    def test_fields(self):
        f = PlanarProfile(20e-6, 2e-6)
        assert f.length_m == 20e-6

    @pytest.mark.parametrize(
        "b, h", [(0.0, 2e-6), (20e-6, -1e-6), (NAN, 2e-6), (INF, 2e-6), (20e-6, NAN)]
    )
    def test_rejects_bad_parameters(self, b, h):
        with pytest.raises(ValueError):
            PlanarProfile(b, h)


class TestGapState:
    def test_requires_positive_gap(self):
        with pytest.raises(ValueError):
            GapState(0.0)
        with pytest.raises(ValueError):
            GapState(-1e-6)

    @pytest.mark.parametrize(
        "gap_m, delta", [(NAN, 0.0), (INF, 0.0), (2e-6, NAN), (2e-6, -INF)]
    )
    def test_rejects_non_finite(self, gap_m, delta):
        with pytest.raises(ValueError):
            GapState(gap_m, delta)

    def test_displacement_is_free(self):
        # over-range displacement is caught downstream, not here
        s = GapState(2e-6, displacement_m=5e-6)
        assert s.displacement_m == 5e-6


class TestElectrodeConfig:
    @pytest.mark.parametrize("variant", ALL_VARIANTS)
    def test_side_kind_table(self, variant, profile):
        config = ElectrodeConfig.for_variant(variant, profile)
        kinds = config.side_kinds()
        assert len(kinds) == 2
        expected = {
            Variant.PLANAR: (FaceKind.FLAT, FaceKind.FLAT),
            Variant.BICONVEX: (FaceKind.CONVEX, FaceKind.CONVEX),
            Variant.BICONCAVE: (FaceKind.CONCAVE, FaceKind.CONCAVE),
            Variant.CONCAVO_CONVEX: (FaceKind.CONVEX, FaceKind.CONCAVE),
            Variant.CONVEXO_CONCAVE: (FaceKind.CONCAVE, FaceKind.CONVEX),
            Variant.PLANO_CONVEX: (FaceKind.CONVEX, FaceKind.FLAT),
            Variant.PLANO_CONCAVE: (FaceKind.CONCAVE, FaceKind.FLAT),
        }
        assert kinds == expected[variant]

    def test_mixed_variant_gets_matched_flat_face(self, profile):
        config = ElectrodeConfig.for_variant(Variant.PLANO_CONVEX, profile)
        assert config.planar_face is not None
        assert config.planar_face.length_m == pytest.approx(
            profile.arc_length(), rel=1e-12
        )

    def test_mismatched_flat_face_rejected(self, profile):
        face = PlanarProfile(profile.arc_length() * 1.5, profile.thickness_m)
        with pytest.raises(ValueError):
            ElectrodeConfig(Variant.PLANO_CONVEX, profile, face)

    def test_planar_variant_face_lengths_follow_arc(self, profile):
        config = ElectrodeConfig.for_variant(Variant.PLANAR, profile)
        assert config.planar_face.length_m == pytest.approx(20e-6, rel=1e-12)


class TestSideNominalGaps:
    @pytest.mark.parametrize("variant", ALL_VARIANTS)
    def test_apex_anchor_keeps_gap(self, variant, profile):
        config = ElectrodeConfig.for_variant(variant, profile)
        d1, d2 = side_nominal_gaps(config, 2e-6, GapAnchor.APEX)
        assert d1 == 2e-6 and d2 == 2e-6

    def test_face_plane_anchor_shifts_by_sagitta(self, profile):
        s = profile.sagitta()
        vex = ElectrodeConfig.for_variant(Variant.BICONVEX, profile)
        d1, d2 = side_nominal_gaps(vex, 2e-6, GapAnchor.FACE_PLANE)
        assert d1 == pytest.approx(2e-6 - s, rel=1e-15)
        assert d2 == pytest.approx(2e-6 - s, rel=1e-15)
        cave = ElectrodeConfig.for_variant(Variant.BICONCAVE, profile)
        d1, d2 = side_nominal_gaps(cave, 2e-6, GapAnchor.FACE_PLANE)
        assert d1 == pytest.approx(2e-6 + s, rel=1e-15)
        mixed = ElectrodeConfig.for_variant(Variant.PLANO_CONCAVE, profile)
        d1, d2 = side_nominal_gaps(mixed, 2e-6, GapAnchor.FACE_PLANE)
        assert d1 == pytest.approx(2e-6 + s, rel=1e-15)
        assert d2 == 2e-6  # flat side unchanged


class TestSideGapBounds:
    def test_concave_lower_bound_exceeds_sagitta(self, profile):
        lo, hi = side_gap_bounds(FaceKind.CONCAVE, profile)
        assert lo > profile.sagitta()
        assert lo == pytest.approx(profile.sagitta(), rel=1e-9)
        assert hi == 2 * profile.radius_m

    def test_convex_and_flat_need_a_gap_between_floor_and_ceiling(self, profile):
        # 2**-340 m: the smallest power of two whose cube is a normal float;
        # 2 m: twice the largest nominal gap of the model envelope
        assert side_gap_bounds(FaceKind.CONVEX, profile) == (2.0**-340, 2.0)
        assert side_gap_bounds(FaceKind.FLAT, profile) == (2.0**-340, 2.0)


class TestValidateGeometry:
    @pytest.mark.parametrize("variant", ALL_VARIANTS)
    @pytest.mark.parametrize("anchor", list(GapAnchor))
    def test_reference_cell_is_valid(self, variant, anchor, profile, gap):
        config = ElectrodeConfig.for_variant(variant, profile)
        report = validate_geometry(config, gap, anchor)
        assert report.ok, report.violations

    def test_concave_contact_reported_not_raised(self, profile):
        config = ElectrodeConfig.for_variant(Variant.BICONCAVE, profile)
        report = validate_geometry(config, GapState(profile.sagitta()))
        assert not report.ok
        assert {v.side for v in report.violations} == {1, 2}
        # margin_m records how far past the limit the gap sits
        assert all(v.margin_m > 0 for v in report.violations)

    def test_face_plane_convex_needs_gap_beyond_sagitta(self):
        # deep convex bulge: sagitta exceeds the rest gap, faces touch
        deep = ArcProfile(100e-6, 0.6, 2e-6)
        assert deep.sagitta() > 2e-6
        config = ElectrodeConfig.for_variant(Variant.BICONVEX, deep)
        report = validate_geometry(config, GapState(2e-6), GapAnchor.FACE_PLANE)
        assert not report.ok
        # same cell is fine when the apex carries the quoted gap
        assert validate_geometry(config, GapState(2e-6), GapAnchor.APEX).ok

    def test_never_raises_on_wild_input(self, profile):
        # a 1 km gap is outside the model envelope; 1 m, its largest gap, is
        # far beyond a 100 um concave face's domain and is reported, not raised
        with pytest.raises(ValueError, match="gap_m = 1000.0 is outside"):
            GapState(1e3)
        config = ElectrodeConfig.for_variant(Variant.BICONCAVE, profile)
        report = validate_geometry(config, GapState(1.0))
        assert not report.ok


class TestMechanics:
    def test_displacement_is_hooke_ratio(self, mech):
        assert displacement(mech, 9.80665) == pytest.approx(
            2.6e-10 * 9.80665 / 1.0, rel=1e-15
        )

    def test_mech_validation(self):
        with pytest.raises(ValueError):
            MechanicalModel(0.0, 1.0)
        with pytest.raises(ValueError):
            MechanicalModel(2.6e-10, -1.0)
        with pytest.raises(ValueError):
            MechanicalModel(2.6e-10, 1.0, 0)

    @pytest.mark.parametrize(
        "m, k, n",
        [(NAN, 1.0, 1), (2.6e-10, INF, 1), (2.6e-10, 1.0, 2.5),
         (2.6e-10, 1.0, True), (2.6e-10, 1.0, "21")],
    )
    def test_mech_rejects_non_finite_and_non_int(self, m, k, n):
        with pytest.raises(ValueError):
            MechanicalModel(m, k, n)

    @pytest.mark.parametrize("v, eps", [(0.0, 8.854e-12), (NAN, 8.854e-12),
                                        (INF, 8.854e-12), (1.0, -1.0), (1.0, NAN)])
    def test_drive_validation(self, v, eps):
        with pytest.raises(ValueError):
            DriveModel(v, permittivity_f_per_m=eps)


def _above(x):
    return math.nextafter(x, INF)


def _below(x):
    return math.nextafter(x, -INF)


# (name in the message, envelope quantity, constructor taking that one value)
ENVELOPE_INPUTS = [
    ("radius_m", "length", lambda v: ArcProfile(v, 1.0, 2e-6)),
    ("thickness_m", "length", lambda v: ArcProfile(100e-6, 0.2, v)),
    ("length_m", "arc_length", lambda v: PlanarProfile(v, 2e-6)),
    ("gap_m", "length", lambda v: GapState(v)),
    ("mass_kg", "mass", lambda v: MechanicalModel(v, 1.0)),
    ("spring_n_per_m", "stiffness", lambda v: MechanicalModel(1e-10, v)),
    ("comb_count", "comb_count", lambda v: MechanicalModel(1e-10, 1.0, v)),
    ("v_in_volts", "voltage", lambda v: DriveModel(v)),
    ("permittivity_f_per_m", "permittivity",
     lambda v: DriveModel(1.0, permittivity_f_per_m=v)),
    ("angular_extent_rad", "angle", lambda v: ArcProfile(100e-6, v, 2e-6)),
    ("displacement_m", "displacement", lambda v: GapState(2e-6, v)),
]
# the documented model envelope (README), pinned independently of model.py
ENVELOPE = {
    "length": (1e-9, 1.0),
    "arc_length": (1e-9 * (1.0 - 2.0**-51), 1.0 + 2.0**-51),
    "mass": (1e-15, 1.0),
    "stiffness": (1e-6, 1e6),
    "comb_count": (1, 10**6),
    "voltage": (1e-6, 1e3),
    "permittivity": (1e-13, 1e-7),
    "angle": (0.0, 3.1415926535897927),  # [0, pi) in floats
    "displacement": (-1.7976931348623157e308, 1.7976931348623157e308),  # finite
}


class TestEnvelope:
    @pytest.mark.parametrize("name, quantity, build", ENVELOPE_INPUTS)
    def test_closed_interval_with_named_refusals(self, name, quantity, build):
        lo, hi = ENVELOPE[quantity]
        if quantity == "angle":  # phi = 0 is in [0, pi) but leaves no arc
            with pytest.raises(ValueError, match="arc_length_m must be positive"):
                build(lo)
        else:
            build(lo)
        build(hi)
        outside = (lo - 1, hi + 1) if quantity == "comb_count" else (_below(lo), _above(hi))
        for value in outside:
            if lo > 0 and value <= 0:  # a positive quantity's own wording
                match = f"{name} must be positive and finite, got {value}"
            else:
                match = f"{name} = {value} is outside the model's {quantity} range [{lo}, {hi}]"
            with pytest.raises(ValueError, match=re.escape(match)):
                build(value)
        for value in (0.0, -1.0, NAN, -INF, INF):
            if quantity == "comb_count":  # int ends: a float is refused as such
                match = f"{name} must be an int, got {value}"
            elif lo > 0:
                match = f"{name} must be positive and finite, got {value}"
            elif lo <= value <= hi:
                continue
            else:
                match = f"{name} = {value} is outside the model's {quantity} range"
            with pytest.raises(ValueError, match=re.escape(match)):
                build(value)

    def test_arc_length_is_bounded_on_both_sides(self):
        # the length interval, widened for the rounding of R * (arc / R)
        lo, hi = ENVELOPE["arc_length"]
        ArcProfile(1.0, hi, 2e-6)
        ArcProfile(1e-9, lo / 1e-9, 2e-6)
        with pytest.raises(ValueError, match="arc_length_m = .* is outside"):
            ArcProfile(1.0, _above(hi), 2e-6)
        with pytest.raises(ValueError, match="arc_length_m = .* is outside"):
            ArcProfile(1e-9, 1.0 - 2.0**-50, 2e-6)

    def test_a_profile_rebuilt_from_the_shortest_arc_is_allowed(self):
        # R * (arc / R) rounds one ulp below the 1e-9 m arc at this radius
        r = 0.25809494367433444
        assert r * (1e-9 / r) < 1e-9
        prof = ArcProfile(r, 1e-9 / r, 2e-6)
        PlanarProfile(prof.arc_length(), 2e-6)


_PROFILE = ArcProfile(100e-6, 0.2, 2e-6)
_CONFIG = ElectrodeConfig.for_variant(Variant.BICONVEX, _PROFILE)
_FACE = PlanarProfile(_PROFILE.arc_length(), 2e-6)


def _plan(**fields):
    base = dict(
        variants=(Variant.BICONVEX,), profile=_PROFILE, gap=GapState(2e-6),
        mech=MechanicalModel(2.6e-10, 1.0, 21), drive=DriveModel(1.0),
    )
    return SweepPlan(**{**base, **fields})


@pytest.mark.parametrize(
    "name, enum, build",
    [
        ("feedback_mode", FeedbackMode, lambda bad: DriveModel(1.0, bad)),
        ("variant", Variant, lambda bad: ElectrodeConfig(bad, _PROFILE, _FACE)),
        ("anchor", GapAnchor, lambda bad: side_nominal_gaps(_CONFIG, 2e-6, bad)),
        ("anchor", GapAnchor, lambda bad: validate_geometry(_CONFIG, GapState(2e-6), bad)),
        ("variant", Variant, lambda bad: _plan(variants=(Variant.PLANAR, bad))),
        ("arc_mode", ArcMode, lambda bad: _plan(arc_mode=bad)),
        ("gap_anchor", GapAnchor, lambda bad: _plan(gap_anchor=bad)),
        ("variant", Variant, lambda bad: maximize_sensitivity(bad, (5e-6, 6e-5), _plan())),
        ("kind", FaceKind, lambda bad: face_capacitance(bad, _PROFILE, 2e-6)),
        ("kind", FaceKind, lambda bad: dcap_dgap(bad, _PROFILE, 2e-6)),
        ("kind", FaceKind, lambda bad: quad_capacitance(bad, _PROFILE, 2e-6)),
        ("kind", FaceKind, lambda bad: side_gap_bounds(bad, _PROFILE)),
    ],
    ids=["DriveModel", "ElectrodeConfig", "side_nominal_gaps", "validate_geometry",
         "SweepPlan.variants", "SweepPlan.arc_mode", "SweepPlan.gap_anchor",
         "maximize_sensitivity", "face_capacitance", "dcap_dgap", "quad_capacitance",
         "side_gap_bounds"],
)
@pytest.mark.parametrize("kind", ["value", "None", "int", "other enum"])
def test_enum_fields_reject_non_members(name, enum, build, kind):
    # a member's own value once passed: "matched-sum" gave nominal feedback,
    # "apex" the face-plane gaps, "Biconvex" a KeyError and "convex" (or
    # None) the concave closed form
    bad = {
        "value": next(iter(enum)).value,
        "None": None,
        "int": 3,
        "other enum": Variant.PLANAR if enum is FaceKind else FaceKind.FLAT,
    }[kind]
    message = f"{name} must be a {enum.__name__}, got {bad!r}"
    with pytest.raises(ValueError, match=re.escape(message)):
        build(bad)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: _plan(variants=Variant.PLANAR),
         "variants must be a tuple of Variant, got <Variant.PLANAR: 'Planar'>"),
        (lambda: _plan(arc_range_m=None), "arc_range_m must be a (min, max) tuple, got None"),
        (lambda: validate_geometry(_CONFIG, 2e-6), "gap must be a GapState, got 2e-06"),
        (lambda: ArcProfile("1e-4", 0.2, 2e-6), "radius_m must be a real number, got '1e-4'"),
        (lambda: ElectrodeConfig(Variant.PLANAR, None, None),
         "profile must be a ArcProfile, got None"),
        (lambda: ElectrodeConfig(Variant.PLANAR, _PROFILE, None),
         "planar_face must be a PlanarProfile, got None"),
        (lambda: ElectrodeConfig(Variant.PLANAR, _FACE, _PROFILE),
         "profile must be a ArcProfile, got PlanarProfile("),
        (lambda: side_nominal_gaps(None, 2e-6, GapAnchor.APEX),
         "config must be a ElectrodeConfig, got None"),
        (lambda: side_nominal_gaps(_CONFIG, NAN, GapAnchor.APEX),
         "gap_m must be positive and finite, got nan"),
        (lambda: side_nominal_gaps(_CONFIG, -0.0, GapAnchor.FACE_PLANE),
         "gap_m must be positive and finite, got -0.0"),
        (lambda: side_nominal_gaps(_CONFIG, 2.0, GapAnchor.APEX),
         "gap_m = 2.0 is outside the model's length range"),
        (lambda: side_nominal_gaps(_CONFIG, "2e-6", GapAnchor.APEX),
         "gap_m must be a real number, got '2e-6'"),
        (lambda: maximize_sensitivity(Variant.BICONVEX, None, _plan()),
         "arc_bounds_m must be a (min, max) tuple, got None"),
        (lambda: maximize_sensitivity(Variant.BICONVEX, [5e-6, 6e-5], _plan()),
         "arc_bounds_m must be a (min, max) tuple, got [5e-06, 6e-05]"),
        (lambda: maximize_sensitivity(Variant.BICONVEX, ("a", "b"), _plan()),
         "arc_bounds_m min must be a real number, got 'a'"),
        (lambda: maximize_sensitivity(Variant.BICONVEX, (None, 1e-5), _plan()),
         "arc_bounds_m min must be a real number, got None"),
        (lambda: maximize_sensitivity(Variant.BICONVEX, (5e-6, True), _plan()),
         "arc_bounds_m max must be a real number, got True"),
        (lambda: maximize_sensitivity(Variant.BICONVEX, (5e-6, 6e-5), None),
         "plan must be a SweepPlan, got None"),
        (lambda: sensitivity_sweep(None), "plan must be a SweepPlan, got None"),
        (lambda: gain_curve(None), "plan must be a SweepPlan, got None"),
        # a bool compares as 0 or 1, so each of these was built
        (lambda: ArcProfile(1e-4, True, 2e-6),
         "angular_extent_rad must be a real number, got True"),
        (lambda: MechanicalModel(True, 1.0), "mass_kg must be a real number, got True"),
        (lambda: GapState(2e-6, True), "displacement_m must be a real number, got True"),
        (lambda: DriveModel(True), "v_in_volts must be a real number, got True"),
        (lambda: _plan(accel_range_g=(False, True)),
         "accel_range_g min must be a real number, got False"),
        (lambda: side_nominal_gaps(_CONFIG, True, GapAnchor.APEX),
         "gap_m must be a real number, got True"),
        # str, None and complex raised TypeError from a bare comparison
        (lambda: ArcProfile(1e-4, "0.2", 2e-6),
         "angular_extent_rad must be a real number, got '0.2'"),
        (lambda: ArcProfile(1e-4, None, 2e-6),
         "angular_extent_rad must be a real number, got None"),
        (lambda: ArcProfile(1e-4, 0.2j, 2e-6),
         "angular_extent_rad must be a real number, got 0.2j"),
        (lambda: GapState(2e-6, "0"), "displacement_m must be a real number, got '0'"),
        (lambda: GapState(2e-6, None), "displacement_m must be a real number, got None"),
        (lambda: GapState(2e-6, 1e-7 + 0j),
         "displacement_m must be a real number, got (1e-07+0j)"),
        (lambda: MechanicalModel(2.6e-10, 1.0, 2.0), "comb_count must be an int, got 2.0"),
    ],
    ids=["SweepPlan.variants", "SweepPlan.arc_range_m", "validate_geometry", "ArcProfile",
         "ElectrodeConfig.profile", "ElectrodeConfig.planar_face", "ElectrodeConfig.swapped",
         "side_nominal_gaps.config", "side_nominal_gaps.nan", "side_nominal_gaps.minus_zero",
         "side_nominal_gaps.too_wide", "side_nominal_gaps.str", "maximize_sensitivity.none",
         "maximize_sensitivity.list", "maximize_sensitivity.str_bounds",
         "maximize_sensitivity.none_bound", "maximize_sensitivity.bool_bound",
         "maximize_sensitivity.plan", "sensitivity_sweep",
         "gain_curve", "ArcProfile.bool_phi", "MechanicalModel.bool_mass",
         "GapState.bool_displacement", "DriveModel.bool_v_in", "SweepPlan.bool_accel_range",
         "side_nominal_gaps.bool", "ArcProfile.str_phi", "ArcProfile.none_phi",
         "ArcProfile.complex_phi", "GapState.str_displacement", "GapState.none_displacement",
         "GapState.complex_displacement", "MechanicalModel.float_comb_count"],
)
def test_wrong_typed_inputs_raise_value_error(build, message):
    # these raised TypeError or AttributeError from inside the library
    with pytest.raises(ValueError, match=re.escape(message)):
        build()
