import math

import pytest

from curvedcomb import (
    ArcProfile,
    DriveModel,
    ElectrodeConfig,
    FaceKind,
    GapAnchor,
    GapState,
    MechanicalModel,
    PlanarProfile,
    Variant,
    displacement,
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
        assert p.half_tan() == pytest.approx(math.tan(0.05), rel=1e-15)

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

    def test_zero_angle_allowed(self):
        # phi = 0 is a degenerate but representable profile
        p = ArcProfile(100e-6, 0.0, 2e-6)
        assert p.arc_length() == 0.0
        assert p.sagitta() == 0.0


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

    def test_convex_and_flat_only_need_a_gap_above_the_floor(self, profile):
        # 2**-340 m: the smallest power of two whose cube is a normal float
        assert side_gap_bounds(FaceKind.CONVEX, profile) == (2.0**-340, math.inf)
        assert side_gap_bounds(FaceKind.FLAT, profile) == (2.0**-340, math.inf)


class TestValidateGeometry:
    @pytest.mark.parametrize("variant", ALL_VARIANTS)
    @pytest.mark.parametrize("anchor", list(GapAnchor))
    def test_reference_cell_is_valid(self, variant, anchor, profile, gap):
        config = ElectrodeConfig.for_variant(variant, profile)
        report = validate_geometry(config, gap, anchor)
        assert report.ok, report.violations
        assert len(report.sides) == 2
        for side in report.sides:
            # closest physical approach: the full gap for flat and convex
            # faces, the edge gap (gap - sagitta) for concave ones
            assert 0 < side.min_physical_gap_m <= side.closed_form_gap_m
            if side.kind is FaceKind.CONCAVE:
                assert side.min_physical_gap_m < side.closed_form_gap_m

    def test_concave_contact_reported_not_raised(self, profile):
        config = ElectrodeConfig.for_variant(Variant.BICONCAVE, profile)
        report = validate_geometry(config, GapState(profile.sagitta()))
        assert not report.ok
        assert {v.side for v in report.violations} == {1, 2}
        # margin_m records how far past the limit the gap sits
        assert all(v.margin_m > 0 for v in report.violations)

    def test_atanh_argument_approaches_one_at_contact(self, profile):
        config = ElectrodeConfig.for_variant(Variant.BICONCAVE, profile)
        near = validate_geometry(config, GapState(profile.sagitta() * (1 + 1e-6)))
        far = validate_geometry(config, GapState(4 * profile.sagitta()))
        assert near.ok
        assert near.sides[0].atanh_argument > 0.999
        assert far.sides[0].atanh_argument < near.sides[0].atanh_argument

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
        config = ElectrodeConfig.for_variant(Variant.BICONCAVE, profile)
        report = validate_geometry(config, GapState(1e3))
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
