import math

import pytest

from curvedcomb import (
    ArcProfile,
    FaceKind,
    GeometryDomainError,
    PlanarProfile,
    cap_concave,
    cap_convex,
    cap_planar,
    dcap_dgap,
    face_capacitance,
    fd_derivative,
    quad_capacitance,
)
from conftest import STD_GAP, STD_H, STD_PHI, STD_R

# Reference-cell capacitances, frozen from adaptive quadrature of the
# parallel-plate integrand over the arc (independent of the closed forms).
CONVEX_REF_F = 1.6421078261e-16
CONCAVE_REF_F = 1.9453120207e-16
# eps * h * b / d with b = R * phi = 20 um; exact in decimal
PLANAR_REF_F = 1.7708e-16


class TestClosedForms:
    def test_convex_reference_value(self, profile):
        assert cap_convex(profile, STD_GAP) == pytest.approx(CONVEX_REF_F, rel=1e-9)

    def test_concave_reference_value(self, profile):
        assert cap_concave(profile, STD_GAP) == pytest.approx(CONCAVE_REF_F, rel=1e-9)

    def test_planar_reference_value(self):
        face = PlanarProfile(20e-6, STD_H)
        assert cap_planar(face, STD_GAP) == pytest.approx(PLANAR_REF_F, rel=1e-14)

    def test_ordering_at_matched_gap(self, profile):
        # at equal apex/uniform gap the concave arc wraps closer to the
        # moving face and the convex arc curves away from it
        face = PlanarProfile(profile.arc_length(), STD_H)
        c_vex = cap_convex(profile, STD_GAP)
        c_flat = cap_planar(face, STD_GAP)
        c_cave = cap_concave(profile, STD_GAP)
        assert c_vex < c_flat < c_cave

    @pytest.mark.parametrize("kind", list(FaceKind))
    def test_monotone_decreasing_in_gap(self, kind, profile):
        face = PlanarProfile(profile.arc_length(), STD_H)
        prof = face if kind is FaceKind.FLAT else profile
        gaps = [0.8e-6, 1.2e-6, 2e-6, 3.5e-6, 6e-6]
        values = [face_capacitance(kind, prof, g) for g in gaps]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_flat_arc_limit(self):
        # phi -> 0 with fixed arc length collapses both arcs onto the plane
        arc = 20e-6
        d = STD_GAP
        flat = cap_planar(PlanarProfile(arc, STD_H), d)
        for phi in (0.1, 0.05, 0.01):
            prof = ArcProfile(arc / phi, phi, STD_H)
            vex = cap_convex(prof, d)
            cave = cap_concave(prof, d)
            assert vex < flat < cave
            assert vex == pytest.approx(flat, rel=0.15 * phi)
            assert cave == pytest.approx(flat, rel=0.15 * phi)

    def test_permittivity_scales_linearly(self, profile):
        base = cap_convex(profile, STD_GAP)
        assert cap_convex(profile, STD_GAP, 2 * 8.854e-12) == pytest.approx(
            2 * base, rel=1e-15
        )

    def test_concave_diverges_toward_edge_contact(self, profile):
        s = profile.sagitta()
        nearer = cap_concave(profile, s * (1 + 1e-6))
        near = cap_concave(profile, s * (1 + 1e-3))
        far = cap_concave(profile, s * 2)
        assert nearer > near > far


class TestDomainErrors:
    @pytest.mark.parametrize("gap", [0.0, -1e-6])
    def test_convex_needs_positive_gap(self, gap, profile):
        with pytest.raises(GeometryDomainError):
            cap_convex(profile, gap)

    def test_concave_edge_contact(self, profile):
        with pytest.raises(GeometryDomainError) as err:
            cap_concave(profile, profile.sagitta())
        assert err.value.kind is FaceKind.CONCAVE
        assert err.value.gap_m == profile.sagitta()

    def test_concave_upper_domain_limit(self, profile):
        with pytest.raises(GeometryDomainError):
            cap_concave(profile, 2 * profile.radius_m)
        # just inside both limits is fine
        assert cap_concave(profile, 1.9 * profile.radius_m) > 0

    def test_flat_needs_positive_gap(self):
        with pytest.raises(GeometryDomainError):
            cap_planar(PlanarProfile(20e-6, STD_H), 0.0)


class TestDerivatives:
    @pytest.mark.parametrize(
        "kind, gaps",
        [
            (FaceKind.CONVEX, (0.7e-6, 2e-6, 5e-6)),
            (FaceKind.CONCAVE, (0.7e-6, 2e-6, 5e-6)),
            (FaceKind.FLAT, (0.7e-6, 2e-6, 5e-6)),
        ],
    )
    def test_matches_finite_differences(self, kind, gaps, profile):
        prof = (
            PlanarProfile(profile.arc_length(), STD_H)
            if kind is FaceKind.FLAT
            else profile
        )
        for gap in gaps:
            exact = dcap_dgap(kind, prof, gap)
            # micron-scale argument: a ~1 nm absolute trial step
            fd = fd_derivative(lambda g: face_capacitance(kind, prof, g), gap, 1e-9)
            assert exact == pytest.approx(fd.value, rel=1e-9)
            assert exact < 0  # capacitance always falls as the gap opens

    def test_flat_derivative_closed_form(self):
        face = PlanarProfile(20e-6, STD_H)
        # -eps h b / d^2 = -8.854e-11 F/m at the reference cell
        assert dcap_dgap(FaceKind.FLAT, face, STD_GAP) == pytest.approx(
            -8.854e-11, rel=1e-14
        )

    def test_steeper_slope_for_concave_face(self, profile):
        # ranking of |dC/dd| mirrors the capacitance ranking
        face = PlanarProfile(profile.arc_length(), STD_H)
        g_vex = abs(dcap_dgap(FaceKind.CONVEX, profile, STD_GAP))
        g_flat = abs(dcap_dgap(FaceKind.FLAT, face, STD_GAP))
        g_cave = abs(dcap_dgap(FaceKind.CONCAVE, profile, STD_GAP))
        assert g_vex < g_flat < g_cave

    def test_derivative_domain_errors_propagate(self, profile):
        with pytest.raises(GeometryDomainError):
            dcap_dgap(FaceKind.CONCAVE, profile, profile.sagitta())


class TestDispatch:
    def test_face_capacitance_matches_direct_calls(self, profile):
        face = PlanarProfile(profile.arc_length(), STD_H)
        assert face_capacitance(FaceKind.CONVEX, profile, STD_GAP) == cap_convex(
            profile, STD_GAP
        )
        assert face_capacitance(FaceKind.CONCAVE, profile, STD_GAP) == cap_concave(
            profile, STD_GAP
        )
        assert face_capacitance(FaceKind.FLAT, face, STD_GAP) == cap_planar(
            face, STD_GAP
        )

    @pytest.mark.parametrize("evaluate", [face_capacitance, quad_capacitance])
    def test_profile_of_wrong_type_is_rejected(self, profile, evaluate):
        face = PlanarProfile(profile.arc_length(), STD_H)
        with pytest.raises(ValueError, match="flat face needs PlanarProfile, got ArcProfile"):
            evaluate(FaceKind.FLAT, profile, STD_GAP)
        with pytest.raises(ValueError, match="convex face needs ArcProfile, got PlanarProfile"):
            evaluate(FaceKind.CONVEX, face, STD_GAP)
        with pytest.raises(ValueError, match="concave face needs ArcProfile, got str"):
            evaluate(FaceKind.CONCAVE, "profile", STD_GAP)
