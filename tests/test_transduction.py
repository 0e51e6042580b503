import math
import random

import pytest

from curvedcomb import (
    ArcProfile,
    DriveModel,
    ElectrodeConfig,
    FeedbackMode,
    GapAnchor,
    GapState,
    GeometryDomainError,
    MechanicalModel,
    OverRangeError,
    STANDARD_GRAVITY,
    Variant,
    allowed_displacement_interval,
    bridge_at_side_nominals,
    bridge_capacitances,
    displacement,
    fd_derivative,
    fd_sensitivity,
    gain,
    gain_at_side_nominals,
    net_sensitivity,
    sensitivity,
    sensitivity_at_side_nominals,
    side_nominal_gaps,
)
from conftest import STD_GAP, STD_H

CURVED_VARIANTS = tuple(v for v in Variant if v is not Variant.PLANAR)


class TestBridge:
    def test_rest_bridge_at_reference_cell(self, profile, drive):
        # PlanoConvex at rest: convex side 1, flat side 2 with b = R*phi
        config = ElectrodeConfig.for_variant(Variant.PLANO_CONVEX, profile)
        bridge = bridge_capacitances(config, GapState(STD_GAP), drive)
        assert bridge.c1_f == pytest.approx(1.6421078261e-16, rel=1e-9)
        assert bridge.c2_f == pytest.approx(1.7708e-16, rel=1e-12)
        assert bridge.c_fb_f == bridge.c1_f + bridge.c2_f

    def test_matched_sum_feedback_tracks_displacement(self, profile, mech, drive):
        config = ElectrodeConfig.for_variant(Variant.BICONVEX, profile)
        delta = displacement(mech, 2 * STANDARD_GRAVITY)
        rest = bridge_at_side_nominals(config, STD_GAP, STD_GAP, 0.0, drive)
        moved = bridge_at_side_nominals(config, STD_GAP, STD_GAP, delta, drive)
        assert moved.c1_f > rest.c1_f  # side-1 gap narrows
        assert moved.c2_f < rest.c2_f
        assert moved.c_fb_f == moved.c1_f + moved.c2_f

    def test_nominal_feedback_is_frozen_at_rest(self, profile, mech):
        drive = DriveModel(1.0, FeedbackMode.NOMINAL)
        config = ElectrodeConfig.for_variant(Variant.BICONVEX, profile)
        delta = displacement(mech, 2 * STANDARD_GRAVITY)
        rest = bridge_at_side_nominals(config, STD_GAP, STD_GAP, 0.0, drive)
        moved = bridge_at_side_nominals(config, STD_GAP, STD_GAP, delta, drive)
        assert moved.c_fb_f == rest.c_fb_f
        assert moved.c_fb_f != moved.c1_f + moved.c2_f


class TestGain:
    def test_positive_accel_raises_gain(self, profile, mech, drive):
        # sign convention: +a narrows side 1, so c1 grows and G increases
        for variant in Variant:
            config = ElectrodeConfig.for_variant(variant, profile)
            rest = gain(config, STD_GAP, mech, drive, 0.0)
            point = gain(config, STD_GAP, mech, drive, STANDARD_GRAVITY)
            assert point.gain > rest.gain, variant
            assert point.v_out_volts == pytest.approx(
                drive.v_in_volts * point.gain, rel=1e-15
            )

    def test_rest_gain_symmetric_variants_zero(self, profile, mech, drive):
        for variant in (Variant.PLANAR, Variant.BICONVEX, Variant.BICONCAVE):
            config = ElectrodeConfig.for_variant(variant, profile)
            assert gain(config, STD_GAP, mech, drive, 0.0).gain == 0.0

    def test_rest_gain_mixed_variants_offset(self, profile, mech, drive):
        # asymmetric pairings sit off-null at rest; the offset sign follows
        # the capacitance ordering (convex < flat < concave)
        vex = ElectrodeConfig.for_variant(Variant.PLANO_CONVEX, profile)
        assert gain(vex, STD_GAP, mech, drive, 0.0).gain < 0
        cave = ElectrodeConfig.for_variant(Variant.PLANO_CONCAVE, profile)
        assert gain(cave, STD_GAP, mech, drive, 0.0).gain > 0

    def test_odd_symmetry_is_exact(self, profile, mech, drive):
        rng = random.Random(7)
        for variant in (Variant.PLANAR, Variant.BICONVEX, Variant.BICONCAVE):
            config = ElectrodeConfig.for_variant(variant, profile)
            for _ in range(20):
                a = rng.uniform(0.01, 3.0) * STANDARD_GRAVITY
                plus = gain(config, STD_GAP, mech, drive, a).gain
                minus = gain(config, STD_GAP, mech, drive, -a).gain
                assert plus == -minus  # bitwise, by construction

    def test_mirror_pair_polarity(self, profile, mech, drive):
        cc = ElectrodeConfig.for_variant(Variant.CONCAVO_CONVEX, profile)
        vc = ElectrodeConfig.for_variant(Variant.CONVEXO_CONCAVE, profile)
        rng = random.Random(8)
        for _ in range(20):
            a = rng.uniform(-3.0, 3.0) * STANDARD_GRAVITY
            g_cc = gain(cc, STD_GAP, mech, drive, a).gain
            g_vc = gain(vc, STD_GAP, mech, drive, -a).gain
            assert g_cc == -g_vc

    def test_planar_gain_is_displacement_ratio(self, profile, mech, drive):
        config = ElectrodeConfig.for_variant(Variant.PLANAR, profile)
        for frac in (1e-3, 0.05, 0.3):
            accel = frac * STD_GAP * mech.spring_n_per_m / mech.mass_kg
            point = gain(config, STD_GAP, mech, drive, accel)
            assert point.gain == pytest.approx(
                point.displacement_m / STD_GAP, rel=1e-13
            )


class TestSensitivity:
    def test_planar_closed_form(self, profile, mech, drive):
        config = ElectrodeConfig.for_variant(Variant.PLANAR, profile)
        s = sensitivity(config, STD_GAP, mech, drive)
        expected = (
            drive.v_in_volts
            * mech.mass_kg
            * STANDARD_GRAVITY
            / (mech.spring_n_per_m * STD_GAP)
        )
        assert s == pytest.approx(expected, rel=1e-13)
        assert s * 1e3 == pytest.approx(1.2748645, rel=1e-9)  # mV/g

    def test_net_sensitivity_scales_by_comb_count(self, profile, mech, drive):
        config = ElectrodeConfig.for_variant(Variant.PLANAR, profile)
        s = sensitivity(config, STD_GAP, mech, drive)
        assert net_sensitivity(s, mech) == pytest.approx(21 * s, rel=1e-15)
        assert net_sensitivity(s, mech) * 1e3 == pytest.approx(26.7721545, rel=1e-9)

    @pytest.mark.parametrize("variant", CURVED_VARIANTS)
    def test_matches_finite_difference_of_gain(self, variant, profile, mech, drive):
        config = ElectrodeConfig.for_variant(variant, profile)
        s = sensitivity_at_side_nominals(config, STD_GAP, STD_GAP, mech, drive, 0.0)
        fd = fd_sensitivity(config, STD_GAP, STD_GAP, mech, drive, 0.0)
        assert s == pytest.approx(fd, rel=1e-9)

    @pytest.mark.parametrize("feedback", list(FeedbackMode))
    @pytest.mark.parametrize("anchor", list(GapAnchor))
    @pytest.mark.parametrize("variant", list(Variant))
    def test_fd_sensitivity_equals_the_per_point_path(
        self, variant, anchor, feedback, profile, mech
    ):
        drive = DriveModel(1.0, feedback)
        config = ElectrodeConfig.for_variant(variant, profile)
        d1, d2 = side_nominal_gaps(config, STD_GAP, anchor)
        lo, hi = allowed_displacement_interval(config, d1, d2)
        a_per_m = mech.spring_n_per_m / mech.mass_kg
        # near the travel limit the step shrinks with the margin; at 1e-13
        # of it the stencil no longer resolves and both paths raise
        for accel in (0.0, (1 - 1e-6) * hi * a_per_m, (1 - 1e-13) * lo * a_per_m):
            args = (config, d1, d2, mech, drive, accel)
            assert outcome(fd_sensitivity, *args) == outcome(per_point_fd, *args)

    @pytest.mark.parametrize("feedback", list(FeedbackMode))
    def test_fd_sensitivity_with_an_inadmissible_rest_gap(self, feedback, profile, mech):
        # side 1 rests inside edge contact but is displaced out of it: under
        # nominal feedback the rest C_fb fails, with the analytic path's error
        drive = DriveModel(1.0, feedback)
        config = ElectrodeConfig.for_variant(Variant.BICONCAVE, profile)
        d1, d2 = 0.9 * profile.sagitta(), STD_GAP
        accel = -0.5 * profile.sagitta() * mech.spring_n_per_m / mech.mass_kg
        args = (config, d1, d2, mech, drive, accel)
        if feedback is FeedbackMode.NOMINAL:
            expected = outcome(sensitivity_at_side_nominals, *args)
            assert expected[1].startswith("side 1: concave face needs a gap in (")
        else:
            expected = outcome(per_point_fd, *args)
        assert outcome(fd_sensitivity, *args) == expected

    def test_a_refused_rest_side_displaced_further_in_is_over_range(self, profile, mech):
        # side 1 rests inside edge contact and is displaced deeper in: the
        # travel check refuses the point before nominal feedback reads the
        # rest side, so no path raises that side's GeometryDomainError
        drive = DriveModel(1.0, FeedbackMode.NOMINAL)
        config = ElectrodeConfig.for_variant(Variant.BICONCAVE, profile)
        d1, d2 = 0.9 * profile.sagitta(), STD_GAP
        accel = 0.5 * profile.sagitta() * mech.spring_n_per_m / mech.mass_kg
        for fn in (gain_at_side_nominals, sensitivity_at_side_nominals, fd_sensitivity):
            with pytest.raises(OverRangeError, match="leaves the valid interval"):
                fn(config, d1, d2, mech, drive, accel)

    @pytest.mark.parametrize("accel", [0.0, -3.0])
    def test_a_cell_invalid_at_rest_has_no_valid_interval(self, profile, mech, drive, accel):
        # both concave gaps below the sagitta: the displacement interval is
        # empty, which the error says instead of naming one of its ends
        config = ElectrodeConfig.for_variant(Variant.BICONCAVE, profile)
        d = 0.4e-6
        lo, hi = allowed_displacement_interval(config, d, d)
        assert d < profile.sagitta() and hi < lo
        message = (
            f"no displacement keeps both sides of Biconcave valid: the interval "
            f"({lo}, {hi}) m is empty; requested {accel} m/s^2"
        )
        for call in (
            lambda: sensitivity(config, d, mech, drive, accel),
            lambda: gain(config, d, mech, drive, accel),
            lambda: fd_sensitivity(config, d, d, mech, drive, accel),
        ):
            with pytest.raises(OverRangeError) as info:
                call()
            assert str(info.value) == message
            assert info.value.first_invalid_accel_m_s2 == accel
            assert info.value.displacement_m == displacement(mech, accel)

    def test_fd_sensitivity_whose_step_does_not_resolve_says_so(
        self, profile, mech, drive
    ):
        # at 1 - 1e-13 of the travel limit the stencil's first step is below
        # half an ulp of the acceleration, so no step is tried at all
        config = ElectrodeConfig.for_variant(Variant.BICONVEX, profile)
        hi = allowed_displacement_interval(config, STD_GAP, STD_GAP)[1]
        accel = (1 - 1e-13) * hi * mech.spring_n_per_m / mech.mass_kg
        assert accel == 7692.307692306924
        with pytest.raises(ValueError) as info:
            fd_sensitivity(config, STD_GAP, STD_GAP, mech, drive, accel)
        assert str(info.value) == (
            f"no admissible finite-difference step at x={accel}: the stencil "
            "stopped resolving in floating point after 0 shrinks"
        )
        s = sensitivity_at_side_nominals(config, STD_GAP, STD_GAP, mech, drive, accel)
        assert math.isfinite(s)

    def test_away_from_rest(self, profile, mech, drive):
        config = ElectrodeConfig.for_variant(Variant.BICONVEX, profile)
        a = 1.5 * STANDARD_GRAVITY
        s = sensitivity_at_side_nominals(config, STD_GAP, STD_GAP, mech, drive, a)
        fd = fd_sensitivity(config, STD_GAP, STD_GAP, mech, drive, a)
        assert s == pytest.approx(fd, rel=1e-8)
        # biconvex stiffens toward contact: slope grows with displacement
        s0 = sensitivity_at_side_nominals(config, STD_GAP, STD_GAP, mech, drive, 0.0)
        assert abs(s) > abs(s0)

    def test_nominal_mode_differs_from_matched_sum(self, profile, mech):
        config = ElectrodeConfig.for_variant(Variant.BICONVEX, profile)
        matched = sensitivity(config, STD_GAP, mech, DriveModel(1.0))
        nominal = sensitivity(
            config, STD_GAP, mech, DriveModel(1.0, FeedbackMode.NOMINAL)
        )
        # at rest with symmetric sides both modes see the same c_fb
        assert nominal == pytest.approx(matched, rel=1e-12)
        a = 2 * STANDARD_GRAVITY
        matched_a = sensitivity(config, STD_GAP, mech, DriveModel(1.0), a)
        nominal_a = sensitivity(
            config, STD_GAP, mech, DriveModel(1.0, FeedbackMode.NOMINAL), a
        )
        assert abs(matched_a - nominal_a) / abs(matched_a) > 1e-6

    def test_scales_linearly_with_drive(self, profile, mech):
        config = ElectrodeConfig.for_variant(Variant.BICONVEX, profile)
        s1 = sensitivity(config, STD_GAP, mech, DriveModel(1.0))
        s3 = sensitivity(config, STD_GAP, mech, DriveModel(3.0))
        assert s3 == pytest.approx(3 * s1, rel=1e-15)


def outcome(fn, *args):
    """fn's value, or its error's type and message."""
    try:
        return fn(*args)
    except ValueError as err:
        return type(err), str(err)


def per_point_fd(config, d1, d2, mech, drive, accel):
    """fd_sensitivity's step rule over the public per-point gain."""
    delta = displacement(mech, accel)
    lo, hi = allowed_displacement_interval(config, d1, d2)
    a_margin = min(hi - delta, delta - lo) * mech.spring_n_per_m / mech.mass_kg
    rel_step = 1e-3 * a_margin / max(abs(accel), 1.0)

    def gain_of_accel(a):
        return gain_at_side_nominals(config, d1, d2, mech, drive, a).gain

    slope = fd_derivative(gain_of_accel, accel, rel_step).value
    return drive.v_in_volts * slope * STANDARD_GRAVITY


class TestRangeAndDomain:
    def test_allowed_interval_brackets_zero(self, profile):
        config = ElectrodeConfig.for_variant(Variant.BICONCAVE, profile)
        lo, hi = allowed_displacement_interval(config, STD_GAP, STD_GAP)
        assert lo < 0 < hi
        # side 1 narrows toward edge contact at delta = d - sagitta - margin
        assert hi == pytest.approx(STD_GAP - profile.sagitta(), rel=1e-6)

    def test_over_range_error_carries_first_bad_accel(self, profile, mech, drive):
        config = ElectrodeConfig.for_variant(Variant.BICONCAVE, profile)
        lo, hi = allowed_displacement_interval(config, STD_GAP, STD_GAP)
        bad_accel = hi * mech.spring_n_per_m / mech.mass_kg * 1.01
        with pytest.raises(OverRangeError) as err:
            gain(config, STD_GAP, mech, drive, bad_accel)
        assert err.value.first_invalid_accel_m_s2 <= bad_accel
        assert err.value.displacement_m == pytest.approx(
            displacement(mech, bad_accel), rel=1e-12
        )

    def test_planar_over_range_at_gap_closure(self, profile, mech, drive):
        config = ElectrodeConfig.for_variant(Variant.PLANAR, profile)
        bad_accel = STD_GAP * mech.spring_n_per_m / mech.mass_kg * 1.5
        with pytest.raises(OverRangeError):
            gain(config, STD_GAP, mech, drive, bad_accel)

    def test_invalid_rest_gap_names_the_side(self, profile, drive):
        config = ElectrodeConfig.for_variant(Variant.PLANO_CONCAVE, profile)
        with pytest.raises(GeometryDomainError, match="side 1"):
            bridge_at_side_nominals(
                config, profile.sagitta() * 0.5, STD_GAP, 0.0, drive
            )


def per_point_calls(config, mech, drive) -> dict:
    """Each public per-point call: its numeric arguments' names, and the
    call taking them."""
    return {
        "gain": (("gap_nominal_m", "accel_m_s2"),
                 lambda g, a: gain(config, g, mech, drive, a)),
        "gain_at_side_nominals": (("d1", "d2", "accel_m_s2"),
                                  lambda d1, d2, a: gain_at_side_nominals(
                                      config, d1, d2, mech, drive, a)),
        "sensitivity": (("gap_nominal_m", "accel_m_s2"),
                        lambda g, a: sensitivity(config, g, mech, drive, a)),
        "sensitivity_at_side_nominals": (("d1", "d2", "accel_m_s2"),
                                         lambda d1, d2, a: sensitivity_at_side_nominals(
                                             config, d1, d2, mech, drive, a)),
        "fd_sensitivity": (("d1", "d2", "accel_m_s2"),
                           lambda d1, d2, a: fd_sensitivity(config, d1, d2, mech, drive, a)),
        "bridge_at_side_nominals": (("d1", "d2", "delta_m"),
                                    lambda d1, d2, x: bridge_at_side_nominals(
                                        config, d1, d2, x, drive)),
        "allowed_displacement_interval": (("d1", "d2"),
                                          lambda d1, d2: allowed_displacement_interval(
                                              config, d1, d2)),
    }


PER_POINT = list(per_point_calls(None, None, None))


class TestPerPointInputs:
    # these raised TypeError, took a bool as 0 or 1, or reported a NaN as
    # over range, naming a first invalid acceleration it had nothing to do with
    @pytest.mark.parametrize("feedback", list(FeedbackMode))
    @pytest.mark.parametrize("variant", [Variant.PLANAR, Variant.PLANO_CONCAVE])
    @pytest.mark.parametrize("call", PER_POINT)
    def test_a_non_number_or_nan_is_refused_by_name(self, call, variant, feedback, profile, mech):
        config = ElectrodeConfig.for_variant(variant, profile)
        names, evaluate = per_point_calls(config, mech, DriveModel(1.0, feedback))[call]
        valid = [STD_GAP] * (len(names) - 1) + [1e-9 if names[-1] == "delta_m" else 9.8]
        evaluate(*valid)
        for i, name in enumerate(names):
            for bad in ("2e-6", None, 1j, True, False, math.nan):
                args = valid[:i] + [bad] + valid[i + 1:]
                if isinstance(bad, float):
                    message = f"{name} = nan is outside the model's real range [-inf, inf]"
                else:
                    message = f"{name} must be a real number, got {bad!r}"
                with pytest.raises(ValueError) as err:
                    evaluate(*args)
                assert (type(err.value), str(err.value)) == (ValueError, message)

    @pytest.mark.parametrize("accel", [math.inf, -math.inf])
    @pytest.mark.parametrize("call", [
        c for c, (names, _) in per_point_calls(None, None, None).items() if "accel_m_s2" in names
    ])
    def test_an_infinite_acceleration_stays_over_range(self, call, accel, profile, mech, drive):
        config = ElectrodeConfig.for_variant(Variant.BICONVEX, profile)
        names, evaluate = per_point_calls(config, mech, drive)[call]
        with pytest.raises(OverRangeError, match="first invalid acceleration"):
            evaluate(*[STD_GAP] * (len(names) - 1), accel)


class TestAnchorInteraction:
    def test_face_plane_gaps_feed_transduction(self, profile, mech, drive):
        # chord-referenced placement: biconvex formula gaps shrink by the
        # sagitta, which raises both capacitances and the sensitivity
        config = ElectrodeConfig.for_variant(Variant.BICONVEX, profile)
        d1_fp, d2_fp = side_nominal_gaps(config, STD_GAP, GapAnchor.FACE_PLANE)
        s_apex = sensitivity_at_side_nominals(
            config, STD_GAP, STD_GAP, mech, drive, 0.0
        )
        s_fp = sensitivity_at_side_nominals(config, d1_fp, d2_fp, mech, drive, 0.0)
        assert d1_fp < STD_GAP
        assert abs(s_fp) > abs(s_apex)
