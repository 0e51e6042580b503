"""One admissible-gap rule: side_gap_bounds decides, for every face kind,
whether a closed form evaluates, whether the quadrature oracle takes the
gap, whether validate_geometry reports ok, and whether a travel request
is over range. Checked at each bound and one ulp on either side, where
two roundings of one bound can disagree.

One model envelope: every input the model objects take lies in a closed
interval, and inside it every public function returns finite values or
raises ValueError."""

import math

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from curvedcomb import (
    ArcMode,
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
    QuadratureNonConvergence,
    SweepPlan,
    Variant,
    allowed_displacement_interval,
    bridge_at_side_nominals,
    bridge_capacitances,
    cap_concave,
    cap_convex,
    cap_planar,
    dcap_dgap,
    face_capacitance,
    fd_sensitivity,
    gain,
    gain_at_side_nominals,
    gain_curve,
    maximize_sensitivity,
    quad_capacitance,
    sensitivity,
    sensitivity_at_side_nominals,
    sensitivity_sweep,
    side_gap_bounds,
    side_nominal_gaps,
    validate_geometry,
)
from curvedcomb.cli import main
from curvedcomb.model import _ENVELOPE, _Record

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


def quadrature_accepts(kind: FaceKind, face, gap_m: float) -> bool:
    """Whether quad_capacitance takes the gap: it integrates, or runs out
    of subdivisions near a bound, instead of refusing it."""
    try:
        quad_capacitance(kind, face, gap_m)
    except QuadratureNonConvergence:
        return True
    except ValueError:
        return False
    return True


@pytest.mark.parametrize("radius_m, phi", [(100e-6, 0.2), (50e-6, 2.5), (1e-3, 1e-3)])
@pytest.mark.parametrize("kind", list(FaceKind))
def test_quadrature_and_closed_forms_share_one_gap_domain(kind, radius_m, phi):
    face = ArcProfile(radius_m, phi, 2e-6)
    if kind is FaceKind.FLAT:
        face = PlanarProfile(face.arc_length(), face.thickness_m)
    for bound in side_gap_bounds(kind, face):
        for g in around(bound):
            assert quadrature_accepts(kind, face, g) == evaluates(kind, face, g), (kind, g)


def _gap_candidates(config: ElectrodeConfig, gap_m: float, anchor: GapAnchor):
    """(nominal gap, displacement) pairs that put a displaced gap at a bound."""
    out = [(gap_m, 0.0)]
    lo, hi = _ENVELOPE["length"]
    if anchor is GapAnchor.APEX:
        # at rest the nominal gap is the closed-form gap of both sides; a
        # bound outside the envelope of nominal gaps, such as the 2**-340 m
        # floor, is reached below by a displaced gap instead
        for kind, face in sides(config):
            for bound in finite_bounds(kind, face):
                out += [(g, 0.0) for g in around(bound) if lo <= g <= hi]
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


@pytest.mark.parametrize(
    "radius_m, phi", [(100e-6, 0.2), (1e-9, 1.0), (1.0, 1.0), (1e-300, 0.2), (1e3, 0.2)]
)
@pytest.mark.parametrize("kind", [FaceKind.CONVEX, FaceKind.FLAT])
def test_gap_floor_keeps_closed_forms_finite_and_nonzero(kind, radius_m, phi):
    # at a subnormal gap g**2 underflows to 0, so convex and flat faces
    # admit gaps only above a positive floor; one ulp above it both
    # closed forms are finite and nonzero, at every radius and arc length
    # of the model envelope (phi = 1 puts R = 1e-9 and 1 m at its ends);
    # radii outside it are refused
    lo, hi = _ENVELOPE["length"]
    if not lo <= radius_m <= hi:
        with pytest.raises(ValueError, match="radius_m = .* is outside the model"):
            ArcProfile(radius_m, phi, 2e-6)
        return
    face = ArcProfile(radius_m, phi, 2e-6)
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

    @pytest.mark.parametrize("permittivity", [NAN, math.inf, 0.0, 1e308, 5e-324])
    def test_permittivity_of_the_closed_forms_and_quadrature(self, profile, permittivity):
        face = PlanarProfile(profile.arc_length(), profile.thickness_m)
        for call in (
            lambda: cap_convex(profile, 2e-6, permittivity),
            lambda: cap_concave(profile, 2e-6, permittivity),
            lambda: cap_planar(face, 2e-6, permittivity=permittivity),
            lambda: dcap_dgap(FaceKind.FLAT, face, 2e-6, permittivity),
            lambda: face_capacitance(FaceKind.CONVEX, profile, 2e-6, permittivity),
            lambda: quad_capacitance(FaceKind.CONCAVE, profile, 2e-6, permittivity),
        ):
            with pytest.raises(ValueError, match="permittivity"):
                call()

    @pytest.mark.parametrize("gap_m", [NAN, math.inf, -math.inf])
    @pytest.mark.parametrize("kind", list(FaceKind))
    def test_quadrature(self, kind, gap_m, profile):
        face = profile
        if kind is FaceKind.FLAT:
            face = PlanarProfile(profile.arc_length(), profile.thickness_m)
        with pytest.raises(ValueError, match=r"face needs a gap in \(.*\) m, got "):
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
        # a NaN input is refused by name, not reported as over range
        config = ElectrodeConfig.for_variant(variant, profile)
        d = 2e-6
        for evaluate in (gain_at_side_nominals, sensitivity_at_side_nominals):
            for name, args in (("accel_m_s2", (d, d, NAN)), ("d1", (NAN, d, 0.0))):
                with pytest.raises(ValueError, match=rf"^{name} = nan is outside") as err:
                    evaluate(config, *args[:2], mech, drive, args[2])
                assert type(err.value) is ValueError
        with pytest.raises(ValueError, match=r"^delta_m = nan is outside") as err:
            bridge_at_side_nominals(config, d, d, NAN, drive)
        assert type(err.value) is ValueError


FACE_LEVEL = {
    "cap_convex": lambda prof, flat, g: cap_convex(prof, g),
    "cap_concave": lambda prof, flat, g: cap_concave(prof, g),
    "cap_planar": lambda prof, flat, g: cap_planar(flat, g),
    "face_capacitance": lambda prof, flat, g: face_capacitance(FaceKind.CONVEX, prof, g),
    "dcap_dgap": lambda prof, flat, g: dcap_dgap(FaceKind.FLAT, flat, g),
    "quad_capacitance": lambda prof, flat, g: quad_capacitance(FaceKind.CONCAVE, prof, g),
}


@pytest.mark.parametrize("gap_m", [True, False, "a", None, 1j], ids=repr)
@pytest.mark.parametrize("name", FACE_LEVEL)
def test_a_face_level_gap_that_is_not_a_real_number_is_refused_by_name(name, gap_m, profile):
    # a bool was read as a 0 or 1 m gap, and a str, None or complex raised
    # a bare TypeError from the comparison with the gap bounds
    flat = PlanarProfile(profile.arc_length(), profile.thickness_m)
    with pytest.raises(ValueError) as err:
        FACE_LEVEL[name](profile, flat, gap_m)
    assert type(err.value) is ValueError
    assert str(err.value) == f"gap_m must be a real number, got {gap_m!r}"


@pytest.mark.parametrize("variant", list(Variant))
def test_a_profile_whose_capacitance_underflows_is_refused(variant, mech, drive):
    # an arc of radius 1e-300 m made C underflow to 0, and the bridge, the
    # gain, the sensitivity and the gain curve then divided by it
    for call in (
        lambda c: bridge_capacitances(c, GapState(2e-6), drive),
        lambda c: gain(c, 2e-6, mech, drive, 9.80665),
        lambda c: sensitivity(c, 2e-6, mech, drive),
        lambda c: gain_curve(
            SweepPlan((variant,), c.profile, GapState(2e-6), mech, drive)
        ),
    ):
        with pytest.raises(ValueError, match="radius_m = 1e-300 is outside the model"):
            call(ElectrodeConfig.for_variant(variant, ArcProfile(1e-300, 0.2, 2e-6)))


# Envelope property: every quantity drawn log-uniformly over its whole
# interval of the model envelope, with displacements at 1 - 10**-k of the
# travel limit (k = 1..16) as well as at rest.


def log_uniform(quantity: str):
    lo, hi = _ENVELOPE[quantity]
    return st.floats(math.log10(lo), math.log10(hi)).map(
        lambda e: min(max(10.0**e, lo), hi)
    )


@st.composite
def envelope_cells(draw):
    """A valid cell of the model envelope."""
    lo, hi = _ENVELOPE["length"]
    r = draw(log_uniform("length"))
    arc = draw(st.floats(math.log10(lo), math.log10(min(hi, 3.0 * r))).map(
        lambda e: min(max(10.0**e, lo), hi)
    ))
    # arc <= 3 R keeps phi below pi; R * (arc / R) may round an ulp outside
    # [lo, hi], which the arc length interval allows for
    profile = ArcProfile(r, arc / r, draw(log_uniform("length")))
    combs = draw(st.integers(0, 6).map(lambda e: 10**e))
    return dict(
        variant=draw(st.sampled_from(list(Variant))),
        profile=profile,
        gap_m=draw(log_uniform("length")),
        mech=MechanicalModel(
            draw(log_uniform("mass")), draw(log_uniform("stiffness")), combs
        ),
        drive=DriveModel(
            draw(log_uniform("voltage")),
            draw(st.sampled_from(list(FeedbackMode))),
            draw(log_uniform("permittivity")),
        ),
        anchor=draw(anchors),
        arc_mode=draw(st.sampled_from(list(ArcMode))),
        arc_range_m=tuple(sorted(draw(st.lists(log_uniform("length"), min_size=2,
                                               max_size=2, unique=True)))),
        # the span of a symmetric acceleration grid, down to 1e-12 g
        accel_g=draw(st.floats(-12.0, 6.0).map(
            lambda e: min(10.0**e, _ENVELOPE["accel_g"][1])
        )),
        # 0: at rest; k > 0: at 1 - 10**-k of the travel limit, either side
        travel=draw(st.integers(0, 16)),
        side=draw(st.sampled_from([0, 1])),
    )


def floats_in(value):
    """Every float in a result: plain, in tuples, dicts and records."""
    if isinstance(value, float):
        yield value
    elif isinstance(value, (tuple, list)):
        for item in value:
            yield from floats_in(item)
    elif isinstance(value, dict):
        for item in value.values():
            yield from floats_in(item)
    elif isinstance(value, _Record):
        for name in value._fields:
            yield from floats_in(getattr(value, name))


def test_floats_in_walks_every_field_of_a_record():
    config = ElectrodeConfig.for_variant(Variant.BICONVEX, ArcProfile(100e-6, 0.2, 2e-6))
    point = gain(config, 2e-6, MechanicalModel(2.6e-10, 1.0, 21), DriveModel(1.0), 9.80665)
    bridge = point.bridge
    assert list(floats_in(point)) == [
        point.accel_m_s2, point.displacement_m, bridge.c1_f, bridge.c2_f, bridge.c_fb_f,
        point.gain, point.v_out_volts,
    ]


def finite_or_value_error(call) -> None:
    try:
        result = call()
    except ValueError:
        return
    bad = [x for x in floats_in(result) if not math.isfinite(x)]
    assert not bad, (result, bad)


def _acceleration(cell) -> float:
    config = ElectrodeConfig.for_variant(cell["variant"], cell["profile"])
    d, mech = cell["gap_m"], cell["mech"]
    if not cell["travel"]:
        return 0.0
    bound = allowed_displacement_interval(config, d, d)[cell["side"]]
    delta = (1.0 - 10.0 ** -cell["travel"]) * bound
    return delta * mech.spring_n_per_m / mech.mass_kg


ENVELOPE_PROPERTY = settings(
    max_examples=150, deadline=None, derandomize=True, database=None,
    suppress_health_check=[HealthCheck.filter_too_much],
)


@ENVELOPE_PROPERTY
@given(cell=envelope_cells())
def test_inside_the_envelope_results_are_finite_or_value_error(cell):
    prof, d, mech, drive = cell["profile"], cell["gap_m"], cell["mech"], cell["drive"]
    eps = drive.permittivity_f_per_m
    config = ElectrodeConfig.for_variant(cell["variant"], prof)
    flat = config.planar_face
    accel = _acceleration(cell)
    delta = mech.mass_kg * accel / mech.spring_n_per_m
    for g in (d, d - delta, d + delta):
        finite_or_value_error(lambda: cap_convex(prof, g, eps))
        finite_or_value_error(lambda: cap_concave(prof, g, eps))
        finite_or_value_error(lambda: cap_planar(flat, g, eps))
        for kind in FaceKind:
            face = flat if kind is FaceKind.FLAT else prof
            finite_or_value_error(lambda: dcap_dgap(kind, face, g, eps))
    finite_or_value_error(lambda: bridge_capacitances(config, GapState(d, delta), drive))
    finite_or_value_error(lambda: gain(config, d, mech, drive, accel))
    finite_or_value_error(lambda: sensitivity(config, d, mech, drive, accel))
    finite_or_value_error(lambda: fd_sensitivity(config, d, d, mech, drive, accel))
    plan = SweepPlan(
        (cell["variant"],), prof, GapState(d), mech, drive, cell["arc_mode"],
        cell["anchor"], cell["arc_range_m"], 3, (-cell["accel_g"], cell["accel_g"]), 3,
    )
    finite_or_value_error(lambda: gain_curve(plan))
    finite_or_value_error(lambda: sensitivity_sweep(plan))
    finite_or_value_error(
        lambda: maximize_sensitivity(cell["variant"], cell["arc_range_m"], plan)
    )


@settings(max_examples=30, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.filter_too_much])
@given(cell=envelope_cells(), command=st.sampled_from(
    ["capacitance", "gain-curve", "sensitivity-sweep", "compare", "validate"]
))
def test_inside_the_envelope_every_subcommand_exits_0_to_3(tmp_path_factory, cell, command):
    prof, mech, drive = cell["profile"], cell["mech"], cell["drive"]
    out = tmp_path_factory.mktemp("cli")
    argv = [command]
    if command == "capacitance":
        argv += ["--kind", FaceKind.CONCAVE.value, "--verify"]
    elif command == "sensitivity-sweep":
        argv += ["--verify"]
    if command in ("gain-curve", "sensitivity-sweep"):
        argv += [f"--svg={out / 'out.svg'}"]
    elif command == "validate":
        argv += ["--points", "1"]
    argv += [
        f"--r-um={prof.radius_m / 1e-6!r}", f"--phi={prof.angular_extent_rad!r}",
        f"--h-um={prof.thickness_m / 1e-6!r}", f"--gap-um={cell['gap_m'] / 1e-6!r}",
        f"--m-kg={mech.mass_kg!r}", f"--k-n-per-m={mech.spring_n_per_m!r}",
        f"--combs={mech.comb_count}", f"--v-in={drive.v_in_volts!r}",
        f"--permittivity={drive.permittivity_f_per_m!r}",
        f"--feedback={drive.feedback_mode.value}", f"--gap-anchor={cell['anchor'].value}",
        f"--arc-mode={cell['arc_mode'].value}",
        f"--arc-min-um={cell['arc_range_m'][0] / 1e-6!r}",
        f"--arc-max-um={cell['arc_range_m'][1] / 1e-6!r}", "--arc-points=3",
        f"--accel-min-g={-cell['accel_g']!r}", f"--accel-max-g={cell['accel_g']!r}",
        "--accel-points=3", f"--variants={cell['variant'].value}",
        f"--csv={out / 'out.csv'}",
    ]
    assert main(argv) in (0, 1, 2, 3)
