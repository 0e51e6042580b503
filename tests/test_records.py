"""The value types behave as the frozen dataclasses they replace.

Results (what the library returns) are typing.NamedTuple types and
checked inputs, with cli.RunConfig, are slotted records (model._Record).
Each public value type, and cli.RunConfig, is checked against a
test-local frozen dataclass twin of its old definition: the same repr
byte for byte, the same == and hash, no assignment or deletion of a
field, copy, deepcopy and pickle round trips, and for the types that
validate their input the same constructor signature (names, kinds and
defaults). A record equals no other type of the same values; a result
equals any tuple of its values, as a named tuple does. Fields are read
from _fields, which both kinds define.
"""

import copy
import inspect
import math
import pickle
from dataclasses import dataclass

import pytest

import curvedcomb as cc
from curvedcomb import cli
from curvedcomb.model import (
    VACUUM_PERMITTIVITY,
    FeedbackMode,
    GapAnchor,
    Variant,
    _Record,
)
from curvedcomb.sweep import DEFAULT_ARC_BOUNDS_M, ArcMode, SweepRow


# the old definitions, fields only: the twins are never validated


@dataclass(frozen=True)
class ArcProfile:
    radius_m: float
    angular_extent_rad: float
    thickness_m: float


@dataclass(frozen=True)
class PlanarProfile:
    length_m: float
    thickness_m: float


@dataclass(frozen=True)
class GapState:
    gap_m: float
    displacement_m: float = 0.0


@dataclass(frozen=True)
class ElectrodeConfig:
    variant: Variant
    profile: cc.ArcProfile
    planar_face: cc.PlanarProfile


@dataclass(frozen=True)
class MechanicalModel:
    mass_kg: float
    spring_n_per_m: float
    comb_count: int = 1


@dataclass(frozen=True)
class DriveModel:
    v_in_volts: float
    feedback_mode: FeedbackMode = FeedbackMode.MATCHED_SUM
    permittivity_f_per_m: float = VACUUM_PERMITTIVITY


@dataclass(frozen=True)
class Violation:
    side: int
    rule: str
    margin_m: float


@dataclass(frozen=True)
class ValidityReport:
    ok: bool
    violations: tuple


@dataclass(frozen=True)
class BridgeState:
    c1_f: float
    c2_f: float
    c_fb_f: float


@dataclass(frozen=True)
class TransductionPoint:
    accel_m_s2: float
    displacement_m: float
    bridge: cc.BridgeState
    gain: float
    v_out_volts: float


@dataclass(frozen=True)
class QuadratureResult:
    value: float
    error_estimate: float
    subdivisions: int


@dataclass(frozen=True)
class FDResult:
    value: float
    error_estimate: float
    step_m: float


@dataclass(frozen=True)
class SweepPlan:
    variants: tuple
    profile: cc.ArcProfile
    gap: cc.GapState
    mech: cc.MechanicalModel
    drive: cc.DriveModel
    arc_mode: ArcMode = ArcMode.VARY_PHI_FIXED_R
    gap_anchor: GapAnchor = GapAnchor.FACE_PLANE
    arc_range_m: tuple = DEFAULT_ARC_BOUNDS_M
    arc_points: int = 20
    accel_range_g: tuple = (-1.0, 1.0)
    accel_points: int = 21


@dataclass(frozen=True)
class SweepResult:
    rows: tuple
    metadata: dict


@dataclass(frozen=True)
class RunConfig:
    r_um: float = 100.0
    phi_rad: float | None = None
    arc_um: float | None = 20.0
    h_um: float = 2.0
    b_um: float | None = None
    gap_um: float = 2.0
    gap_anchor: str = "face-plane"
    m_kg: float = 2.6e-10
    k_n_per_m: float = 1.0
    combs: int = 21
    v_in_v: float = 1.0
    feedback_mode: str = "matched-sum"
    permittivity: float = 8.854e-12
    arc_mode: str = "vary-phi-fixed-r"
    arc_min_um: float = 5.0
    arc_max_um: float = 60.0
    arc_points: int = 20
    accel_min_g: float = -5.0
    accel_max_g: float = 5.0
    accel_points: int = 21
    variants: tuple = tuple(v.value for v in Variant)
    csv: str | None = None
    svg: str | None = None


PROF = cc.ArcProfile(100e-6, 0.2, 2e-6)
FLAT = cc.PlanarProfile(PROF.arc_length(), 2e-6)
MECH = cc.MechanicalModel(2.6e-10, 1.0, 21)
DRIVE = cc.DriveModel(1.0)
BRIDGE = cc.BridgeState(1.6e-14, 1.5e-14, 3.1e-14)
VIOLATION = cc.Violation(1, "gap not positive", 1e-7)
ROW = SweepRow(Variant.PLANAR, *[float(i) for i in range(1, 12)])

# (new type, its twin, sample constructor arguments as (args, kwargs))
CASES = [
    (cc.ArcProfile, ArcProfile, [((100e-6, 0.2, 2e-6), {}), ((100e-6, 0.3, 2e-6), {}),
                                 ((), {"radius_m": 5e-5, "angular_extent_rad": 0.1,
                                       "thickness_m": 1e-6})]),
    (cc.PlanarProfile, PlanarProfile, [((20e-6, 2e-6), {}), ((30e-6, 2e-6), {})]),
    (cc.GapState, GapState, [((2e-6,), {}), ((2e-6, 1e-7), {}), ((2e-6, 0.0), {})]),
    (cc.ElectrodeConfig, ElectrodeConfig, [((Variant.PLANO_CONCAVE, PROF, FLAT), {}),
                                           ((Variant.PLANAR, PROF, FLAT), {})]),
    (cc.MechanicalModel, MechanicalModel, [((2.6e-10, 1.0, 21), {}), ((2.6e-10, 1.0), {}),
                                           ((2.6e-10, 1.0, 1), {})]),
    (cc.DriveModel, DriveModel, [((1.0,), {}), ((1.0, FeedbackMode.NOMINAL, 1e-11), {}),
                                 ((2.0,), {"permittivity_f_per_m": 1e-11})]),
    (cc.Violation, Violation, [((1, "gap not positive", 1e-7), {}),
                               ((), {"side": 2, "rule": "r", "margin_m": 0.5})]),
    (cc.ValidityReport, ValidityReport, [((True, ()), {}),
                                         ((False, (VIOLATION,)), {})]),
    (cc.BridgeState, BridgeState, [((1.6e-14, 1.5e-14, 3.1e-14), {}),
                                   ((math.nan, 1.0, 2.0), {})]),
    (cc.TransductionPoint, TransductionPoint, [((9.8, 2.5e-9, BRIDGE, 1e-3, 1e-3), {}),
                                               ((-9.8, -2.5e-9, BRIDGE, -1e-3, -1e-3), {})]),
    (cc.QuadratureResult, QuadratureResult, [((1e-15, 1e-27, 3), {}), ((0.0, 0.0, 0), {})]),
    (cc.FDResult, FDResult, [((0.5, 1e-9, 1e-6), {}), ((-0.5, math.inf, 1e-6), {})]),
    (cc.SweepPlan, SweepPlan, [(((Variant.PLANAR,), PROF, cc.GapState(2e-6), MECH, DRIVE), {}),
                               ((tuple(Variant), PROF, cc.GapState(3e-6), MECH, DRIVE),
                                {"arc_points": 3, "accel_range_g": (-2.0, 2.0)})]),
    (cc.SweepResult, SweepResult, [(((ROW,), {"skipped": []}), {}), (((), {}), {})]),
    (cli.RunConfig, RunConfig, [((), {}), ((), {"r_um": 50.0, "variants": ("Planar",)}),
                                ((), {"phi_rad": 0.1, "arc_um": None, "csv": "out.csv"})]),
]
IDS = [new.__name__ for new, _, _ in CASES]
VALIDATING = {cc.ArcProfile, cc.PlanarProfile, cc.GapState, cc.ElectrodeConfig,
              cc.MechanicalModel, cc.DriveModel, cc.SweepPlan}
RESULTS = {cc.Violation, cc.ValidityReport, cc.BridgeState,
           cc.TransductionPoint, cc.QuadratureResult, cc.FDResult, cc.SweepResult}


def is_named_tuple(t: type) -> bool:
    return issubclass(t, tuple) and hasattr(t, "_fields")


def pairs(new, twin, samples):
    return [(new(*args, **kwargs), twin(*args, **kwargs)) for args, kwargs in samples]


def test_every_value_type_is_covered():
    covered = {new for new, _, _ in CASES}
    public = {t for t in vars(cc).values()
              if isinstance(t, type) and (issubclass(t, _Record) or is_named_tuple(t))}
    assert (public - {SweepRow}) | {cli.RunConfig} == covered
    assert len(covered) == 15
    # results are named tuples; checked inputs, and RunConfig, are records
    assert {t for t in covered if is_named_tuple(t)} == RESULTS
    assert {t for t in covered if issubclass(t, _Record)} == VALIDATING | {cli.RunConfig}


def test_a_validity_report_is_truthy_exactly_when_ok():
    assert cc.ValidityReport(True, ())
    assert not cc.ValidityReport(False, (VIOLATION,))


@pytest.mark.parametrize("new, twin, samples", CASES, ids=IDS)
def test_repr_is_the_dataclass_repr(new, twin, samples):
    for record, reference in pairs(new, twin, samples):
        assert repr(record) == repr(reference)


@pytest.mark.parametrize("new, twin, samples", CASES, ids=IDS)
def test_equality_and_hash_match_the_dataclass(new, twin, samples):
    built = pairs(new, twin, samples)
    for a, ref_a in built:
        for b, ref_b in built:
            assert (a == b) is (ref_a == ref_b)
            assert (a != b) is (ref_a != ref_b)
        try:
            expected = hash(ref_a)
        except TypeError:  # a dict field makes both unhashable
            with pytest.raises(TypeError):
                hash(a)
        else:
            assert hash(a) == expected


@pytest.mark.parametrize("new, twin, samples", CASES, ids=IDS)
def test_not_equal_to_another_type_with_the_same_values(new, twin, samples):
    subtype = type("Sub" + new.__name__, (new,), {})
    for args, kwargs in samples:
        record = new(*args, **kwargs)
        values = tuple(getattr(record, name) for name in new._fields)
        assert record != twin(*args, **kwargs)
        if new in RESULTS:  # a named tuple equals a tuple of its values
            assert record == values and tuple(record) == values
        else:
            assert record != subtype(*args, **kwargs)
            assert record != values


@pytest.mark.parametrize("new, twin, samples", CASES, ids=IDS)
def test_fields_can_be_neither_assigned_nor_deleted(new, twin, samples):
    for args, kwargs in samples:
        record = new(*args, **kwargs)
        assert new._fields
        for name in new._fields:
            before = getattr(record, name)
            with pytest.raises(AttributeError):
                setattr(record, name, before)
            with pytest.raises(AttributeError):
                delattr(record, name)
            assert getattr(record, name) is before
        with pytest.raises(AttributeError):
            record.extra = 1


@pytest.mark.parametrize("new, twin, samples", CASES, ids=IDS)
def test_copy_deepcopy_and_pickle_give_equal_records(new, twin, samples):
    # equal as the dataclass copies are: a NaN field is a new float after
    # a pickle round trip, so neither copy equals its original then
    def clones(x):
        return copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))

    for record, reference in pairs(new, twin, samples):
        for clone, ref_clone in zip(clones(record), clones(reference)):
            assert type(clone) is new
            assert (clone == record) is (ref_clone == reference)
            assert repr(clone) == repr(record)
        assert copy.copy(record) == record


@pytest.mark.parametrize("new, twin", [(n, t) for n, t, _ in CASES if n in VALIDATING],
                         ids=lambda t: t.__name__)
def test_validating_types_keep_their_signature(new, twin):
    def params(cls):
        return [(p.name, p.kind, p.default) for p in inspect.signature(cls).parameters.values()]

    assert params(new) == params(twin)


@pytest.mark.parametrize("new, twin, samples", CASES, ids=IDS)
def test_a_wrong_field_set_is_a_type_error(new, twin, samples):
    args, kwargs = samples[0]
    with pytest.raises(TypeError):
        new(*args, **kwargs, no_such_field=1)
    with pytest.raises(TypeError):
        new(*args, *[0] * (len(new._fields) + 1 - len(args)), **kwargs)
    if new is not cli.RunConfig:  # every RunConfig field has a default
        with pytest.raises(TypeError):
            new()


@pytest.mark.parametrize("new, twin, samples", CASES, ids=IDS)
def test_a_slotted_subclass_keeps_every_field(new, twin, samples):
    # a subclass that adds no field declares __slots__ = () and still has
    # its parent's fields: in its constructor, repr, ==, hash and copy
    subtype = type("Sub" + new.__name__, (new,), {"__slots__": ()})
    built = [(subtype(*args, **kwargs), new(*args, **kwargs)) for args, kwargs in samples]
    for sub, record in built:
        assert repr(sub) == "Sub" + repr(record)
        clone = copy.copy(sub)
        assert type(clone) is subtype and repr(clone) == repr(sub)
        for other_sub, other in built:
            assert (sub == other_sub) is (record == other)
        try:
            expected = hash(record)
        except TypeError:  # a dict field makes both unhashable
            continue
        assert hash(sub) == expected
