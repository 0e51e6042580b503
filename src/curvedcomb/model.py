"""Domain types for the curved-electrode accelerometer model.

Everything internal is SI: meters, kilograms, farads, volts, m/s^2.
Acceleration is reported "per g" only at presentation boundaries, using
the exact conventional constant g0 = 9.80665 m/s^2.

The model holds inside one physical envelope, _ENVELOPE: a closed
interval per input quantity, checked where input enters. There every gap
along a face lies between 2**-340 m (1e-12*R at a concave edge) and 3 m,
so C and |dC/dd| lie in [1e-32, 5e197], C_fb**2 and the products in S
below 5e293 and S in [4e-154, 2e239] V per g (README: the derivation).
"""

from __future__ import annotations

import math
import sys
from enum import Enum
from typing import NamedTuple

__all__ = [
    "CONCAVE_EDGE_MARGIN_REL",
    "STANDARD_GRAVITY",
    "VACUUM_PERMITTIVITY",
    "ArcProfile",
    "DriveModel",
    "ElectrodeConfig",
    "FaceKind",
    "FeedbackMode",
    "GapAnchor",
    "GapState",
    "MechanicalModel",
    "PlanarProfile",
    "ValidityReport",
    "Variant",
    "Violation",
    "displacement",
    "side_gap_bounds",
    "side_nominal_gaps",
    "validate_geometry",
]

VACUUM_PERMITTIVITY = 8.854e-12  # F/m, air/vacuum
STANDARD_GRAVITY = 9.80665  # m/s^2, exact by convention

# A concave face is evaluated only while its edge gap exceeds this fraction
# of the radius; closer than that the closed form is one ulp from divergence.
CONCAVE_EDGE_MARGIN_REL = 1e-12


# the model envelope above: a closed interval per input quantity, in SI
# units (m, rad, F/m, kg, N/m, V) but for plan accelerations, in g
_ENVELOPE = {
    "length": (1e-9, 1.0),
    # R*phi and a flat face's equal length, with room for the rounding of
    # a profile rebuilt from an arc length as R*(arc/R) or (arc/phi)*phi
    "arc_length": (1e-9 * (1.0 - 2.0**-51), 1.0 + 2.0**-51),
    "permittivity": (1e-13, 1e-7),
    "mass": (1e-15, 1.0),
    "stiffness": (1e-6, 1e6),
    "voltage": (1e-6, 1e3),
    "accel_g": (-1e6, 1e6),
    "angle": (0.0, math.nextafter(math.pi, 0.0)),  # phi, in [0, pi)
    "displacement": (-sys.float_info.max, sys.float_info.max),  # every finite float
    "real": (-math.inf, math.inf),  # every float but NaN: a per-point call's own inputs
    # int endpoints: the value must be an int, not a bool
    "comb_count": (1, 10**6),
    "points": (2, 10**6),  # grid points of a plan range
}
# side_gap_bounds of convex and flat faces: the floor, and twice the
# largest nominal gap as the ceiling
_OPEN_GAPS = (2.0**-340, 2.0 * _ENVELOPE["length"][1])


def _require_in_envelope(name: str, value: float, q: str) -> None:
    """Raise ValueError naming name unless value lies in the _ENVELOPE
    interval of q: the one check a number gets where it enters. The value
    must be an int or a float (a bool, str, None or complex is refused by
    type) and, where the interval's ends are ints, an int; NaN is outside."""
    lo, hi = _ENVELOPE[q]
    try:
        inside = lo <= value <= hi  # one comparison, which NaN fails
    except TypeError:  # not comparable with a number, such as a str or None
        inside = False
    if (not inside or value is True or value is False
            or type(lo) is int and not isinstance(value, int)):
        kind, types = ("an int", int) if type(lo) is int else ("a real number", (int, float))
        if isinstance(value, bool) or not isinstance(value, types):
            raise ValueError(f"{name} must be {kind}, got {value!r}")
        if lo > 0 and not 0.0 < value < math.inf:
            raise ValueError(f"{name} must be positive and finite, got {value}")
        raise ValueError(f"{name} = {value} is outside the model's {q} range [{lo}, {hi}]")


def _require_member(name: str, value, cls: type) -> None:
    """Raise ValueError unless value is an instance of cls (of an Enum: a
    member)."""
    if not isinstance(value, cls):
        raise ValueError(f"{name} must be a {cls.__name__}, got {value!r}")


class FaceKind(Enum):
    """Shape of one fixed-electrode face as seen by the movable plane."""

    CONVEX = "convex"
    CONCAVE = "concave"
    FLAT = "flat"


class Variant(Enum):
    """The seven electrode pairings. Declaration order is the canonical
    sort order used by sweep results and CSV output."""

    PLANAR = "Planar"
    BICONVEX = "Biconvex"
    BICONCAVE = "Biconcave"
    CONCAVO_CONVEX = "ConcavoConvex"
    CONVEXO_CONCAVE = "ConvexoConcave"
    PLANO_CONVEX = "PlanoConvex"
    PLANO_CONCAVE = "PlanoConcave"


# Side 1 is the side whose gap narrows under positive displacement (d - delta),
# side 2 the side that widens (d + delta).
SIDE_KINDS: dict[Variant, tuple[FaceKind, FaceKind]] = {
    Variant.PLANAR: (FaceKind.FLAT, FaceKind.FLAT),
    Variant.BICONVEX: (FaceKind.CONVEX, FaceKind.CONVEX),
    Variant.BICONCAVE: (FaceKind.CONCAVE, FaceKind.CONCAVE),
    Variant.CONCAVO_CONVEX: (FaceKind.CONVEX, FaceKind.CONCAVE),
    Variant.CONVEXO_CONCAVE: (FaceKind.CONCAVE, FaceKind.CONVEX),
    Variant.PLANO_CONVEX: (FaceKind.CONVEX, FaceKind.FLAT),
    Variant.PLANO_CONCAVE: (FaceKind.CONCAVE, FaceKind.FLAT),
}


class GapAnchor(Enum):
    """How the nominal gap d of a configuration is measured.

    APEX: d is the closed-form gap of every face directly, i.e. the
    apex-to-plane distance for convex faces and the center (deepest point)
    distance for concave faces. Holding d fixed while the arc grows keeps
    the nearest point of a convex face pinned.

    FACE_PLANE: d is the distance from the movable plane to the flat face
    plane the curved face is bowed out of. A convex face then bulges into
    the gap (closed-form gap d - sagitta) and a concave face recedes from
    it (closed-form gap d + sagitta), so a family of arcs shares one
    mounting envelope. This is the construction under which curvature
    trades capacitance against travel, and it is the default for sweeps
    and cross-variant comparisons.
    """

    APEX = "apex"
    FACE_PLANE = "face-plane"


class _Record:
    """An immutable input type: equal and hashed by exact type and field
    values, printed as Name(field=value, ...). The rule: results are named
    tuples (typing.NamedTuple, equal to any tuple of their values), checked
    inputs are records, whose checks need an __init__ body. A subclass
    lists its own fields in __slots__; _fields, its parent's fields and
    then its own, is set once per class. The checked inputs set them in
    their own straight-line __init__ through _set, several times faster
    than this generic one (cli.RunConfig's), which takes the fields by
    position or name and the defaults of trailing ones from _defaults."""

    __slots__ = ()
    _defaults: dict = {}
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._fields = cls._fields + tuple(cls.__dict__.get("__slots__", ()))

    def __init__(self, *values, **named) -> None:
        fields = {**self._defaults, **dict(zip(self._fields, values)), **named}
        if len(values) > len(self._fields) or fields.keys() != set(self._fields):
            raise TypeError(f"{type(self).__name__} takes the fields {', '.join(self._fields)}")
        for name in self._fields:
            _set(self, name, fields[name])

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):  # copy and pickle rebuild through the constructor
        return type(self), self._values()


# a record's own __init__ sets its fields through this, past __setattr__
_set = object.__setattr__


class ArcProfile(_Record):
    """A circular-arc electrode face.

    Attributes:
        radius_m: arc radius R (m).
        angular_extent_rad: full subtended angle phi (rad); the face spans
            -phi/2..+phi/2 about the apex.
        thickness_m: out-of-plane structure thickness h (m).
    """

    __slots__ = ("radius_m", "angular_extent_rad", "thickness_m")

    def __init__(self, radius_m: float, angular_extent_rad: float, thickness_m: float) -> None:
        _require_in_envelope("radius_m", radius_m, "length")
        _require_in_envelope("thickness_m", thickness_m, "length")
        _require_in_envelope("angular_extent_rad", angular_extent_rad, "angle")
        _require_in_envelope("arc_length_m", radius_m * angular_extent_rad, "arc_length")
        _set(self, "radius_m", radius_m)
        _set(self, "angular_extent_rad", angular_extent_rad)
        _set(self, "thickness_m", thickness_m)

    def arc_length(self) -> float:
        """R * phi (m)."""
        return self.radius_m * self.angular_extent_rad

    def sagitta(self) -> float:
        """Bow depth R * (1 - cos(phi/2)) (m)."""
        return _sagitta(self.radius_m, self.angular_extent_rad)


def _sagitta(radius_m: float, angular_extent_rad: float) -> float:
    return radius_m * (1.0 - math.cos(angular_extent_rad / 2.0))


class PlanarProfile(_Record):
    """A flat electrode face of length b and thickness h."""

    __slots__ = ("length_m", "thickness_m")

    def __init__(self, length_m: float, thickness_m: float) -> None:
        _require_in_envelope("length_m", length_m, "arc_length")
        _require_in_envelope("thickness_m", thickness_m, "length")
        _set(self, "length_m", length_m)
        _set(self, "thickness_m", thickness_m)


class GapState(_Record):
    """Nominal gap d and signed displacement delta of the movable electrode.

    Positive displacement narrows side 1 and widens side 2. Contact
    (|delta| >= d) is deliberately representable so that validate_geometry
    can report it; the capacitance layer refuses to evaluate it.
    """

    __slots__ = ("gap_m", "displacement_m")

    def __init__(self, gap_m: float, displacement_m: float = 0.0) -> None:
        _require_in_envelope("gap_m", gap_m, "length")
        _require_in_envelope("displacement_m", displacement_m, "displacement")
        _set(self, "gap_m", gap_m)
        _set(self, "displacement_m", displacement_m)


class ElectrodeConfig(_Record):
    """One electrode pairing: a variant plus the profiles its faces use.

    The curved faces of a variant share a single ArcProfile; flat faces use
    planar_face. For variants with one flat fixed electrode the flat face
    must match the curved face's arc length (the electrodes are cut to the
    same length).
    """

    __slots__ = ("variant", "profile", "planar_face")

    def __init__(self, variant: Variant, profile: ArcProfile, planar_face: PlanarProfile) -> None:
        _require_member("variant", variant, Variant)
        _require_member("profile", profile, ArcProfile)
        _require_member("planar_face", planar_face, PlanarProfile)
        kinds = SIDE_KINDS[variant]
        if FaceKind.FLAT in kinds and variant is not Variant.PLANAR:
            want = profile.arc_length()
            got = planar_face.length_m
            if abs(got - want) > 1e-9 * want:
                raise ValueError(
                    "planar_face.length_m must equal profile.arc_length() for "
                    f"mixed variants: {got} != {want}"
                )
        _set(self, "variant", variant)
        _set(self, "profile", profile)
        _set(self, "planar_face", planar_face)

    @staticmethod
    def for_variant(variant: Variant, profile: ArcProfile) -> "ElectrodeConfig":
        """Build a config whose flat faces inherit the profile's arc length."""
        face = PlanarProfile(profile.arc_length(), profile.thickness_m)
        return ElectrodeConfig(variant, profile, face)

    def side_kinds(self) -> tuple[FaceKind, FaceKind]:
        return SIDE_KINDS[self.variant]


class MechanicalModel(_Record):
    """Proof mass m, suspension stiffness k, and comb count N."""

    __slots__ = ("mass_kg", "spring_n_per_m", "comb_count")

    def __init__(self, mass_kg: float, spring_n_per_m: float, comb_count: int = 1) -> None:
        _require_in_envelope("mass_kg", mass_kg, "mass")
        _require_in_envelope("spring_n_per_m", spring_n_per_m, "stiffness")
        _require_in_envelope("comb_count", comb_count, "comb_count")
        _set(self, "mass_kg", mass_kg)
        _set(self, "spring_n_per_m", spring_n_per_m)
        _set(self, "comb_count", comb_count)


class FeedbackMode(Enum):
    """Charge-amplifier feedback capacitance convention."""

    MATCHED_SUM = "matched-sum"  # C_fb tracks C1 + C2
    NOMINAL = "nominal"  # C_fb frozen at 2 * C0 (rest capacitance)


class DriveModel(_Record):
    """Excitation amplitude and feedback mode of the readout bridge."""

    __slots__ = ("v_in_volts", "feedback_mode", "permittivity_f_per_m")

    def __init__(
        self,
        v_in_volts: float,
        feedback_mode: FeedbackMode = FeedbackMode.MATCHED_SUM,
        permittivity_f_per_m: float = VACUUM_PERMITTIVITY,
    ) -> None:
        _require_in_envelope("v_in_volts", v_in_volts, "voltage")
        _require_member("feedback_mode", feedback_mode, FeedbackMode)
        _require_in_envelope("permittivity_f_per_m", permittivity_f_per_m, "permittivity")
        _set(self, "v_in_volts", v_in_volts)
        _set(self, "feedback_mode", feedback_mode)
        _set(self, "permittivity_f_per_m", permittivity_f_per_m)


def displacement(mech: MechanicalModel, accel_m_s2: float) -> float:
    """Static displacement delta = m * a / k (m), sign preserving.

    Validity against the gap is checked where the displacement is consumed.
    """
    return mech.mass_kg * accel_m_s2 / mech.spring_n_per_m


def side_nominal_gaps(
    config: ElectrodeConfig, gap_m: float, anchor: GapAnchor
) -> tuple[float, float]:
    """Closed-form nominal gap of each side under the given anchor.

    Under APEX both sides use gap_m directly. Under FACE_PLANE a convex
    face's closed-form gap is gap_m - sagitta (the bulge eats into the
    gap) and a concave face's is gap_m + sagitta (the hollow recedes);
    flat faces are unaffected.

    The returned values may be nonpositive for deep convex bows; callers
    are expected to validate before evaluating capacitance. Raises
    ValueError for a wrong-typed argument or a gap_m outside the model
    envelope, as GapState does.
    """
    _require_member("config", config, ElectrodeConfig)
    _require_member("anchor", anchor, GapAnchor)
    _require_in_envelope("gap_m", gap_m, "length")
    bow = config.profile.sagitta() if anchor is _FACE_PLANE else 0.0  # APEX: gap_m
    k1, k2 = config.side_kinds()
    return _bowed_gap(k1, gap_m, bow), _bowed_gap(k2, gap_m, bow)


def _bowed_gap(kind: FaceKind, gap_m: float, sagitta_m: float) -> float:
    """Closed-form gap of a face bowed sagitta_m out of a plane at gap_m;
    a sagitta of 0 gives gap_m for every kind."""
    if kind is _CONVEX:
        return gap_m - sagitta_m
    if kind is _CONCAVE:
        return gap_m + sagitta_m
    return gap_m


class Violation(NamedTuple):
    """One failed geometric validity rule."""

    side: int  # 1 or 2
    rule: str
    margin_m: float  # how far past the limit, as a length where meaningful


class ValidityReport(NamedTuple):
    ok: bool
    violations: tuple[Violation, ...]

    def __bool__(self) -> bool:
        return self.ok


def _check_profile(kind: FaceKind, profile: ArcProfile | PlanarProfile) -> None:
    """Raise ValueError unless the profile type fits the kind: PlanarProfile
    for FLAT, ArcProfile for CONVEX and CONCAVE."""
    _require_member("kind", kind, FaceKind)
    want = PlanarProfile if kind is _FLAT else ArcProfile
    if not isinstance(profile, want):
        raise ValueError(
            f"{kind.value} face needs {want.__name__}, got {type(profile).__name__}"
        )


def side_gap_bounds(
    kind: FaceKind, profile: ArcProfile | PlanarProfile
) -> tuple[float, float]:
    """Open interval (lo, hi) of admissible closed-form gaps for one face.

    The one domain rule: closed forms, validate_geometry and the travel
    check all test a gap as lo < g < hi, which NaN fails. Concave faces
    need sagitta + CONCAVE_EDGE_MARGIN_REL*R < g < 2R, convex and flat
    ones 2**-340 < g < 2 m. The floor (about 4.5e-103 m) is the smallest
    power of two whose cube is a normal float: the flat form divides by
    g**2 and the convex one by p*(g + T**2*n) and p**1.5, with n = 2R + g
    and p = g*n, all >= g**3. The ceiling, twice the largest nominal gap
    of the model envelope, is never reached by a cell's widening side.
    """
    _require_member("kind", kind, FaceKind)
    if kind is _CONCAVE:
        return _concave_gaps(profile.radius_m, profile.sagitta())
    return _OPEN_GAPS


def _concave_gaps(radius_m: float, sagitta_m: float) -> tuple[float, float]:
    """side_gap_bounds of a concave face, from its radius and sagitta."""
    return sagitta_m + CONCAVE_EDGE_MARGIN_REL * radius_m, 2.0 * radius_m


# hot paths read these names: a member read such as FaceKind.FLAT costs 10x
_CONVEX, _CONCAVE, _FLAT = FaceKind.CONVEX, FaceKind.CONCAVE, FaceKind.FLAT
_FACE_PLANE, _MATCHED_SUM = GapAnchor.FACE_PLANE, FeedbackMode.MATCHED_SUM

# validate_geometry rule names: (gap <= lo, gap >= hi) of side_gap_bounds;
# "gap not positive" also covers the positive gaps up to the gap floor
_RULES = {
    FaceKind.CONVEX: ("gap not positive", "gap outside model envelope (gap >= 2 m)"),
    FaceKind.FLAT: ("gap not positive", "gap outside model envelope (gap >= 2 m)"),
    FaceKind.CONCAVE: (
        "concave edge contact (gap <= sagitta + margin)",
        "concave gap outside formula domain (gap >= 2R)",
    ),
}


def validate_geometry(
    config: ElectrodeConfig,
    gap: GapState,
    anchor: GapAnchor = GapAnchor.APEX,
) -> ValidityReport:
    """Check that both displaced gaps are physically and analytically valid.

    Each side's displaced closed-form gap g must lie inside
    side_gap_bounds for its face kind; a side that fails gets one
    violation naming the bound it crossed. The report is ok exactly when
    both closed forms evaluate at the displaced gaps.

    Raises ValueError only for an argument of the wrong type; otherwise
    returns the verdict and the violations, side 1's first.

    Args:
        config: electrode pairing under test.
        gap: nominal gap and displacement.
        anchor: gap convention used to place each face (default APEX).
    """
    _require_member("config", config, ElectrodeConfig)
    _require_member("gap", gap, GapState)
    d1, d2 = side_nominal_gaps(config, gap.gap_m, anchor)
    gaps = (d1 - gap.displacement_m, d2 + gap.displacement_m)
    violations: list[Violation] = []
    for side, (kind, g) in enumerate(zip(config.side_kinds(), gaps), start=1):
        lo, hi = side_gap_bounds(kind, config.profile)
        if not lo < g < hi:
            above = g >= hi
            violations.append(Violation(side, _RULES[kind][above], g - hi if above else lo - g))
    return ValidityReport(not violations, tuple(violations))
