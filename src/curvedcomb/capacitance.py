"""Closed-form capacitance of each electrode-face pairing and its exact
derivative with respect to the gap.

Conventions: gap_m is the closed-form gap of the face itself, i.e. the
apex-to-plane distance for a convex face and the center distance for a
concave face. Face placement conventions (see model.GapAnchor) are
resolved by callers before these functions are reached.

The gap derivatives are hand-differentiated from the closed forms and are
cross-checked against Richardson finite differences in the test suite;
all sensitivity math downstream is built on them via the chain rule.
"""

from __future__ import annotations

import math

from .model import (
    VACUUM_PERMITTIVITY,
    ArcProfile,
    FaceKind,
    PlanarProfile,
    side_gap_bounds,
)

__all__ = [
    "GeometryDomainError",
    "FaceKind",
    "cap_convex",
    "cap_concave",
    "cap_planar",
    "dcap_dgap",
    "face_capacitance",
]


class GeometryDomainError(ValueError):
    """A capacitance evaluation was requested outside its valid domain."""

    def __init__(self, message: str, *, kind: FaceKind, gap_m: float):
        super().__init__(message)
        self.kind = kind
        self.gap_m = gap_m


def _require_admissible_gap(
    kind: FaceKind, profile: ArcProfile | PlanarProfile, gap_m: float
) -> None:
    lo, hi = side_gap_bounds(kind, profile)
    if not lo < gap_m < hi:
        raise GeometryDomainError(
            f"{kind.value} face needs a gap in ({lo}, {hi}) m, got {gap_m} m",
            kind=kind,
            gap_m=gap_m,
        )


def cap_convex(
    profile: ArcProfile, gap_m: float, permittivity: float = VACUUM_PERMITTIVITY
) -> float:
    """Capacitance (F) between a convex arc face and the movable plane.

    C = 4*eps*h*R / sqrt(d*(2R+d)) * atan(T * sqrt((2R+d)/d)),
    with T = tan(phi/4) and d the apex gap. The local gap grows toward the
    arc edges, so the result never exceeds the flat-face value eps*h*R*phi/d.

    Raises:
        GeometryDomainError: if gap_m is outside side_gap_bounds (not > 0).
    """
    _require_admissible_gap(FaceKind.CONVEX, profile, gap_m)
    r = profile.radius_m
    t = profile.half_tan()
    p = gap_m * (2.0 * r + gap_m)
    root = math.sqrt(p)
    return (
        4.0
        * permittivity
        * profile.thickness_m
        * r
        / root
        * math.atan(t * math.sqrt((2.0 * r + gap_m) / gap_m))
    )


def cap_concave(
    profile: ArcProfile, gap_m: float, permittivity: float = VACUUM_PERMITTIVITY
) -> float:
    """Capacitance (F) between a concave arc face and the movable plane.

    C = 4*eps*h*R / sqrt(d*(2R-d)) * atanh(T * sqrt((2R-d)/d)),
    with d the center gap. The arc edges sit closer than the center by the
    sagitta; the atanh argument reaches 1 exactly at edge contact
    (d = 2R*sin^2(phi/4)), where the form diverges.

    Raises:
        GeometryDomainError: if gap_m is outside side_gap_bounds, the single
            rule for every face (edge contact within a small guard margin,
            or gap_m >= 2R, outside the real domain of the formula).
    """
    _require_admissible_gap(FaceKind.CONCAVE, profile, gap_m)
    r = profile.radius_m
    t = profile.half_tan()
    q = gap_m * (2.0 * r - gap_m)
    arg = t * math.sqrt((2.0 * r - gap_m) / gap_m)  # < 1 whenever edge gap > 0
    return (
        4.0 * permittivity * profile.thickness_m * r / math.sqrt(q) * math.atanh(arg)
    )


def cap_planar(
    face: PlanarProfile, gap_m: float, permittivity: float = VACUUM_PERMITTIVITY
) -> float:
    """Parallel-plate capacitance eps*h*b/d (F).

    Raises:
        GeometryDomainError: if gap_m is outside side_gap_bounds (not > 0).
    """
    _require_admissible_gap(FaceKind.FLAT, face, gap_m)
    return permittivity * face.thickness_m * face.length_m / gap_m


def _dcap_convex(profile: ArcProfile, gap_m: float, permittivity: float) -> float:
    _require_admissible_gap(FaceKind.CONVEX, profile, gap_m)
    r = profile.radius_m
    t = profile.half_tan()
    n = 2.0 * r + gap_m
    p = gap_m * n
    lead = 4.0 * permittivity * profile.thickness_m * r
    return -lead * (
        t * r / (p * (gap_m + t * t * n))
        + (r + gap_m) * math.atan(t * math.sqrt(n / gap_m)) / p**1.5
    )


def _dcap_concave(profile: ArcProfile, gap_m: float, permittivity: float) -> float:
    _require_admissible_gap(FaceKind.CONCAVE, profile, gap_m)
    r = profile.radius_m
    t = profile.half_tan()
    m = 2.0 * r - gap_m
    q = gap_m * m
    lead = 4.0 * permittivity * profile.thickness_m * r
    # gap - t^2 * m > 0 is the squared atanh-argument condition, so the
    # first denominator is safe everywhere the capacitance is defined.
    return -lead * (
        t * r / (q * (gap_m - t * t * m))
        + (r - gap_m) * math.atanh(t * math.sqrt(m / gap_m)) / q**1.5
    )


def dcap_dgap(
    kind: FaceKind,
    profile: ArcProfile | PlanarProfile,
    gap_m: float,
    permittivity: float = VACUUM_PERMITTIVITY,
) -> float:
    """Exact analytic dC/dd (F/m) for one face.

    Strictly negative across the valid domain: every face loses
    capacitance as its gap opens. Domain errors match the corresponding
    capacitance operation.

    Args:
        kind: face shape selecting the closed form.
        profile: ArcProfile for curved kinds, PlanarProfile for FLAT.
        gap_m: closed-form gap of the face (m).
        permittivity: dielectric permittivity (F/m).
    """
    if kind is FaceKind.CONVEX:
        assert isinstance(profile, ArcProfile)
        return _dcap_convex(profile, gap_m, permittivity)
    if kind is FaceKind.CONCAVE:
        assert isinstance(profile, ArcProfile)
        return _dcap_concave(profile, gap_m, permittivity)
    assert isinstance(profile, PlanarProfile)
    _require_admissible_gap(FaceKind.FLAT, profile, gap_m)
    return -permittivity * profile.thickness_m * profile.length_m / gap_m**2


def face_capacitance(
    kind: FaceKind,
    profile: ArcProfile | PlanarProfile,
    gap_m: float,
    permittivity: float = VACUUM_PERMITTIVITY,
) -> float:
    """Capacitance of one face by kind; profile type must match the kind."""
    if kind is FaceKind.CONVEX:
        assert isinstance(profile, ArcProfile)
        return cap_convex(profile, gap_m, permittivity)
    if kind is FaceKind.CONCAVE:
        assert isinstance(profile, ArcProfile)
        return cap_concave(profile, gap_m, permittivity)
    assert isinstance(profile, PlanarProfile)
    return cap_planar(profile, gap_m, permittivity)
