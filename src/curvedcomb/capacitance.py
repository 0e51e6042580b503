"""Closed-form capacitance of each electrode-face pairing and its exact
derivative with respect to the gap.

Conventions: gap_m is the closed-form gap of the face itself, i.e. the
apex-to-plane distance for a convex face and the center distance for a
concave face. Face placement conventions (see model.GapAnchor) are
resolved by callers before these functions are reached.

One private kernel, _face_eval, returns C and dC/dd of a resolved face
(kind, profile, side_gap_bounds interval, T = tan(phi/4)) together, with
one domain guard and one shared square root and atan/atanh term; the
public functions (cap_* through face_capacitance, and dcap_dgap) check
their permittivity against the model envelope, resolve the face and
return one half of it, while the bridge and the sweeps resolve each face
once per cell or arc length and call the kernel directly. The
derivatives are hand-differentiated from the closed forms, cross-checked
against Richardson finite differences in the test suite, and carry all
sensitivity math downstream via the chain rule.
"""

from __future__ import annotations

import math

from .model import (
    VACUUM_PERMITTIVITY,
    ArcProfile,
    FaceKind,
    PlanarProfile,
    _check_profile,
    _require_in_envelope,
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


# a resolved face: kind, profile, side_gap_bounds (lo, hi), T (None if flat)
_Face = tuple[FaceKind, ArcProfile | PlanarProfile, float, float, float | None]


def _resolve_face(kind: FaceKind, profile: ArcProfile | PlanarProfile) -> _Face:
    """The face of kind on profile; raises ValueError if the profile type
    does not fit the kind (PlanarProfile for FLAT, ArcProfile otherwise)."""
    _check_profile(kind, profile)
    lo, hi = side_gap_bounds(kind, profile)
    t = None if kind is FaceKind.FLAT else profile.half_tan()
    return kind, profile, lo, hi, t


def _face_eval(face: _Face, gap_m: float, permittivity: float) -> tuple[float, float]:
    """(C, dC/dd) of one resolved face at its closed-form gap, in F and F/m;
    raises GeometryDomainError if gap_m is outside side_gap_bounds."""
    kind, profile, lo, hi, t = face
    if not lo < gap_m < hi:
        raise GeometryDomainError(
            f"{kind.value} face needs a gap in ({lo}, {hi}) m, got {gap_m} m",
            kind=kind,
            gap_m=gap_m,
        )
    if kind is FaceKind.FLAT:
        k = permittivity * profile.thickness_m * profile.length_m
        return k / gap_m, -k / gap_m**2
    r = profile.radius_m
    lead = 4.0 * permittivity * profile.thickness_m * r
    if kind is FaceKind.CONVEX:
        n = 2.0 * r + gap_m
        p = gap_m * n
        atan_term = math.atan(t * math.sqrt(n / gap_m))
        return lead / math.sqrt(p) * atan_term, -lead * (
            t * r / (p * (gap_m + t * t * n)) + (r + gap_m) * atan_term / p**1.5
        )
    m = 2.0 * r - gap_m
    q = gap_m * m
    # the atanh argument is < 1 whenever the edge gap is > 0, and
    # gap - t^2 * m > 0 is its squared form, so both denominators are safe
    atanh_term = math.atanh(t * math.sqrt(m / gap_m))
    return lead / math.sqrt(q) * atanh_term, -lead * (
        t * r / (q * (gap_m - t * t * m)) + (r - gap_m) * atanh_term / q**1.5
    )


def cap_convex(
    profile: ArcProfile, gap_m: float, permittivity: float = VACUUM_PERMITTIVITY
) -> float:
    """Capacitance (F) between a convex arc face and the movable plane.

    C = 4*eps*h*R / sqrt(d*(2R+d)) * atan(T * sqrt((2R+d)/d)),
    with T = tan(phi/4) and d the apex gap. The local gap grows toward the
    arc edges, so the result never exceeds the flat-face value eps*h*R*phi/d.

    Raises:
        GeometryDomainError: if gap_m is outside side_gap_bounds.
    """
    return face_capacitance(FaceKind.CONVEX, profile, gap_m, permittivity)


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
    return face_capacitance(FaceKind.CONCAVE, profile, gap_m, permittivity)


def cap_planar(
    face: PlanarProfile, gap_m: float, permittivity: float = VACUUM_PERMITTIVITY
) -> float:
    """Parallel-plate capacitance eps*h*b/d (F).

    Raises:
        GeometryDomainError: if gap_m is outside side_gap_bounds.
    """
    return face_capacitance(FaceKind.FLAT, face, gap_m, permittivity)


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
    _require_in_envelope("permittivity", permittivity, "permittivity")
    return _face_eval(_resolve_face(kind, profile), gap_m, permittivity)[1]


def face_capacitance(
    kind: FaceKind,
    profile: ArcProfile | PlanarProfile,
    gap_m: float,
    permittivity: float = VACUUM_PERMITTIVITY,
) -> float:
    """Capacitance (F) of one face by kind.

    Raises:
        ValueError: if the profile type does not fit the kind (FLAT takes
            a PlanarProfile, CONVEX and CONCAVE an ArcProfile), or if the
            permittivity is outside the model envelope.
        GeometryDomainError: if gap_m is outside side_gap_bounds.
    """
    _require_in_envelope("permittivity", permittivity, "permittivity")
    return _face_eval(_resolve_face(kind, profile), gap_m, permittivity)[0]
