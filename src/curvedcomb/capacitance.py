"""Closed-form capacitance of each electrode-face pairing and its exact
derivative with respect to the gap.

Conventions: gap_m is the closed-form gap of the face itself, i.e. the
apex-to-plane distance for a convex face and the center distance for a
concave face. Face placement conventions (see model.GapAnchor) are
resolved by callers before these functions are reached.

_resolve_face reads a face's kind once, into its kernel (_flat, _convex
or _concave), its side_gap_bounds interval and the kernel's constants.
Every face is built by _resolve_at_arc (an arc face, or a flat face cut
to the arc) or _resolve_flat, from numbers the caller has checked. A
kernel is straight-line code returning C and dC/dd together, sharing one
square root and atan/atanh term; callers test the gap first. The public
functions (cap_* through face_capacitance, and dcap_dgap) and the
quadrature oracle check their inputs in _checked_face, then evaluate;
the bridge and the sweeps resolve each distinct face once per cell or
arc. The derivatives are hand-differentiated from the closed forms,
cross-checked against Richardson finite differences in the test suite,
and carry all sensitivity math downstream via the chain rule.
"""

from __future__ import annotations

import math

from .model import (
    VACUUM_PERMITTIVITY,
    ArcProfile,
    FaceKind,
    PlanarProfile,
    _CONCAVE,
    _CONVEX,
    _FLAT,
    _OPEN_GAPS,
    _check_profile,
    _concave_gaps,
    _require_in_envelope,
)

__all__ = [
    "GeometryDomainError",
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


def _resolve_face(kind: FaceKind, profile, permittivity: float) -> tuple:
    """The face of kind on profile as (kernel, lo, hi, kind, *constants),
    lo and hi from side_gap_bounds, the constants eps*h*b (flat) or
    4*eps*h*R, R, T = tan(phi/4) (arc); raises ValueError if the profile
    type does not fit the kind (PlanarProfile for FLAT, else ArcProfile)."""
    _check_profile(kind, profile)
    if kind is _FLAT:
        return _resolve_flat(permittivity, profile.thickness_m, profile.length_m)
    r, phi, h = profile.radius_m, profile.angular_extent_rad, profile.thickness_m
    return _resolve_at_arc(kind, r, phi, h, permittivity, profile.sagitta())


def _resolve_at_arc(kind: FaceKind, r: float, phi: float, h: float, permittivity: float,
                    sagitta_m: float) -> tuple:
    """_resolve_face's face of kind on the arc (R, phi, h) of the given
    sagitta, all of which the caller has checked, with no profile built: a
    flat face is cut to the arc's length R*phi."""
    if kind is _FLAT:
        return _resolve_flat(permittivity, h, r * phi)
    lo, hi = _concave_gaps(r, sagitta_m) if kind is _CONCAVE else _OPEN_GAPS
    kernel = _convex if kind is _CONVEX else _concave
    return kernel, lo, hi, kind, 4.0 * permittivity * h * r, r, math.tan(phi / 4.0)


def _resolve_flat(permittivity: float, h: float, b: float) -> tuple:
    """_resolve_face's flat face of thickness h and length b, which the
    caller has checked."""
    return _flat, *_OPEN_GAPS, _FLAT, permittivity * h * b


def _out_of_domain(face: tuple, gap_m: float) -> GeometryDomainError:
    _, lo, hi, kind = face[:4]
    message = f"{kind.value} face needs a gap in ({lo}, {hi}) m, got {gap_m} m"
    return GeometryDomainError(message, kind=kind, gap_m=gap_m)


# The kernels: (C, dC/dd) of a resolved face at its closed-form gap, in F
# and F/m. They do not check the gap: each caller tests lo < gap < hi first.
def _flat(face: tuple, gap_m: float) -> tuple[float, float]:
    k = face[4]
    return k / gap_m, -k / gap_m**2


def _convex(face: tuple, gap_m: float) -> tuple[float, float]:
    _, _, _, _, lead, r, t = face
    n = 2.0 * r + gap_m
    p = gap_m * n
    atan_term = math.atan(t * math.sqrt(n / gap_m))
    return lead / math.sqrt(p) * atan_term, -lead * (
        t * r / (p * (gap_m + t * t * n)) + (r + gap_m) * atan_term / p**1.5
    )


def _concave(face: tuple, gap_m: float) -> tuple[float, float]:
    _, _, _, _, lead, r, t = face
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
    return _checked_eval(kind, profile, gap_m, permittivity)[1]


def face_capacitance(
    kind: FaceKind,
    profile: ArcProfile | PlanarProfile,
    gap_m: float,
    permittivity: float = VACUUM_PERMITTIVITY,
) -> float:
    """Capacitance (F) of one face by kind.

    Raises:
        ValueError: if the profile type does not fit the kind (FLAT takes
            a PlanarProfile, CONVEX and CONCAVE an ArcProfile), if the
            permittivity is outside the model envelope, or if gap_m is not
            a real number.
        GeometryDomainError: if gap_m is outside side_gap_bounds.
    """
    return _checked_eval(kind, profile, gap_m, permittivity)[0]


def _checked_eval(kind: FaceKind, profile, gap_m: float, eps: float) -> tuple[float, float]:
    face = _checked_face(kind, profile, gap_m, eps)
    return face[0](face, gap_m)


def _checked_face(kind: FaceKind, profile, gap_m: float, eps: float) -> tuple:
    """The resolved face of a face-level call, after its checks in order:
    the permittivity in the model envelope, the profile type for the kind,
    then a real-number gap inside side_gap_bounds (GeometryDomainError)."""
    _require_in_envelope("permittivity", eps, "permittivity")
    face = _resolve_face(kind, profile, eps)
    if not isinstance(gap_m, float):  # a float, NaN too, goes straight to the domain test
        _require_in_envelope("gap_m", gap_m, "real")
    if not face[1] < gap_m < face[2]:
        raise _out_of_domain(face, gap_m)
    return face
