"""50-digit mpmath evaluation of the library's closed forms.

The same formulas as curvedcomb.capacitance and curvedcomb.transduction,
evaluated on the exact binary values of the double inputs, so the
relative error of a library result against these is the error the
double-precision evaluation adds. Used outside every timed region.
"""

from __future__ import annotations

import mpmath

from curvedcomb import STANDARD_GRAVITY, ElectrodeConfig, FaceKind, FeedbackMode, GapAnchor

mpmath.mp.dps = 50
mpf = mpmath.mpf


def _arc_terms(profile):
    r = mpf(profile.radius_m)
    phi = mpf(profile.angular_extent_rad)
    return r, mpmath.tan(phi / 4), r * (1 - mpmath.cos(phi / 2))


def face_c_dc(kind: FaceKind, config: ElectrodeConfig, gap, eps) -> tuple:
    """(C, dC/dd) of one face at a closed-form gap given as an mpf."""
    eps = mpf(eps)
    if kind is FaceKind.FLAT:
        face = config.planar_face
        num = eps * mpf(face.thickness_m) * mpf(face.length_m)
        return num / gap, -num / gap**2
    r, t, _ = _arc_terms(config.profile)
    lead = 4 * eps * mpf(config.profile.thickness_m) * r
    if kind is FaceKind.CONVEX:
        n = 2 * r + gap
        p = gap * n
        at = mpmath.atan(t * mpmath.sqrt(n / gap))
        c = lead / mpmath.sqrt(p) * at
        dc = -lead * (t * r / (p * (gap + t * t * n)) + (r + gap) * at / p**1.5)
        return c, dc
    m = 2 * r - gap
    q = gap * m
    at = mpmath.atanh(t * mpmath.sqrt(m / gap))
    c = lead / mpmath.sqrt(q) * at
    dc = -lead * (t * r / (q * (gap - t * t * m)) + (r - gap) * at / q**1.5)
    return c, dc


def side_gaps(config: ElectrodeConfig, gap_m: float, anchor: GapAnchor) -> tuple:
    """Exact per-side closed-form nominal gaps (mpf)."""
    d = mpf(gap_m)
    if anchor is GapAnchor.APEX:
        return d, d
    _, _, sag = _arc_terms(config.profile)
    shift = {FaceKind.CONVEX: -sag, FaceKind.CONCAVE: sag, FaceKind.FLAT: 0}
    k1, k2 = config.side_kinds()
    return d + shift[k1], d + shift[k2]


def exact_point(config, d1, d2, mech, drive, accel: float) -> dict:
    """Exact C1, C2 (F), G and S (V/g) at one acceleration, given the
    closed-form nominal gap of each side (float or mpf)."""
    d1, d2 = mpf(d1), mpf(d2)
    eps = drive.permittivity_f_per_m
    m_over_k = mpf(mech.mass_kg) / mpf(mech.spring_n_per_m)
    delta = m_over_k * mpf(accel)
    k1, k2 = config.side_kinds()
    c1, dc1 = face_c_dc(k1, config, d1 - delta, eps)
    c2, dc2 = face_c_dc(k2, config, d2 + delta, eps)
    s1, s2 = -dc1, dc2
    if drive.feedback_mode is FeedbackMode.MATCHED_SUM:
        c_fb = c1 + c2
        dg = -2 * (s2 * c1 - s1 * c2) / c_fb**2
    else:
        c_fb = face_c_dc(k1, config, d1, eps)[0] + face_c_dc(k2, config, d2, eps)[0]
        dg = -(s2 - s1) / c_fb
    s = mpf(drive.v_in_volts) * m_over_k * dg * mpf(STANDARD_GRAVITY)
    return {"c1": c1, "c2": c2, "g": -(c2 - c1) / c_fb, "s": s}


def rel_err(value: float, exact) -> float:
    """|value - exact| / |exact| as a float; 0 when both are exactly 0."""
    if exact == 0:
        return 0.0 if value == 0.0 else float("inf")
    return float(abs((mpf(value) - exact) / exact))
