"""Parameter sweeps, curve generation, comparison, and arc-length
optimization of sensitivity.

Sweeps exist to answer cross-variant questions, so they default to the
FACE_PLANE gap anchor: every variant is built by bowing the same flat
electrode out of the same mounting plane, which is the construction under
which curvature genuinely trades sensitivity (convex arcs encroach into
the gap and win, concave arcs recede and lose). Under the APEX anchor the
nearest-point distance is pinned instead and those trends invert; both
anchors are available on the plan.

Arc length can be swept two ways: VARY_PHI_FIXED_R widens the angular
extent at fixed radius (the bow deepens with arc length and eventually
reaches the gap), VARY_R_FIXED_ARC scales the radius at fixed angular
extent (a similarity family whose bow stays proportional to arc length).

At one profile every variant reads one face table: each distinct kind
resolved once at its rest gap (a flat face cut to the arc), built per arc
by _rest_sweep, for sensitivity_sweep (and the cells of the CLI's
sensitivity-sweep --verify) and, on the plan's own profile, for the CLI's
compare and validate, and once per curve by gain_curve, which takes its
variants in output order and evaluates each (side, kind) face at most
once per acceleration, on first use; an invalid cell's reason is read
off the table (model._RULES). An optimizer bound reads S the same way, at
rest with C_fb = c1 + c2, unrolled over its pairing's kinds (reading a
table made solves slower: ROADMAP item 13).

S against arc length (README: each step): at rest a face of local gap
L(theta) has C = eps*h*R*int 1/L and dC/dd = -eps*h*R*int 1/L**2, so a
symmetric pairing's |S| is, under either feedback mode, a fixed multiple
of M = int L**-2 / int L**-1, the 1/L-weighted mean of 1/L; Planar's is
constant. A longer arc adds edges (whose 1/L is the least on a convex
APEX face, the most on a concave one), scales R in L = D + R*u (with
u <= 0 M rises by Cauchy-Schwarz), or else moves M as the closed forms
in d/R and T = tan(phi/4) or an integration by parts sign it: M has no
interior maximum. Lengthening the arc moves w = W/D (faces at D -+ W)
as a flow dw = t(w), t >= 0 growing with w. Under it the mixed pair's
|S| rises under either feedback mode, and a plano pairing's (u = D/L on
the curved face) rises where u >= 1; where u <= 1 it falls under
matched-sum and turns only at minima under nominal feedback (for
PlanoConcave on the face plane with phi growing, by a computer-assisted
proof in (z, s) = (r(1 - cos s), phi/2): tests/test_plano_concave_certificate.py).
So a solve compares its two bounds.
"""

from __future__ import annotations

from enum import Enum
from typing import Iterable, NamedTuple

from . import __version__
from .capacitance import _resolve_at_arc
from .model import (
    SIDE_KINDS,
    STANDARD_GRAVITY,
    ArcProfile,
    DriveModel,
    GapAnchor,
    GapState,
    MechanicalModel,
    Variant,
    _FACE_PLANE,
    _FLAT,
    _MATCHED_SUM,
    _RULES,
    _Record,
    _bowed_gap,
    _require_in_envelope,
    _require_member,
    displacement,
)
from .transduction import _gain, _over_range, _readout, _sensitivity

__all__ = [
    "ArcMode",
    "SweepPlan",
    "SweepRow",
    "SweepResult",
    "gain_curve",
    "sensitivity_sweep",
    "maximize_sensitivity",
    "DEFAULT_ARC_BOUNDS_M",
]


class ArcMode(Enum):
    VARY_PHI_FIXED_R = "vary-phi-fixed-r"
    VARY_R_FIXED_ARC = "vary-r-fixed-arc"


# Default arc-length range of a SweepPlan, its arc_range_m (m).
DEFAULT_ARC_BOUNDS_M = (5e-6, 60e-6)

_VARIANT_ORDER = {v: i for i, v in enumerate(Variant)}
_VARY_PHI_FIXED_R = ArcMode.VARY_PHI_FIXED_R


class SweepPlan(_Record):
    """Shared geometry/readout parameters plus the grids to sweep.

    profile supplies the fixed quantity of the arc mode (the radius for
    VARY_PHI_FIXED_R, the angular extent for VARY_R_FIXED_ARC) and the
    thickness; gain_curve uses it verbatim as the fixed geometry. The gap
    state is at rest (only the swept accelerations displace it), and both
    ends of each range lie in the model envelope.
    """

    __slots__ = (
        "variants", "profile", "gap", "mech", "drive", "arc_mode", "gap_anchor",
        "arc_range_m", "arc_points", "accel_range_g", "accel_points",
    )

    def __init__(
        self,
        variants: tuple[Variant, ...],
        profile: ArcProfile,
        gap: GapState,
        mech: MechanicalModel,
        drive: DriveModel,
        arc_mode: ArcMode = ArcMode.VARY_PHI_FIXED_R,
        gap_anchor: GapAnchor = GapAnchor.FACE_PLANE,
        arc_range_m: tuple[float, float] = DEFAULT_ARC_BOUNDS_M,
        arc_points: int = 20,
        accel_range_g: tuple[float, float] = (-1.0, 1.0),
        accel_points: int = 21,
    ) -> None:
        if not isinstance(variants, tuple):
            raise ValueError(f"variants must be a tuple of Variant, got {variants!r}")
        if not variants:
            raise ValueError("plan needs at least one variant")
        for variant in variants:
            _require_member("variant", variant, Variant)
        _require_member("arc_mode", arc_mode, ArcMode)
        _require_member("gap_anchor", gap_anchor, GapAnchor)
        if gap.displacement_m != 0.0:
            raise ValueError("plan gap must be at rest (displacement 0)")
        for name, span, quantity, count_name, count in (
            ("arc_range_m", arc_range_m, "length", "arc_points", arc_points),
            ("accel_range_g", accel_range_g, "accel_g", "accel_points", accel_points),
        ):
            lo, hi = _require_span(name, span)
            _require_in_envelope(f"{name} min", lo, quantity)
            _require_in_envelope(f"{name} max", hi, quantity)
            if not lo < hi:
                raise ValueError(f"{name} needs min < max, got [{lo}, {hi}]")
            _require_in_envelope(count_name, count, "points")
        super().__init__(
            variants, profile, gap, mech, drive, arc_mode, gap_anchor,
            arc_range_m, arc_points, accel_range_g, accel_points,
        )


def _require_span(name: str, span) -> tuple:
    """span, after raising ValueError unless it is a (min, max) tuple."""
    if not (isinstance(span, tuple) and len(span) == 2):
        raise ValueError(f"{name} must be a (min, max) tuple, got {span!r}")
    return span


class SweepRow(NamedTuple):
    variant: Variant
    arc_length_m: float
    radius_m: float
    phi_rad: float
    accel_g: float
    displacement_m: float
    c1_f: float
    c2_f: float
    gain: float
    v_out_v: float
    s_mv_per_g: float
    s_net_mv_per_g: float


class SweepResult(NamedTuple):
    rows: tuple[SweepRow, ...]
    metadata: dict


def _linspace(lo: float, hi: float, n: int) -> list[float]:
    step = (hi - lo) / (n - 1)
    return [lo + i * step for i in range(n - 1)] + [hi]


def _ordered_variants(variants: Iterable[Variant]) -> list[Variant]:
    seen = set()
    unique = [v for v in variants if not (v in seen or seen.add(v))]
    return sorted(unique, key=_VARIANT_ORDER.__getitem__)


def _arc_shape(plan: SweepPlan, arc_length_m: float) -> tuple[float, float]:
    """(R, phi) realizing one arc length under the plan's mode."""
    if plan.arc_mode is _VARY_PHI_FIXED_R:
        r = plan.profile.radius_m
        return r, arc_length_m / r
    phi = plan.profile.angular_extent_rad
    return arc_length_m / phi, phi


def _profile_at(plan: SweepPlan, arc_length_m: float) -> ArcProfile:
    """Profile realizing one grid arc length under the plan's mode.

    Raises ValueError when the arc length is unrealizable (e.g. the
    angular extent would leave [0, pi) at fixed radius).
    """
    return ArcProfile(*_arc_shape(plan, arc_length_m), plan.profile.thickness_m)


def _echo(plan: SweepPlan) -> dict:
    return {
        "variants": [v.value for v in plan.variants],
        "arc_mode": plan.arc_mode.value,
        "gap_anchor": plan.gap_anchor.value,
        "radius_m": plan.profile.radius_m,
        "angular_extent_rad": plan.profile.angular_extent_rad,
        "thickness_m": plan.profile.thickness_m,
        "gap_m": plan.gap.gap_m,
        "mass_kg": plan.mech.mass_kg,
        "spring_n_per_m": plan.mech.spring_n_per_m,
        "comb_count": plan.mech.comb_count,
        "v_in_volts": plan.drive.v_in_volts,
        "feedback_mode": plan.drive.feedback_mode.value,
        "permittivity_f_per_m": plan.drive.permittivity_f_per_m,
        "arc_range_m": list(plan.arc_range_m),
        "arc_points": plan.arc_points,
        "accel_range_g": list(plan.accel_range_g),
        "accel_points": plan.accel_points,
        "version": __version__,
    }


def _skip_reason(*sides: tuple) -> str:
    """Why a cell is invalid at rest, in validate_geometry's words, from each
    side's (face, rest gap, ...): the rule of each bound a face's gap crosses."""
    return "; ".join(
        f"side {i}: {_RULES[f[3]][d >= f[2]]}"
        for i, (f, d, *_) in enumerate(sides, start=1) if not f[1] < d < f[2]
    )


def _kinds_of(variants: list[Variant]) -> tuple[list, list]:
    """The distinct face kinds of variants, and each variant's (side 1,
    side 2) indices into them."""
    kinds = list(dict.fromkeys(k for v in variants for k in SIDE_KINDS[v]))
    return kinds, [[kinds.index(k) for k in SIDE_KINDS[v]] for v in variants]


def _rest_faces(plan: SweepPlan, prof: ArcProfile, kinds: list) -> list[tuple]:
    """Each kind's (face, rest gap, valid) on prof: the face resolved (a flat
    one cut to prof), its closed-form gap by side_nominal_gaps' anchor rule
    and whether the face admits that gap."""
    eps, gap = plan.drive.permittivity_f_per_m, plan.gap.gap_m
    r, phi, h, sag = prof.radius_m, prof.angular_extent_rad, prof.thickness_m, prof.sagitta()
    bow = sag if plan.gap_anchor is _FACE_PLANE else 0.0  # APEX: the plan gap
    faces = [(_resolve_at_arc(k, r, phi, h, eps, sag), _bowed_gap(k, gap, bow)) for k in kinds]
    return [(face, d, face[1] < d < face[2]) for face, d in faces]


def _row_builder(plan: SweepPlan):
    """row(variant, arc, R, phi, accel_g, delta, ev): one row from one
    bridge evaluation ev at displacement delta, with the plan's readout
    constants (V_in*(m/k), comb count, feedback mode) read once."""
    v_in, combs = plan.drive.v_in_volts, plan.mech.comb_count
    v_m_per_k, matched_sum = _readout(plan.mech, plan.drive)
    new_row = tuple.__new__  # what SweepRow's own __new__ calls, from a Python frame

    def row(variant, arc, r, phi, accel_g, delta, ev) -> SweepRow:
        g, s = _gain(ev), _sensitivity(ev, v_m_per_k, matched_sum)
        return new_row(SweepRow, (  # the fields in order
            variant, arc, r, phi, accel_g, delta, ev[0], ev[2], g, v_in * g,
            s * 1e3, s * combs * 1e3,  # net_sensitivity's comb-count scaling
        ))

    return row


def _rest_sweep(plan: SweepPlan, variants: list, arcs: list, profiles: list,
                tables: dict | None = None) -> tuple:
    """(rows, skipped) at rest for variants, in their order, over arcs and
    their profiles, where an unrealizable arc's profile is its error string.
    tables, if given, maps each realizable arc's (R, phi) to each variant's
    rest cell there, transduction's (variant, face 1, face 2, d1, d2)."""
    kinds, sides = _kinds_of(variants)
    row = _row_builder(plan)
    # per arc: R, phi, the face table and each kind's (C, dC/dd) at its rest gap
    # (None where the face does not admit it), or an unrealizable arc's reason
    cells: list = []
    for prof in profiles:
        if isinstance(prof, str):
            cells.append(prof)
            continue
        faces = _rest_faces(plan, prof, kinds)
        if tables is not None:  # the cells of sensitivity-sweep --verify's stencil
            tables[prof.radius_m, prof.angular_extent_rad] = {
                v: (v, faces[i1][0], faces[i2][0], faces[i1][1], faces[i2][1])
                for v, (i1, i2) in zip(variants, sides)
            }
        evals = [face[0](face, d) if ok else None for face, d, ok in faces]
        cells.append((prof.radius_m, prof.angular_extent_rad, faces, evals))
    rows: list[SweepRow] = []
    skipped: list[dict] = []
    for variant, (i1, i2) in zip(variants, sides):
        for arc, cell in zip(arcs, cells):
            reason = cell
            if not isinstance(cell, str):
                r, phi, faces, evals = cell
                if evals[i1] is not None and evals[i2] is not None:
                    (c1, dc1), (c2, dc2) = evals[i1], evals[i2]
                    ev = c1, dc1, c2, dc2, c1 + c2
                    rows.append(row(variant, arc, r, phi, 0.0, 0.0, ev))
                    continue
                reason = _skip_reason(faces[i1], faces[i2])
            skipped.append({"variant": variant.value, "arc_length_m": arc, "reason": reason})
    return rows, skipped


def sensitivity_sweep(plan: SweepPlan, *, _tables: dict | None = None) -> SweepResult:
    """Per-comb and net sensitivity at rest over the arc-length grid.

    Grid points whose geometry is invalid for a variant are skipped, with
    the reason recorded in metadata["skipped"]; a plan with no valid
    point at all is rejected. Rows are sorted by (variant, arc length)
    and the evaluation is deterministic, so identical plans serialize to
    byte-identical CSV downstream. _tables is _rest_sweep's tables, for
    the CLI's --verify column.
    """
    _require_member("plan", plan, SweepPlan)
    arcs = _linspace(*plan.arc_range_m, plan.arc_points)
    profiles: list = []
    for arc in arcs:
        try:
            profiles.append(_profile_at(plan, arc))
        except ValueError as err:
            profiles.append(str(err))
    rows, skipped = _rest_sweep(plan, _ordered_variants(plan.variants), arcs, profiles, _tables)
    if not rows:
        raise ValueError(
            "no valid grid points in the sweep plan; first reason: "
            + (skipped[0]["reason"] if skipped else "empty grid")
        )
    return SweepResult(tuple(rows), {"plan": _echo(plan), "skipped": skipped})


def gain_curve(plan: SweepPlan) -> SweepResult:
    """V_out versus acceleration per variant at the plan's fixed geometry.

    Over-range grid points are collected in metadata["over_range"]
    instead of aborting the sweep. metadata["fitted_slope_mv_per_g"]
    carries the least-squares slope of each variant's curve, the
    swept-range counterpart of the analytic point sensitivity; a variant
    whose valid accelerations have no spread in floating point has none.
    """
    _require_member("plan", plan, SweepPlan)
    accels_g = _linspace(*plan.accel_range_g, plan.accel_points)
    prof, mech = plan.profile, plan.mech
    arc, r, phi = prof.arc_length(), prof.radius_m, prof.angular_extent_rad
    variants = _ordered_variants(plan.variants)
    kinds, sides = _kinds_of(variants)
    faces = _rest_faces(plan, prof, kinds)
    row = _row_builder(plan)
    nominal = plan.drive.feedback_mode is not _MATCHED_SUM
    rest: dict[int, float] = {}  # nominal C_fb: each kind's C at rest, once
    deltas = [displacement(mech, a_g * STANDARD_GRAVITY) for a_g in accels_g]
    # per (side, kind): its (C, dC/dd) at each acceleration, on first use
    memo = [[None] * len(deltas) for _ in range(2 * len(kinds))]
    rows, over_range, slopes = [], [], {}
    for variant, (i1, i2) in zip(variants, sides):
        (f1, d1, ok1), (f2, d2, ok2) = faces[i1], faces[i2]
        if not (ok1 and ok2):
            reason = _skip_reason(faces[i1], faces[i2])
            over_range.append({"variant": variant.value, "accel_g": None, "reason": reason})
            continue
        for f, d, i in (f1, d1, i1), (f2, d2, i2):
            if nominal and i not in rest:
                rest[i] = f[0](f, d)[0]
        c_fb = rest[i1] + rest[i2] if nominal else None
        cell, vrows = (variant, f1, f2, d1, d2), []
        memo1, memo2 = memo[i1], memo[len(kinds) + i2]
        for j, (a_g, delta) in enumerate(zip(accels_g, deltas)):
            g1, g2 = d1 - delta, d2 + delta  # _check_range's test
            if not (f1[1] < g1 < f1[2] and f2[1] < g2 < f2[2]):
                reason = str(_over_range(cell, mech, delta, a_g * STANDARD_GRAVITY))
                over_range.append({"variant": variant.value, "accel_g": a_g, "reason": reason})
                continue
            if (e1 := memo1[j]) is None:
                e1 = memo1[j] = f1[0](f1, g1)
            if (e2 := memo2[j]) is None:
                e2 = memo2[j] = f2[0](f2, g2)
            (c1, dc1), (c2, dc2) = e1, e2
            ev = c1, dc1, c2, dc2, c1 + c2 if c_fb is None else c_fb
            vrows.append(row(variant, arc, r, phi, a_g, delta, ev))
        rows += vrows
        xs, ys = [x.accel_g for x in vrows], [x.v_out_v for x in vrows]
        if len(xs) >= 2 and (slope := _least_squares_slope(xs, ys)) is not None:
            slopes[variant.value] = slope * 1e3  # mV per g
    if not rows:
        raise ValueError("no valid grid points in the gain-curve plan")
    metadata = {"plan": _echo(plan), "over_range": over_range, "fitted_slope_mv_per_g": slopes}
    return SweepResult(tuple(rows), metadata)


def _least_squares_slope(xs: list[float], ys: list[float]) -> float | None:
    """Fitted slope, or None when the x spread is 0 (or underflows to 0)."""
    n = len(xs)
    x_mean = sum(xs) / n
    y_mean = sum(ys) / n
    sxx = sum((x - x_mean) ** 2 for x in xs)
    sxy = sum((x - x_mean) * (y - y_mean) for x, y in zip(xs, ys))
    return sxy / sxx if sxx else None


# unrolled over the pairing's kinds: reading S off _rest_faces made solves slower
def _solve_of(plan: SweepPlan, variant: Variant) -> tuple:
    """One solve, resolved once: the plan, the variant, its side kinds (k2
    None when both are k1), whether faces bow (FACE_PLANE), eps, gap, _readout."""
    k1, k2 = SIDE_KINDS[variant]
    bowed, eps = plan.gap_anchor is _FACE_PLANE, plan.drive.permittivity_f_per_m
    k2 = None if k2 is k1 else k2
    return plan, variant, k1, k2, bowed, eps, plan.gap.gap_m, *_readout(plan.mech, plan.drive)


def _sensitivity_at_arc(solve: tuple, arc_length_m: float) -> float:
    # as a sweep row: at rest C_fb = c1 + c2 under either feedback mode
    plan, variant, k1, k2, bowed, eps, gap, v_m_per_k, matched_sum = solve
    prof = _profile_at(plan, arc_length_m)  # raises the profile's ValueError
    r, phi, h, sag = prof.radius_m, prof.angular_extent_rad, prof.thickness_m, prof.sagitta()
    bow = sag if bowed else 0.0
    f1, d1 = _resolve_at_arc(k1, r, phi, h, eps, sag), _bowed_gap(k1, gap, bow)
    f2, d2 = f1, d1
    if k2 is not None:
        f2, d2 = _resolve_at_arc(k2, r, phi, h, eps, sag), _bowed_gap(k2, gap, bow)
    if not (f1[1] < d1 < f1[2] and f2[1] < d2 < f2[2]):
        reason = _skip_reason((f1, d1), (f2, d2))
        raise ValueError(
            f"invalid geometry for {variant.value} at arc {arc_length_m} m: {reason}"
        )
    c1, dc1 = e1 = f1[0](f1, d1)
    c2, dc2 = e1 if k2 is None else f2[0](f2, d2)
    return _sensitivity((c1, dc1, c2, dc2, c1 + c2), v_m_per_k, matched_sum)


def maximize_sensitivity(
    variant: Variant,
    arc_bounds_m: tuple[float, float],
    plan: SweepPlan,
) -> tuple[float, float]:
    """Arc length maximizing |S| for one variant, with the S it achieves.

    |S(arc)| has no interior local maximum in any case (module
    docstring), so the answer is the better of the two bounds, each
    evaluated once and checked, with the plan's geometry mode, anchor and
    readout parameters (not its grids): the lower one for Planar, whose S
    does not vary.

    Args:
        variant: electrode pairing to optimize.
        arc_bounds_m: inclusive (lo, hi) arc-length interval, each end in
            the model's arc length interval; lo == hi is the degenerate
            single-point case.
        plan: carrier of the shared parameters.

    Returns:
        (arc_length_m, sensitivity_volts_per_g) at the maximizing point.

    Raises:
        ValueError: if an argument has the wrong type, or a bound is
            outside the geometric validity region or the model envelope.
    """
    _require_member("variant", variant, Variant)
    _require_member("plan", plan, SweepPlan)
    lo, hi = _require_span("arc_bounds_m", arc_bounds_m)
    _require_in_envelope("arc_bounds_m min", lo, "arc_length")
    _require_in_envelope("arc_bounds_m max", hi, "arc_length")
    if not lo <= hi:
        raise ValueError(f"bounds must satisfy 0 < lo <= hi, got [{lo}, {hi}]")
    solve = _solve_of(plan, variant)
    s_lo = _sensitivity_at_arc(solve, lo)  # raises ValueError on an invalid bound
    if hi == lo:
        return lo, s_lo
    s_hi = _sensitivity_at_arc(solve, hi)
    if solve[2] is not _FLAT and abs(s_hi) > abs(s_lo):  # side 1 is flat for Planar only
        return hi, s_hi
    return lo, s_lo
