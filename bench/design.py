"""`design` workload: the designer's loop over a seeded pool of cells.

Each cell draws R, gap, thickness, gap anchor, arc mode and feedback mode
and takes all seven variants through three operations: one
sensitivity_sweep (7 variants x 20 arc lengths), one gain_curve whose
acceleration range reaches past the travel limit for some variants
(7 x 21 points), and one maximize_sensitivity per variant with bounds
drawn inside that variant's validity region. The timed loop cycles the
pool in order, so every run of a seed sees the same operation sequence.
"""

from __future__ import annotations

import math
import random

import curvedcomb as cc
from curvedcomb.sweep import ArcMode
from measure import latin, span

POOL_CELLS = 48
ARC_RANGE_M = (5e-6, 60e-6)
ARC_POINTS = 20
ACCEL_POINTS = 21
VARIANTS = tuple(cc.Variant)
FD_ROWS_PER_SWEEP = 2
GRID_POINTS = 41
FD_TOL = 1e-6
GRID_TOL = 1e-12
ACCURACY_CELLS = 3

FAMILIES = ("sweep", "curve", "optimize")


class Op:
    __slots__ = ("family", "cell", "variant")

    def __init__(self, family, cell, variant=None):
        self.family = family
        self.cell = cell
        self.variant = variant

    def run(self):
        if self.family == "sweep":
            return cc.sensitivity_sweep(self.cell.plan)
        if self.family == "curve":
            return cc.gain_curve(self.cell.plan)
        return cc.maximize_sensitivity(
            self.variant, self.cell.bounds[self.variant], self.cell.plan
        )


# Every cell takes one of these eight (anchor, arc mode, feedback) choices
# in turn, and the cells of each kind spread their continuous dimensions
# over a Latin hypercube, so each seed's pool holds the same mix and the
# spread between seeds stays small.
KINDS = tuple(
    (anchor, mode, feedback)
    for anchor in cc.GapAnchor
    for mode in ArcMode
    for feedback in cc.FeedbackMode
)


class Cell:
    DIMS = 5 + 2 * len(VARIANTS) + FD_ROWS_PER_SWEEP

    def __init__(self, u: list[float], kind: tuple):
        u = iter(u)
        r = math.exp(span(next(u), math.log(60e-6), math.log(300e-6)))
        gap = span(next(u), 1e-6, 4e-6)
        h = span(next(u), 1e-6, 5e-6)
        arc0 = span(next(u), 10e-6, 30e-6)
        mech = cc.MechanicalModel(2.6e-10, 1.0, 21)
        anchor, mode, feedback = kind
        # planar travel limit in g; curves reach 0.3-1.1 of it, so the
        # face-plane convex and apex concave variants leave their range
        limit_g = gap * mech.spring_n_per_m / (mech.mass_kg * cc.STANDARD_GRAVITY)
        reach = span(next(u), 0.3, 1.1) * limit_g
        self.plan = cc.SweepPlan(
            variants=VARIANTS,
            profile=cc.ArcProfile(r, arc0 / r, h),
            gap=cc.GapState(gap),
            mech=mech,
            drive=cc.DriveModel(1.0, feedback),
            arc_mode=mode,
            gap_anchor=anchor,
            arc_range_m=ARC_RANGE_M,
            arc_points=ARC_POINTS,
            accel_range_g=(-reach, reach),
            accel_points=ACCEL_POINTS,
        )
        self.bounds = {v: self._bounds(next(u), next(u), v) for v in VARIANTS}
        self.fd_rows = [next(u) for _ in range(FD_ROWS_PER_SWEEP)]

    def profile_at(self, arc: float) -> cc.ArcProfile:
        prof = self.plan.profile
        if self.plan.arc_mode is ArcMode.VARY_PHI_FIXED_R:
            return cc.ArcProfile(prof.radius_m, arc / prof.radius_m, prof.thickness_m)
        phi = prof.angular_extent_rad
        return cc.ArcProfile(arc / phi, phi, prof.thickness_m)

    def valid(self, variant, arc: float) -> bool:
        try:
            config = cc.ElectrodeConfig.for_variant(variant, self.profile_at(arc))
        except ValueError:
            return False
        return cc.validate_geometry(config, self.plan.gap, self.plan.gap_anchor).ok

    def _bounds(self, u1: float, u2: float, variant) -> tuple[float, float]:
        """Optimizer bounds inside the arc lengths valid for variant.

        Validity only shrinks as the arc grows (the bow deepens), so the
        largest valid arc is found by bisection.
        """
        lo, hi = ARC_RANGE_M
        if not self.valid(variant, lo):
            lo = 1e-6
        if not self.valid(variant, hi):
            good, bad = lo, hi
            for _ in range(60):
                mid = 0.5 * (good + bad)
                good, bad = (mid, bad) if self.valid(variant, mid) else (good, mid)
            hi = good
        top = lo + 0.98 * (hi - lo)
        a = span(u1, lo, lo + 0.5 * (top - lo))
        return a, span(u2, a + 0.2 * (top - a), top)

    def s_at(self, variant, arc: float) -> float:
        config = cc.ElectrodeConfig.for_variant(variant, self.profile_at(arc))
        d1, d2 = cc.side_nominal_gaps(config, self.plan.gap.gap_m, self.plan.gap_anchor)
        return cc.sensitivity_at_side_nominals(
            config, d1, d2, self.plan.mech, self.plan.drive, 0.0
        )


class Workload:
    families = FAMILIES

    def __init__(self, seed: int, tmpdir: str):
        rng = random.Random(seed)
        per_kind = POOL_CELLS // len(KINDS)
        points = [latin(rng, per_kind, Cell.DIMS) for _ in KINDS]
        self.cells = [
            Cell(points[i % len(KINDS)][i // len(KINDS)], KINDS[i % len(KINDS)])
            for i in range(POOL_CELLS)
        ]
        self.ops = []
        for cell in self.cells:
            self.ops.append(Op("sweep", cell))
            self.ops.append(Op("curve", cell))
            for v in VARIANTS:
                self.ops.append(Op("optimize", cell, v))
        self.tmpdir = tmpdir

    @staticmethod
    def units(op: Op, result) -> int:
        """Work units of one operation: sweep rows, curve points attempted, solves."""
        if op.family == "sweep":
            return len(result.rows)
        if op.family == "curve":
            return len(VARIANTS) * ACCEL_POINTS
        return 1

    @staticmethod
    def rejections(op: Op, result) -> dict[str, int]:
        """Documented domain rejections: skipped sweep points, over-range accelerations."""
        if op.family == "sweep":
            return {"sweep points skipped (invalid geometry)": len(result.metadata["skipped"])}
        if op.family == "curve":
            return {"curve points over range": _curve_rejected(result)}
        return {}

    def check(self, op: Op, result) -> str | None:
        """None when the result is correct, else what is wrong."""
        if op.family == "sweep":
            return _check_sweep(op.cell, result)
        if op.family == "curve":
            return _check_curve(result)
        return _check_optimum(op, result)

    def probe_argv(self) -> list[list[str]]:
        """The CLI subcommands that do this workload's job, on pool cells."""
        out = []
        for i, cell in enumerate(self.cells[:2]):
            plan = cell.plan
            base = [
                "--r-um", repr(plan.profile.radius_m * 1e6),
                "--phi", repr(plan.profile.angular_extent_rad),
                "--h-um", repr(plan.profile.thickness_m * 1e6),
                "--gap-um", repr(plan.gap.gap_m * 1e6),
                "--gap-anchor", plan.gap_anchor.value,
                "--feedback", plan.drive.feedback_mode.value,
                "--arc-mode", plan.arc_mode.value,
            ]
            out.append(["compare", *base])
            out.append(
                ["sensitivity-sweep", "--verify", "--csv", f"{self.tmpdir}/probe{i}.csv", *base]
            )
            out.append(
                [
                    "gain-curve", "--csv", f"{self.tmpdir}/curve{i}.csv",
                    "--svg", f"{self.tmpdir}/curve{i}.svg",
                    "--accel-min-g", repr(plan.accel_range_g[0]),
                    "--accel-max-g", repr(plan.accel_range_g[1]),
                    *base,
                ]
            )
        return out

    def accuracy(self, pairs: list[tuple]) -> dict[str, float]:
        """Worst relative error against mpmath of C1, C2 (capacitance) and of
        G and S (transduction) over the sweep rows and curve points of the
        first ACCURACY_CELLS cells."""
        from reference import exact_point, rel_err, side_gaps

        worst = {"capacitance": 0.0, "transduction": 0.0}
        for op, result in pairs:
            if op.family not in ("sweep", "curve") or op.cell not in self.cells[:ACCURACY_CELLS]:
                continue
            plan = op.cell.plan
            for row in result.rows:
                prof = cc.ArcProfile(row.radius_m, row.phi_rad, plan.profile.thickness_m)
                config = cc.ElectrodeConfig.for_variant(row.variant, prof)
                accel = row.accel_g * cc.STANDARD_GRAVITY
                d1, d2 = side_gaps(config, plan.gap.gap_m, plan.gap_anchor)
                ex = exact_point(config, d1, d2, plan.mech, plan.drive, accel)
                worst["capacitance"] = max(
                    worst["capacitance"], rel_err(row.c1_f, ex["c1"]), rel_err(row.c2_f, ex["c2"])
                )
                worst["transduction"] = max(
                    worst["transduction"],
                    rel_err(row.gain, ex["g"]),
                    rel_err(row.s_mv_per_g, ex["s"] * 1000),
                )
        return worst


def _finite(*xs: float) -> bool:
    return all(math.isfinite(x) for x in xs)


def _check_sweep(cell: Cell, result) -> str | None:
    plan = cell.plan
    rows = result.rows
    if len(rows) + len(result.metadata["skipped"]) != len(VARIANTS) * ARC_POINTS:
        return "sweep rows + skipped != grid size"
    for row in rows:
        if not (_finite(row.c1_f, row.c2_f, row.s_mv_per_g) and row.c1_f > 0 and row.c2_f > 0):
            return f"non-finite or non-positive sweep row {row}"
        if row.s_mv_per_g <= 0.0:
            return f"sensitivity has the wrong sign: {row}"
    if not rows:
        return None
    for u in cell.fd_rows:
        row = rows[int(u * len(rows))]
        prof = cc.ArcProfile(row.radius_m, row.phi_rad, plan.profile.thickness_m)
        config = cc.ElectrodeConfig.for_variant(row.variant, prof)
        d1, d2 = cc.side_nominal_gaps(config, plan.gap.gap_m, plan.gap_anchor)
        fd = cc.fd_sensitivity(config, d1, d2, plan.mech, plan.drive, 0.0) * 1e3
        rel = abs(fd - row.s_mv_per_g) / abs(row.s_mv_per_g)
        if rel >= FD_TOL:
            return f"fd_sensitivity disagrees by {rel:.3e} at {row}"
    return None


def _curve_rejected(result) -> int:
    n = 0
    for item in result.metadata["over_range"]:
        n += ACCEL_POINTS if item["accel_g"] is None else 1
    return n


def _check_curve(result) -> str | None:
    if len(result.rows) + _curve_rejected(result) != len(VARIANTS) * ACCEL_POINTS:
        return "curve rows + over-range != grid size"
    by_variant: dict = {}
    for row in result.rows:
        if not _finite(row.gain, row.v_out_v, row.s_mv_per_g) or row.s_mv_per_g <= 0.0:
            return f"bad curve row {row}"
        by_variant.setdefault(row.variant, []).append(row)
    lo, hi = result.metadata["plan"]["accel_range_g"]
    step = (hi - lo) / (ACCEL_POINTS - 1)
    for rows in by_variant.values():
        for prev, row in zip(rows, rows[1:]):
            if not row.v_out_v > prev.v_out_v:
                return f"V_out not increasing at {row}"
            if row.accel_g - prev.accel_g > 1.5 * step:
                return f"accepted accelerations are not contiguous at {row}"
    return None


def _check_optimum(op: Op, result) -> str | None:
    arc, s = result
    lo, hi = op.cell.bounds[op.variant]
    if not (lo <= arc <= hi and math.isfinite(s)):
        return f"optimum {result} outside bounds {(lo, hi)}"
    step = (hi - lo) / (GRID_POINTS - 1)
    grid_best = max(abs(op.cell.s_at(op.variant, lo + i * step)) for i in range(GRID_POINTS))
    if abs(s) < grid_best * (1.0 - GRID_TOL):
        return f"optimum |S| {abs(s)} below grid scan {grid_best}"
    return None
