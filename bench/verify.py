"""`verify` workload: seeded oracle checks, in the style of `validate`.

The pool repeats one block of checks per seeded cell:

- quadrature against the convex closed form at a random gap, and against
  the concave closed form with the edge gap log-spaced from the sagitta
  down to 1e-3 of it (never below 1e-5 R: closer than that the
  quadrature oracle's own R - R cos(theta) cancels and it stops
  converging);
- fd_sensitivity against analytic sensitivity at a random acceleration;
- gain of a symmetric variant at accelerations log-spaced from 1e-3 g
  down to 1e-9 g, where C2 - C1 cancels.

Accuracy against mpmath is measured on the same cells outside the timed
loop, and extends the concave edge gaps down to 1e-9 of the sagitta,
the closest point acceptance criterion 6 evaluates.
"""

from __future__ import annotations

import math
import random

import curvedcomb as cc
from measure import latin

POOL_BLOCKS = 96
QUAD_TOL = 1e-9
FD_TOL = 1e-6
REST_LADDER_G = tuple(10.0**-j for j in range(3, 10))
EDGE_LADDER = tuple(10.0**-j for j in range(0, 10))
ACCURACY_BLOCKS = 48
SYMMETRIC = (cc.Variant.PLANAR, cc.Variant.BICONVEX, cc.Variant.BICONCAVE)
MECH = cc.MechanicalModel(2.6e-10, 1.0, 21)

FAMILIES = ("quad", "fd", "rest")


class Op:
    __slots__ = ("family", "args")

    def __init__(self, family, *args):
        self.family = family
        self.args = args

    def run(self):
        if self.family == "quad":
            kind, prof, gap = self.args
            closed = cc.face_capacitance(kind, prof, gap)
            return closed, cc.quad_capacitance(kind, prof, gap).value
        if self.family == "fd":
            config, d1, d2, drive, accel = self.args
            return (
                cc.sensitivity_at_side_nominals(config, d1, d2, MECH, drive, accel),
                cc.fd_sensitivity(config, d1, d2, MECH, drive, accel),
            )
        config, d, drive, accel = self.args
        return cc.gain_at_side_nominals(config, d, d, MECH, drive, accel).gain


def _profile(u: list[float]) -> cc.ArcProfile:
    r = math.exp(math.log(30e-6) + u[0] * math.log(500 / 30))
    return cc.ArcProfile(r, 0.05 + u[1] * 0.75, 1e-6 + u[2] * 4e-6)


def _quad_ops(u: list[float]) -> list[Op]:
    """Convex and concave quadrature checks from five uniforms; the cost of
    the concave one grows as its edge gap closes."""
    prof = _profile(u)
    convex = Op("quad", cc.FaceKind.CONVEX, prof, 0.5e-6 + u[3] * 9.5e-6)
    sag = prof.sagitta()
    edge = max(sag * 10.0 ** -(3.0 * u[4]), 1e-5 * prof.radius_m)
    return [convex, Op("quad", cc.FaceKind.CONCAVE, prof, sag + edge)]


# fd and rest cells take these choices in turn, so every seed's pool holds
# the same mix and only the continuous dimensions vary with the seed.
FD_KINDS = tuple(
    (v, a, f) for v in cc.Variant for a in cc.GapAnchor for f in cc.FeedbackMode
)
REST_KINDS = tuple((v, f) for v in SYMMETRIC for f in cc.FeedbackMode)


def _fd_op(rng: random.Random, kind: tuple) -> Op:
    variant, anchor, feedback = kind
    drive = cc.DriveModel(1.0, feedback)
    while True:
        prof = _profile([rng.random() for _ in range(3)])
        gap = rng.uniform(0.8e-6, 8e-6)
        config = cc.ElectrodeConfig.for_variant(variant, prof)
        accel = rng.uniform(-2.0, 2.0) * cc.STANDARD_GRAVITY
        if not cc.validate_geometry(config, cc.GapState(gap), anchor).ok:
            continue
        d1, d2 = cc.side_nominal_gaps(config, gap, anchor)
        lo, hi = cc.allowed_displacement_interval(config, d1, d2)
        if lo < cc.displacement(MECH, accel) < hi:
            return Op("fd", config, d1, d2, drive, accel)


def _rest_ops(rng: random.Random, kind: tuple) -> list[Op]:
    variant, feedback = kind
    while True:
        prof = _profile([rng.random() for _ in range(3)])
        config = cc.ElectrodeConfig.for_variant(variant, prof)
        gap = rng.uniform(0.8e-6, 8e-6)
        if cc.validate_geometry(config, cc.GapState(gap)).ok:
            break
    drive = cc.DriveModel(1.0, feedback)
    sign = rng.choice((-1.0, 1.0))
    return [
        Op("rest", config, gap, drive, sign * a * cc.STANDARD_GRAVITY) for a in REST_LADDER_G
    ]


class Workload:
    families = FAMILIES

    def __init__(self, seed: int, tmpdir: str):
        rng = random.Random(seed)
        quad_points = latin(rng, POOL_BLOCKS, 5)
        self.ops: list[Op] = []
        for i in range(POOL_BLOCKS):
            self.ops += _quad_ops(quad_points[i])
            self.ops += [_fd_op(rng, FD_KINDS[(2 * i + k) % len(FD_KINDS)]) for k in (0, 1)]
            self.ops += _rest_ops(rng, REST_KINDS[i % len(REST_KINDS)])
        self.tmpdir = tmpdir

    @staticmethod
    def units(op: Op, result) -> int:
        return 1

    @staticmethod
    def rejections(op: Op, result) -> dict[str, int]:
        return {}

    @staticmethod
    def check(op: Op, result) -> str | None:
        if op.family == "quad":
            closed, oracle = result
            rel = abs(closed - oracle) / abs(oracle)
            return None if rel < QUAD_TOL else f"quadrature disagrees by {rel:.3e}"
        if op.family == "fd":
            s, fd = result
            rel = abs(fd - s) / abs(s)
            return None if rel < FD_TOL else f"fd_sensitivity disagrees by {rel:.3e}"
        accel = op.args[-1]
        if not (math.isfinite(result) and result != 0.0 and (result > 0) == (accel > 0)):
            return f"gain {result} at {accel} m/s^2 has the wrong sign"
        return None

    def probe_argv(self) -> list[list[str]]:
        """The CLI subcommands that do this workload's job."""
        quad = self.ops[1]
        _, prof, gap = quad.args
        return [
            [
                "capacitance", "--kind", "concave", "--verify",
                "--r-um", repr(prof.radius_m * 1e6),
                "--phi", repr(prof.angular_extent_rad),
                "--gap-um", repr(gap * 1e6),
            ],
            [
                "sensitivity-sweep", "--verify", "--csv", f"{self.tmpdir}/verify.csv",
                "--arc-mode", "vary-r-fixed-arc",
            ],
            ["validate", "--json", "--points", "10"],
        ]

    def accuracy(self, pairs: list[tuple]) -> dict[str, float]:
        """Worst relative error against mpmath: C and dC/dd (capacitance) on
        the quadrature cells with the concave edge gap walked down to 1e-9
        of the sagitta; G and S (transduction) on the fd and rest cells."""
        from reference import exact_point, face_c_dc, mpf, rel_err

        worst = {"capacitance": 0.0, "transduction": 0.0}
        subset = set(self.ops[: ACCURACY_BLOCKS * (len(self.ops) // POOL_BLOCKS)])
        for op, result in pairs:
            if op not in subset:
                continue
            if op.family == "quad":
                kind, prof, gap = op.args
                config = cc.ElectrodeConfig.for_variant(cc.Variant.BICONCAVE, prof)
                gaps = [gap]
                if kind is cc.FaceKind.CONCAVE:
                    sag = prof.sagitta()
                    guard = cc.CONCAVE_EDGE_MARGIN_REL * prof.radius_m
                    gaps = [sag + sag * e for e in EDGE_LADDER if sag * e > 2 * guard]
                for g in gaps:
                    c, dc = face_c_dc(kind, config, mpf(g), cc.VACUUM_PERMITTIVITY)
                    worst["capacitance"] = max(
                        worst["capacitance"],
                        rel_err(cc.face_capacitance(kind, prof, g), c),
                        rel_err(cc.dcap_dgap(kind, prof, g), dc),
                    )
                continue
            if op.family == "fd":
                config, d1, d2, drive, accel = op.args
                ex = exact_point(config, d1, d2, MECH, drive, accel)
                worst["transduction"] = max(worst["transduction"], rel_err(result[0], ex["s"]))
                continue
            config, d, drive, accel = op.args
            ex = exact_point(config, d, d, MECH, drive, accel)
            worst["transduction"] = max(worst["transduction"], rel_err(result, ex["g"]))
        return worst
