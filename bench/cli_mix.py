"""`cli` workload: fresh `python -m curvedcomb.cli` processes, one at a time.

A seeded pool of 48 command lines, eight of each kind: `compare`,
`capacitance --verify`, `sensitivity-sweep --csv`, `sensitivity-sweep
--csv --verify`, `gain-curve --csv --svg` and `validate --json --points
10`. Each command runs once as a fresh process (interpreter start and
package import included) and once in process through `cli.main(argv)`,
which leaves start and import out. Outputs go to a scratch directory
inside the checkout.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
import subprocess
import sys

import curvedcomb as cc
import curvedcomb.cli as cli
from measure import child_env, latin, span

FAMILIES = ("process", "main")
KINDS = ("compare", "capacitance", "sweep", "sweep-verify", "curve", "validate")
REPEATS = 8
UM = 1e-6


# Discrete choices taken in turn by the REPEATS commands of each kind.
ANCHOR_FEEDBACK = tuple((a, f) for a in cc.GapAnchor for f in cc.FeedbackMode)
FACES = (cc.FaceKind.CONVEX, cc.FaceKind.CONCAVE, cc.FaceKind.FLAT, cc.FaceKind.CONCAVE)
ARC_MODES = ("vary-phi-fixed-r", "vary-r-fixed-arc")


def _geometry(u: list[float], rep: int) -> dict:
    anchor, feedback = ANCHOR_FEEDBACK[rep % len(ANCHOR_FEEDBACK)]
    return {
        "r_um": math.exp(span(u[0], math.log(60.0), math.log(300.0))),
        "arc_um": span(u[1], 10.0, 30.0),
        "h_um": span(u[2], 1.0, 5.0),
        "gap_um": span(u[3], 1.0, 4.0),
        "anchor": anchor,
        "feedback": feedback,
    }


def _all_valid(g: dict) -> bool:
    prof = cc.ArcProfile(g["r_um"] * UM, g["arc_um"] / g["r_um"], g["h_um"] * UM)
    gap = cc.GapState(g["gap_um"] * UM)
    return all(
        cc.validate_geometry(cc.ElectrodeConfig.for_variant(v, prof), gap, g["anchor"]).ok
        for v in cc.Variant
    )


def _flags(g: dict) -> list[str]:
    return [
        "--r-um", repr(g["r_um"]), "--arc-um", repr(g["arc_um"]),
        "--h-um", repr(g["h_um"]), "--gap-um", repr(g["gap_um"]),
        "--gap-anchor", g["anchor"].value, "--feedback", g["feedback"].value,
    ]


def _command(kind: str, rep: int, u: list[float], rng: random.Random) -> list[str]:
    """One command line from the uniforms u; "{out}" stands for the output stem."""
    if kind == "compare":
        return ["compare", *_flags(_geometry(u, rep))]
    if kind == "capacitance":
        r_um = math.exp(span(u[0], math.log(30.0), math.log(500.0)))
        phi = span(u[1], 0.05, 0.8)
        face = FACES[rep % len(FACES)]
        gap_um = span(u[2], 0.5, 10.0)
        if face is cc.FaceKind.CONCAVE:
            sag_um = cc.ArcProfile(r_um * UM, phi, 2e-6).sagitta() / UM
            gap_um = sag_um + max(sag_um * 10.0 ** -span(u[3], 0.0, 3.0), 1e-5 * r_um)
        return [
            "capacitance", "--kind", face.value, "--verify",
            "--r-um", repr(r_um), "--phi", repr(phi), "--gap-um", repr(gap_um),
        ]
    if kind in ("sweep", "sweep-verify"):
        mode = ARC_MODES[rep % len(ARC_MODES)]
        argv = ["sensitivity-sweep", "--csv", "{out}.csv", "--arc-mode", mode]
        argv += _flags(_geometry(u, rep))
        return argv + ["--verify"] if kind == "sweep-verify" else argv
    if kind == "curve":
        g = _geometry(u, rep)
        reach = span(u[4], 0.3, 1.1) * g["gap_um"] * UM / (2.6e-10 * cc.STANDARD_GRAVITY)
        return [
            "gain-curve", "--csv", "{out}.csv", "--svg", "{out}.svg",
            "--accel-min-g", repr(-reach), "--accel-max-g", repr(reach), *_flags(g),
        ]
    # validate runs a fixed suite; the geometry only has to admit every variant
    g = _geometry(u, rep)
    while not _all_valid(g):
        g = _geometry([rng.random() for _ in range(4)], rep)
    return ["validate", "--json", "--points", "10", *_flags(g)]


class Op:
    __slots__ = ("family", "kind", "argv", "stem", "env")

    def __init__(self, family, kind, argv, stem, env):
        self.family = family
        self.kind = kind
        self.stem = stem
        self.argv = [a.replace("{out}", stem) for a in argv]
        self.env = env

    def outputs(self) -> list[str]:
        return [a for a in self.argv if a.startswith(self.stem)]

    def run(self):
        if self.family == "process":
            proc = subprocess.run(
                [sys.executable, "-m", "curvedcomb.cli", *self.argv],
                env=self.env,
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                text=True,
                check=False,
            )
            return proc.returncode, proc.stdout
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cc.cli.main(self.argv)
        return code, out.getvalue()


class Workload:
    families = FAMILIES

    def __init__(self, seed: int, tmpdir: str):
        rng = random.Random(seed)
        env = child_env()
        self.ops: list[Op] = []
        points = {kind: latin(rng, REPEATS, 5) for kind in KINDS}
        for rep in range(REPEATS):
            for kind in KINDS:
                argv = _command(kind, rep, points[kind][rep], rng)
                for family in FAMILIES:
                    stem = os.path.join(tmpdir, f"{family}-{kind}-{rep}")
                    self.ops.append(Op(family, kind, argv, stem, env))

    @staticmethod
    def units(op: Op, result) -> int:
        return 1

    @staticmethod
    def rejections(op: Op, result) -> dict[str, int]:
        return {}

    @staticmethod
    def finish(op: Op, result):
        """Attach the bytes of every file the command wrote."""
        files = []
        for path in op.outputs():
            with open(path, "rb") as fh:
                files.append(fh.read())
            os.remove(path)
        return (*result, tuple(files))

    def expected_rows(self, op: Op) -> int:
        args = cli.build_parser().parse_args(op.argv)
        plan = cli.resolve_config(args).plan()
        if op.kind == "curve":
            return len(cc.gain_curve(plan).rows)
        return len(cc.sensitivity_sweep(plan).rows)

    def check(self, op: Op, result) -> str | None:
        code, stdout, files = result
        if code != 0:
            return f"{op.argv[0]} exited with {code}"
        if op.kind == "validate" and json.loads(stdout)["pass"] is not True:
            return "validate --json did not report pass"
        if op.kind in ("sweep", "sweep-verify", "curve"):
            rows = files[0].decode("ascii").count("\n") - 1
            want = self.expected_rows(op)
            if rows != want:
                return f"{op.argv[0]} wrote {rows} CSV rows, expected {want}"
        if op.kind == "curve" and not files[1].startswith(b"<svg"):
            return "gain-curve wrote no SVG document"
        return None

    def traced_ops(self) -> list[Op]:
        return [op for op in self.ops if op.family == "main"]

    def probe_argv(self) -> list[list[str]]:
        return []

    def accuracy(self, pairs: list[tuple]) -> dict[str, float]:
        """Worst relative error against mpmath of the values the commands
        wrote: C1, C2 (capacitance) and G from gain-curve CSVs, S from
        sensitivity-sweep CSVs (transduction)."""
        from reference import exact_point, rel_err, side_gaps

        worst = {"capacitance": 0.0, "transduction": 0.0}
        for op, result in pairs:
            if op.kind not in ("sweep", "sweep-verify", "curve"):
                continue
            cfg = cli.resolve_config(cli.build_parser().parse_args(op.argv))
            plan = cfg.plan()
            lines = result[2][0].decode("ascii").splitlines()
            for line in lines[1:]:
                cols = line.split(",")
                variant = cc.Variant(cols[0])
                nums = [float(x) for x in cols[1:]]
                if op.kind == "curve":
                    accel_g, _, c1, c2, g, _ = nums
                    prof = plan.profile
                else:
                    _, radius, phi, s_mv, _ = nums[:5]
                    accel_g = 0.0
                    prof = cc.ArcProfile(radius, phi, plan.profile.thickness_m)
                config = cc.ElectrodeConfig.for_variant(variant, prof)
                d1, d2 = side_gaps(config, plan.gap.gap_m, plan.gap_anchor)
                ex = exact_point(
                    config, d1, d2, plan.mech, plan.drive, accel_g * cc.STANDARD_GRAVITY
                )
                if op.kind == "curve":
                    worst["capacitance"] = max(
                        worst["capacitance"], rel_err(c1, ex["c1"]), rel_err(c2, ex["c2"])
                    )
                    worst["transduction"] = max(worst["transduction"], rel_err(g, ex["g"]))
                else:
                    worst["transduction"] = max(
                        worst["transduction"], rel_err(s_mv, ex["s"] * 1000)
                    )
        return worst
