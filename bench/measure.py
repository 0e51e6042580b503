"""Timing, set-up measurement, the per-run ledger and seeded sampling,
shared by the workloads and both run modes."""

from __future__ import annotations

import math
import os
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

SETUP_REPEATS = 7
WARMUP_OPS = 8


def p90(xs: list[float]) -> float:
    return statistics.quantiles(xs, n=10, method="inclusive")[8] if len(xs) > 1 else xs[0]


def span(u: float, lo: float, hi: float) -> float:
    """The point a fraction u of the way from lo to hi."""
    return lo + u * (hi - lo)


def latin(rng: random.Random, n: int, dims: int) -> list[list[float]]:
    """n points in [0, 1)^dims, one in each of n equal strata per dimension
    (Latin hypercube), so a small pool still covers every range evenly."""
    cols = []
    for _ in range(dims):
        strata = list(range(n))
        rng.shuffle(strata)
        cols.append([(k + rng.random()) / n for k in strata])
    return [list(point) for point in zip(*cols)]


# Host speed drifts: on a 2-vCPU virtual machine on a shared host, the same
# pure-Python work ran at two levels about 45 % apart, switching every few
# seconds to tens of seconds. So a fixed loop that does not touch
# the package is timed every CALIBRATION_EVERY_S of operation time, and each
# timing is scaled by CALIBRATION_REF_S / (median of the loop times taken
# around it): times are reported at the speed at which the loop takes
# CALIBRATION_REF_S.
CALIBRATION_REF_S = 0.55e-3
CALIBRATION_EVERY_S = 0.01


def calibration_loop() -> float:
    acc = 0.0
    for i in range(1, 3000):
        x = i * 1e-3
        acc += math.sqrt(x) * math.atan(x) / (1.0 + x * x)
    return acc


class Calibration:
    """Loop timings taken between operations, and the scale they imply."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._since = 0.0

    def measure(self, repeats: int = 1) -> None:
        for _ in range(repeats):
            t0 = time.perf_counter()
            calibration_loop()
            self.samples.append(time.perf_counter() - t0)

    def tick(self, elapsed: float) -> None:
        """Account for elapsed operation time; measure every CALIBRATION_EVERY_S."""
        self._since += elapsed
        if self._since >= CALIBRATION_EVERY_S:
            self._since = 0.0
            self.measure()

    def position(self) -> int:
        return len(self.samples)

    def scale_at(self, pos: int) -> float:
        """Scale for a timing taken between samples pos - 1 and pos."""
        lo = max(0, min(pos - 3, len(self.samples) - 5))
        return CALIBRATION_REF_S / median(self.samples[lo : lo + 5])

    def scale(self) -> float:
        """Scale over the whole run, for a report line."""
        return CALIBRATION_REF_S / median(self.samples)


def child_env() -> dict:
    """The environment for a child interpreter that imports the package from src/."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def _wall(argv: list[str], env: dict) -> float:
    t0 = time.perf_counter()
    subprocess.run(argv, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, check=True)
    return time.perf_counter() - t0


def measure_setup(module: str, seed: int, tmpdir: str, cal: Calibration) -> list[float]:
    """Scaled wall times of fresh interpreters that import the package and
    build the seeded input pool, as the benchmark's own set-up does."""
    code = (
        "import sys; sys.path[:0] = [{src!r}, {bench!r}]; import {mod}; "
        "{mod}.Workload({seed}, {tmp!r})"
    ).format(src=str(SRC), bench=str(BENCH), mod=module, seed=seed, tmp=tmpdir)
    return _walls([sys.executable, "-c", code], cal)


def interp_start_ms(cal: Calibration) -> float:
    """Median scaled wall time of a bare `python -c pass` (ms)."""
    return 1e3 * median(_walls([sys.executable, "-c", "pass"], cal))


def _walls(argv: list[str], cal: Calibration) -> list[float]:
    env = child_env()
    out = []
    for _ in range(SETUP_REPEATS):
        cal.measure(3)
        wall = _wall(argv, env)
        cal.measure(2)
        out.append(wall * cal.scale_at(cal.position() - 2))
    return out


def import_ms(module: str) -> float:
    """Cumulative `-X importtime` of module in a fresh interpreter (median of 3)."""
    out = []
    for _ in range(3):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", f"import {module}"],
            env=child_env(),
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
            check=True,
        )
        for line in proc.stderr.splitlines():
            parts = [p.strip() for p in line.split("|")]
            if len(parts) == 3 and parts[2] == module:
                out.append(int(parts[1]) / 1e3)
    return median(out)


class Ledger:
    """Attempts, failures, first results and per-family samples of a run."""

    def __init__(self, workload):
        self.wl = workload
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.first: dict[int, object] = {}
        self.times: dict[str, list[float]] = {f: [] for f in workload.families}
        self.cal_pos: dict[str, list[int]] = {f: [] for f in workload.families}
        self.units: dict[str, int] = {f: 0 for f in workload.families}
        self.rejections: dict[str, int] = {}
        self.cal = Calibration()

    def scaled_times(self, family: str) -> list[float]:
        """Operation times of a family at the reference speed (s)."""
        scale_at = self.cal.scale_at
        return [t * scale_at(p) for t, p in zip(self.times[family], self.cal_pos[family])]

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.problems) < 5:
            self.problems.append(message)

    def run(self, index: int, op, timed: bool = True):
        """Run one op; check it on first sight, else compare to the first result."""
        self.attempted += 1
        wl = self.wl
        try:
            t0 = time.perf_counter()
            result = op.run()
            elapsed = time.perf_counter() - t0
            result = getattr(wl, "finish", lambda _op, r: r)(op, result)
        except Exception as err:  # an operation that raises is a failed operation
            self.fail(f"{op.family}: {type(err).__name__}: {err}")
            return
        if index not in self.first:
            self.first[index] = result
            problem = getattr(op, "check", wl.check)(op, result)
        elif result != self.first[index]:
            problem = f"{op.family}: result differs from the first run of the same input"
        else:
            problem = None
        if problem is not None:
            self.fail(problem)
            return
        if timed:
            self.times[op.family].append(elapsed)
            self.cal_pos[op.family].append(self.cal.position())
            self.cal.tick(elapsed)
            self.units[op.family] += wl.units(op, result)
            for key, n in wl.rejections(op, result).items():
                self.rejections[key] = self.rejections.get(key, 0) + n


