"""Traced run: per-layer metrics from spans recorded around each layer.

The pass is the workload's pool plus the CLI subcommands that do its job,
called in process. Untraced and traced passes alternate until --seconds
have passed (at least two traced passes); times are medians over passes,
scaled to the reference speed like the end-to-end metrics, and every
count must come out identical in every traced pass.
"""

from __future__ import annotations

import contextlib
import io
import time

import curvedcomb as cc
import curvedcomb.cli  # noqa: F401  (the probe calls cc.cli.main)
from measure import Ledger, import_ms, interp_start_ms, median
from tracer import (
    CLOSED_FORMS,
    END,
    ERROR,
    LAYER,
    NAME,
    PARENT,
    RESULT,
    START,
    Tracer,
    self_times,
)

SENSITIVITY = frozenset(("sensitivity", "sensitivity_at_side_nominals"))
GAIN = frozenset(("gain", "gain_at_side_nominals"))
BRIDGE = frozenset(("bridge_capacitances", "bridge_at_side_nominals"))

# name -> (unit, better); the order is the report order
PER_LAYER = {
    "capacitance.calls": ("count", "lower"),
    "capacitance.evals_per_point": ("count/point", "lower"),
    "capacitance.self_s": ("s", "lower"),
    "capacitance.rel_err_max": ("rel", "lower"),
    "model.config_builds": ("count", "lower"),
    "model.validate_calls": ("count", "lower"),
    "model.validate_rejects": ("count", "lower"),
    "model.self_s": ("s", "lower"),
    "transduction.sensitivity_calls": ("count", "lower"),
    "transduction.gain_calls": ("count", "lower"),
    "transduction.bridge_calls": ("count", "lower"),
    "transduction.over_range": ("count", "lower"),
    "transduction.self_s": ("s", "lower"),
    "transduction.rel_err_max": ("rel", "lower"),
    "sweep.rows": ("count", "higher"),
    "sweep.skipped": ("count", "lower"),
    "sweep.accept_ratio": ("ratio", "higher"),
    "sweep.optimizer_evals_per_solve": ("count/solve", "lower"),
    "sweep.self_s": ("s", "lower"),
    "oracles.quad_calls": ("count", "lower"),
    "oracles.quad_subdivisions_per_call": ("count/call", "lower"),
    "oracles.fd_calls": ("count", "lower"),
    "oracles.fd_gain_evals_per_call": ("count/call", "lower"),
    "oracles.self_s": ("s", "lower"),
    "cli.interp_start_ms": ("ms", "lower"),
    "cli.import_ms": ("ms", "lower"),
    "cli.main_ms": ("ms", "lower"),
    "cli.exit_nonzero": ("count", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
}


class ProbeOp:
    """One in-process `cli.main(argv)` call."""

    family = "probe"

    def __init__(self, argv: list[str]):
        self.argv = argv

    def run(self):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            return cc.cli.main(self.argv)

    @staticmethod
    def check(op, code) -> str | None:
        return None if code == 0 else f"curvedcomb {op.argv[0]} exited with {code}"


def _ratio(num: float, den: float) -> float:
    """num / den, or 0 when the layer saw nothing to divide by."""
    return num / den if den else 0.0


def pass_counts(spans: list[list]) -> tuple[dict, dict, dict[str, list[float]]]:
    """(exact counts, self times, cli.main durations by subcommand) of one
    traced pass."""
    n = len(spans)
    in_sweep = [False] * n
    in_max = [False] * n
    in_fd = [False] * n
    c: dict[str, float] = dict.fromkeys(
        (
            "cap_calls evals sweep_rows rows rejected builds validates rejects sens gains "
            "bridges over solves solve_sens quads subdivisions fds fd_gains nonzero"
        ).split(),
        0,
    )
    main_ms: dict[str, list[float]] = {}
    for i, span in enumerate(spans):
        name = span[NAME]
        parent = span[PARENT]
        pname = spans[parent][NAME] if parent >= 0 else None
        if parent >= 0:
            in_sweep[i] = in_sweep[parent]
            in_max[i] = in_max[parent]
            in_fd[i] = in_fd[parent]
        if span[LAYER] == "capacitance":
            c["cap_calls"] += 1
            if name in CLOSED_FORMS and in_sweep[i]:
                c["evals"] += 1
        elif name == "sensitivity_sweep":
            in_sweep[i] = True
            if span[RESULT] is not None:
                c["sweep_rows"] += span[RESULT][0]
                c["rows"] += span[RESULT][0]
                c["rejected"] += span[RESULT][1]
        elif name == "gain_curve":
            if span[RESULT] is not None:
                c["rows"] += span[RESULT][0]
                c["rejected"] += span[RESULT][1]
        elif name == "maximize_sensitivity":
            in_max[i] = True
            c["solves"] += 1
        elif name == "for_variant":
            c["builds"] += 1
        elif name == "validate_geometry":
            c["validates"] += 1
            c["rejects"] += span[RESULT] is False
        elif name == "quad_capacitance":
            c["quads"] += 1
            c["subdivisions"] += span[RESULT] or 0
        elif name == "fd_derivative":
            in_fd[i] = True
            c["fds"] += 1
        elif name == "main":
            code, command = span[RESULT]
            main_ms.setdefault(command, []).append(1e3 * (span[END] - span[START]))
            c["nonzero"] += code != 0
        if name in SENSITIVITY and pname not in SENSITIVITY:
            c["sens"] += 1
            c["solve_sens"] += in_max[i]
        if name in GAIN and pname not in GAIN:
            c["gains"] += 1
            c["fd_gains"] += in_fd[i]
        if name in BRIDGE and pname not in BRIDGE:
            c["bridges"] += 1
        outermost = parent < 0 or spans[parent][LAYER] != "transduction"
        if span[ERROR] == "OverRangeError" and outermost:
            c["over"] += 1
    counts = {
        "capacitance.calls": c["cap_calls"],
        "capacitance.evals_per_point": _ratio(c["evals"], 2 * c["sweep_rows"]),
        "model.config_builds": c["builds"],
        "model.validate_calls": c["validates"],
        "model.validate_rejects": c["rejects"],
        "transduction.sensitivity_calls": c["sens"],
        "transduction.gain_calls": c["gains"],
        "transduction.bridge_calls": c["bridges"],
        "transduction.over_range": c["over"],
        "sweep.rows": c["rows"],
        "sweep.skipped": c["rejected"],
        "sweep.accept_ratio": _ratio(c["rows"], c["rows"] + c["rejected"]),
        "sweep.optimizer_evals_per_solve": _ratio(c["solve_sens"], c["solves"]),
        "oracles.quad_calls": c["quads"],
        "oracles.quad_subdivisions_per_call": _ratio(c["subdivisions"], c["quads"]),
        "oracles.fd_calls": c["fds"],
        "oracles.fd_gain_evals_per_call": _ratio(c["fd_gains"], c["fds"]),
        "cli.exit_nonzero": c["nonzero"],
    }
    return counts, self_times(spans), main_ms


def traced_run(wl, seconds: float) -> tuple[Ledger, dict]:
    ops = wl.traced_ops() if hasattr(wl, "traced_ops") else wl.ops
    work = list(ops) + [ProbeOp(argv) for argv in wl.probe_argv()]
    ledger = Ledger(wl)
    tracer = Tracer()

    def one_pass() -> float:
        t0 = time.perf_counter()
        for j, op in enumerate(work):
            ledger.run(j, op, timed=False)
        return time.perf_counter() - t0

    one_pass()  # warm-up; checks every distinct operation
    untraced: list[float] = []
    traced: list[float] = []
    selfs: dict[str, list[float]] = {}
    main_ms: dict[str, list[float]] = {}
    first_counts = None
    deadline = time.perf_counter() + seconds
    while len(traced) < 2 or time.perf_counter() < deadline:
        ledger.cal.measure(5)
        scale = ledger.cal.scale_at(ledger.cal.position())
        untraced.append(one_pass())
        tracer.reset()
        tracer.install()
        try:
            traced.append(one_pass())
        finally:
            tracer.uninstall()
        counts, layer_self, mains = pass_counts(tracer.spans)
        tracer.reset()
        if first_counts is None:
            first_counts = counts
        elif counts != first_counts:
            diff = sorted(k for k in counts if counts[k] != first_counts[k])
            ledger.fail(f"layer counts differ between traced passes: {diff}")
        for layer, value in layer_self.items():
            selfs.setdefault(layer, []).append(scale * value)
        for command, times in mains.items():
            main_ms.setdefault(command, []).extend(scale * t for t in times)

    pairs = [(op, ledger.first[j]) for j, op in enumerate(work) if j in ledger.first]
    accuracy = wl.accuracy(pairs)
    values = dict(first_counts)
    for layer, xs in selfs.items():
        if layer != "cli":
            values[f"{layer}.self_s"] = median(xs)
    values["capacitance.rel_err_max"] = accuracy["capacitance"]
    values["transduction.rel_err_max"] = accuracy["transduction"]
    values["cli.interp_start_ms"] = interp_start_ms(ledger.cal)
    values["cli.import_ms"] = ledger.cal.scale() * import_ms("curvedcomb.cli")
    values["cli.main_ms"] = median([t for times in main_ms.values() for t in times])
    values["trace.overhead_ratio"] = median(traced) / median(untraced)
    metrics = {k: (values[k], PER_LAYER[k][0], len(traced)) for k in PER_LAYER}
    info = {
        "passes": len(traced),
        "operations_per_pass": len(work),
        "speed_scale": ledger.cal.scale(),
        "cli.main_ms by subcommand": {k: round(median(v), 3) for k, v in sorted(main_ms.items())},
    }
    return ledger, {"metrics": metrics, "info": info}
