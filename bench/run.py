"""Benchmark of curvedcomb: the design, verify and cli workloads.

Usage (from the repository root):

    python3 bench/run.py --workload design --seed 1 --seconds 25 --trace 0

Builds the workload's seeded input pool, then runs its operations in a
closed loop with one caller, in this process, for --seconds. Every
distinct operation is checked the first time it runs; each repeat must
return exactly the first result. The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}. The lines
before it print the same run for a reader, each slot under the name of
what it measures on that workload, with units, sample counts and
rejections.

--trace 0 reports the end-to-end metrics and patches nothing. --trace 1
alternates untraced and traced passes over the pool (plus the CLI
subcommands that do the workload's job, in process) and reports the
per-layer metrics; see bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time
from pathlib import Path

from measure import (
    BENCH,
    ROOT,
    SRC,
    WARMUP_OPS,
    Ledger,
    interp_start_ms,
    measure_setup,
    median,
    p90,
)

WORKLOADS = {"design": "design", "verify": "verify", "cli": "cli_mix"}

# Which operation family fills each end-to-end slot ("*" = every op).
SLOTS = {
    "design": {"primary": "sweep", "secondary": "curve", "tertiary": "optimize"},
    "verify": {"primary": "*", "secondary": "fd", "tertiary": "quad"},
    "cli": {"primary": "process", "secondary": "main", "tertiary": "main"},
}

# What each slot is on each workload, as (name, factor, unit): the human
# report prints the slot's value times factor under that name.
SLOT_NAMES = {
    "design": {
        "primary_per_s": ("sweep_points_per_s (plans of 7 x 20)", 1, "1/s"),
        "primary_p50_ms": ("sweep_p50_ms (per 7 x 20 plan)", 1, "ms"),
        "primary_p90_ms": ("sweep_p90_ms (per 7 x 20 plan)", 1, "ms"),
        "secondary_per_s": ("curve_points_per_s (7 x 21 per curve)", 1, "1/s"),
        "tertiary_p50_ms": ("optimize_p50_ms (to 1e-10 m)", 1, "ms"),
        "tertiary_p90_ms": ("optimize_p90_ms (to 1e-10 m)", 1, "ms"),
    },
    "verify": {
        "primary_per_s": ("checks_per_s", 1, "1/s"),
        "primary_p50_ms": ("check_p50_us", 1e3, "us"),
        "primary_p90_ms": ("check_p90_us", 1e3, "us"),
        "secondary_per_s": ("fd_checks_per_s", 1, "1/s"),
        "tertiary_p50_ms": ("quad_check_p50_us", 1e3, "us"),
        "tertiary_p90_ms": ("quad_check_p90_us", 1e3, "us"),
    },
    "cli": {
        "primary_per_s": ("processes_per_s", 1, "1/s"),
        "primary_p50_ms": ("cli_p50_ms (per process)", 1, "ms"),
        "primary_p90_ms": ("cli_p90_ms (per process)", 1, "ms"),
        "secondary_per_s": ("main_calls_per_s (in-process cli.main)", 1, "1/s"),
        "tertiary_p50_ms": ("main_p50_ms (in-process cli.main)", 1, "ms"),
        "tertiary_p90_ms": ("main_p90_ms (in-process cli.main)", 1, "ms"),
    },
}


def _slot_values(name: str, ledger: Ledger) -> dict[str, tuple[float, str, int]]:
    """End-to-end slot metrics as (value, unit, samples), times scaled to
    the reference speed."""
    out = {}
    for slot, family in SLOTS[name].items():
        fams = ledger.wl.families if family == "*" else (family,)
        times = [t for f in fams for t in ledger.scaled_times(f)]
        units = sum(ledger.units[f] for f in fams)
        if slot == "primary":
            out["primary_per_s"] = (units / sum(times), "1/s", len(times))
            out["primary_p50_ms"] = (1e3 * median(times), "ms", len(times))
            out["primary_p90_ms"] = (1e3 * p90(times), "ms", len(times))
        elif slot == "secondary":
            out["secondary_per_s"] = (units / sum(times), "1/s", len(times))
        else:
            out["tertiary_p50_ms"] = (1e3 * median(times), "ms", len(times))
            out["tertiary_p90_ms"] = (1e3 * p90(times), "ms", len(times))
    return out


def untraced_run(name: str, wl, seed: int, seconds: float, tmpdir: str) -> tuple[Ledger, dict]:
    module = WORKLOADS[name]
    ledger = Ledger(wl)
    setups = measure_setup(module, seed, tmpdir, ledger.cal)
    start_ms = interp_start_ms(ledger.cal)
    ops = wl.ops
    for i, op in enumerate(ops[:WARMUP_OPS]):
        ledger.run(i, op, timed=False)
    deadline = time.perf_counter() + seconds
    i = 0
    # at least one full pass, so every distinct input is checked
    while i < len(ops) or time.perf_counter() < deadline:
        ledger.run(i % len(ops), ops[i % len(ops)])
        i += 1
    metrics = {"setup_s": (median(setups), "s", len(setups))}
    metrics.update(_slot_values(name, ledger))
    accuracy = wl.accuracy([(op, ledger.first[j]) for j, op in enumerate(ops) if j in ledger.first])
    info = {
        "speed_scale": ledger.cal.scale(),
        "interp_start_ms": start_ms,
        "rel_err_max": max(accuracy.values()),
        "accuracy": accuracy,
    }
    return ledger, {"metrics": metrics, "info": info}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "curvedcomb" / "__init__.py").is_file():
        print(f"error: no curvedcomb package under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(BENCH)]
    import curvedcomb

    if Path(curvedcomb.__file__).resolve().parent != (SRC / "curvedcomb").resolve():
        print(f"error: imported curvedcomb from {curvedcomb.__file__}", file=sys.stderr)
        return 2
    module = __import__(WORKLOADS[args.workload])
    tmpdir = ROOT / ".bench_tmp" / f"{args.workload}-{os.getpid()}"
    tmpdir.mkdir(parents=True, exist_ok=True)
    try:
        wl = module.Workload(args.seed, str(tmpdir))
        if args.trace:
            from traced import traced_run

            ledger, report = traced_run(wl, args.seconds)
        else:
            ledger, report = untraced_run(args.workload, wl, args.seed, args.seconds, str(tmpdir))
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)
        try:
            tmpdir.parent.rmdir()
        except OSError:
            pass
    _print_report(args, ledger, report)
    metrics = {k: {"value": v[0], "unit": v[1]} for k, v in report["metrics"].items()}
    print(
        json.dumps(
            {
                "correct": ledger.failed == 0,
                "attempted": ledger.attempted,
                "failed": ledger.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


def _print_report(args, ledger: Ledger, report: dict) -> None:
    share = ledger.failed / max(ledger.attempted, 1)
    print(
        f"# {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace} "
        f"python={sys.version.split()[0]} nproc={os.cpu_count()}"
    )
    print(f"# operations attempted={ledger.attempted} failed={ledger.failed} ({share:.2%})")
    for message in ledger.problems:
        print(f"#   failure: {message}")
    for key, n in sorted(ledger.rejections.items()):
        print(f"# rejected (documented domain limits, not failures): {key} = {n}")
    names = SLOT_NAMES[args.workload] if not args.trace else {}
    for key, (value, unit, n) in report["metrics"].items():
        label = ""
        if key in names:
            name, factor, shown = names[key]
            label = f"= {name} {value * factor:.6g} {shown}"
        print(f"{key:<34} {value:>14.6g} {unit:<11} n={n:<7} {label}")
    for key, value in report["info"].items():
        print(f"# {key} = {value}")


if __name__ == "__main__":
    sys.exit(main())
