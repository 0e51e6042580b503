"""Span tracing of curvedcomb's layers, installed from outside the package.

`from .x import y` copies y into the importing module, so a function is
wrapped at every module attribute that holds it, including the module
that defines it (intra-module calls go through its globals). Each call
records a span (layer, function, parent, start, end, outcome) in memory;
a layer's self time is the summed duration of its spans minus the part
covered by their child spans. Nothing is patched until `install`, and
`uninstall` restores every binding, so untraced runs execute the
package exactly as shipped.
"""

from __future__ import annotations

import functools
import sys
import time

LAYERS = {
    "capacitance": (
        "capacitance",
        ["cap_convex", "cap_concave", "cap_planar", "face_capacitance", "dcap_dgap"],
    ),
    "model": ("model", ["side_nominal_gaps", "validate_geometry"]),
    "transduction": (
        "transduction",
        [
            "bridge_at_side_nominals",
            "bridge_capacitances",
            "gain_at_side_nominals",
            "gain",
            "sensitivity_at_side_nominals",
            "sensitivity",
            "fd_sensitivity",
        ],
    ),
    "sweep": ("sweep", ["sensitivity_sweep", "gain_curve", "maximize_sensitivity"]),
    "oracles": ("oracles", ["quad_capacitance", "integrate_adaptive", "fd_derivative"]),
    "cli": ("cli", ["main"]),
}

# Closed-form evaluations: every call that computes a C or dC/dd, as
# opposed to the face_capacitance dispatcher.
CLOSED_FORMS = frozenset(("cap_convex", "cap_concave", "cap_planar", "dcap_dgap"))

# What a span keeps of a call (its arguments and return value), for the
# functions whose result feeds a layer metric; other results are dropped.
SUMMARIES = {
    "validate_geometry": lambda args, r: r.ok,
    "quad_capacitance": lambda args, r: r.subdivisions,
    "sensitivity_sweep": lambda args, r: (len(r.rows), len(r.metadata["skipped"])),
    "gain_curve": lambda args, r: (
        len(r.rows),
        sum(
            r.metadata["plan"]["accel_points"] if e["accel_g"] is None else 1
            for e in r.metadata["over_range"]
        ),
    ),
    "main": lambda args, r: (r, args[0][0]),  # (exit code, subcommand)
}

# span list fields
LAYER, NAME, PARENT, START, END, RESULT, ERROR = range(7)


class Tracer:
    """Holds the spans of the current pass and the patched bindings."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def _wrap(self, layer: str, name: str, fn):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter
        summary = SUMMARIES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [layer, name, stack[-1] if stack else -1, clock(), 0.0, None, None]
            index = len(spans)
            spans.append(span)
            stack.append(index)
            try:
                out = fn(*args, **kwargs)
            except BaseException as err:
                span[ERROR] = type(err).__name__
                raise
            finally:
                span[END] = clock()
                stack.pop()
            if summary is not None:
                span[RESULT] = summary(args, out)
            return out

        return traced

    def install(self) -> None:
        """Patch every binding of every layer function in curvedcomb.*."""
        from curvedcomb import model

        modules = [
            m
            for key, m in list(sys.modules.items())
            if m is not None and (key == "curvedcomb" or key.startswith("curvedcomb."))
        ]
        for layer, (modname, names) in LAYERS.items():
            home = sys.modules[f"curvedcomb.{modname}"]
            for name in names:
                original = getattr(home, name)
                wrapper = self._wrap(layer, name, original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._undo.append((mod, attr, value))
                            setattr(mod, attr, wrapper)
        raw = model.ElectrodeConfig.__dict__["for_variant"]
        self._undo.append((model.ElectrodeConfig, "for_variant", raw))
        model.ElectrodeConfig.for_variant = staticmethod(
            self._wrap("model", "for_variant", raw.__func__)
        )

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

    def reset(self) -> None:
        self.spans.clear()
        self._stack.clear()


def self_times(spans: list[list]) -> dict[str, float]:
    """Per-layer self time (s): span duration minus its children's."""
    child = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            child[span[PARENT]] += span[END] - span[START]
    out: dict[str, float] = {layer: 0.0 for layer in LAYERS}
    for i, span in enumerate(spans):
        out[span[LAYER]] += span[END] - span[START] - child[i]
    return out

