"""Sensitivity versus electrode arc length, the design-space headline:
longer convex arcs help, longer concave arcs hurt, planar sits between.

Writes arc_length_trends.svg to the current directory.

    python3 demos/03_arc_length_trends.py
"""

from curvedcomb import (
    ArcMode,
    ArcProfile,
    DriveModel,
    GapState,
    MechanicalModel,
    SweepPlan,
    Variant,
    sensitivity_sweep,
)
from curvedcomb._svg import line_chart

UM = 1e-6

plan = SweepPlan(
    variants=tuple(Variant),
    profile=ArcProfile(100 * UM, 0.2, 2 * UM),
    gap=GapState(2 * UM),
    mech=MechanicalModel(2.6e-10, 1.0, 21),
    drive=DriveModel(1.0),
    # hold the subtended angle at 0.2 rad and scale the radius with the
    # arc, so the bow stays shallow across the whole range
    arc_mode=ArcMode.VARY_R_FIXED_ARC,
    arc_range_m=(5 * UM, 60 * UM),
    arc_points=12,
)
result = sensitivity_sweep(plan)

series: dict[str, list[tuple[float, float]]] = {}
for row in result.rows:
    series.setdefault(row.variant.value, []).append(
        (row.arc_length_m / UM, row.s_mv_per_g)
    )

arcs = [x for x, _ in series["Planar"]]
print("per-comb sensitivity S [mV/g] vs arc length [um]")
print("  arc   " + "".join(f"{name[:9]:>10s}" for name in series))
for i, arc in enumerate(arcs):
    cells = "".join(f"{series[name][i][1]:10.4f}" for name in series)
    print(f"  {arc:5.1f} {cells}")

print("\nnet sensitivity at 21 fingers, arc = 60 um:")
for row in result.rows:
    if row.arc_length_m == max(arcs) * UM:
        print(f"  {row.variant.value:15s} {row.s_net_mv_per_g:8.3f} mV/g")

out = "arc_length_trends.svg"
with open(out, "w", encoding="utf-8", newline="") as fh:
    fh.write(
        line_chart(
            list(series.items()),
            "Per-comb sensitivity vs arc length",
            "arc length [um]",
            "S [mV/g]",
        )
    )
print(f"\nchart written to {out}")
