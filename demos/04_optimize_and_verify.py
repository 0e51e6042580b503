"""Bounded optimization of arc length per variant, then a spot check of
the analytic sensitivity against the finite-difference oracle at each
optimum.

    python3 demos/04_optimize_and_verify.py
"""

from curvedcomb import (
    ArcMode,
    ArcProfile,
    DriveModel,
    ElectrodeConfig,
    GapAnchor,
    GapState,
    MechanicalModel,
    SweepPlan,
    Variant,
    fd_sensitivity,
    maximize_sensitivity,
    net_sensitivity,
    side_nominal_gaps,
)

UM = 1e-6
mech = MechanicalModel(2.6e-10, 1.0, 21)
drive = DriveModel(1.0)

plan = SweepPlan(
    variants=tuple(Variant),
    profile=ArcProfile(100 * UM, 0.2, 2 * UM),
    gap=GapState(2 * UM),
    mech=mech,
    drive=drive,
    arc_mode=ArcMode.VARY_R_FIXED_ARC,
)

print("arc length maximizing |S| on [5, 60] um (better bound where |S| has")
print("no interior maximum, else golden-section search)")
best = []
for variant in Variant:
    arc, s = maximize_sensitivity(variant, (5 * UM, 60 * UM), plan)
    best.append((variant, arc, s))
    print(
        f"  {variant.value:15s} arc* = {arc / UM:7.3f} um"
        f"   S = {s * 1e3:8.4f} mV/g"
        f"   S_net = {net_sensitivity(s, mech) * 1e3:8.3f} mV/g"
    )
print("monotone trends push every optimum to an interval endpoint; the")
print("planar row is flat in arc length and reports the lower bound.")

# trust, then verify: differentiate the gain numerically at each optimum
print("\nanalytic vs finite-difference sensitivity at each optimum")
for variant, arc, s in best:
    prof = ArcProfile(arc / plan.profile.angular_extent_rad,
                      plan.profile.angular_extent_rad, 2 * UM)
    config = ElectrodeConfig.for_variant(variant, prof)
    d1, d2 = side_nominal_gaps(config, 2 * UM, GapAnchor.FACE_PLANE)
    fd = fd_sensitivity(config, d1, d2, mech, drive, 0.0)
    rel = abs(fd - s) / abs(s)
    print(f"  {variant.value:15s} rel diff {rel:.3e}")
