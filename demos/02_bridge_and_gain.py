"""Differential bridge readout: rest offsets, gain versus acceleration,
and the polarity inversion between the two mixed pairings.

    python3 demos/02_bridge_and_gain.py
"""

from curvedcomb import (
    ArcProfile,
    DriveModel,
    ElectrodeConfig,
    GapState,
    MechanicalModel,
    STANDARD_GRAVITY,
    Variant,
    bridge_capacitances,
    gain,
)

UM = 1e-6
prof = ArcProfile(100 * UM, 0.2, 2 * UM)
gap = 2 * UM
mech = MechanicalModel(mass_kg=2.6e-10, spring_n_per_m=1.0, comb_count=21)
drive = DriveModel(v_in_volts=1.0)

# at rest the symmetric pairings sit on a balanced bridge; the asymmetric
# ones carry a static offset whose sign follows convex < flat < concave
print("rest bridge state (C1, C2 in fF; G = -(C2-C1)/Cfb)")
for variant in Variant:
    config = ElectrodeConfig.for_variant(variant, prof)
    b = bridge_capacitances(config, GapState(gap), drive)
    g0 = gain(config, gap, mech, drive, 0.0).gain
    print(
        f"  {variant.value:15s} C1 = {b.c1_f * 1e15:.4f}  C2 = {b.c2_f * 1e15:.4f}"
        f"  G(0) = {g0:+.4e}"
    )

print("\ngain vs acceleration, biconvex vs planar")
vex = ElectrodeConfig.for_variant(Variant.BICONVEX, prof)
flat = ElectrodeConfig.for_variant(Variant.PLANAR, prof)
for a_g in (-2.0, -1.0, 0.0, 1.0, 2.0):
    a = a_g * STANDARD_GRAVITY
    gv = gain(vex, gap, mech, drive, a)
    gf = gain(flat, gap, mech, drive, a)
    print(
        f"  a = {a_g:+.0f} g   delta = {gv.displacement_m * 1e9:+7.3f} nm"
        f"   G_biconvex = {gv.gain:+.6e}   G_planar = {gf.gain:+.6e}"
    )
print(
    "the planar gain is exactly delta/d; the biconvex one runs shallower,\n"
    "as d is its apex gap and its faces curve away from the mass past the apexes."
)

# swapping which side is concave flips the output sign: G_cc(a) = -G_vc(-a)
cc = ElectrodeConfig.for_variant(Variant.CONCAVO_CONVEX, prof)
vc = ElectrodeConfig.for_variant(Variant.CONVEXO_CONCAVE, prof)
a = STANDARD_GRAVITY
print("\npolarity inversion between the mixed pairings")
print(f"  G_concavo-convex(+1g) = {gain(cc, gap, mech, drive, a).gain:+.6e}")
print(f"  G_convexo-concave(-1g) = {gain(vc, gap, mech, drive, -a).gain:+.6e}")
