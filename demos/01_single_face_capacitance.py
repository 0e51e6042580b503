"""Single-face capacitance: closed forms, the quadrature oracle, and the
edge-contact divergence.

Run from the repository root:

    python3 demos/01_single_face_capacitance.py
"""

from curvedcomb import (
    ArcProfile,
    FaceKind,
    GeometryDomainError,
    PlanarProfile,
    cap_concave,
    cap_convex,
    cap_planar,
    quad_capacitance,
)

UM = 1e-6

# Reference cell: R = 100 um arc spanning phi = 0.2 rad (arc length 20 um),
# h = 2 um structure, 2 um nominal gap.
prof = ArcProfile(100 * UM, 0.2, 2 * UM)
face = PlanarProfile(prof.arc_length(), prof.thickness_m)
d = 2 * UM

print("face capacitances at a 2 um gap")
print(f"  convex  {cap_convex(prof, d):.6e} F")
print(f"  flat    {cap_planar(face, d):.6e} F")
print(f"  concave {cap_concave(prof, d):.6e} F")
print("the concave arc wraps around the moving face, the convex one curves")
print("away from it, so concave > flat > convex at the same apex gap.\n")

# Every closed form is cross-checked against adaptive Gauss-Kronrod
# quadrature (10/21-point panels, bisected largest error first until the
# error is within 1e-12 relative, a concave face's starting from a mesh
# graded toward its edge) of the parallel-plate integrand; the
# library's validate command does this over a randomized grid, here is
# one point of it.
print("closed form vs quadrature")
for kind, p in (
    (FaceKind.CONVEX, prof),
    (FaceKind.CONCAVE, prof),
    (FaceKind.FLAT, face),
):
    closed = {
        FaceKind.CONVEX: cap_convex,
        FaceKind.CONCAVE: cap_concave,
        FaceKind.FLAT: cap_planar,
    }[kind](p, d)
    quad = quad_capacitance(kind, p, d)
    rel = abs(closed - quad.value) / quad.value
    print(
        f"  {kind.value:8s} rel diff {rel:.2e} "
        f"({quad.subdivisions} quadrature subdivisions)"
    )

# The concave form diverges where the arc edge touches the moving
# electrode: gap -> sagitta means the atanh argument -> 1.
print("\napproaching edge contact (sagitta = %.4f um)" % (prof.sagitta() / UM))
for factor in (4.0, 2.0, 1.01, 1.0001, 1.000001):
    gap = prof.sagitta() * factor
    print(f"  gap = {gap / UM:.6f} um -> C = {cap_concave(prof, gap):.4e} F")

try:
    cap_concave(prof, prof.sagitta())
except GeometryDomainError as err:
    print(f"  gap = sagitta raises: {err}")
