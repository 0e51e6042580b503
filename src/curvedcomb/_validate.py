"""The oracle suites of `curvedcomb validate`, on one seeded random stream:
the closed forms against quadrature, fd_sensitivity's stencil against the
analytic S, and the gain's symmetry, polarity and planar identities. Only
cli.cmd_validate imports this module.

The derivative and symmetry suites draw R, phi, then the gap d (then the
acceleration) and resolve each face kind a draw needs once, on the arc
(R, phi, h = 2 um), a flat face cut to R*phi as ElectrodeConfig.for_variant
cuts it. Each pairing is one transduction cell with both sides at d, valid
where each face admits d (validate_geometry's rule at APEX), evaluated with
transduction's private frame as sensitivity, fd_sensitivity and gain
evaluate it; no ElectrodeConfig or GapState is built. tests/test_cli.py
replays every draw through the public functions, bit for bit.
"""

import random

from .capacitance import _resolve_at_arc, cap_concave, cap_convex
from .model import (
    SIDE_KINDS, STANDARD_GRAVITY, ArcProfile, DriveModel, FaceKind, FeedbackMode,
    MechanicalModel, Variant, _CONCAVE, _CONVEX, _FLAT, _MATCHED_SUM, _sagitta, displacement,
)
from .oracles import quad_capacitance
from .transduction import (
    _check_range, _evaluate, _fd_stencil, _gain, _readout, _rest_feedback, _sensitivity,
)


def max_rel_errs(points: int, feedback: FeedbackMode) -> tuple[float, float, float]:
    """The quadrature, derivative and symmetry suites' max rel errors, in
    that order on one stream: max(10, points) draws for the quadrature and
    symmetry suites, max(5, n // 6) per curved pairing for the derivative
    suite, which runs under feedback."""
    rng, n = random.Random(20260816), max(10, points)
    return (
        _suite_quadrature(rng, n),
        _suite_derivative(rng, max(5, n // 6), feedback),
        _suite_symmetry(rng, n),
    )


def _worse(worst: float, rel: float) -> float:
    """max(worst, rel), except that a NaN in either is kept (and fails)."""
    return rel if rel > worst or rel != rel else worst


def _suite_quadrature(rng: random.Random, points: int) -> float:
    """Max rel diff between closed forms and quadrature on random geometry."""
    worst = 0.0
    for _ in range(points):
        r = rng.uniform(10e-6, 1000e-6)
        phi = rng.uniform(1e-3, 1.0)
        d = rng.uniform(0.5e-6, 10e-6)
        prof = ArcProfile(r, phi, 2e-6)
        convex = cap_convex(prof, d)
        oracle = quad_capacitance(FaceKind.CONVEX, prof, d)
        worst = _worse(worst, abs(convex - oracle.value) / abs(oracle.value))
        if d - prof.sagitta() > 1e-3 * d:  # keep clear of the edge divergence
            concave = cap_concave(prof, d)
            oracle = quad_capacitance(FaceKind.CONCAVE, prof, d)
            worst = _worse(worst, abs(concave - oracle.value) / abs(oracle.value))
    return worst


_CURVED_VARIANTS = tuple(v for v in Variant if v is not Variant.PLANAR)
_ODD_VARIANTS = (Variant.PLANAR, Variant.BICONVEX, Variant.BICONCAVE)
_PLANAR, _CC, _VC = Variant.PLANAR, Variant.CONCAVO_CONVEX, Variant.CONVEXO_CONCAVE
# the fixed mechanics of the derivative and symmetry suites, and the
# symmetry suite's drive: its planar identity G = delta/d holds only under
# matched-sum feedback, while the derivative suite takes --feedback
_SUITE_MECH = MechanicalModel(2.6e-10, 1.0, 21)
_SUITE_DRIVE = DriveModel(1.0)

_KINDS = (_CONVEX, _CONCAVE, _FLAT)
# each variant's (side 1, side 2) face kinds as indices into _KINDS
_SIDES = {v: tuple(map(_KINDS.index, SIDE_KINDS[v])) for v in Variant}


def _random_cell(rng: random.Random, eps: float, kinds: tuple = _KINDS) -> tuple[list, float]:
    """One draw of the derivative and symmetry suites, as R, phi, then the
    gap d: the face of each kind in kinds resolved once on the arc (R, phi,
    h = 2 um), in _KINDS order with None for the others, and d."""
    r, phi = rng.uniform(30e-6, 500e-6), rng.uniform(0.02, 0.8)
    sag = _sagitta(r, phi)
    faces = [_resolve_at_arc(k, r, phi, 2e-6, eps, sag) if k in kinds else None for k in _KINDS]
    return faces, rng.uniform(0.8e-6, 8e-6)


def _cell_of(variant: Variant, faces: list, d: float) -> tuple | None:
    """variant's transduction cell on a draw's faces with both sides at d,
    or None where a side's face does not admit d (validate_geometry's
    verdict at APEX)."""
    i1, i2 = _SIDES[variant]
    f1, f2 = faces[i1], faces[i2]
    return (variant, f1, f2, d, d) if f1[1] < d < f1[2] and f2[1] < d < f2[2] else None


def _operating_point(cell: tuple, mech: MechanicalModel, drive: DriveModel, accel: float):
    """transduction._point, then _evaluate, on a resolved cell: the
    displacement at accel, which the travel check has passed, and the
    bridge there, with the rest C_fb off rest under nominal feedback."""
    delta = displacement(mech, accel)
    _check_range(cell, mech, delta, accel)
    rest_fb = delta and drive.feedback_mode is not _MATCHED_SUM
    return delta, _evaluate(cell, delta, _rest_feedback(cell) if rest_fb else None)


def _suite_derivative(rng: random.Random, points: int, feedback: FeedbackMode) -> float:
    """Max rel diff between fd_sensitivity's stencil and the analytic S."""
    worst = 0.0
    mech, drive = _SUITE_MECH, DriveModel(1.0, feedback)
    eps, (v_m_per_k, matched_sum) = drive.permittivity_f_per_m, _readout(mech, drive)
    for variant in _CURVED_VARIANTS:
        kinds = SIDE_KINDS[variant]
        for _ in range(points):
            while True:  # redraw until the rest state is valid for variant
                cell = _cell_of(variant, *_random_cell(rng, eps, kinds))
                if cell:
                    break
            accel = rng.uniform(-2.0, 2.0) * STANDARD_GRAVITY
            delta, ev = _operating_point(cell, mech, drive, accel)
            s = _sensitivity(ev, v_m_per_k, matched_sum)
            # fd_sensitivity's C_fb is the rest one under nominal feedback,
            # which ev holds at rest too: C1 + C2 there, bit for bit
            fd = _fd_stencil(cell, delta, None if matched_sum else ev[4], mech, drive, accel)
            worst = _worse(worst, abs(fd - s) / abs(s))
    return worst


def _suite_symmetry(rng: random.Random, points: int) -> float:
    """Max rel error of G(-a) = -G(a) for the symmetric pairings, of
    G_cc(a) = -G_vc(-a) for the mixed pair, and of Planar's G = delta/d and
    S = V_in*m*g0/(k*d)."""
    worst = 0.0
    mech, drive = _SUITE_MECH, _SUITE_DRIVE
    eps, readout = drive.permittivity_f_per_m, _readout(mech, drive)

    def gain(cell: tuple, accel: float) -> float:
        return _gain(_operating_point(cell, mech, drive, accel)[1])

    for _ in range(points):
        faces, d = _random_cell(rng, eps)
        accel = rng.uniform(0.1, 2.0) * STANDARD_GRAVITY
        for variant in _ODD_VARIANTS:
            if cell := _cell_of(variant, faces, d):
                plus, minus = gain(cell, accel), gain(cell, -accel)
                worst = _worse(worst, abs(plus + minus) / max(abs(plus), 1e-300))
        if cc := _cell_of(_CC, faces, d):
            g_cc, g_vc = gain(cc, accel), gain(_cell_of(_VC, faces, d), -accel)
            worst = _worse(worst, abs(g_cc + g_vc) / max(abs(g_cc), 1e-300))
        planar = _cell_of(_PLANAR, faces, d)
        # delta/d = 1/4 so the c2 - c1 cancellation stays below the tolerance
        accel_p = 0.25 * d * mech.spring_n_per_m / mech.mass_kg
        delta, ev = _operating_point(planar, mech, drive, accel_p)
        exact = delta / d
        worst = _worse(worst, abs(_gain(ev) - exact) / abs(exact))
        s = _sensitivity(_operating_point(planar, mech, drive, 0.0)[1], *readout)
        s_exact = drive.v_in_volts * mech.mass_kg * STANDARD_GRAVITY / (
            mech.spring_n_per_m * d
        )
        worst = _worse(worst, abs(s - s_exact) / abs(s_exact))
    return worst
