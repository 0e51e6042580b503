"""Independent numerical ground truth for the closed forms.

Two oracles live here: quadrature of the raw capacitance integrands
(never the closed forms, whose input check it shares), and
finite-difference differentiation for checking analytic derivatives and
sensitivities. Both are deterministic, so a given input always produces
bit-identical output on a given platform. quad_capacitance integrates
half of each face on a mesh fixed before any evaluation, graded toward
the zero of the local gap, one 10-point Gauss-Legendre panel per
interval, and returns a proved error bound; integrate_adaptive refines a
general integrand with QUADPACK's 10/21-point Gauss-Kronrod panel,
largest error first with a fixed tie-break.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

from .capacitance import _checked_face
from .model import VACUUM_PERMITTIVITY, ArcProfile, FaceKind, PlanarProfile

__all__ = [
    "QuadratureResult",
    "QuadratureNonConvergence",
    "integrate_adaptive",
    "quad_capacitance",
    "FDResult",
    "fd_derivative",
]

# 21-point Kronrod extension of 10-point Gauss-Legendre, positive half
# (QUADPACK's qk21 table, each the nearest float; tests/test_oracles.py
# derives it): node _Xi carries Kronrod weight _Ki, and the Gauss weight
# _Gi where i is odd.
_X0, _X1, _X2, _X3, _X4, _X5, _X6, _X7, _X8, _X9 = (
    0.9956571630258081,
    0.9739065285171717,
    0.9301574913557082,
    0.8650633666889845,
    0.7808177265864169,
    0.6794095682990244,
    0.5627571346686047,
    0.4333953941292472,
    0.2943928627014602,
    0.14887433898163122,
)  # the centre node is 0
_K0, _K1, _K2, _K3, _K4, _K5, _K6, _K7, _K8, _K9, _K10 = (
    0.011694638867371874,
    0.032558162307964725,
    0.054755896574351995,
    0.07503967481091996,
    0.0931254545836976,
    0.10938715880229764,
    0.12349197626206584,
    0.13470921731147334,
    0.14277593857706009,
    0.14773910490133849,
    0.1494455540029169,
)
_G1, _G3, _G5, _G7, _G9 = (
    0.06667134430868814,
    0.1494513491505806,
    0.21908636251598204,
    0.26926671930999635,
    0.29552422471475287,
)


_REL_TOL = 1e-12
_ABS_TOL = 1e-30
_MAX_SUBDIVISIONS = 2000


class QuadratureResult(NamedTuple):
    value: float
    error_estimate: float
    subdivisions: int


class QuadratureNonConvergence(RuntimeError):
    """The error estimate exceeds the tolerance: integrate_adaptive's
    budget ran out, or a face's proved bound is above it."""

    def __init__(self, message: str, value: float, error_estimate: float):
        super().__init__(message)
        self.value = value
        self.error_estimate = error_estimate


def _gk21(f: Callable[[float], float], a: float, b: float) -> tuple[float, float]:
    """One Gauss-Kronrod 10/21 panel: returns (K21 value, |K21 - G10|)."""
    # unrolled: a loop over the node tables cost more in indexing than in
    # arithmetic. Centre first, then each symmetric pair from the outermost
    # in; both sums add their terms in that order, which fixes their bits
    center = 0.5 * (a + b)
    half = 0.5 * (b - a)
    fc = f(center)
    f0 = f(center - (dx := half * _X0)) + f(center + dx)
    f1 = f(center - (dx := half * _X1)) + f(center + dx)
    f2 = f(center - (dx := half * _X2)) + f(center + dx)
    f3 = f(center - (dx := half * _X3)) + f(center + dx)
    f4 = f(center - (dx := half * _X4)) + f(center + dx)
    f5 = f(center - (dx := half * _X5)) + f(center + dx)
    f6 = f(center - (dx := half * _X6)) + f(center + dx)
    f7 = f(center - (dx := half * _X7)) + f(center + dx)
    f8 = f(center - (dx := half * _X8)) + f(center + dx)
    f9 = f(center - (dx := half * _X9)) + f(center + dx)
    resk = (_K10 * fc + _K0 * f0 + _K1 * f1 + _K2 * f2 + _K3 * f3 + _K4 * f4
            + _K5 * f5 + _K6 * f6 + _K7 * f7 + _K8 * f8 + _K9 * f9)
    resg = _G1 * f1 + _G3 * f3 + _G5 * f5 + _G7 * f7 + _G9 * f9
    return resk * half, abs((resk - resg) * half)


def integrate_adaptive(
    f: Callable[[float], float], a: float, b: float
) -> QuadratureResult:
    """Adaptive integral of f over [a, b], to a relative error of 1e-12
    (or an absolute error of 1e-30) within 2000 subdivisions.

    Each interval carries an embedded low/high order rule pair; the
    interval with the largest error estimate is bisected first, with
    insertion order breaking ties, so refinement is reproducible.
    subdivisions counts the cuts in the final partition (its panels less 1).

    Raises:
        ValueError: if a or b is not finite.
        QuadratureNonConvergence: if the subdivision budget is exhausted
            before the tolerance is met. The partial value and its error
            estimate ride along on the exception.
    """
    for name, end in (("a", a), ("b", b)):
        if not -math.inf < end < math.inf:
            raise ValueError(f"integration bound {name} must be finite, got {end}")
    if a == b:
        return QuadratureResult(0.0, 0.0, 0)
    import heapq  # no other oracle needs it, so only this one loads it

    # heap entries: (-error, insertion_seq, a, b, value, error)
    total_val, total_err = _gk21(f, a, b)
    heap = [(-total_err, 0, a, b, total_val, total_err)]
    seq, splits = 1, 0
    while True:
        tol = max(_ABS_TOL, _REL_TOL * abs(total_val))
        # the running totals cancel when one panel dominates, and can then
        # stall above the live panels' errors, whose sum is at most the
        # largest times their count: stop if the totals hold and the exact
        # error agrees, else go on from exact totals
        if total_err <= tol or -heap[0][0] * len(heap) <= tol:
            exact_err = math.fsum([entry[5] for entry in heap])
            if exact_err <= tol and 0.0 <= total_err <= tol:
                break
            total_val, total_err = math.fsum([entry[4] for entry in heap]), exact_err
            continue
        if splits >= _MAX_SUBDIVISIONS:
            raise QuadratureNonConvergence(
                f"no convergence after {splits} subdivisions "
                f"(value {total_val}, error estimate {total_err})",
                total_val,
                total_err,
            )
        neg, _, lo, hi, v_old, e_old = heapq.heappop(heap)
        mid = 0.5 * (lo + hi)
        v1, e1 = _gk21(f, lo, mid)
        v2, e2 = _gk21(f, mid, hi)
        total_val += v1 + v2 - v_old
        total_err += e1 + e2 - e_old
        heapq.heappush(heap, (-e1, seq, lo, mid, v1, e1))
        heapq.heappush(heap, (-e2, seq + 1, mid, hi, v2, e2))
        seq += 2
        splits += 1
    return QuadratureResult(total_val, total_err, splits)


def _gauss10(f: Callable[[float], float], a: float, b: float) -> float:
    """One 10-point Gauss-Legendre panel: the Gauss half of _gk21's table."""
    center = 0.5 * (a + b)
    half = 0.5 * (b - a)
    return half * (_G1 * (f(center - (dx := half * _X1)) + f(center + dx))
                   + _G3 * (f(center - (dx := half * _X3)) + f(center + dx))
                   + _G5 * (f(center - (dx := half * _X5)) + f(center + dx))
                   + _G7 * (f(center - (dx := half * _X7)) + f(center + dx))
                   + _G9 * (f(center - (dx := half * _X9)) + f(center + dx)))


# A panel's Bernstein ellipse E (rho = 9/2, foci at the panel's ends) reaches
# 49/72 of the panel's width before its start and 121/72 past it; for [p, 2p]
# it spans x in [23p/72, 193p/72], with |y| < 2x. If |f| <= M on E, a 10-point
# Gauss panel of half-width w errs by at most _GAUSS_BOUND * M * w (Trefethen,
# ATAP Thm 19.3). Every decimal constant is its exact value rounded outward.
_GAUSS_BOUND = 1.912e-14  # (64/15) rho**-20 / (rho**2 - 1)
_U = 2.0**-53


def _mesh(kind: FaceKind, r: float, half: float, gap_m: float, e: float) -> list:
    """The half face's panels as (a, b, (b - a)/L, 1/m): [0, w], then [p, 2p]
    up to half, w = half/2**k the largest whose E keeps |gap| >= d/2
    (convex) or e/4 (concave). L is a proved lower bound of |gap| on the
    panel's E, m one of the concave gap on the panel (1/m is 0 on a convex
    face); the README's "The quadrature oracle" proves both."""
    convex, w = kind is FaceKind.CONVEX, half
    if convex:  # the zeros sit at +-i*y0
        y0 = 2.0 * math.asinh(math.sqrt(gap_m / (2.0 * r)))
        while 1.681 * w > 0.7071 * y0:
            w *= 0.5
        panels = [(0.0, w, w / (gap_m * (1.0 - (1.681 * w / y0) ** 2)), 0.0)]
    else:  # u < 0 from the edge: cos(phi/2 - u) > 0 while -u <= room, as math.pi < pi
        s, k, room = math.sin(half), (gap_m - e) / half, 0.5 * math.pi - half
        while 0.681 * w > room or r * (t := 0.681 * w) * (s + 0.5 * t) > 0.75 * e:
            w *= 0.5
        panels = [(0.0, w, w / (e - r * t * (s + 0.5 * t)), 1.0 / e)]
    while w < half:  # [w, 2w]: sin(23w/144) >= 0.159w, as 23w/144 < 0.13
        if convex:
            panels.append((w, w + w, w / (0.7071 * gap_m + 0.03575 * r * w * w), 0.0))
        else:
            panels.append((w, w + w, w / (e + 0.3194 * k * w), 1.0 / (e + k * w)))
        w += w
    return panels


def quad_capacitance(
    kind: FaceKind,
    profile: ArcProfile | PlanarProfile,
    gap_m: float,
    permittivity: float = VACUUM_PERMITTIVITY,
) -> QuadratureResult:
    """Capacitance of one face by direct integration of its gap profile.

    Integrates eps*h*R / gap over half of the face and doubles the value
    and its error estimate: for a convex face gap = d + 2R*sin(theta/2)**2
    over theta in [0, phi/2]; for a concave face gap = e + 2R*sin(u/2)*
    sin(phi/2 - u/2) over u = phi/2 - theta in [0, phi/2], with the edge
    gap e = d - 2R*sin(phi/4)**2 computed here; along a flat face eps*h / d.
    The inputs pass the closed forms' own check, so the domain is theirs,
    side_gap_bounds, and so is every error. The half face is cut at
    (phi/2)/2**k, graded toward the zero of the gap (_mesh), with one
    10-point Gauss-Legendre panel per interval: subdivisions counts the
    cuts. error_estimate is twice the panels' proved bounds plus a rounding
    term, 64 ulp of the value and e's own rounding (8 ulp of d) times the
    half face's |dC/de|.

    Raises:
        ValueError: if the permittivity leaves the model envelope, the
            profile does not fit the kind, or gap_m is not a real number.
        GeometryDomainError: if gap_m is outside side_gap_bounds.
        QuadratureNonConvergence: if error_estimate exceeds 1e-12 of the
            value (or 1e-30 F), as on a concave face once d/e passes about
            6000; the message names the face kind and the gap.
    """
    _checked_face(kind, profile, gap_m, permittivity)
    h, e, sin = profile.thickness_m, gap_m, math.sin
    # each panel runs in half the angle, v = theta/2 or u/2: the value is
    # then a quarter of the face's, and each integrand call halves nothing
    if kind is FaceKind.FLAT:
        num, half = permittivity * h, 0.5 * profile.length_m
        panels = [(0.0, half, half / gap_m, 0.0)]

        def integrand(_v: float) -> float:
            return num / gap_m

    else:
        r, half = profile.radius_m, 0.5 * profile.angular_extent_rad
        num, r2 = permittivity * h * r, 2.0 * r
        if kind is FaceKind.CONVEX:

            def integrand(v: float) -> float:
                s = sin(v)
                return num / (gap_m + r2 * s * s)

        else:
            s = sin(0.5 * half)
            e = gap_m - r2 * s * s

            def integrand(v: float) -> float:
                return num / (e + r2 * sin(v) * sin(half - v))

        panels = _mesh(kind, r, half, gap_m, e)
    value = widths = near = 0.0
    for a, b, width, inv_m in panels:
        v = _gauss10(integrand, 0.5 * a, 0.5 * b)
        value += v
        widths += width
        near += v * inv_m
    # near is the half face's |dC/de| over 2 (F/m), inv_m 0 but on a concave face
    error = _GAUSS_BOUND * num * widths + 256.0 * _U * value + 32.0 * _U * gap_m * near
    value *= 4.0
    if error > (tol := max(_ABS_TOL, _REL_TOL * value)):
        raise QuadratureNonConvergence(
            f"{kind.value} face at gap {gap_m} m: error estimate {error} "
            f"exceeds the tolerance {tol} (value {value})",
            value,
            error,
        )
    return QuadratureResult(value, error, len(panels) - 1)


class FDResult(NamedTuple):
    value: float
    error_estimate: float
    step_m: float


_MAX_SHRINKS = 40


def _central(f: Callable[[float], float], x: float, h: float) -> float | None:
    """Second-order central difference, or None if a stencil point is
    outside the domain."""
    try:
        return (f(x + h) - f(x - h)) / (2.0 * h)
    except ValueError:
        return None


def fd_derivative(
    f: Callable[[float], float], x: float, rel_step: float
) -> FDResult:
    """Finite-difference estimate of f'(x) with an error estimate.

    The trial step is rel_step * max(|x|, 1). Two central differences, at
    steps h and h/2, are combined into a fourth-order Richardson
    extrapolation; a third of their difference is the error estimate.
    The step halves whenever a stencil point falls outside the function's
    domain (signalled by ValueError), up to 40 times.

    Raises:
        ValueError: if x is not finite, rel_step is not positive and
            finite, or no admissible step exists: every trial stencil left
            the function's domain, or the step stopped resolving x in
            floating point. The message counts the shrinks made.
    """
    if not -math.inf < x < math.inf:
        raise ValueError(f"x must be finite, got {x}")
    if not 0.0 < rel_step < math.inf:
        raise ValueError(f"rel_step must be positive and finite, got {rel_step}")
    h = rel_step * max(abs(x), 1.0)
    for shrinks in range(_MAX_SHRINKS):
        if x + 0.5 * h == x:
            why = f": the stencil stopped resolving in floating point after {shrinks} shrinks"
            break
        d_full = _central(f, x, h)
        d_half = _central(f, x, 0.5 * h) if d_full is not None else None
        if d_full is not None and d_half is not None:
            # the central error is O(h^2): this weighting cancels its lead term
            value = (4.0 * d_half - d_full) / 3.0
            return FDResult(value, abs(d_half - d_full) / 3.0, h)
        h *= 0.5
    else:
        why = f" after {_MAX_SHRINKS} shrinks"
    raise ValueError(f"no admissible finite-difference step at x={x}{why}")
