import heapq
import math
import random
from fractions import Fraction as Q

import pytest

from curvedcomb import (
    VACUUM_PERMITTIVITY,
    ArcProfile,
    FaceKind,
    PlanarProfile,
    QuadratureNonConvergence,
    QuadratureResult,
    cap_concave,
    cap_convex,
    cap_planar,
    fd_derivative,
    integrate_adaptive,
    quad_capacitance,
)
from curvedcomb import oracles
from conftest import STD_GAP, STD_H
from _enclose import _add, _div, _dn, _mul, _pmul, _pt, _sin, _sinh, _sub, _times, _up

CBRT_EPS = (2.0**-52) ** (1.0 / 3.0)
NON_FINITE = [math.nan, math.inf, -math.inf]


class TestAdaptiveQuadrature:
    def test_polynomial_exact(self):
        res = integrate_adaptive(lambda x: x * x, 0.0, 1.0)
        assert res.value == pytest.approx(1.0 / 3.0, rel=1e-14)
        assert abs(res.value - 1.0 / 3.0) <= max(res.error_estimate, 1e-16)

    def test_sine_over_half_period(self):
        res = integrate_adaptive(math.sin, 0.0, math.pi)
        assert res.value == pytest.approx(2.0, rel=1e-13)

    def test_subdivides_near_integrable_singularity(self):
        res = integrate_adaptive(lambda x: 1.0 / math.sqrt(x + 1e-8), 0.0, 1.0)
        exact = 2.0 * (math.sqrt(1.0 + 1e-8) - math.sqrt(1e-8))
        assert res.value == pytest.approx(exact, rel=1e-10)
        assert res.subdivisions > 10

    def test_reversed_interval_changes_sign(self):
        fwd = integrate_adaptive(math.exp, 0.0, 1.0)
        rev = integrate_adaptive(math.exp, 1.0, 0.0)
        assert rev.value == pytest.approx(-fwd.value, rel=1e-14)

    def test_budget_exhaustion_raises_with_partial_value(self):
        # sin(1/x) oscillates without bound near 0: 2000 subdivisions
        # cannot reach the tolerance
        with pytest.raises(QuadratureNonConvergence, match="2000") as err:
            integrate_adaptive(lambda x: math.sin(1.0 / x), 0.0, 1.0)
        # integral of sin(1/x) over [0, 1] is 0.504067061906928...
        assert err.value.value == pytest.approx(0.504067061906928, rel=1e-3)
        assert err.value.error_estimate > 0

    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_rejects_non_finite_bounds(self, bad):
        with pytest.raises(ValueError, match="bound b"):
            integrate_adaptive(math.exp, 0.0, bad)
        with pytest.raises(ValueError, match="bound a"):
            integrate_adaptive(math.exp, bad, 1.0)

    @pytest.mark.parametrize(
        "f, a, b",
        [
            (math.exp, 0.0, 1.0),  # converges on the first panel
            (lambda x: 1.0 / math.sqrt(x + 1e-8), 0.0, 1.0),  # subdivides
        ],
    )
    def test_each_panel_evaluates_21_points(self, f, a, b):
        calls = []

        def counted(x):
            calls.append(x)
            return f(x)

        res = integrate_adaptive(counted, a, b)
        # the first panel, then two new panels per subdivision
        assert len(calls) == 21 * (1 + 2 * res.subdivisions)

    def test_deterministic_replay(self):
        f = lambda x: math.sin(37.0 * x) / (1.0 + x * x)
        a = integrate_adaptive(f, 0.0, 3.0)
        b = integrate_adaptive(f, 0.0, 3.0)
        assert a.value == b.value
        assert a.subdivisions == b.subdivisions


# The panel and the adaptive loop in their loop form, as they stood before
# the panel was unrolled (the table is now the 10/21 rule's, and the loop
# starts from a mesh): the unrolled code must agree with them bit for bit.
# The loop has no exact-sum stop checks; on the inputs compared here they
# never change the result.
_XGK = (
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
    0.0,
)
_WGK = (
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
_WG = (
    0.06667134430868814,
    0.1494513491505806,
    0.21908636251598204,
    0.26926671930999635,
    0.29552422471475287,
)


def loop_gk21(f, a, b):
    center = 0.5 * (a + b)
    half = 0.5 * (b - a)
    resk = _WGK[10] * f(center)
    resg = 0.0  # the 10-point Gauss rule has no centre node
    for i in range(10):
        dx = half * _XGK[i]
        fsum = f(center - dx) + f(center + dx)
        resk += _WGK[i] * fsum
        if i % 2 == 1:
            resg += _WG[i // 2] * fsum
    return resk * half, abs((resk - resg) * half)


def loop_integrate(f, *mesh):
    """The refinement over the breakpoints mesh = (a, ..., b), from one panel
    per interval; the mesh's cuts count as subdivisions."""
    if mesh[0] == mesh[-1]:
        return QuadratureResult(0.0, 0.0, 0)
    heap = []
    for seq, (lo, hi) in enumerate(zip(mesh, mesh[1:])):
        val, err = loop_gk21(f, lo, hi)
        if seq == 0:
            total_val, total_err = val, err
        else:
            total_val += val
            total_err += err
        heapq.heappush(heap, (-err, seq, lo, hi, val, err))
    seq = len(heap)
    splits = len(heap) - 1
    while total_err > max(1e-30, 1e-12 * abs(total_val)):
        assert splits < 2000, "the reference did not converge"
        _, _, lo, hi, v_old, e_old = heapq.heappop(heap)
        mid = 0.5 * (lo + hi)
        v1, e1 = loop_gk21(f, lo, mid)
        v2, e2 = loop_gk21(f, mid, hi)
        total_val += v1 + v2 - v_old
        total_err += e1 + e2 - e_old
        heapq.heappush(heap, (-e1, seq, lo, mid, v1, e1))
        heapq.heappush(heap, (-e2, seq + 1, mid, hi, v2, e2))
        seq += 2
        splits += 1
    return QuadratureResult(total_val, total_err, splits)


def raw_integrand(kind, face, gap):
    """The face integrand as written before its constants were hoisted, in
    the sin^2 form that keeps the gap's digits."""
    eps, h, sin = VACUUM_PERMITTIVITY, face.thickness_m, math.sin
    if kind is FaceKind.FLAT:
        return lambda _x: eps * h / gap
    r = face.radius_m
    if kind is FaceKind.CONVEX:
        return lambda t: eps * h * r / (gap + 2.0 * r * sin(0.5 * t) * sin(0.5 * t))
    return lambda t: eps * h * r / (gap - 2.0 * r * sin(0.5 * t) * sin(0.5 * t))


def seeded_arc_cells():
    """60 seeded (profile, convex gap, concave gap) cells; the concave edge
    gap walks down to 1e-3 of the sagitta."""
    rng = random.Random(29)
    for _ in range(60):
        r = math.exp(math.log(10e-6) + rng.random() * math.log(100.0))
        prof = ArcProfile(r, 0.2 + rng.random() * 1.3, 1e-6 + rng.random() * 4e-6)
        d = 10.0 ** rng.uniform(-7.5, -4.5)
        sag = prof.sagitta()
        yield prof, d, sag + sag * 10.0 ** -(3.0 * rng.random())


class TestUnrolledPanel:
    def test_generic_integrands_match_the_loop_form(self):
        rng = random.Random(23)
        for f in (
            math.exp,
            lambda x: 1.0 / math.sqrt(abs(x) + 1e-7),  # subdivides toward 0
            lambda x: math.sin(9.0 * x) / (1.0 + x * x),
        ):
            for _ in range(20):
                a = rng.uniform(-3.0, 1.0)
                b = a + rng.uniform(-2.0, 4.0)
                assert integrate_adaptive(f, a, b) == loop_integrate(f, a, b)

    def test_capacitance_integrands_match_the_loop_form(self):
        # quad_capacitance sums one Gauss panel per _mesh interval in half
        # the angle, v = theta/2 (u/2 on a concave face), and quadruples it
        for prof, d, g in seeded_arc_cells():
            r, half = prof.radius_m, 0.5 * prof.angular_extent_rad
            s = math.sin(0.5 * half)
            e = g - 2.0 * r * s * s
            eps_h_r, sin = VACUUM_PERMITTIVITY * prof.thickness_m * r, math.sin
            convex = raw_integrand(FaceKind.CONVEX, prof, d)
            faces = (
                (FaceKind.CONVEX, d, d, lambda v: convex(2.0 * v)),
                (FaceKind.CONCAVE, g, e, lambda v: eps_h_r / (e + 2.0 * r * sin(v) * sin(half - v))),
            )
            for kind, gap, edge, f in faces:
                mesh = oracles._mesh(kind, r, half, gap, edge)
                quad = quad_capacitance(kind, prof, gap)
                assert quad.value == 4.0 * loop_sum(f, mesh), (kind, prof, gap)
                assert quad.subdivisions == len(mesh) - 1
            face = PlanarProfile(prof.arc_length(), prof.thickness_m)
            f = raw_integrand(FaceKind.FLAT, face, d)
            quad = quad_capacitance(FaceKind.FLAT, face, d)
            assert quad.value == 4.0 * loop_gauss10(f, 0.0, 0.25 * face.length_m)
            # quadrupling is exact: the flat face keeps the whole face's bits
            assert quad.value == loop_gauss10(f, 0.0, face.length_m)


def loop_gauss10(f, a, b):
    """The Gauss half of loop_gk21, as a loop."""
    center = 0.5 * (a + b)
    half = 0.5 * (b - a)
    res = 0.0
    for i in range(1, 10, 2):
        dx = half * _XGK[i]
        res += _WG[i // 2] * (f(center - dx) + f(center + dx))
    return half * res


def loop_sum(f, mesh):
    """loop_gauss10 summed over the (a, b, ...) panels of mesh, in half the angle."""
    total = 0.0
    for a, b, *_ in mesh:
        total += loop_gauss10(f, 0.5 * a, 0.5 * b)
    return total


# concave edge gaps from 1e-1 down to 1e-3 of the sagitta, four a decade
EDGE_LADDER = tuple(10.0 ** -(1.0 + k / 4.0) for k in range(9))


def concave_ladder():
    """(profile, concave gap) over seeded_arc_cells()' profiles and EDGE_LADDER."""
    for prof, _, _ in seeded_arc_cells():
        sag = prof.sagitta()
        for rel in EDGE_LADDER:
            yield prof, sag + sag * rel


@pytest.fixture
def panels(monkeypatch):
    """The (a, b) of every Gauss-Legendre panel evaluated, in order."""
    seen = []
    panel = oracles._gauss10

    def recorded(f, a, b):
        seen.append((a, b))
        return panel(f, a, b)

    monkeypatch.setattr(oracles, "_gauss10", recorded)
    return seen


class TestGradedMesh:
    def test_graded_values_match_50_digits(self):
        mp = pytest.importorskip("mpmath").mp
        with mp.workdps(50):
            for prof, gap in concave_ladder():
                # C = 4 eps h R / sqrt(g m) * atanh(tan(phi/4) sqrt(m/g)), m = 2R - g
                r, g = mp.mpf(prof.radius_m), mp.mpf(gap)
                m, t = 2 * r - g, mp.tan(mp.mpf(prof.angular_extent_rad) / 4)
                lead = 4 * mp.mpf(VACUUM_PERMITTIVITY) * mp.mpf(prof.thickness_m) * r
                exact = lead / mp.sqrt(g * m) * mp.atanh(t * mp.sqrt(m / g))
                quad = quad_capacitance(FaceKind.CONCAVE, prof, gap)
                assert abs(quad.value / exact - 1) <= 1e-13, (prof, gap)

    def test_grading_saves_panels_and_never_costs_one(self, panels):
        # integrand calls: 10 a panel on the graded mesh, against 21 a panel
        # for integrate_adaptive's 10/21 refinement of the plain half face
        graded_total = plain_total = 0
        for prof, gap in concave_ladder():
            panels.clear()
            quad_capacitance(FaceKind.CONCAVE, prof, gap)
            graded = 10 * len(panels)
            assert len(panels) > 2
            calls = 0
            f = raw_integrand(FaceKind.CONCAVE, prof, gap)

            def counted(x):
                nonlocal calls
                calls += 1
                return f(x)

            integrate_adaptive(counted, 0.0, 0.5 * prof.angular_extent_rad)
            assert graded <= calls, (prof, gap, graded, calls)
            graded_total += graded
            plain_total += calls
        assert graded_total <= 0.35 * plain_total, (graded_total, plain_total)

    @staticmethod
    def exact(mp, kind, prof, gap):
        """The face's C at 50 digits, from the closed form in mpmath."""
        r, g = mp.mpf(prof.radius_m), mp.mpf(gap)
        t = mp.tan(mp.mpf(prof.angular_extent_rad) / 4)
        lead = 4 * mp.mpf(VACUUM_PERMITTIVITY) * mp.mpf(prof.thickness_m) * r
        if kind is FaceKind.CONCAVE:
            return lead / mp.sqrt(g * (2 * r - g)) * mp.atanh(t * mp.sqrt((2 * r - g) / g))
        return lead / mp.sqrt(g * (2 * r + g)) * mp.atan(t * mp.sqrt((2 * r + g) / g))

    def test_the_error_estimate_bounds_the_50_digit_error(self):
        mp = pytest.importorskip("mpmath").mp
        cells = [(FaceKind.CONVEX, prof, d) for prof, d, _ in seeded_arc_cells()]
        cells += [(FaceKind.CONCAVE, prof, gap) for prof, gap in concave_ladder()]
        # two rungs below the ladder, d/e about 3200 and 5600, where the edge
        # gap's own rounding outweighs the panels' bounds
        for prof, _, _ in seeded_arc_cells():
            sag = prof.sagitta()
            cells += [(FaceKind.CONCAVE, prof, sag + sag * 10.0**-k) for k in (3.5, 3.75)]
        with mp.workdps(50):
            for kind, prof, gap in cells:
                quad = quad_capacitance(kind, prof, gap)
                exact = self.exact(mp, kind, prof, gap)
                assert abs(quad.value - exact) <= quad.error_estimate, (kind, prof, gap)
                assert quad.error_estimate <= 1e-12 * quad.value

    def test_each_panels_ellipse_clears_the_zero(self):
        # every L that _mesh returns is positive and at most |gap| on its
        # panel's Bernstein ellipse, checked in outward-rounded float
        # intervals from tests/_enclose.py
        assert Q(oracles._GAUSS_BOUND) >= Q(64, 15) * RHO**-20 / (RHO**2 - 1)
        # the ellipse of [p, 2p] (p = 72, centre (108, 0)) meets y = 2x at no
        # real x, so it lies where |y| < 2x, as its centre does
        c, a, b = 108, 72 * ELLIPSE_A / 2, 72 * ELLIPSE_B / 2
        qa, qb, qc = 1 / a**2 + 4 / b**2, -2 * c / a**2, c * c / a**2 - 1
        assert qb * qb < 4 * qa * qc
        cells = [(FaceKind.CONVEX, prof, d) for prof, d, _ in seeded_arc_cells()]
        cells += [(FaceKind.CONCAVE, prof, gap) for prof, gap in concave_ladder()]
        cells += EXTREME_CELLS
        for kind, prof, gap in cells:
            r, half = prof.radius_m, 0.5 * prof.angular_extent_rad
            s = math.sin(0.5 * half)
            e = gap - 2.0 * r * s * s
            for lo, hi, width, inv_m in oracles._mesh(kind, r, half, gap, e):
                span = _sub(_pt(hi), _pt(lo))
                low = _times(ROUNDING, _div(span, _pt(width)))
                if kind is FaceKind.CONVEX:
                    proved = convex_min_gap(r, gap, lo, hi)
                    assert inv_m == 0.0
                else:
                    # E spans x in [c - a, c + a]; m bounds gap on the panel
                    c, a = _times(0.5, _add(_pt(lo), _pt(hi))), _pmul(_times(0.5, span), ENCLOSED_A)
                    proved = concave_min_gap(r, half, e, _sub(c, a), _add(c, a))
                    m = _times(ROUNDING, _pt(concave_min_gap(r, half, e, _pt(lo), _pt(hi))))
                    assert 0.0 < inv_m and _div((1.0, 1.0), _pt(inv_m))[1] <= m[0]
                assert 0.0 < low[0] and low[1] <= proved, (kind, prof, gap, lo, hi)

    def test_subdivisions_count_the_panels_evaluated(self, panels):
        faces = [(FaceKind.CONCAVE, prof, gap) for prof, gap in concave_ladder()]
        for prof, d, _ in seeded_arc_cells():
            flat = PlanarProfile(prof.arc_length(), prof.thickness_m)
            faces += [(FaceKind.CONVEX, prof, d), (FaceKind.FLAT, flat, d)]
        for kind, face, gap in faces + EXTREME_CELLS:
            panels.clear()
            res = quad_capacitance(kind, face, gap)
            assert res.subdivisions == len(panels) - 1
            # each panel once, tiling [0, extent/4] (the half face in half the angle)
            extent = face.length_m if kind is FaceKind.FLAT else face.angular_extent_rad
            assert len(set(panels)) == len(panels)
            assert (panels[0][0], panels[-1][1]) == (0.0, 0.25 * extent)
            assert all(p[1] == q[0] for p, q in zip(panels, panels[1:]))

    def test_rounding_of_the_edge_gap_refuses_near_contact(self):
        # the edge gap is 7e-15 m, d/e = 7e7: e's own rounding is 1e-9 of C
        prof = ArcProfile(100e-6, 0.2, 2e-6)
        with pytest.raises(QuadratureNonConvergence) as err:
            quad_capacitance(FaceKind.CONCAVE, prof, 0.49958348e-6)
        assert str(err.value).startswith("concave face at gap 4.9958348e-07 m: error estimate ")
        assert err.value.error_estimate > 1e-12 * err.value.value > 0.0


# rho = 9/2: E of a panel of half-width w has semi-axes ELLIPSE_A w and ELLIPSE_B w
RHO = Q(9, 2)
ELLIPSE_A, ELLIPSE_B = (RHO + 1 / RHO) / 2, (RHO - 1 / RHO) / 2
ENCLOSED_A = _dn(float(ELLIPSE_A)), _up(float(ELLIPSE_A))
ROUNDING = 1.0 + 2.0**-50  # the code's L and m, to the rounding of width and 1/m
# faces far from the seeded ones: phi near pi, a concave gap near 2R (the
# domain test's phi = 2.5 face), a convex gap at 1e-30 m and one above R
EXTREME_CELLS = [
    (FaceKind.CONCAVE, ArcProfile(50e-6, 2.5, 2e-6), 99.99e-6),
    (FaceKind.CONCAVE, ArcProfile(50e-6, 3.1, 2e-6), 60e-6),
    (FaceKind.CONCAVE, ArcProfile(50e-6, math.pi - 1e-6, 2e-6), 99e-6),
    (FaceKind.CONVEX, ArcProfile(50e-6, 3.1, 2e-6), 1e-9),
    (FaceKind.CONVEX, ArcProfile(50e-6, 3.1, 2e-6), 1e-3),
    (FaceKind.CONVEX, ArcProfile(100e-6, 0.2, 2e-6), 1e-30),
]


def sin_over(a: tuple) -> tuple:
    """sin over a within [-pi/2, pi/2], where it rises and is odd."""
    assert -math.pi / 2 <= a[0] and a[1] <= math.pi / 2
    lo = -_sin(-a[0])[1] if a[0] < 0.0 else _sin(a[0])[0]
    hi = -_sin(-a[1])[0] if a[1] < 0.0 else _sin(a[1])[1]
    return lo, hi


def convex_min_gap(r: float, d: float, lo: float, hi: float) -> float:
    """A lower bound of |d + 2R sin(z/2)**2| on the ellipse E of [lo, hi]:
    E lies in |z| <= 121 hi/72 for lo = 0, where |sin(z/2)| <= sinh(|z|/2);
    for hi = 2 lo, E has 0 < x < pi and |y| < 2x, where |gap| >= (d + 2R
    sin(x/2)**2)/sqrt(2) (README, "The quadrature oracle")."""
    if lo == 0.0:
        sinh = _sinh(_times(0.25 * hi, _add((1.0, 1.0), ENCLOSED_A))[1])
        return _sub(_pt(d), _times(2.0 * r, _pmul(sinh, sinh)))[0]
    assert hi == 2.0 * lo and _times(0.5 * lo, _add((3.0, 3.0), ENCLOSED_A))[1] < math.pi
    sin = sin_over(_times(0.25 * lo, _sub((3.0, 3.0), ENCLOSED_A)))
    bound = _add(_pt(d), _times(2.0 * r, _pmul(sin, sin)))
    return _times(_dn(math.sqrt(0.5)), bound)[0]  # below 1/sqrt(2)


def concave_min_gap(r: float, half: float, e: float, lo: tuple, hi: tuple) -> float:
    """A lower bound of |e + R(cos(half - z) - cos(half))| for z = x + iy,
    x between ends that lo and hi enclose: while cos(half - x) >= 0 there, the
    real part is at least gap(x) = e + 2R sin(half - x/2) sin(x/2) (a product,
    as a difference would cancel), concave in x, so least at an end."""
    assert _sub(_pt(half), lo)[1] <= math.pi / 2 and _sub(hi, _pt(half))[1] <= math.pi / 2
    return min(
        _add(_pt(e), _times(2.0 * r, _mul(sin_over(_sub(_pt(half), x2)), sin_over(x2))))[0]
        for x2 in (_times(0.5, lo), _times(0.5, hi))
    )


def derived_gk21(mp):
    """The 10/21 Gauss-Kronrod rule derived at mp's precision: (Kronrod nodes,
    outermost first with the centre last; their weights; the Gauss weights
    of the odd-indexed nodes). Nodes are the roots of P10 and of the
    Stieltjes polynomial E11; weights match the moments of x^(2j)."""
    moment = lambda k: mp.mpf(0) if k % 2 else mp.mpf(2) / (k + 1)
    p0, p10 = [mp.mpf(1)], [mp.mpf(0), mp.mpf(1)]  # ascending coefficients
    for k in range(1, 10):  # Bonnet: (k+1) P(k+1) = (2k+1) x P(k) - k P(k-1)
        nxt = [mp.mpf(0)] + [(2 * k + 1) * c / (k + 1) for c in p10]
        for i, c in enumerate(p0):
            nxt[i] -= k * c / (k + 1)
        p0, p10 = p10, nxt
    # E11 = x Q(x^2) with Q monic of degree 5, orthogonal to x^k P10 for
    # odd k < 10 (even k vanish by parity)
    inner = lambda m: sum(c * moment(i + m) for i, c in enumerate(p10))
    rows = [[inner(2 * j + 1 + k) for j in range(5)] for k in (1, 3, 5, 7, 9)]
    q = mp.lu_solve(mp.matrix(rows), mp.matrix([-inner(11 + k) for k in (1, 3, 5, 7, 9)]))
    roots = lambda coeffs: [mp.re(r) for r in mp.polyroots(coeffs, maxsteps=200, extraprec=200)]
    stieltjes = [mp.sqrt(y) for y in roots([1] + [q[j] for j in range(4, -1, -1)])]
    gauss = sorted((x for x in roots(p10[::-1]) if x > 0), reverse=True)
    nodes = sorted(stieltjes + gauss, reverse=True) + [mp.mpf(0)]

    def weights(xs, half_count):
        # symmetric: each of the first half_count nodes stands for a pair
        rows = [[(2 if i < half_count else 1) * x ** (2 * j) for i, x in enumerate(xs)]
                for j in range(len(xs))]
        w = mp.lu_solve(mp.matrix(rows), mp.matrix([moment(2 * j) for j in range(len(xs))]))
        return [w[i] for i in range(len(xs))]

    return nodes, weights(nodes, 10), weights(gauss, 5)


class TestPanelTable:
    """The 10/21 table in oracles is certified against its derivation."""

    @pytest.fixture(scope="class")
    def mp(self):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            yield mpmath

    @pytest.fixture(scope="class")
    def rule(self, mp):
        return derived_gk21(mp)

    def test_each_float_is_within_one_ulp_of_its_derived_value(self, mp, rule):
        nodes, kronrod, gauss = rule
        table = [(getattr(oracles, f"_X{i}"), nodes[i]) for i in range(10)]
        table += [(getattr(oracles, f"_K{i}"), kronrod[i]) for i in range(11)]
        table += [(getattr(oracles, f"_G{2 * i + 1}"), gauss[i]) for i in range(5)]
        for got, want in table:
            assert abs(mp.mpf(got) - want) <= math.ulp(got), (got, want)
        # the loop form below reads the same floats
        assert _XGK == tuple(x for x, _ in table[:10]) + (0.0,)
        assert _WGK == tuple(w for w, _ in table[10:21])
        assert _WG == tuple(w for w, _ in table[21:])

    def test_kronrod_is_exact_to_degree_31_and_gauss_to_19(self, mp, rule):
        nodes, kronrod, gauss = rule
        gauss_nodes = nodes[1:10:2]

        def k21(k):
            pairs = sum(w * (x**k + (-x) ** k) for x, w in zip(nodes[:10], kronrod))
            return pairs + (kronrod[10] if k == 0 else 0)

        def g10(k):
            return sum(w * (x**k + (-x) ** k) for x, w in zip(gauss_nodes, gauss))

        moment = lambda k: mp.mpf(0) if k % 2 else mp.mpf(2) / (k + 1)
        for k in range(32):
            assert abs(k21(k) - moment(k)) < mp.mpf(10) ** -35, k
        for k in range(20):
            assert abs(g10(k) - moment(k)) < mp.mpf(10) ** -35, k
        # and no further: the degrees are exact, not lower bounds
        assert abs(k21(32) - moment(32)) > 1e-20
        assert abs(g10(20) - moment(20)) > 1e-20


class TestQuadCapacitance:
    def test_matches_closed_forms_on_random_cells(self, profile):
        rng = random.Random(91)
        for _ in range(50):
            r = rng.uniform(10e-6, 1000e-6)
            phi = rng.uniform(1e-3, 1.0)
            d = rng.uniform(0.5e-6, 10e-6)
            prof = ArcProfile(r, phi, STD_H)
            quad = quad_capacitance(FaceKind.CONVEX, prof, d)
            assert cap_convex(prof, d) == pytest.approx(quad.value, rel=1e-12)
            if d > prof.sagitta() * (1 + 1e-3):
                quad = quad_capacitance(FaceKind.CONCAVE, prof, d)
                assert cap_concave(prof, d) == pytest.approx(quad.value, rel=1e-12)

    def test_flat_route(self):
        face = PlanarProfile(20e-6, STD_H)
        quad = quad_capacitance(FaceKind.FLAT, face, STD_GAP)
        assert cap_planar(face, STD_GAP) == pytest.approx(quad.value, rel=1e-13)

    def test_domain_guards_mirror_closed_forms(self, profile):
        with pytest.raises(ValueError):
            quad_capacitance(FaceKind.CONVEX, profile, 0.0)
        with pytest.raises(ValueError):
            quad_capacitance(FaceKind.CONCAVE, profile, profile.sagitta())

    def test_agrees_with_external_quadrature(self, profile):
        # same integrand, third implementation: guards against a shared
        # bias between the closed forms and the in-house rule
        scipy_integrate = pytest.importorskip("scipy.integrate")
        eps = 8.854e-12
        r, phi, h, d = (
            profile.radius_m,
            profile.angular_extent_rad,
            profile.thickness_m,
            STD_GAP,
        )

        def convex_integrand(theta):
            return eps * h * r / (d + r - r * math.cos(theta))

        def concave_integrand(theta):
            return eps * h * r / (d + r * math.cos(theta) - r)

        for kind, f in (
            (FaceKind.CONVEX, convex_integrand),
            (FaceKind.CONCAVE, concave_integrand),
        ):
            external, _ = scipy_integrate.quad(
                f, -phi / 2, phi / 2, epsabs=1e-30, epsrel=1e-12
            )
            ours = quad_capacitance(kind, profile, d)
            assert ours.value == pytest.approx(external, rel=1e-11)

    @pytest.mark.parametrize("gap", [1e-20, 1e-22, 1e-25, 1e-27, 1e-30])
    def test_a_dominant_first_panel_does_not_stop_the_refinement(self, gap):
        # over the whole face this ran out of subdivisions at 1e-20 m
        prof = ArcProfile(100e-6, 0.2, 2e-6)
        quad = quad_capacitance(FaceKind.CONVEX, prof, gap)
        assert quad.error_estimate >= 0.0
        assert quad.value == pytest.approx(cap_convex(prof, gap), rel=1e-12)

    @pytest.mark.parametrize("gap", [1e-22, 1e-25, 1e-27, 1e-30])
    def test_running_totals_that_cancel_are_summed_again(self, gap):
        # over the whole face the first panel overshoots C by orders of
        # magnitude, so the running totals cancel: they read 0 F with error 0
        # (1e-27, 1e-30 m) or a negative error while 7e-9 off (1e-22, 1e-25 m)
        prof = ArcProfile(100e-6, 0.2, 2e-6)
        f = raw_integrand(FaceKind.CONVEX, prof, gap)
        res = integrate_adaptive(f, -0.1, 0.1)
        assert res.error_estimate >= 0.0
        assert res.value == pytest.approx(cap_convex(prof, gap), rel=1e-12)


class TestFiniteDifferences:
    def test_exponential_at_zero(self):
        res = fd_derivative(math.exp, 0.0, CBRT_EPS)
        assert res.value == pytest.approx(1.0, rel=1e-10)
        assert abs(res.value - 1.0) <= 10 * max(res.error_estimate, 1e-14)

    def test_richardson_beats_second_order(self):
        # at a generous step a central difference errs by e*h^2/6 ~ 4.5e-7;
        # the extrapolation cancels that term
        res = fd_derivative(math.exp, 1.0, 1e-3)
        assert abs(res.value - math.e) < 1e-10

    def test_step_shrinks_into_narrow_domain(self):
        # f only defined on (0.9999, 1.0001); a first step of CBRT_EPS is ~6e-5
        def fenced(x):
            if abs(x - 1.0) > 1e-4:
                raise ValueError("outside domain")
            return x * x

        res = fd_derivative(fenced, 1.0, CBRT_EPS)
        assert res.value == pytest.approx(2.0, rel=1e-9)
        assert res.step_m < 1e-4

    def test_raises_when_no_step_admissible(self):
        def spike(x):
            if x != 1.0:
                raise ValueError("only defined at one point")
            return 0.0

        with pytest.raises(ValueError, match="admissible"):
            fd_derivative(spike, 1.0, CBRT_EPS)

    def test_reports_the_shrinks_made(self):
        def nowhere(x):
            raise ValueError("defined nowhere")

        # at x = 0 every halved step still resolves: all 40 shrinks are made
        with pytest.raises(ValueError) as info:
            fd_derivative(nowhere, 0.0, 1e-3)
        assert str(info.value) == (
            "no admissible finite-difference step at x=0.0 after 40 shrinks"
        )
        # at x = 1 a step of 1e-13 stops resolving after 9 halvings; a first
        # step below half an ulp of x makes no shrink at all
        for rel_step, shrinks in ((1e-13, 9), (1e-16, 0)):
            with pytest.raises(ValueError) as info:
                fd_derivative(nowhere, 1.0, rel_step)
            assert str(info.value) == (
                "no admissible finite-difference step at x=1.0: the stencil "
                f"stopped resolving in floating point after {shrinks} shrinks"
            )

    def test_rejects_nonpositive_step(self):
        with pytest.raises(ValueError):
            fd_derivative(math.exp, 1.0, rel_step=0.0)

    @pytest.mark.parametrize("step", NON_FINITE)
    def test_rejects_non_finite_step(self, step):
        with pytest.raises(ValueError, match="rel_step"):
            fd_derivative(math.exp, 1.0, rel_step=step)

    @pytest.mark.parametrize("x", NON_FINITE)
    def test_rejects_non_finite_x(self, x):
        with pytest.raises(ValueError, match="x must be finite"):
            fd_derivative(math.exp, x, CBRT_EPS)
