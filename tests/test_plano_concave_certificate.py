"""A computer-assisted proof that PlanoConcave's |S| has no interior maximum
on the face plane with phi growing at fixed R, under nominal feedback
(README, "Sensitivity against arc length": the (z, s) lemma).

With s = phi/2, r = R/g, tau = theta/s and x = 1 - tau, the curved face has
u = g/L = 1/(1 + z*q(x, s)) with z = r(1 - cos s) and
q = sin(s(1 + tau)/2) sin(s(1 - tau)/2)/sin(s/2)**2, and Lemma F's weight is
k = sin s - tau sin(s tau) = s*w(x, s). Over x in [0, 1] put a = <u>, b = <u**2>,
P = <w u**2> and Q = <w u**3>. Then D|S|/K is N = (1 + b)/(1 + a), and
dN/ds = r<k u**2>/(1 + a) * F with F = N - 2Q/P: r is gone from F. A cell
with fixed R and g moves along z = r(1 - cos s), on which dz/ds =
z cot(s/2). So dF/ds along it is cot(s/2)*G with G = (z d/dz + tan(s/2) d/ds)F.
If G > 0 wherever F = 0, every path crosses F = 0 at most once, upward, and
N falls, then may rise.

- z <= 1: q <= 1 gives u >= 1/(1 + z), so 2Q/P >= 2/(1 + z) while N < 1,
  and F < (z - 1)/(z + 1) <= 0.
- 1 <= z <= Z_MAX = 2**30 (the envelope has r <= 1e9, and z <= r) and
  0 <= s <= S_MAX: _cover splits this region into boxes and proves on each
  box that F < 0, F > 0 or G > 0.

Every enclosure is in the interval arithmetic of tests/_enclose.py, with
c = (sinc y - cos y)/y**2 from its series too. sinc, cos and c fall on
[0, pi/2] and sin rises, so an enclosure over an interval of arguments
reads the enclosures at its ends.

The integrals over x run over a mesh whose steps are powers of two, graded
toward the edge x = 0, so every cell's midpoint m is exact. On a cell of
width h, the mean value theorem gives int f = h f(m) + e with
|e| <= (d_hi - d_lo) h**2/8, where [d_lo, d_hi] encloses f' on the cell
(f' - d_mid integrates against x - m, whose integral is 0); h times f's
range on the cell bounds it too. The monotonicity that turns a box of
(z, s) into the ends of an interval (README):

- q rises in x and falls in s, and w = k/s rises in x and falls in s;
- eps = tan(s/2) d(ln q)/ds is <= 0 and falls in s and in tau;
- u falls in z.

G's integrals are enclosed cell by cell from the ranges of their integrands
(h times the range). Run this file to print the cover's size and time.
"""

import math
import random
import sys
import time
from fractions import Fraction as Fr
from functools import lru_cache
from itertools import product

import pytest

from curvedcomb import (
    ArcProfile, DriveModel, FeedbackMode, GapState, MechanicalModel, SweepPlan, Variant,
)
from curvedcomb.model import STANDARD_GRAVITY
from curvedcomb.sweep import _sensitivity_at_arc, _solve_of
from _enclose import (
    _INF, _add, _alternating, _cos, _div, _dn, _falling, _mul, _one_minus, _pmul, _pt,
    _scale, _sin, _sinc, _sinh, _sub, _times, _up,
)

# the float below pi/2, above every s = phi/2 of the envelope (phi < pi)
S_MAX = math.pi / 2
Z_MAX = 2.0**30  # above r's envelope bound of 1e9


@lru_cache(maxsize=None)
def _c(y: float) -> tuple:
    """(sinc y - cos y)/y**2 = sum_k (-1)**k 2(k + 1) y**(2k)/(2k + 3)!"""
    return _alternating(y, (_dn(1 / 3), _up(1 / 3)), lambda k: (2 * k + 2) * (2 * k + 5))


def _cos_over(a: tuple) -> tuple:
    # every argument is at most s <= pi/2, where cos >= 0
    return max(0.0, _cos(a[1])[0]), _cos(a[0])[1]


def _sin_over(a: tuple) -> tuple:
    # sin rises up to pi/2, where it reaches 1
    return _sin(a[0])[0], 1.0 if a[1] >= S_MAX else _sin(a[1])[1]


# --- the face's functions ---------------------------------------------------------


@lru_cache(maxsize=None)
def _qw(x: float, s: float) -> tuple:
    """q and w at (x, s): q = x(2 - x) sinc(s(2 - x)/2) sinc(sx/2)/sinc(s/2)**2,
    w = x(cos(s(2 - x)/2) sinc(sx/2) + (1 - x) sinc(s(1 - x)))."""
    two, one = (_dn(2.0 - x), _up(2.0 - x)), _one_minus(_pt(x))
    sinc2 = _falling(_sinc, _scale(0.5 * s, _pt(x)))
    arg1 = _scale(0.5, _scale(s, two))
    half = _sinc(0.5 * s)
    q = _div(_pmul(_pmul(_scale(x, two), _falling(_sinc, arg1)), sinc2), _pmul(half, half))
    k = _add(_mul(_cos_over(arg1), sinc2), _pmul(one, _falling(_sinc, _scale(s, one))))
    return q, _scale(x, k)


def _ycoty(a: tuple) -> tuple:
    """y cot y = cos y/sinc y over a, where it falls."""
    return _div(_cos(a[1]), _sinc(a[1]))[0], _div(_cos(a[0]), _sinc(a[0]))[1]


@lru_cache(maxsize=None)
def _eps(tau: float, s: float) -> tuple:
    """tan(s/2) d(ln q)/ds = tan(s/2)(Y(s(1 + tau)/2) + Y(s(1 - tau)/2) - 2Y(s/2))/s
    with Y(y) = y cot y."""
    if s == 0.0 or tau == 0.0:
        return 0.0, 0.0
    plus = _ycoty(_scale(0.5 * s, (_dn(1.0 + tau), _up(1.0 + tau))))
    minus = _ycoty(_scale(0.5 * s, _one_minus(_pt(tau))))
    d = _sub(_add(plus, minus), _scale(2.0, _ycoty(_pt(0.5 * s))))
    tan = _div(_sin(0.5 * s), _cos(0.5 * s))
    return _div(_mul(tan, d), _pt(s))


@lru_cache(maxsize=None)
def _cell(xa: float, xb: float, sa: float, sb: float) -> tuple:
    """What a z box needs of the cell [xa, xb] over s in [sa, sb]: q and w at
    its midpoint and over it, and q' = 2 tau sinc(s tau)/sinc(s/2)**2 and
    w' = tau(sinc(s tau) + cos(s tau)) over it."""
    xm = 0.5 * (xa + xb)
    (qa, wa), (qb, wb) = _qw(xm, sa), _qw(xm, sb)
    (qa0, wa0), (qb1, wb1) = _qw(xa, sb), _qw(xb, sa)
    tau = _one_minus((xa, xb))
    st = _pmul((sa, sb), tau)
    half = _sinc(0.5 * sb)[0], _sinc(0.5 * sa)[1]
    sinc_st = _falling(_sinc, st)
    dq = _div(_scale(2.0, _pmul(tau, sinc_st)), _pmul(half, half))
    dw = _pmul(tau, _add(sinc_st, _cos_over(st)))
    return (qb[0], qa[1]), (wb[0], wa[1]), (qa0[0], qb1[1]), (wa0[0], wb1[1]), dq, dw


@lru_cache(maxsize=None)
def _cell_g(xa: float, xb: float, sa: float, sb: float) -> tuple:
    """1 + eps over the cell, and eta = tan(s/2) d(ln w)/ds there, from
    dK/ds = -((2 - x)/2) sin(A) sinc(B) - cos(A) s x**2/4 c(B) - (1 - x)**3 s c(C)
    for w = xK, A = s(2 - x)/2, B = sx/2 and C = s(1 - x)."""
    eps = _eps(1.0 - xa, sb)[0], _eps(1.0 - xb, sa)[1]
    big_s, xs = (sa, sb), (xa, xb)
    two, one = (_dn(2.0 - xb), _up(2.0 - xa)), _one_minus(xs)
    a, b, c = _scale(0.5, _pmul(big_s, two)), _scale(0.5, _pmul(big_s, xs)), _pmul(big_s, one)
    cos_a, sinc_b, sinc_c = _cos_over(a), _falling(_sinc, b), _falling(_sinc, c)
    t1 = _pmul(_pmul(_scale(0.5, two), _sin_over(a)), sinc_b)
    t2 = _mul(cos_a, _pmul(_pmul(big_s, _scale(0.25, _pmul(xs, xs))), _falling(_c, b)))
    t3 = _pmul(_pmul(_pmul(_pmul(one, one), one), big_s), _falling(_c, c))
    dk = _sub((0.0, 0.0), _add(_add(t1, t2), t3))
    k = _add(_mul(cos_a, sinc_b), _pmul(one, sinc_c))
    tan = _div(_sin_over(_scale(0.5, big_s)), _cos_over(_scale(0.5, big_s)))
    return _add((1.0, 1.0), eps), _mul(tan, _div(dk, k))


# --- the mesh and the enclosures of F and G ---------------------------------------------


def _mesh_nodes(cap: int = 5, grade: int = 2, floor: float = 2.0**-40) -> list:
    """Nodes from 1 down to floor, each step the largest power of two that is
    at most 2**-cap and at most 2**-grade of the node it leaves. Steps never
    grow, so every node is a multiple of its step and midpoints are exact."""
    xs = [1.0]
    while xs[-1] > floor:
        x = xs[-1]
        xs.append(x - 2.0 ** min(-cap, math.frexp(x)[1] - 1 - grade))
    return xs


_NODES = _mesh_nodes()


def _cells(z1: float) -> list:
    """The cells for z up to z1: the nodes down to the first below 1/(16 z1),
    and the cell from that node to 0."""
    xs = [x for x in _NODES if x * z1 * 16.0 >= 1.0]
    xs.append(_NODES[len(xs)])
    return list(zip([0.0] + xs[:0:-1], xs[::-1]))


def enclose(z0: float, z1: float, sa: float, sb: float, with_g: bool = True) -> tuple:
    """Enclosures of N, F and (with_g) G over z in [z0, z1], s in [sa, sb]."""
    sums = [[0.0, 0.0] for _ in range(4)]  # a, b, P, Q
    ranges = []
    for xa, xb in _cells(z1):
        qm, wm, qc, wc, dq, dw = _cell(xa, xb, sa, sb)
        h = xb - xa
        e8 = _up(h * h) / 8
        um = _dn(1.0 / _up(1.0 + _up(z1 * qm[1]))), _up(1.0 / _dn(1.0 + _dn(z0 * qm[0])))
        uc = _dn(1.0 / _up(1.0 + _up(z1 * qc[1]))), _up(1.0 / _dn(1.0 + _dn(z0 * qc[0])))
        um2, uc2 = _pmul(um, um), _pmul(uc, uc)
        du = _sub((0.0, 0.0), _pmul(_pmul((z0, z1), dq), uc2))  # u' <= 0
        uc3 = _pmul(uc2, uc)
        mids = um, um2, _pmul(wm, um2), _pmul(wm, _pmul(um2, um))
        spans = uc, uc2, _pmul(wc, uc2), _pmul(wc, uc3)
        slopes = (
            du,
            _times(2.0, _mul(uc, du)),
            _add(_pmul(dw, uc2), _times(2.0, _mul(_pmul(wc, uc), du))),
            _add(_pmul(dw, uc3), _times(3.0, _mul(_pmul(wc, uc2), du))),
        )
        # the better of h f(m) +- err and h times f's range on the cell
        for acc, f, r, d in zip(sums, mids, spans, slopes):
            err = _up(e8 * _up(d[1] - d[0]))
            lo = max(_dn(_dn(h * f[0]) - err), _dn(h * r[0]))
            hi = min(_up(_up(h * f[1]) + err), _up(h * r[1]))
            acc[0], acc[1] = _dn(acc[0] + lo), _up(acc[1] + hi)
        ranges.append((xa, xb, h, uc, wc))
    a, b, p, q = (tuple(acc) for acc in sums)
    if p[0] <= 0.0:  # too wide a box to bound ubar
        return None, (-_INF, _INF), (-_INF, _INF)
    one_a = _add((1.0, 1.0), a)
    n = _div(_add((1.0, 1.0), b), one_a)
    ubar = _div(q, p)
    f = _sub(n, _scale(2.0, ubar))
    if not with_g:
        return n, f, None
    # G = -<v(1 + eps)(2u - N)>/(1 + a) + 2<w u**2 (1 - u)(1 + eps)(3u - 2ubar)>/P
    #     - 2<w eta u**2 (u - ubar)>/P, with v = u(1 - u)
    g1 = g2 = g3 = (0.0, 0.0)
    for xa, xb, h, uc, wc in ranges:
        ope, eta = _cell_g(xa, xb, sa, sb)
        omu, u2 = _one_minus(uc), _pmul(uc, uc)
        hv = _pmul(_pt(h), _pmul(uc, omu))
        g1 = _add(g1, _mul(_pmul(hv, ope), _sub(_scale(2.0, uc), n)))
        hwu2 = _pmul(_pt(h), _pmul(wc, u2))
        g2 = _add(g2, _mul(_pmul(hwu2, _pmul(omu, ope)), _sub(_scale(3.0, uc), _scale(2.0, ubar))))
        g3 = _add(g3, _mul(hwu2, _mul(eta, _sub(uc, ubar))))
    g = _sub(_times(2.0, _div(_sub(g2, g3), p)), _div(g1, one_a))
    return n, f, g


def _cover(grade_ratio: float = 4.0) -> dict:
    """Certify every box of [1, Z_MAX] x [0, S_MAX], splitting a box that no
    test certifies: in s while its s width exceeds grade_ratio times its
    ln z width, else in z at the geometric mean. Returns the leaves' counts."""
    todo = [(2.0**j, 2.0 ** (j + 1), 0.0, S_MAX) for j in range(int(math.log2(Z_MAX)))]
    counts = {"F < 0": 0, "F > 0": 0, "G > 0": 0}
    while todo:
        z0, z1, sa, sb = box = todo.pop()
        _, f, _ = enclose(*box, with_g=False)
        if f[1] < 0.0 or f[0] > 0.0:
            counts["F < 0" if f[1] < 0.0 else "F > 0"] += 1
            continue
        if enclose(*box)[2][0] > 0.0:
            counts["G > 0"] += 1
            continue
        if z1 / z0 <= 1.0001:
            raise AssertionError(f"no test certifies {box}")
        if sb - sa > grade_ratio * math.log(z1 / z0):
            sm = 0.5 * (sa + sb)
            todo += [(z0, z1, sa, sm), (z0, z1, sm, sb)]
        else:
            zm = math.sqrt(z0 * z1)
            todo += [(z0, zm, sa, sb), (zm, z1, sa, sb)]
    return counts


# --- checks of the enclosures ----------------------------------------------------------


def test_cover_proves_the_open_case():
    counts = _cover()
    assert all(counts.values()), counts  # each test certifies some boxes


def test_mesh_steps_are_powers_of_two_with_exact_midpoints():
    for z1 in (1.0, 3.0, 2.0**15, Z_MAX):
        cells = _cells(z1)
        assert cells[0][0] == 0.0 and cells[-1][1] == 1.0 and cells[0][1] * z1 * 16 < 1.0
        for (xa, xb), (xc, _) in zip(cells, cells[1:] + [(1.0, None)]):
            assert xb == xc
            h = Fr(xb) - Fr(xa)
            assert Fr(0.5 * (xa + xb)) == (Fr(xa) + Fr(xb)) / 2 and h > 0
            if xa > 0.0:
                assert h.numerator == 1 and h.denominator & (h.denominator - 1) == 0


def test_elementary_enclosures_hold_at_50_digits():
    mp = pytest.importorskip("mpmath").mp
    mp.dps = 50
    for i in range(41):
        y = S_MAX * i / 40
        exact = {
            _sinc: mp.sin(y) / y if y else mp.mpf(1),
            _cos: mp.cos(y),
            _c: (mp.sin(y) / y - mp.cos(y)) / y**2 if y else mp.mpf(1) / 3,
            _sin: mp.sin(y),
            _sinh: mp.sinh(y),
        }
        for f, value in exact.items():
            lo, hi = f(y)
            assert lo <= value <= hi and hi - lo < 1e-14, (f.__name__, y)


def test_operations_hold_the_exact_results_at_their_ends():
    # each operation's interval holds the exact result at every pair of its
    # operands' ends, so none rounds inward; signs mix but where an operand
    # must be >= 0 or a divisor > 0
    rng = random.Random(20261022)

    def draw(low: float) -> tuple:
        return tuple(sorted(rng.uniform(low, 1.0) * 2.0 ** rng.randint(-30, 30) for _ in "ab"))

    for _ in range(200):
        a, b, p, q = draw(-1.0), draw(-1.0), draw(0.0), draw(0.0)
        c = p[1]
        for result, x, y, exact in [
            (_add(a, b), a, b, lambda u, v: u + v),
            (_sub(a, b), a, b, lambda u, v: u - v),
            (_mul(a, b), a, b, lambda u, v: u * v),
            (_pmul(p, q), p, q, lambda u, v: u * v),
            (_div(a, q), a, q, lambda u, v: u / v),
            (_scale(c, p), (c,), p, lambda u, v: u * v),
            (_times(c, a), (c,), a, lambda u, v: u * v),
        ]:
            for u, v in product(x, y):
                assert result[0] <= exact(Fr(u), Fr(v)) <= result[1], (x, y, result)
    for divisor in [(0.0, 1.0), (-1.0, 1.0), (-2.0, -1.0)]:
        with pytest.raises(ZeroDivisionError):
            _div((1.0, 2.0), divisor)


def test_monotone_in_s_and_tau():
    # q and w fall in s, eps falls in s and tau: enclosures at separate points
    # keep their order
    ss, taus = [0.0, 0.3, 0.9, 1.4, S_MAX], [0.0, 0.25, 0.5, 0.999, 1.0]
    for x in (2.0**-30, 0.125, 0.5, 0.875, 1.0):
        for s0, s1 in zip(ss, ss[1:]):
            for i in (0, 1):
                assert _qw(x, s1)[i][0] <= _qw(x, s0)[i][1]
    for (t0, t1), (s0, s1) in product(zip(taus, taus[1:]), zip(ss, ss[1:])):
        assert _eps(t1, s1)[0] <= min(_eps(t0, s1)[1], _eps(t1, s0)[1]) and _eps(t0, s0)[1] <= 0.0


def _float_f(z: float, s: float, n: int = 2000) -> float:
    """F by composite Simpson in tau, in plain floats."""
    k = [0.0] * 4
    for i in range(n + 1):
        tau = i / n
        weight = (1 if i in (0, n) else 4 if i % 2 else 2) / (3 * n)
        q = (math.cos(s * tau) - math.cos(s)) / (1 - math.cos(s))
        u, w = 1 / (1 + z * q), math.sin(s) - tau * math.sin(s * tau)
        for j, v in enumerate((u, u * u, w * u * u, w * u**3)):
            k[j] += weight * v
    return (1 + k[1]) / (1 + k[0]) - 2 * k[3] / k[2]


@pytest.mark.parametrize("z", [1.0, 2.27, 3.0, 40.0])
@pytest.mark.parametrize("s", [0.2, 0.9, 1.5])
def test_enclosures_hold_an_independent_quadrature(z, s):
    # F, and G as tan(s/2) times F's derivative along the path of r = z/(1 - cos s)
    n, f, g = enclose(z, z, s, s)
    assert f[0] <= _float_f(z, s) <= f[1]
    h, r = 1e-4, z / (1 - math.cos(s))
    path = [_float_f(r * (1 - math.cos(t)), t) for t in (s - h, s + h)]
    slope = math.tan(s / 2) * (path[1] - path[0]) / (2 * h)
    assert g[0] <= slope <= g[1] and g[1] - g[0] < 0.6


@pytest.mark.parametrize("r_um, gap_um", [(5.0, 2.0), (20.0, 2.0), (100.0, 2.0), (1e4, 1.0)])
def test_enclosures_hold_the_library(r_um, gap_um):
    # N = D|S|/K from maximize_sensitivity's own evaluation, and F's sign
    # against S's slope in phi
    plan = SweepPlan(
        (Variant.PLANO_CONCAVE,), ArcProfile(r_um * 1e-6, 0.2, 2e-6), GapState(gap_um * 1e-6),
        MechanicalModel(2.6e-10, 1.0, 21), DriveModel(1.0, FeedbackMode.NOMINAL),
    )
    solve = _solve_of(plan, Variant.PLANO_CONCAVE)
    unit = 2.6e-10 * STANDARD_GRAVITY / (gap_um * 1e-6)  # K/D
    r = r_um / gap_um
    for phi in (0.05, 0.3, 0.8, 1.4, 2.0, 2.6, 3.1):
        arc = r_um * 1e-6 * phi
        s, z = phi / 2, r * (1 - math.cos(phi / 2))
        n, f, _ = enclose(z, z, s, s, with_g=False)
        assert n[0] <= abs(_sensitivity_at_arc(solve, arc)) / unit <= n[1]
        if f[0] > 0.0 or f[1] < 0.0:
            ds = abs(_sensitivity_at_arc(solve, arc * (1 + 1e-6))) - abs(
                _sensitivity_at_arc(solve, arc * (1 - 1e-6))
            )
            assert (ds > 0.0) == (f[0] > 0.0), (phi, f, ds)


if __name__ == "__main__":
    start = time.perf_counter()
    print(_cover(), f"{time.perf_counter() - start:.2f} s", file=sys.stderr)
