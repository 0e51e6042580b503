"""Exact checks of the algebra in the README's "Sensitivity against arc
length": the plano pairings and the mixed pair under matched-sum feedback.

Each identity is checked in rational arithmetic. A polynomial of degree
at most n in each of its variables that vanishes on an (n + 1)-point grid
per variable is zero, so an identity between rational functions is
decided by evaluating both sides on such a grid (of points where no
denominator vanishes) with a bound n on the degree of their difference's
numerator. The trigonometric substitutions are checked exactly at
rational points through t = tan(theta/2), which makes
cos(theta) = (1 - t**2)/(1 + t**2) and dtheta/dt = 2/(1 + t**2) rational,
and derivatives through dual numbers or exact secants.
"""

import math
from fractions import Fraction as Q
from itertools import product

from curvedcomb.model import STANDARD_GRAVITY
from curvedcomb.transduction import _sensitivity


def grid(n_vars: int, degree: int, values=None):
    """(degree + 1)**n_vars points of distinct rationals in (0, 1)."""
    values = values or [Q(i + 1, degree + 2) for i in range(degree + 1)]
    return product(values, repeat=n_vars)


def same(f, g, n_vars: int, degree: int, values=None) -> bool:
    return all(f(*x) == g(*x) for x in grid(n_vars, degree, values))


# --- D*|S|/K from the two faces --------------------------------------------


def test_flat_and_curved_faces_give_n_and_f():
    # flat face C = |dC/dd| = 1, curved face C = a, |dC/dd| = b, either side
    for a, b in ((0.3, 0.2), (1.7, 3.1), (0.9, 0.85)):
        n, f = (1 + b) / (1 + a), 2 * (a + b) / (1 + a) ** 2
        for ev in ((1.0, -1.0, a, -b, 1 + a), (a, -b, 1.0, -1.0, 1 + a)):
            assert math.isclose(_sensitivity(ev, 1.0, False) / STANDARD_GRAVITY, n, rel_tol=1e-15)
            assert math.isclose(_sensitivity(ev, 1.0, True) / STANDARD_GRAVITY, f, rel_tol=1e-15)


def test_signs_of_n_and_f_along_a_move():
    # quotient rule: F' (1 + a)**3 / 2 = (a' + b')(1 + a) - 2a'(a + b)
    assert same(
        lambda a, b, da, db: (da + db) * (1 + a) - 2 * da * (a + b),
        lambda a, b, da, db: (1 + a) * db + (1 - a - 2 * b) * da, 4, 2,
    )
    # a' = sK, b' = 2s*ubar*K: N' and F' carry the signs of s(2ubar - N) and sM
    for s in (1, -1):
        assert same(
            lambda a, b, k, ub: ((1 + a) * 2 * s * ub * k - (1 + b) * s * k) / (1 + a),
            lambda a, b, k, ub: s * k * (2 * ub - (1 + b) / (1 + a)), 4, 2,
        )
        assert same(
            lambda a, b, k, ub: (1 + a) * 2 * s * ub * k + (1 - a - 2 * b) * s * k,
            lambda a, b, k, ub: s * k * (2 * (1 + a) * ub + 1 - a - 2 * b), 4, 2,
        )


# --- the nearer curved face ---------------------------------------------


def test_chebyshev_sum_identity():
    # sum_ij w_i w_j (f_i - f_j)(g_i - g_j) = 2(sum wfg sum w - sum wf sum wg)
    w = [Q(3), Q(1, 2), Q(7, 3), Q(5)]
    f, g = [Q(1), Q(2), Q(5, 2), Q(4)], [Q(1, 3), Q(1), Q(2), Q(9)]
    pairs = sum(w[i] * w[j] * (f[i] - f[j]) * (g[i] - g[j]) for i in range(4) for j in range(4))
    dot = lambda *xs: sum(math.prod(x[i] for x in xs) for i in range(4))
    assert pairs == 2 * (dot(w, f, g) * sum(w) - dot(w, f) * dot(w, g))
    assert pairs >= 0  # f and g similarly ordered


def test_nearer_face_rises():
    # N lies between 1 and b/a: b/a - N = (b - a)/(a(1 + a))
    assert same(lambda a, b: b / a - (1 + b) / (1 + a), lambda a, b: (b - a) / (a * (1 + a)), 2, 2)
    # M at ubar = b/a is 2b/a + 1 - a, and exceeds 1 + a by 2(b - a**2)/a
    assert same(
        lambda a, b: 2 * (1 + a) * b / a + 1 - a - 2 * b, lambda a, b: 2 * b / a + 1 - a, 2, 2,
    )
    assert same(lambda a, b: 2 * b / a + 1 - a - (1 + a), lambda a, b: 2 * (b - a * a) / a, 2, 2)


# --- the farther curved face: substitutions ------------------------------------


def _dtheta_dt(t):
    return 2 / (1 + t * t)


def _cos(t):
    return (1 - t * t) / (1 + t * t)


def _dcos_dt(t):
    return -4 * t / (1 + t * t) ** 2


def test_concave_face_plane_substitution():
    # u = 1/(1 + r(cos(theta) - k)), u0 = 1/(1 + r(1 - k)), v = (u - u0)/(1 - u0):
    # (dtheta/dv)**2 u**2 v (1 + gamma v) is the constant (1 - k)/(2(1 + r(1 - k)))
    def lhs(t, r, k):
        u = 1 / (1 + r * (_cos(t) - k))
        u0 = 1 / (1 + r * (1 - k))
        v = (u - u0) / (1 - u0)
        dv_dt = -r * _dcos_dt(t) * u * u / (1 - u0)
        gamma = (r * (1 + k) - 1) * (1 - k) / 2
        return (_dtheta_dt(t) / dv_dt) ** 2 * u * u * v * (1 + gamma * v)

    # points with cos(theta) > k, so that theta lies on the face
    ks = [Q(1, 9), Q(1, 7), Q(1, 5), Q(1, 4)]
    ts, rs = [Q(1, 3), Q(1, 2), Q(2, 3), Q(3, 4), Q(5, 6)], [Q(1, 3), Q(2), Q(7), Q(50)]
    for t, r in product(ts, rs):
        for k in ks:
            assert lhs(t, r, k) == (1 - k) / (2 * (1 + r * (1 - k)))
    # gamma > -1/2: gamma + (1 - k)/2 = r(1 + k)(1 - k)/2
    assert same(
        lambda r, k: (r * (1 + k) - 1) * (1 - k) / 2 + (1 - k) / 2,
        lambda r, k: r * (1 + k) * (1 - k) / 2, 2, 3,
    )
    # the log-derivative of v**(-1/2) (1 + gamma v)**(-1/2)
    assert same(
        lambda v, g: -1 / (2 * v) - g / (2 * (1 + g * v)),
        lambda v, g: -(1 + 2 * g * v) / (2 * v * (1 + g * v)), 2, 3,
    )


def test_convex_apex_substitution():
    # u = 1/(1 + r(1 - cos(theta))), rho = 1/(1 + 2r), v = (u - rho)/(1 - rho):
    # v = 1/(1 + (1 + 2r) t**2), and (dtheta/dv)**2 u**2 v (1 - v) = 1/(1 + 2r)
    def parts(t, r):
        u = 1 / (1 + r * (1 - _cos(t)))
        rho = 1 / (1 + 2 * r)
        v = (u - rho) / (1 - rho)
        dv_dt = r * _dcos_dt(t) * u * u / (1 - rho)
        return u, rho, v, (_dtheta_dt(t) / dv_dt) ** 2

    for t, r in product([Q(1, 5), Q(1, 2), Q(3, 4), Q(9, 10)], [Q(1, 4), Q(1), Q(3), Q(40)]):
        u, rho, v, dth2 = parts(t, r)
        assert v == 1 / (1 + (1 + 2 * r) * t * t)
        assert dth2 * u * u * v * (1 - v) == 1 / (1 + 2 * r)
        # the vary-R weight u(1 - u) dtheta, squared, over (1 - v)/v
        assert (u * (1 - u)) ** 2 * dth2 * v / (1 - v) == (1 - rho) ** 2 / (1 + 2 * r)


# --- the farther curved face, matched-sum -----------------------------------


def test_concave_face_plane_matched_sum_falls():
    # Z*M0 with a = l0/Z, b = (u0 l0 + (1 - u0) l1)/Z
    def zm0(z, l0, l1, u0):
        a, b = l0 / z, (u0 * l0 + (1 - u0) * l1) / z
        return z * (2 * (1 + a) * u0 + 1 - a - 2 * b)

    assert same(zm0, lambda z, l0, l1, u0: (1 + 2 * u0) * z - l0 - 2 * (1 - u0) * l1, 4, 2)
    # the Jensen bound, with u0 = 1 - p: (3 - 2p)/(1 - p + p mu) - 1 - 2p mu
    f = lambda p, mu: 2 - p - 3 * p * mu + 2 * p * p * mu * (1 - mu)
    assert same(
        lambda p, mu: (3 - 2 * p) / (1 - p + p * mu) - 1 - 2 * p * mu,
        lambda p, mu: f(p, mu) / (1 - p + p * mu), 2, 3,
    )
    assert same(lambda mu: f(1, mu), lambda mu: (1 - 2 * mu) * (1 + mu), 1, 2)
    # f'(p) = -1 - 3mu + 4p mu(1 - mu), at most -(1 - mu + 4mu**2) for p <= 1
    df = lambda p, mu: -1 - 3 * mu + 4 * p * mu * (1 - mu)
    h = Q(1, 10**6)
    assert same(
        lambda p, mu: (f(p + h, mu) - f(p, mu)) / h,
        lambda p, mu: df(p, mu) + 2 * h * mu * (1 - mu), 2, 3,
    )
    assert same(lambda mu: df(1, mu), lambda mu: -(1 - mu + 4 * mu * mu), 1, 2)


def test_convex_apex_growing_r_matched_sum_falls():
    # M - 2(2a ubar - b) = (1 - a)(1 + 2 ubar)
    assert same(
        lambda a, b, ub: 2 * (1 + a) * ub + 1 - a - 2 * b - 2 * (2 * a * ub - b),
        lambda a, b, ub: (1 - a) * (1 + 2 * ub), 3, 2,
    )
    # b/(2a) and ubar in the v of the arcsine law
    def gap(z, l0, l1, rho, m):
        a, b = l0 / z, (rho * l0 + (1 - rho) * l1) / z
        return rho + (1 - rho) * m - b / (2 * a)

    assert same(gap, lambda z, l0, l1, rho, m: rho / 2 + (1 - rho) * (m - l1 / l0 / 2), 5, 2)
    # with v = (1 - C)/2, C = cos(chi): 2<v(1-v)> - <v><1-v> = (c1**2 - (2c2 - 1))/4,
    # c1 = <C>, c2 = <C**2>, and v(1 - v) = (dv/dchi)**2 = sin(chi)**2/4
    assert same(
        lambda c1, c2: 2 * (1 - c2) / 4 - (1 - c1) / 2 * (1 + c1) / 2,
        lambda c1, c2: (c1 * c1 - (2 * c2 - 1)) / 4, 2, 2,
    )
    assert same(lambda c: (1 - c) / 2 * (1 + c) / 2, lambda c: (1 - c * c) / 4, 1, 2)
    # chi uniform on [chi_e, pi], length l, s = sin(chi_e), c = cos(chi_e):
    # <cos chi>**2 - <cos 2chi> = s**2/l**2 + s c/l = (s/l**2)(s + c l)
    assert same(
        lambda s, c, l: (s / l) ** 2 + s * c / l, lambda s, c, l: s / l**2 * (s + c * l), 3, 3,
    )
    # s + c l = sin(y) - y cos(y) with y = pi - chi_e, which grows from 0
    for y in (1e-3, 0.5, 1.0, 2.0, 3.0, math.pi):
        assert math.sin(y) - y * math.cos(y) > 0


def test_convex_apex_growing_phi():
    # G at b = a**2 factors
    g = lambda a, b, e: (1 + a) * (e * e - b) + (1 - a - 2 * b) * (e - a)
    assert same(lambda a, e: g(a, a * a, e), lambda a, e: (e - a) * (1 + a) * (1 - a + e), 2, 3)
    assert same(lambda a, b, e: g(a, b + 1, e) - g(a, b, e), lambda a, b, e: a - 1 - 2 * e, 3, 1)
    # nominal: (1 + u**2) - n(e)(1 + u) = (u - e)(u - (1 - e)/(1 + e)), n = (1 + u**2)/(1 + u)
    n = lambda u: (1 + u * u) / (1 + u)
    assert same(
        lambda u, e: 1 + u * u - n(e) * (1 + u),
        lambda u, e: (u - e) * (u - (1 - e) / (1 + e)), 2, 3,
    )
    # (1 - e)/(1 + e) <= e exactly when e >= sqrt(2) - 1
    assert same(lambda e: e - (1 - e) / (1 + e), lambda e: ((1 + e) ** 2 - 2) / (1 + e), 1, 3)
    # n'(u) = ((1 + u)**2 - 2)/(1 + u)**2, by the quotient rule
    assert same(
        lambda u: (2 * u * (1 + u) - (1 + u * u)) / (1 + u) ** 2,
        lambda u: ((1 + u) ** 2 - 2) / (1 + u) ** 2, 1, 3,
    )


def test_growing_r_nominal_weights():
    # t = w with u = 1/(1 + w): u w = 1 - u, so u**2 w = u(1 - u)
    assert same(lambda w: 1 / (1 + w) * w, lambda w: 1 - 1 / (1 + w), 1, 2)
    # ubar = m + (1 - m) u0 for u = u0 + (1 - u0) v averaged to m
    assert same(lambda u0, m: u0 + (1 - u0) * m, lambda u0, m: m + (1 - m) * u0, 2, 1)
    # the tilt (1 + g2 v)/(1 + g1 v) has derivative (g2 - g1)/(1 + g1 v)**2
    h = Q(1, 10**6)
    ratio = lambda v, g1, g2: (1 + g2 * v) / (1 + g1 * v)
    assert same(
        lambda v, g1, g2: (ratio(v + h, g1, g2) - ratio(v, g1, g2)) / h,
        lambda v, g1, g2: (g2 - g1) / ((1 + g1 * v) * (1 + g1 * (v + h))), 3, 2,
    )


# --- the mixed pair, matched-sum ----------------------------------------------


class Dual:
    """x + dx*eps with eps**2 = 0: exact first derivatives of rational code."""

    def __init__(self, x, dx=0):
        self.x, self.dx = x, dx

    def _lift(self, o):
        return o if isinstance(o, Dual) else Dual(o)

    def __add__(self, o):
        o = self._lift(o)
        return Dual(self.x + o.x, self.dx + o.dx)

    __radd__ = __add__

    def __sub__(self, o):
        o = self._lift(o)
        return Dual(self.x - o.x, self.dx - o.dx)

    def __rsub__(self, o):
        return self._lift(o) - self

    def __mul__(self, o):
        o = self._lift(o)
        return Dual(self.x * o.x, self.dx * o.x + self.x * o.dx)

    __rmul__ = __mul__

    def __truediv__(self, o):
        o = self._lift(o)
        return Dual(self.x / o.x, (self.dx * o.x - self.x * o.dx) / (o.x * o.x))

    def __rtruediv__(self, o):
        return self._lift(o) / self


def _mixed_f(ws, ps):
    """D|S|/K of the mixed pair under matched-sum feedback, 2(a1 b2 + a2 b1)/(a1 + a2)**2,
    for gaps D(1 -+ w) with the law sum p_i delta(w_i)."""
    a1 = sum(p / (1 - w) for w, p in zip(ws, ps))
    a2 = sum(p / (1 + w) for w, p in zip(ws, ps))
    b1 = sum(p / (1 - w) / (1 - w) for w, p in zip(ws, ps))
    b2 = sum(p / (1 + w) / (1 + w) for w, p in zip(ws, ps))
    return 2 * (a1 * b2 + a2 * b1) / ((a1 + a2) * (a1 + a2))


_LAWS = [
    ([Q(1, 5), Q(1, 2), Q(7, 8)], [Q(1, 3), Q(1, 2), Q(1, 6)]),
    ([Q(0), Q(3, 10), Q(9, 10), Q(19, 20)], [Q(1, 10), Q(2, 5), Q(3, 10), Q(1, 5)]),
    ([Q(1, 100), Q(1, 50)], [Q(99, 100), Q(1, 100)]),
]


def _kernel_expectation(ws, ps, ts):
    """E[k(1, 2; 3)] over three independent draws from the zeta-weighted law."""
    zeta = [1 / (1 - w * w) for w in ws]
    total = sum(p * z for p, z in zip(ps, zeta))
    pi = [p * z / total for p, z in zip(ps, zeta)]
    b = [w * z for w, z in zip(ws, zeta)]
    s = [bi * t for bi, t in zip(b, ts)]
    n, e = len(ws), 0
    for i, j, k in product(range(n), repeat=3):
        alpha = (ws[i] - ws[j]) * (b[i] - b[j])
        beta = (ws[i] - ws[j]) * (s[i] - s[j])
        kernel = (
            (b[i] - b[j]) * (ts[i] - ts[j]) / 2
            + (ws[i] - ws[j]) * (zeta[i] * ts[i] - zeta[j] * ts[j]) / 2
            + beta * (b[i] + b[j]) / 2 + alpha * (Q(3, 2) * (s[i] + s[j]) - 2 * s[k])
        )
        e += pi[i] * pi[j] * pi[k] * kernel
    return e


def test_mixed_pair_slope_is_the_three_draw_kernel():
    for ws, ps in _LAWS:
        assert _mixed_f(ws, ps) == 1 + 2 * _zeta_cov(ws, ps)
        for ts in ([Q(1)] * len(ws), [Q(i, 3) for i in range(len(ws))], ws):
            # F'/2 along dw = t(w), exactly, against E[k]
            moved = [Dual(w, t) for w, t in zip(ws, ts)]
            assert _mixed_f(moved, ps).dx / 2 == _kernel_expectation(ws, ps, ts)


def _zeta_cov(ws, ps):
    zeta = [1 / (1 - w * w) for w in ws]
    total = sum(p * z for p, z in zip(ps, zeta))
    mean = lambda f: sum(p * z * f(w, z) for w, p, z in zip(ws, ps, zeta)) / total
    return mean(lambda w, z: w * w * z) - mean(lambda w, z: w) * mean(lambda w, z: w * z)


def test_mixed_pair_kernel_identities():
    # B' = zeta + 2B**2 for B = w zeta, zeta = 1/(1 - w**2)
    b = lambda w: w / (1 - w * w)
    assert same(lambda w: b(Dual(w, 1)).dx, lambda w: 1 / (1 - w * w) + 2 * b(w) * b(w), 1, 5)
    # (w1 - w2)(B1 s1 - B2 s2) = alpha12 (s1 + s2)/2 + beta12 (B1 + B2)/2
    assert same(
        lambda w1, w2, b1, b2, s1, s2: (w1 - w2) * (b1 * s1 - b2 * s2),
        lambda w1, w2, b1, b2, s1, s2: (
            (w1 - w2) * (b1 - b2) * (s1 + s2) / 2 + (w1 - w2) * (s1 - s2) * (b1 + b2) / 2
        ), 6, 2,
    )
    # kappa3(X, Y, Z) = E[(X1 - X2)(Y1 - Y2)(Z1 + Z2 - 2Z3)]/2 over independent draws
    xs, ys, zs = [Q(1), Q(3), Q(-2)], [Q(2), Q(1, 2), Q(5)], [Q(7), Q(0), Q(1, 3)]
    ps = [Q(1, 2), Q(1, 3), Q(1, 6)]
    mean = lambda f: sum(p * f(i) for i, p in enumerate(ps))
    mx, my, mz = mean(lambda i: xs[i]), mean(lambda i: ys[i]), mean(lambda i: zs[i])
    kappa = mean(lambda i: (xs[i] - mx) * (ys[i] - my) * (zs[i] - mz))
    draws = sum(
        ps[i] * ps[j] * ps[k] * (xs[i] - xs[j]) * (ys[i] - ys[j]) * (zs[i] + zs[j] - 2 * zs[k])
        for i, j, k in product(range(3), repeat=3)
    )
    assert kappa == draws / 2


def test_mixed_pair_generators():
    # the alpha and beta terms, summed over the three choices of the third draw,
    # for ordered w1 <= w2 <= w3 and t at each generator of the cone
    def ab_terms(w, b, t):
        s = [bi * ti for bi, ti in zip(b, t)]
        total = 0
        for i, j, k in ((0, 1, 2), (0, 2, 1), (1, 2, 0)):
            alpha = (w[i] - w[j]) * (b[i] - b[j])
            beta = (w[i] - w[j]) * (s[i] - s[j])
            total += beta * (b[i] + b[j]) / 2 + alpha * (Q(3, 2) * (s[i] + s[j]) - 2 * s[k])
        return total

    def check(generator, closed_form):
        assert same(
            lambda w1, w2, w3, b1, b2, b3: ab_terms((w1, w2, w3), (b1, b2, b3), generator),
            closed_form, 6, 2,
        )

    def a(wi, wj, bi, bj):
        return (wi - wj) * (bi - bj)

    def x(w1, w2, w3, b1, b2, b3):
        return (w3 - w2) * (b2 - b1) + (w2 - w1) * (b3 - b2)

    assert same(
        lambda w1, w2, w3, b1, b2, b3: a(w3, w1, b3, b1),
        lambda w1, w2, w3, b1, b2, b3: (
            a(w2, w1, b2, b1) + a(w3, w2, b3, b2) + x(w1, w2, w3, b1, b2, b3)
        ),
        6, 2,
    )
    check((1, 1, 1), lambda w1, w2, w3, b1, b2, b3: 2 * (
        2 * a(w2, w1, b2, b1) * b1 + 2 * a(w3, w2, b3, b2) * b3
        + x(w1, w2, w3, b1, b2, b3) * (b1 + b3 - b2)
    ))
    check((0, 1, 1), lambda w1, w2, w3, b1, b2, b3: (
        (w2 - w1) * (2 * (b3 - b2) ** 2 + b1 * (b2 + b3))
        + (w3 - w2) * ((b3 - b2) * (2 * b3 - b1) + b1 * b2) + 2 * a(w3, w2, b3, b2) * (b2 + b3)
    ))
    check((0, 0, 1), lambda w1, w2, w3, b1, b2, b3: b3 * (
        (w3 - w1) * (2 * (b3 - b2) + b1) + 2 * (w3 - w2) * (b2 - b1)
        + Q(3, 2) * a(w3, w2, b3, b2) + (w3 - w2) * (b2 + b3) / 2
    ))


# --- PlanoConcave on the face plane, phi growing, nominal: the (z, s) reduction ---

# rational (tan(A/2), tan(B/2)) with A >= B: s = A + B and theta = A - B
_HALF_ANGLES = [(Q(1, 2), Q(1, 3)), (Q(2, 3), Q(1, 7)), (Q(1, 5), Q(1, 5)), (Q(3, 4), Q(1, 9))]


def _sin(t):
    return 2 * t / (1 + t * t)


def test_reduction_q_and_k():
    for ta, tb in _HALF_ANGLES:
        sa, ca, sb, cb = _sin(ta), _cos(ta), _sin(tb), _cos(tb)
        cos_s, cos_theta = ca * cb - sa * sb, ca * cb + sa * sb
        sin_s, sin_theta = sa * cb + ca * sb, sa * cb - ca * sb
        # q = sin(A) sin(B)/sin(s/2)**2 = (cos(theta) - cos(s))/(1 - cos(s)) <= 1
        q = (cos_theta - cos_s) / (1 - cos_s)
        assert sa * sb / ((1 - cos_s) / 2) == q and 0 <= q <= 1
        # k = sin(s) - tau sin(theta) = 2 cos(A) sin(B) + (1 - tau) sin(theta)
        for tau in (Q(0), Q(1, 3), Q(1)):
            assert sin_s - tau * sin_theta == 2 * ca * sb + (1 - tau) * sin_theta
        # r(cos(theta) - cos(s)) = z q with z = r(1 - cos(s))
        for r in (Q(1, 2), Q(3), Q(10**9)):
            assert r * (cos_theta - cos_s) == r * (1 - cos_s) * q


def test_reduction_path_and_lemma_t():
    for t, big_t, r in product([Q(1, 5), Q(1, 2), Q(4, 5)], [Q(1, 3), Q(9, 10)], [Q(2), Q(50)]):
        # dz/ds = r sin(s) = z cot(s/2), with T = tan(s/2)
        assert r * _sin(big_t) == r * (1 - _cos(big_t)) / big_t
        # u = 1/(1 + r(cos(theta) - cos(s))): du/dtheta = r sin(theta) u**2 and
        # du/ds = -r sin(s) u**2, through dtheta/dt = 2/(1 + t**2)
        u = lambda t, big_t: 1 / (1 + r * (_cos(t) - _cos(big_t)))
        u0 = u(t, big_t)
        assert u(Dual(t, 1), big_t).dx / _dtheta_dt(t) == r * _sin(t) * u0 * u0
        assert u(t, Dual(big_t, 1)).dx / _dtheta_dt(big_t) == -r * _sin(big_t) * u0 * u0
    # so at fixed tau, d u(s tau, s)/ds = tau du/dtheta + du/ds = -r k u**2 with
    # k = sin(s) - tau sin(s tau): a' = -r<k u**2>, b' = -2r<k u**3>, and
    # N' = (b'(1 + a) - (1 + b)a')/(1 + a)**2 = r<k u**2>/(1 + a) (N - 2<k u**3>/<k u**2>)
    assert same(
        lambda a, b, p, q, r: (-2 * r * q * (1 + a) + (1 + b) * r * p) / (1 + a) ** 2,
        lambda a, b, p, q, r: r * p / (1 + a) * ((1 + b) / (1 + a) - 2 * q / p), 5, 2,
    )


def test_reduction_z_at_most_one():
    # N < 1 and 2 ubar >= 2/(1 + z) leave F < 1 - 2/(1 + z) = (z - 1)/(z + 1)
    assert same(lambda z: 1 - 2 / (1 + z), lambda z: (z - 1) / (z + 1), 1, 2)


def _plano_concave_f(zq, ps, ws):
    """F = N - 2Q/P for the law sum p_i delta at (zq_i, w_i), u = 1/(1 + zq)."""
    us = [1 / (1 + x) for x in zq]
    mean = lambda f: sum(p * f(u, w) for u, w, p in zip(us, ws, ps))
    n = (1 + mean(lambda u, w: u * u)) / (1 + mean(lambda u, w: u))
    return n - 2 * mean(lambda u, w: w * u * u * u) / mean(lambda u, w: w * u * u)


def test_reduction_g_centred():
    # G = (z d/dz + tan(s/2) d/ds)F moves zq by zq(1 + eps) and w by w eta, and
    # equals -<v(1 + eps)(2u - N)>/(1 + a) + 2<w u**2 (1 - u)(1 + eps)(3u - 2ubar)>/P
    # - 2<w eta u**2 (u - ubar)>/P with v = u(1 - u)
    ps = [Q(1, 4), Q(1, 2), Q(1, 4)]
    for zq, ws, eps, eta in (
        ([Q(1, 3), Q(2), Q(7)], [Q(1), Q(1, 2), Q(1, 5)], [Q(-1, 9), Q(-1, 5), Q(0)], [Q(-1, 3), Q(0), Q(-1, 7)]),
        ([Q(0), Q(1, 2), Q(40)], [Q(1, 10), Q(3, 2), Q(2)], [Q(0), Q(-1, 2), Q(-1, 3)], [Q(-2), Q(-1, 9), Q(0)]),
    ):
        moved = _plano_concave_f(
            [Dual(x, x * (1 + e)) for x, e in zip(zq, eps)], ps,
            [Dual(w, w * h) for w, h in zip(ws, eta)],
        )
        us = [1 / (1 + x) for x in zq]
        mean = lambda f: sum(p * f(u, w, e, h) for u, w, e, h, p in zip(us, ws, eps, eta, ps))
        a, p_ = mean(lambda u, w, e, h: u), mean(lambda u, w, e, h: w * u * u)
        n = (1 + mean(lambda u, w, e, h: u * u)) / (1 + a)
        ubar = mean(lambda u, w, e, h: w * u**3) / p_
        g = (
            -mean(lambda u, w, e, h: u * (1 - u) * (1 + e) * (2 * u - n)) / (1 + a)
            + 2 * mean(lambda u, w, e, h: w * u * u * (1 - u) * (1 + e) * (3 * u - 2 * ubar)) / p_
            - 2 * mean(lambda u, w, e, h: w * h * u * u * (u - ubar)) / p_
        )
        assert moved.x == n - 2 * ubar and moved.dx == g
