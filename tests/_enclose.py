"""Float intervals (lo, hi) for the tests' proofs (W. Tucker, *Validated
Numerics*, 2011): each operation moves its result one ulp outward with
math.nextafter, so the exact value lies inside. sin, cos, sinc = sin(y)/y and
sinh come from their Taylor series, with a tail bound from the first omitted
term."""

import math
from functools import lru_cache

_NX, _INF = math.nextafter, math.inf


def _dn(v: float) -> float:
    return _NX(v, -_INF)


def _up(v: float) -> float:
    return _NX(v, _INF)


def _alternating(y: float, t0: tuple, den) -> tuple:
    """[lo, hi] around sum_k (-1)**k t_k with t_(k+1) = t_k*y**2/den(k), for
    terms that fall from k = 1 on: the sum to k, widened by t_(k+1)."""
    y2lo, y2hi = _dn(y * y), _up(y * y)
    (tlo, thi), slo, shi, k = t0, 0.0, 0.0, 0
    while k < 3 or thi > 1e-25:
        if k % 2:
            slo, shi = _dn(slo - thi), _up(shi - tlo)
        else:
            slo, shi = _dn(slo + tlo), _up(shi + thi)
        tlo, thi = _dn(_dn(tlo * y2lo) / den(k)), _up(_up(thi * y2hi) / den(k))
        k += 1
    return _dn(slo - thi), _up(shi + thi)


@lru_cache(maxsize=None)
def _sinc(y: float) -> tuple:
    return _alternating(y, (1.0, 1.0), lambda k: (2 * k + 2) * (2 * k + 3))


@lru_cache(maxsize=None)
def _cos(y: float) -> tuple:
    return _alternating(y, (1.0, 1.0), lambda k: (2 * k + 1) * (2 * k + 2))


def _sin(y: float) -> tuple:
    lo, hi = _sinc(y)
    return _dn(y * lo), _up(y * hi)


def _sinh(y: float) -> tuple:
    """sinh y = y * sum_k y**(2k)/(2k + 1)! for 0 <= y <= 2, summed to the
    first term t below 1e-17, under a tenth of an ulp of the sum (k >= 3), and
    widened by 2t, as from k = 2 on each term is under a tenth of the last."""
    assert 0.0 <= y <= 2.0, y
    y2lo, y2hi = _dn(y * y), _up(y * y)
    tlo, thi, slo, shi, k = 1.0, 1.0, 0.0, 0.0, 0
    while k < 3 or thi > 1e-17:
        slo, shi, den = _dn(slo + tlo), _up(shi + thi), (2 * k + 2) * (2 * k + 3)
        tlo, thi, k = _dn(_dn(tlo * y2lo) / den), _up(_up(thi * y2hi) / den), k + 1
    return _dn(y * slo), _up(y * _up(shi + 2.0 * thi))


def _falling(f, a: tuple) -> tuple:
    return f(a[1])[0], f(a[0])[1]


def _add(a, b):
    return _dn(a[0] + b[0]), _up(a[1] + b[1])


def _sub(a, b):
    return _dn(a[0] - b[1]), _up(a[1] - b[0])


def _mul(a, b):
    ps = a[0] * b[0], a[0] * b[1], a[1] * b[0], a[1] * b[1]
    return _dn(min(ps)), _up(max(ps))


def _pmul(a, b):
    """The product of two quantities >= 0, whose low ends are >= 0: a low end
    is rounded down no further than 0."""
    lo = a[0] * b[0]
    return _dn(lo) if lo > 0.0 else 0.0, _up(a[1] * b[1])


def _div(a, b):
    if not b[0] > 0.0:
        raise ZeroDivisionError(f"divisor {b} may vanish")
    qs = a[0] / b[0], a[0] / b[1], a[1] / b[0], a[1] / b[1]
    return _dn(min(qs)), _up(max(qs))


def _scale(c: float, a):  # c >= 0 and a >= 0
    return _pmul((c, c), a)


def _times(c: float, a):  # c >= 0
    return _dn(c * a[0]), _up(c * a[1])


def _pt(x: float) -> tuple:
    return x, x


def _one_minus(a):
    """1 - a for a quantity in [0, 1]."""
    return max(0.0, _dn(1.0 - a[1])), _up(1.0 - a[0])
