"""Products and quotients of zero-balanced hypergeometric functions on a
logistic scale.

For a parameter pair (a, b) with a, b > 0, let v(y) = F(a,b;a+b;y),
w(y) = F(a,b;a+b+1;y), and x = e^t/(1+e^t).  This module evaluates

    P(t) = v(x) v(1-x)                (even, strictly convex for ab < a+b)
    P'(t) = (ab/(a+b)) [L(x) - L(1-x)],  L(y) = y v(1-y) w(y)
    G(t) = (P(t) - P(0)) / t
    Q(t) = v(x) / v(1-x),  q(t) = log Q(t),  q'(t) = N(x)
    N(x) = x(1-x) [v'(x)/v(x) + v'(1-x)/v(1-x)]
    M(x) = x(1-x) [v'(x) v(1-x) + v(x) v'(1-x)]

plus the asymptotic defects P(t) - (|t|+R)/B and Q(t) - (t+R)/B in forms
that keep full relative accuracy at large t (the naive differences lose
everything to cancellation once the e^{-t} tail drops below the float
resolution of the linear part).

x and 1-x are never produced by subtraction: both come straight from
e^{-|t|}, so the evaluations stay exact for |t| far beyond the point
where 1-x underflows.

Every quantity has an array form, ``*_many``, taking a 1-d array of t
(or x).  Both forms run the same code: the helpers below act on a float
or pointwise on an array, calling the hyp2f1 array kernels for arrays,
so each point comes out as its float call would, to the bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import hyp2f1, specfun
from .errors import DomainError, PunctMetricError
from .hyp2f1 import HypParams


@dataclass(frozen=True)
class ZeroBalancedPair:
    """Parameter pair (a, b) for the zero-balanced F(a,b;a+b;.)"""

    a: float
    b: float

    def __post_init__(self) -> None:
        for name in ("a", "b"):
            v = float(getattr(self, name))
            if not math.isfinite(v) or v <= 0.0:
                raise DomainError(
                    f"pair parameter {name} must be positive finite, got {v!r}"
                )
            object.__setattr__(self, name, v)

    @property
    def c(self) -> float:
        return self.a + self.b

    def params(self, c_shift: float = 0.0) -> HypParams:
        return HypParams(self.a, self.b, self.a + self.b + c_shift)


def _is_array(x) -> bool:
    """Whether x is a batch of points; a 0-d array is a float."""
    return isinstance(x, np.ndarray) and x.ndim > 0


def _where(cond, yes, no):
    """yes where cond holds, else no: for a bool, or pointwise."""
    if _is_array(cond):
        return np.where(cond, yes, no)
    return yes if cond else no


def _finite_t(t):
    """t as a float, or the float array t, with every point finite."""
    if _is_array(t):
        specfun.reject_first(~np.isfinite(t), lambda i: _finite_t(t[i]))
        return t
    t = float(t)
    if not math.isfinite(t):
        raise DomainError(f"t must be finite, got {t!r}")
    return t


def _require_product_pair(pr: ZeroBalancedPair) -> None:
    # The P-family results need ab < a+b.
    if not pr.a * pr.b < pr.a + pr.b:
        raise DomainError(
            f"P-functions require ab < a+b, got a={pr.a}, b={pr.b}"
        )


def _split(s):
    """For s >= 0 return (lo, hi, ell): lo = e^{-s}/(1+e^{-s}) = 1-x,
    hi = 1/(1+e^{-s}) = x, ell = -log(lo), all computed without
    cancellation."""
    e = specfun.pointwise(math.exp, -s)
    ell = s + specfun.pointwise(math.log1p, e)
    return e / (1.0 + e), 1.0 / (1.0 + e), ell


def _f21(p: HypParams, x):
    """F(p; x).value at a float x, or at every point of an array."""
    if _is_array(x):
        return hyp2f1.f21_many(p, x).value
    return hyp2f1.f21(p, x).value


def _at_hi(p: HypParams, lo, ell):
    """F(p; hi) at hi = 1-lo, from lo and ell = -log(lo), at a float lo
    or at every point of an array."""
    if _is_array(lo):
        return hyp2f1.f21_from_complement_many(p, lo, ell).value
    return hyp2f1.f21_from_complement(p, lo, ell).value


def _v_pair(pr: ZeroBalancedPair, s):
    """(lo, hi, v(lo), v(hi)) at s = |t|."""
    lo, hi, ell = _split(s)
    p = pr.params()
    return lo, hi, _f21(p, lo), _at_hi(p, lo, ell)


def _two_pairs(p: HypParams, q: HypParams, lo, ell):
    """(F(p; lo), F(q; lo), F(p; hi), F(q; hi)), hi = 1-lo reached from
    lo as in _at_hi."""
    return _f21(p, lo), _f21(q, lo), _at_hi(p, lo, ell), _at_hi(q, lo, ell)


def _vw_pair(p: HypParams, lo, ell):
    """(v(lo), w(lo), v(hi), w(hi)) for zero-balanced p, w = F(a,b;c+1;.)."""
    return _two_pairs(p, HypParams(p.a, p.b, p.c + 1.0), lo, ell)


def _complement_sums(pr: ZeroBalancedPair, t):
    """(B(a,b), lam, C-1, D1, v-1) at u = e^{-t}/(1+e^{-t}), lam =
    log(1+e^{-t}), for t >= 0; B first, so that its RangeError comes
    before the sums meet overflowing terms."""
    beta = specfun.beta(pr.a, pr.b)
    e = specfun.pointwise(math.exp, -t)
    u = e / (1.0 + e)
    lam = specfun.pointwise(math.log1p, e)
    if _is_array(t):
        cm1, d1 = hyp2f1.zb_complement_sums_many(pr.a, pr.b, u)
        vm1 = hyp2f1.f21_minus_one_many(pr.a, pr.b, pr.c, u)
    else:
        cm1, d1 = hyp2f1.zb_complement_sums(pr.a, pr.b, u)
        vm1 = hyp2f1.f21_minus_one(pr.a, pr.b, pr.c, u)
    return beta, lam, cm1, d1, vm1


def _n_zb(p, lo, hi, v_lo, w_lo, v_hi, w_hi):
    """N from (v, w) at lo and hi, zero-balanced p."""
    return p.a * p.b / p.c * (hi * w_hi / v_hi + lo * w_lo / v_lo)


def p_func(pr: ZeroBalancedPair, t: float) -> float:
    """P(t) = F(a,b;a+b;x) F(a,b;a+b;1-x), x = e^t/(1+e^t).  Even in t."""
    _require_product_pair(pr)
    _, _, v_lo, v_hi = _v_pair(pr, abs(_finite_t(t)))
    return v_hi * v_lo


def p_prime(pr: ZeroBalancedPair, t: float) -> float:
    """Analytic P'(t) = (ab/(a+b)) [L(x) - L(1-x)] with L(y) = y v(1-y) w(y).

    Odd in t, |P'| < 1/B(a,b).
    """
    _require_product_pair(pr)
    t = _finite_t(t)
    s = abs(t)
    lo, hi, ell = _split(s)
    v_lo, w_lo, v_hi, w_hi = _vw_pair(pr.params(), lo, ell)
    l_hi = hi * v_lo * w_hi
    l_lo = lo * v_hi * w_lo
    value = pr.a * pr.b / pr.c * (l_hi - l_lo)
    return _where(t >= 0.0, value, -value)


def slope_g(pr: ZeroBalancedPair, t: float) -> float:
    """G(t) = (P(t) - P(0))/t; odd, strictly increasing, |G| < 1/B(a,b)."""
    tf = t if _is_array(t) else float(t)
    if np.any(tf == 0.0):
        raise DomainError("slope function is undefined at t = 0")
    return (p_func(pr, tf) - p_func(pr, 0.0)) / tf


def p_excess(pr: ZeroBalancedPair, t: float) -> float:
    """P(t) - (|t| + R(a,b))/B(a,b), evaluated without cancellation.

    Strictly positive, even, decreasing in |t| from P(0) - R/B to 0 like
    t e^{-|t|}.  The linear part of P is cancelled analytically against
    the expansion P = (1/B) [ (|t| + lam + R) C(u) + D1(u) ... ] v(u),
    so the result keeps relative accuracy even when it is ~1e-300.
    """
    _require_product_pair(pr)
    s = abs(_finite_t(t))
    beta, lam, cm1, d1, vm1 = _complement_sums(pr, s)
    big_r = specfun.ramanujan_r(pr.a, pr.b)
    cv_m1 = cm1 + vm1 + cm1 * vm1  # C(u) v(u) - 1
    inner = (
        s * cv_m1
        + big_r * vm1
        + d1 * (1.0 + vm1)
        + lam * (1.0 + cm1) * (1.0 + vm1)
    )
    return inner / beta


def q_func(pr: ZeroBalancedPair, t: float) -> float:
    """Q(t) = F(a,b;a+b;x) / F(a,b;a+b;1-x); positive, strictly increasing."""
    t = _finite_t(t)
    _, _, v_lo, v_hi = _v_pair(pr, abs(t))
    return _where(t >= 0.0, v_hi / v_lo, v_lo / v_hi)


def q_log(pr: ZeroBalancedPair, t: float) -> float:
    """q(t) = log Q(t); odd, strictly increasing, concave on (0, oo)."""
    return specfun.pointwise(math.log, q_func(pr, t))


def q_excess(pr: ZeroBalancedPair, t: float) -> float:
    """Q(t) - (t + R(a,b))/B(a,b) for t >= 0, without cancellation.

    Strictly positive and O(e^{-t}); the stable form certifies the lower
    half of the sharp bound (R+t)/B < Q(t) at t where the naive
    difference would round to zero.
    """
    if _is_array(t):
        specfun.reject_first(~(np.isfinite(t) & (t >= 0.0)),
                             lambda i: q_excess(pr, float(t[i])))
        tf = t
    else:
        tf = float(t)
        if not (math.isfinite(tf) and tf >= 0.0):
            raise DomainError(f"q_excess requires t >= 0, got {t!r}")
    beta, lam, cm1, d1, vm1 = _complement_sums(pr, tf)
    big_r = specfun.ramanujan_r(pr.a, pr.b)
    inner = tf * (cm1 - vm1) + d1 - big_r * vm1 + lam * (1.0 + cm1)
    return inner / ((1.0 + vm1) * beta)


def q_log_prime(pr: ZeroBalancedPair, t: float) -> float:
    """q'(t) = N(x) at x = e^t/(1+e^t); even, positive, peak at t = 0."""
    s = abs(_finite_t(t))
    lo, hi, ell = _split(s)
    p = pr.params()
    return _n_zb(p, lo, hi, *_vw_pair(p, lo, ell))


def _unit_interval(x):
    """x as a float, or the float array x, every point inside (0, 1)."""
    if _is_array(x):
        specfun.reject_first(~((0.0 < x) & (x < 1.0)),
                             lambda i: _unit_interval(x[i]))
        return x
    x = float(x)
    if not (0.0 < x < 1.0):
        raise DomainError(f"x must lie in (0, 1), got {x!r}")
    return x


def _halves(x):
    """(lo, hi) = the smaller and the larger of x and 1-x."""
    below = x <= 0.5
    return _where(below, x, 1.0 - x), _where(below, 1.0 - x, x)


def _halves_and_pairs(p: HypParams, x):
    """(lo, hi, v(lo), e(lo), v(hi), e(hi)) with lo, hi as in _halves,
    for v = F(p; .) and e = w = F(a,b;c+1;.) at c = a+b, else e =
    F(a+1,b+1;c+1;.) = v'/(ab/c); hi = 1-lo is reached from lo as in
    _at_hi, so that 1-x is never formed."""
    lo, hi = _halves(x)
    ell = -specfun.pointwise(math.log, lo)
    if p.balanced_sign == 0:
        return (lo, hi, *_vw_pair(p, lo, ell))
    q = HypParams(p.a + 1.0, p.b + 1.0, p.c + 1.0)
    return (lo, hi, *_two_pairs(p, q, lo, ell))


def n_func(a: float, b: float, c: float, x: float) -> float:
    """N(x) = x(1-x)[v'(x)/v(x) + v'(1-x)/v(1-x)] for v = F(a,b;c;.).

    Requires max(a,b) <= c.  Symmetric about x = 1/2, positive; constant
    (equal to min(a,b)) when max(a,b) = c.  For c = a+b the derivative
    identity (1-y) v'(y) = (ab/(a+b)) w(y) removes the 1/(1-x) blow-up,
    so the evaluation stays accurate arbitrarily close to the endpoints.
    Either way v and v' at 1-x come from x itself (hyp2f1's complement
    routes); where none serves c-a-b and 1-x rounds to 1, RangeError.
    """
    p = HypParams(a, b, c)
    x = _unit_interval(x)
    if max(p.a, p.b) > p.c:
        raise DomainError(
            f"n_func requires max(a,b) <= c, got a={a}, b={b}, c={c}"
        )
    lo, hi, v_lo, e_lo, v_hi, e_hi = _halves_and_pairs(p, x)
    if p.balanced_sign == 0:
        return _n_zb(p, lo, hi, v_lo, e_lo, v_hi, e_hi)
    k = p.a * p.b / p.c
    return lo * hi * (k * e_lo / v_lo + k * e_hi / v_hi)


def m_func(a: float, b: float, c: float, x: float) -> float:
    """Legendre M-function M(x) = x(1-x)[v'(x)v(1-x) + v(x)v'(1-x)].

    Symmetric about x = 1/2; for c = a+b it tends to 1/B(a,b) at both
    endpoints and is computed through the same endpoint-stable route as
    n_func.
    """
    p = HypParams(a, b, c)
    x = _unit_interval(x)
    lo, hi, v_lo, e_lo, v_hi, e_hi = _halves_and_pairs(p, x)
    k = p.a * p.b / p.c
    if p.balanced_sign == 0:
        return k * (hi * v_lo * e_hi + lo * v_hi * e_lo)
    return lo * hi * (k * e_lo * v_hi + v_lo * (k * e_hi))


# Array forms: the function above at every point of a 1-d array, each
# point to the bit of its float call.  A batch raises the error of its
# first point that raises.

def _each(fn, args: tuple, points) -> np.ndarray:
    """fn(*args, point) at every point of the 1-d array points.

    The array path runs each kernel over the whole batch before the
    next, so where several points fail it may meet another point's
    error first; then the float calls run in order, up to the first
    point that fails, and raise its error.
    """
    arr = specfun.as_points(points)
    try:
        return fn(*args, arr)
    except PunctMetricError:
        for point in arr.tolist():
            fn(*args, point)
        raise


def p_func_many(pr: ZeroBalancedPair, ts) -> np.ndarray:
    """p_func at every point of ts."""
    return _each(p_func, (pr,), ts)


def p_prime_many(pr: ZeroBalancedPair, ts) -> np.ndarray:
    """p_prime at every point of ts."""
    return _each(p_prime, (pr,), ts)


def slope_g_many(pr: ZeroBalancedPair, ts) -> np.ndarray:
    """slope_g at every point of ts."""
    return _each(slope_g, (pr,), ts)


def p_excess_many(pr: ZeroBalancedPair, ts) -> np.ndarray:
    """p_excess at every point of ts."""
    return _each(p_excess, (pr,), ts)


def q_func_many(pr: ZeroBalancedPair, ts) -> np.ndarray:
    """q_func at every point of ts."""
    return _each(q_func, (pr,), ts)


def q_log_many(pr: ZeroBalancedPair, ts) -> np.ndarray:
    """q_log at every point of ts."""
    return _each(q_log, (pr,), ts)


def q_excess_many(pr: ZeroBalancedPair, ts) -> np.ndarray:
    """q_excess at every point of ts."""
    return _each(q_excess, (pr,), ts)


def n_func_many(a: float, b: float, c: float, xs) -> np.ndarray:
    """n_func at every point of xs."""
    return _each(n_func, (a, b, c), xs)


def m_func_many(a: float, b: float, c: float, xs) -> np.ndarray:
    """m_func at every point of xs."""
    return _each(m_func, (a, b, c), xs)
