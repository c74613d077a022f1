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
so each point comes out as its float call would, to the bit.  The array
forms run through the one array-form driver, ``_arrays._array_form``:
the array code runs on the points in the domain (t finite, and nonzero
for slope_g; t >= 0 for q_excess; 0 < x < 1 for N and M), and every
other point, every point whose array result is not finite, and every
point where the array code raises, takes its float call in index order.
So a batch returns what a loop of float calls returns, and raises that
loop's first error.  The array forms live in ``_arrays``, which loads
numpy on first use; the float forms run without it.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from . import hyp2f1, specfun
from .errors import DomainError, RangeError
from .hyp2f1 import HypParams


class ZeroBalancedPair(NamedTuple("ZeroBalancedPair", [("a", float),
                                                        ("b", float)])):
    """Parameter pair (a, b) for the zero-balanced F(a,b;a+b;.)"""

    __slots__ = ()

    def __new__(cls, a: float, b: float) -> ZeroBalancedPair:
        self = tuple.__new__(cls, (specfun.to_float(a, "a"),
                                   specfun.to_float(b, "b")))
        for name, v in zip("ab", self):
            if not math.isfinite(v) or v <= 0.0:
                raise DomainError(
                    f"pair parameter {name} must be positive finite, got {v!r}"
                )
        return self

    @property
    def c(self) -> float:
        return self.a + self.b

    def params(self, c_shift: float = 0.0) -> HypParams:
        return HypParams(self.a, self.b, self.a + self.b + c_shift)


def _is_array(x) -> bool:
    """Whether x is a batch of points; a 0-d array is a float."""
    return specfun.is_array(x) and x.ndim > 0


def _finite_t(t):
    """t as a float, checked finite; an array form's t, which its domain
    mask has checked, as it is."""
    if _is_array(t):
        return t
    t = specfun.to_float(t, "t")
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


def _lo_hi(ps, lo, ell) -> list:
    """F(p; lo) for each p in ps, then F(p; hi) for each, hi = 1-lo
    reached from lo and ell = -log(lo) by hyp2f1's complement routes: at
    a float lo, or at every point of an array, NaN where a route hands
    the point over, so that the array form's driver gives it its float
    call."""
    if _is_array(lo):
        return hyp2f1._lo_hi_many(ps, lo, ell)
    return ([hyp2f1.f21(p, lo).value for p in ps]
            + [hyp2f1._f21_from_complement(p, lo, ell).value for p in ps])


def _v_pair(pr: ZeroBalancedPair, s):
    """(lo, hi, v(lo), v(hi)) at s = |t|."""
    lo, hi, ell = _split(s)
    return (lo, hi, *_lo_hi((pr.params(),), lo, ell))


def _vw_pair(p: HypParams, lo, ell):
    """(v(lo), w(lo), v(hi), w(hi)) for zero-balanced p, w = F(a,b;c+1;.)."""
    return _lo_hi((p, HypParams(p.a, p.b, p.c + 1.0)), lo, ell)


def _complement_sums(pr: ZeroBalancedPair, t):
    """(B(a,b), lam, C-1, D1, v-1) at u = e^{-t}/(1+e^{-t}), lam =
    log(1+e^{-t}), for t >= 0; B first, so that its RangeError, where it
    overflows or underflows to 0, comes before the sums meet overflowing
    terms."""
    beta = specfun.beta(pr.a, pr.b)
    if not beta:
        raise RangeError(f"B({pr.a}, {pr.b}) underflows to 0")
    e = specfun.pointwise(math.exp, -t)
    u = e / (1.0 + e)
    lam = specfun.pointwise(math.log1p, e)
    if _is_array(t):  # NaN where a sum fails, as in _lo_hi
        from ._hyp2f1_arrays import _defect_sums_many
        cm1, d1, vm1 = _defect_sums_many(pr.a, pr.b, u)
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
    return specfun.where(t >= 0.0, value, -value)


def slope_g(pr: ZeroBalancedPair, t: float) -> float:
    """G(t) = (P(t) - P(0))/t; odd, strictly increasing, |G| < 1/B(a,b)."""
    tf = t  # an array form's t, which its domain mask has checked
    if not _is_array(t):
        tf = specfun.to_float(t, "t")
        if tf == 0.0:
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
    big_r = specfun._ramanujan_r(pr.a, pr.b)
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
    return specfun.where(t >= 0.0, v_hi / v_lo, v_lo / v_hi)


def q_log(pr: ZeroBalancedPair, t: float) -> float:
    """q(t) = log Q(t); odd, strictly increasing, concave on (0, oo)."""
    return specfun.pointwise(math.log, q_func(pr, t))


def q_excess(pr: ZeroBalancedPair, t: float) -> float:
    """Q(t) - (t + R(a,b))/B(a,b) for t >= 0, without cancellation.

    Strictly positive and O(e^{-t}); the stable form certifies the lower
    half of the sharp bound (R+t)/B < Q(t) at t where the naive
    difference would round to zero.
    """
    tf = t  # an array form's t, which its domain mask has checked
    if not _is_array(t):
        tf = specfun.to_float(t, "t")
        if not (math.isfinite(tf) and tf >= 0.0):
            raise DomainError(f"q_excess requires t >= 0, got {t!r}")
    beta, lam, cm1, d1, vm1 = _complement_sums(pr, tf)
    big_r = specfun._ramanujan_r(pr.a, pr.b)
    inner = tf * (cm1 - vm1) + d1 - big_r * vm1 + lam * (1.0 + cm1)
    return inner / ((1.0 + vm1) * beta)


def q_log_prime(pr: ZeroBalancedPair, t: float) -> float:
    """q'(t) = N(x) at x = e^t/(1+e^t); even, positive, peak at t = 0."""
    s = abs(_finite_t(t))
    lo, hi, ell = _split(s)
    p = pr.params()
    return _n_zb(p, lo, hi, *_vw_pair(p, lo, ell))


def _unit_interval(x):
    """x as a float, checked inside (0, 1); an array form's x, which its
    domain mask has checked, as it is."""
    if _is_array(x):
        return x
    x = specfun.to_float(x, "x")
    if not (0.0 < x < 1.0):
        raise DomainError(f"x must lie in (0, 1), got {x!r}")
    return x


def _halves(x):
    """(lo, hi) = the smaller and the larger of x and 1-x."""
    below = x <= 0.5
    return specfun.where(below, x, 1.0 - x), specfun.where(below, 1.0 - x, x)


def _halves_and_pairs(p: HypParams, x):
    """(lo, hi, v(lo), e(lo), v(hi), e(hi)) with lo, hi as in _halves,
    for v = F(p; .) and e = w = F(a,b;c+1;.) at c = a+b, else e =
    F(a+1,b+1;c+1;.) = v'/(ab/c); hi = 1-lo is reached from lo as in
    _lo_hi, so that 1-x is never formed."""
    lo, hi = _halves(x)
    ell = -specfun.pointwise(math.log, lo)
    if p.balanced_sign == 0:
        return (lo, hi, *_vw_pair(p, lo, ell))
    q = HypParams(p.a + 1.0, p.b + 1.0, p.c + 1.0)
    return (lo, hi, *_lo_hi((p, q), lo, ell))


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


# the array forms, which load numpy
__getattr__ = specfun.lazy_names(
    globals(), "._arrays",
    ("p_func_many", "p_prime_many", "slope_g_many", "p_excess_many",
     "q_func_many", "q_log_many", "q_excess_many", "n_func_many",
     "m_func_many"))

# bind this module's names into the package, however it was imported
from . import _bind  # noqa: E402

_bind(__name__)
