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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import hyp2f1, specfun
from .errors import DomainError
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


def _abs_t(t: float) -> float:
    t = float(t)
    if not math.isfinite(t):
        raise DomainError(f"t must be finite, got {t!r}")
    return abs(t)


def _require_product_pair(pr: ZeroBalancedPair) -> None:
    # The P-family results need ab < a+b.
    if not pr.a * pr.b < pr.a + pr.b:
        raise DomainError(
            f"P-functions require ab < a+b, got a={pr.a}, b={pr.b}"
        )


def _split(s: float) -> tuple[float, float, float]:
    """For s >= 0 return (lo, hi, ell): lo = e^{-s}/(1+e^{-s}) = 1-x,
    hi = 1/(1+e^{-s}) = x, ell = -log(lo), all computed without
    cancellation."""
    e = math.exp(-s)
    return e / (1.0 + e), 1.0 / (1.0 + e), s + math.log1p(e)


def _v_pair(pr: ZeroBalancedPair, s: float) -> tuple[float, float, float, float]:
    """(lo, hi, v(lo), v(hi)) at s = |t|."""
    lo, hi, ell = _split(s)
    v_lo = hyp2f1.f21(pr.params(), lo).value
    if s > 0.0:
        v_hi = hyp2f1.zb_from_complement(pr.a, pr.b, lo, ell).value
    else:
        v_hi = v_lo
    return lo, hi, v_lo, v_hi


def _vw_pair(p: HypParams, lo: float, ell: float,
             same: bool) -> tuple[float, float, float, float]:
    """(v(lo), w(lo), v(hi), w(hi)) for zero-balanced p, w = F(a,b;c+1;.).

    hi = 1-lo is reached from lo and ell = -log(lo) only; ``same`` marks
    lo == hi.
    """
    v_lo = hyp2f1.f21(p, lo).value
    w_lo = hyp2f1.f21(HypParams(p.a, p.b, p.c + 1.0), lo).value
    if same:
        return v_lo, w_lo, v_lo, w_lo
    v_hi = hyp2f1.zb_from_complement(p.a, p.b, lo, ell).value
    w_hi = hyp2f1.zb_shifted_from_complement(p.a, p.b, lo, ell).value
    return v_lo, w_lo, v_hi, w_hi


def p_func(pr: ZeroBalancedPair, t: float) -> float:
    """P(t) = F(a,b;a+b;x) F(a,b;a+b;1-x), x = e^t/(1+e^t).  Even in t."""
    _require_product_pair(pr)
    s = _abs_t(t)
    _, _, v_lo, v_hi = _v_pair(pr, s)
    return v_hi * v_lo


def p_prime(pr: ZeroBalancedPair, t: float) -> float:
    """Analytic P'(t) = (ab/(a+b)) [L(x) - L(1-x)] with L(y) = y v(1-y) w(y).

    Odd in t, |P'| < 1/B(a,b).
    """
    _require_product_pair(pr)
    tf = float(t)
    s = _abs_t(t)
    lo, hi, ell = _split(s)
    v_lo, w_lo, v_hi, w_hi = _vw_pair(pr.params(), lo, ell, s == 0.0)
    l_hi = hi * v_lo * w_hi
    l_lo = lo * v_hi * w_lo
    value = pr.a * pr.b / pr.c * (l_hi - l_lo)
    return value if tf >= 0.0 else -value


def slope_g(pr: ZeroBalancedPair, t: float) -> float:
    """G(t) = (P(t) - P(0))/t; odd, strictly increasing, |G| < 1/B(a,b)."""
    tf = float(t)
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
    s = _abs_t(t)
    e = math.exp(-s)
    u = e / (1.0 + e)
    lam = math.log1p(e)
    cm1, d1 = hyp2f1.zb_complement_sums(pr.a, pr.b, u)
    vm1 = hyp2f1.f21_minus_one(pr.a, pr.b, pr.c, u)
    big_r = specfun.ramanujan_r(pr.a, pr.b)
    cv_m1 = cm1 + vm1 + cm1 * vm1  # C(u) v(u) - 1
    inner = (
        s * cv_m1
        + big_r * vm1
        + d1 * (1.0 + vm1)
        + lam * (1.0 + cm1) * (1.0 + vm1)
    )
    return inner / specfun.beta(pr.a, pr.b)


def q_func(pr: ZeroBalancedPair, t: float) -> float:
    """Q(t) = F(a,b;a+b;x) / F(a,b;a+b;1-x); positive, strictly increasing."""
    tf = float(t)
    s = _abs_t(t)
    _, _, v_lo, v_hi = _v_pair(pr, s)
    return v_hi / v_lo if tf >= 0.0 else v_lo / v_hi


def q_log(pr: ZeroBalancedPair, t: float) -> float:
    """q(t) = log Q(t); odd, strictly increasing, concave on (0, oo)."""
    return math.log(q_func(pr, t))


def q_excess(pr: ZeroBalancedPair, t: float) -> float:
    """Q(t) - (t + R(a,b))/B(a,b) for t >= 0, without cancellation.

    Strictly positive and O(e^{-t}); the stable form certifies the lower
    half of the sharp bound (R+t)/B < Q(t) at t where the naive
    difference would round to zero.
    """
    tf = float(t)
    if not (math.isfinite(tf) and tf >= 0.0):
        raise DomainError(f"q_excess requires t >= 0, got {t!r}")
    e = math.exp(-tf)
    u = e / (1.0 + e)
    lam = math.log1p(e)
    cm1, d1 = hyp2f1.zb_complement_sums(pr.a, pr.b, u)
    vm1 = hyp2f1.f21_minus_one(pr.a, pr.b, pr.c, u)
    big_r = specfun.ramanujan_r(pr.a, pr.b)
    inner = tf * (cm1 - vm1) + d1 - big_r * vm1 + lam * (1.0 + cm1)
    return inner / ((1.0 + vm1) * specfun.beta(pr.a, pr.b))


def q_log_prime(pr: ZeroBalancedPair, t: float) -> float:
    """q'(t) = N(x) at x = e^t/(1+e^t); even, positive, peak at t = 0."""
    s = _abs_t(t)
    lo, hi, ell = _split(s)
    v_lo, w_lo, v_hi, w_hi = _vw_pair(pr.params(), lo, ell, s == 0.0)
    return pr.a * pr.b / pr.c * (hi * w_hi / v_hi + lo * w_lo / v_lo)


def _check_unit_interval(x: float) -> float:
    x = float(x)
    if not (0.0 < x < 1.0):
        raise DomainError(f"x must lie in (0, 1), got {x!r}")
    return x


def n_func(a: float, b: float, c: float, x: float) -> float:
    """N(x) = x(1-x)[v'(x)/v(x) + v'(1-x)/v(1-x)] for v = F(a,b;c;.).

    Requires max(a,b) <= c.  Symmetric about x = 1/2, positive; constant
    (equal to min(a,b)) when max(a,b) = c.  For c = a+b the derivative
    identity (1-y) v'(y) = (ab/(a+b)) w(y) removes the 1/(1-x) blow-up,
    so the evaluation stays accurate arbitrarily close to the endpoints.
    """
    p = HypParams(a, b, c)
    x = _check_unit_interval(x)
    if max(p.a, p.b) > p.c:
        raise DomainError(
            f"n_func requires max(a,b) <= c, got a={a}, b={b}, c={c}"
        )
    lo, hi = (x, 1.0 - x) if x <= 0.5 else (1.0 - x, x)
    if p.balanced_sign == 0:
        v_lo, w_lo, v_hi, w_hi = _vw_pair(p, lo, -math.log(lo), hi == lo)
        return p.a * p.b / p.c * (hi * w_hi / v_hi + lo * w_lo / v_lo)
    ratio_lo = hyp2f1.f21_derivative(p, lo) / hyp2f1.f21(p, lo).value
    ratio_hi = hyp2f1.f21_derivative(p, hi) / hyp2f1.f21(p, hi).value
    return lo * hi * (ratio_lo + ratio_hi)


def m_func(a: float, b: float, c: float, x: float) -> float:
    """Legendre M-function M(x) = x(1-x)[v'(x)v(1-x) + v(x)v'(1-x)].

    Symmetric about x = 1/2; for c = a+b it tends to 1/B(a,b) at both
    endpoints and is computed through the same endpoint-stable route as
    n_func.
    """
    p = HypParams(a, b, c)
    x = _check_unit_interval(x)
    lo, hi = (x, 1.0 - x) if x <= 0.5 else (1.0 - x, x)
    if p.balanced_sign == 0:
        v_lo, w_lo, v_hi, w_hi = _vw_pair(p, lo, -math.log(lo), hi == lo)
        return p.a * p.b / p.c * (hi * v_lo * w_hi + lo * v_hi * w_lo)
    d_lo = hyp2f1.f21_derivative(p, lo)
    d_hi = hyp2f1.f21_derivative(p, hi)
    v_lo = hyp2f1.f21(p, lo).value
    v_hi = hyp2f1.f21(p, hi).value
    return lo * hi * (d_lo * v_hi + v_lo * d_hi)
