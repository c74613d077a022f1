"""Gauss hypergeometric function F(a,b;c;x) on the real interval [0, 1).

Two term families, each summed by one loop per form:

* the ratio family T_0 = 1, T_{n+1} = T_n (a+n)(b+n)/((c+n)(n+1)) x, the
  Maclaurin series, compensated by Knuth's TwoSum;
* the log family of c = a+b+m, m >= 0 an integer (DLMF 15.8.10), with
  c_n = (a)_n (b)_n/(n!)^2, d_n = 2 psi(n+1) - psi(a+n) - psi(b+n),
  d_0 = R(a,b), f_m(n) = n(n-1)...(n-m+1), u = 1-x and ell = -log(u):

      F(a,b;a+b+m;1-u) = (-1)^m G(a+b+m)/(G(a+m) G(b+m))
                         sum_n c_n (f_m(n)(d_n + ell) - f_m'(n)) u^n,

  the terms n < m (f_m(n) = 0) being 15.8.10's finite sum.

Sums from n = 1 are views of the same loops: ``f21_minus_one`` gives
F - 1, ``zb_complement_sums`` the m = 0 sum at ell = 0 and, beside it,
C - 1 = sum_{n>=1} c_n u^n.

One running error bound (Higham, Accuracy and Stability of Numerical
Algorithms, 2nd ed.): each loop reports its tail bound plus eps
(SERIES_ROUNDINGS sum_n n T~_n + k |S|), T~_n the term with each part in
absolute value (|T_n|; c_n (|f_m'(n)| + f_m(n)(|d_n| + ell)) u^n), k 1
for the compensated sum and the term count for the plain one; the
direct series at x = fl(1-u) adds x_err sum n |T_n|.  A ratio sum stops
at its first overflowing term, a log sum only at n >= m.  The log tail
past T_N is |T_N| u/(1-u) at m = 0, |T_N| (u/(1-u) + 1)(ell + 2) at
m = 1, and T~_N r/(1-r) for m >= 2, r = u (A+N)/(N+1-m) max(1,
(B+N)/(N+1)), A >= B the a, b: there T_n = c_n f_m(n)(e_n + ell) u^n,
e_n = psi(n+1) + psi(n+1-m) - psi(a+n) - psi(b+n) rises to 0, so
|e_n + ell| <= max(ell, |e_N + ell|), and r bounds the step ratio of
c_n f_m(n) u^n past N.

x <= 1/2 sums the direct series; x > 1/2 is ``f21_from_complement`` at
u = 1-x, exact there.  By s = c-a-b: an integer m = s, |m| <=
MAX_TERMS_LOG, takes the log series, for m < 0 by Euler's transformation
F(a,b;c;1-u) = u^{-m} F(c-a,c-b;c;1-u) (DLMF 15.8.1) where c > a and
c > b; s not an integer takes DLMF 15.8.4,

    F = A F(a,b;1-s;u) + B u^s F(c-a,c-b;1+s;u),
    A = G(c)G(s)/(G(c-a)G(c-b)),   B = G(c)G(-s)/(G(a)G(b)),

two direct series at u < 1/2 (A = 0 at a pole of G(c-a) or G(c-b)).
Where a part overflows or runs out of terms, or the parts cancel by
more than MAX_CANCEL (sum T~_n/|S|, or (|A F1| + |B u^s F2|)/|F|), the
direct series serves at x = 1-u, as it does at once for the other
integer s, as in F(2,2;1;x); at c = b it is the binomial series of
F(a,b;b;1-u) = u^-a (a, b swapped at c = a), summed in closed form.
Given u exactly (u = e^{-t}/(1+e^{-t})) and -log(u) finite, nothing is
lost to cancellation, even where u underflows to 0.  The ``*_many``
forms give each point of a 1-d array the bits of its float call.
"""

from __future__ import annotations

import functools
import math
from dataclasses import astuple, dataclass
from typing import Optional, Sequence

import numpy as np

from . import specfun
from .errors import ConvergenceError, DomainError, RangeError

SERIES_RTOL = 1e-15
MAX_TERMS_DIRECT = 1_000_000
MAX_TERMS_LOG = 200
X_SWITCH = 0.5
# past x = 1/2 a route hands over where its parts cancel by more than this
MAX_CANCEL = 1e3
# rounding allowance of DLMF 15.8.4 per unit of |A F1| + |B u^s F2|
CONNECTION_ROUNDING = 1e-14
# Roundings per step of a term recurrence, relative to T~_n: 8 in the
# ratio family's; in the log family's 6 for c_n u^n and up to 10 for
# f_m(n)(d_n + ell) - f_m'(n), relative to |f_m'(n)| + f_m(n)(|d_n| +
# ell), and the products.
SERIES_ROUNDINGS = 16
_EPS = 2.0 ** -53
_TINY = math.ulp(0.0)

METHOD_DIRECT = "direct_series"
METHOD_ZB_LOG = "zb_log_series"
METHOD_CONNECTION = "connection_series"


@dataclass(frozen=True)
class HypParams:
    """A positive parameter triple (a, b, c) for F(a,b;c;x)."""

    a: float
    b: float
    c: float

    def __post_init__(self) -> None:
        for name in ("a", "b", "c"):
            v = float(getattr(self, name))
            if not math.isfinite(v) or v <= 0.0:
                raise DomainError(
                    f"hypergeometric parameter {name} must be positive and "
                    f"finite, got {v!r}"
                )
            object.__setattr__(self, name, v)

    @property
    def balanced_sign(self) -> int:
        """Sign of c - (a+b): 0 means zero balanced."""
        s = self.c - (self.a + self.b)
        if s == 0.0:
            return 0
        return 1 if s > 0.0 else -1


@dataclass(frozen=True)
class EvalResult:
    value: float
    abs_err_estimate: float
    terms_used: int
    method: str


def _check_x(x: float) -> float:
    x = float(x)
    if not (0.0 <= x < 1.0):
        raise DomainError(f"x must lie in [0, 1), got {x!r}")
    return x


def _route(p: HypParams) -> tuple[str, int]:
    """How F(p; 1-u) is summed at u < 1/2, and m: ("log", m) for c =
    (a+b)+m, rounded, with |m| <= MAX_TERMS_LOG (m < 0 only where c > a
    and c > b, by Euler's transformation), ("connection", 0) for c-a-b
    not an integer, else ("power", 0) at c = a or c = b and ("direct",
    0) elsewhere."""
    a_b = p.a + p.b
    s = p.c - a_b
    if -MAX_TERMS_LOG <= s <= MAX_TERMS_LOG:
        m = round(s)
        if p.c == a_b + m and (m >= 0 or (p.c > p.a and p.c > p.b)):
            return "log", m
    if math.isfinite(s) and not s.is_integer():
        return "connection", 0
    return ("power" if p.c in (p.a, p.b) else "direct"), 0


def _ratio_sum(a: float, b: float, c: float, x: float, total: float):
    """The ratio family at x summed onto ``total`` (1.0 holds T_0, 0.0
    starts at n = 1): (sum, last term, tail ratio r, sum of n |T_n|,
    terms after T_0), or None when out of terms.  At the first term
    that overflows the sum stops, and is not finite."""
    term = 1.0
    comp = weighted = 0.0
    n = small_count = 0
    ratio = (a + n) * (b + n) / ((c + n) * (n + 1.0)) * x
    inf = math.inf
    while n < MAX_TERMS_DIRECT:
        term *= ratio
        # Knuth's TwoSum: comp gathers each addition's exact error
        t = total + term
        back = t - total
        comp += (total - (t - back)) + (term - back)
        total = t
        size = abs(term)
        n += 1
        weighted += n * size
        # Stop on the geometric tail: the step ratio crosses x at most once
        # (their difference has sign (a+b-c-1)n + ab-c), so past the hump
        # the tail is at most |T_n| r/(1-r), r = max(ratio, x); the
        # 3-in-a-row guard rides out the hump itself.  A zero term passes
        # at any r (r = 0: every later term is 0, as after a zero b), and
        # the right side is at least the smallest subnormal, where the
        # terms of a subnormal sum may stick (a step ratio above 1/2
        # rounds an ulp back to an ulp).
        ratio = (a + n) * (b + n) / ((c + n) * (n + 1.0)) * x
        r = max(abs(ratio), x) if size else 0.0
        if r < 1.0 and size * r <= (SERIES_RTOL * abs(total) * (1.0 - r)
                                    or _TINY):
            small_count += 1
            if small_count == 3:
                return total + comp, term, r, weighted, n
        else:
            if not size < inf:
                return total + comp, term, r, weighted, n
            small_count = 0
    return None


def _ratio_estimate(term, r, weighted, total, x_err):
    """The direct series' bound, at a float or arrays."""
    return (abs(term) * r / (1.0 - r)
            + _EPS * (SERIES_ROUNDINGS * weighted + abs(total))
            + x_err * weighted)


def _direct_series(a: float, b: float, c: float, x: float,
                   x_err: float = 0.0) -> EvalResult:
    """F(a,b;c;x) by its Maclaurin series, x_err bounding the relative
    rounding of x."""
    s = _ratio_sum(a, b, c, x, 1.0)
    if s is None:
        raise ConvergenceError(
            f"direct series for F({a},{b};{c};{x}) did not converge "
            f"within {MAX_TERMS_DIRECT} terms"
        )
    total, term, r, weighted, n = s
    if not math.isfinite(total):
        raise RangeError(
            f"direct series for F({a},{b};{c};{x}) overflows a float")
    return EvalResult(total, _ratio_estimate(term, r, weighted, total, x_err),
                      n + 1, METHOD_DIRECT)


def f21_minus_one(a: float, b: float, c: float, x: float) -> float:
    """F(a,b;c;x) - 1 as a direct sum starting at the linear term, so
    with full relative accuracy (~ (ab/c) x) where f21(...) - 1 would
    lose every digit.  Requires x <= 3/4 and positive finite a, b, c;
    RangeError where the sum overflows a float."""
    HypParams(a, b, c)  # DomainError for a bad parameter
    x = float(x)
    if not (0.0 <= x <= 0.75):
        raise DomainError(f"f21_minus_one requires 0 <= x <= 3/4, got {x!r}")
    s = _ratio_sum(a, b, c, x, 0.0)
    if s is None:
        raise ConvergenceError(
            f"series for F({a},{b};{c};{x}) - 1 did not converge")
    if not math.isfinite(s[0]):
        raise RangeError(f"F({a},{b};{c};{x}) - 1 overflows a float")
    return s[0]


def _as_float(k: int) -> float:
    """The integer k rounded to a float, +-inf past the float range."""
    try:
        return float(k)
    except OverflowError:
        return math.inf if k > 0 else -math.inf


@functools.lru_cache(maxsize=MAX_TERMS_LOG + 1)
def _falling(m: int):
    """f_m(n) = n(n-1)...(n-m+1) and f_m'(n) for n <= MAX_TERMS_LOG, from
    f_{j+1}(x) = (x-j) f_j(x) in integers, as floats, as rows (n-1,
    float(n), f_m(n), f_m'(n), |f_m'(n)|) for n >= 1, and as a read-only
    array (f_m, f_m') for the lockstep form."""
    f, fp = [1] * (MAX_TERMS_LOG + 1), [0] * (MAX_TERMS_LOG + 1)
    for j in range(m):
        fp = [(n - j) * d + v for n, (v, d) in enumerate(zip(f, fp))]
        f = [(n - j) * v for n, v in enumerate(f)]
    f, fp = tuple(map(_as_float, f)), tuple(map(_as_float, fp))
    table = np.array((f, fp))
    table.flags.writeable = False
    return f, fp, tuple((n - 1, float(n), f[n], fp[n], abs(fp[n]))
                        for n in range(1, MAX_TERMS_LOG + 1)), table


def _zb_sum(a: float, b: float, u: float, ell: float, m: int,
            from_one: bool = False):
    """The log family c_n (f_m(n)(d_n + ell) - f_m'(n)) u^n, summed from
    n = 0 (from n = 1 if from_one, where the stop rule waits for C - 1
    too): (sum, last term, last T~_n, sum of T~_n, sum of n T~_n, C - 1,
    terms after the first), or None when out of terms."""
    f, fp, rows, _ = _falling(m)
    c_n = u_pow = 1.0
    d_n = specfun.ramanujan_r(a, b)
    total = size = weighted = plain = 0.0
    if not from_one:
        total = f[0] * (d_n + ell) - fp[0]
        size = abs(fp[0]) + f[0] * (abs(d_n) + ell)
    small_count = 0
    for j, n, f_n, fp_n, size_fp in rows:  # j = n-1
        a_n, b_n = a + j, b + j
        c_n *= a_n * b_n / (n * n)
        d_n += 2.0 / n - 1.0 / a_n - 1.0 / b_n
        u_pow *= u
        c_u = c_n * u_pow
        term = c_n * (f_n * (d_n + ell) - fp_n) * u_pow
        part = c_u * (size_fp + f_n * (abs(d_n) + ell))
        total += term
        size += part
        weighted += n * part
        plain += c_u
        if abs(term) <= SERIES_RTOL * abs(total) and (
                not from_one or c_u <= SERIES_RTOL * plain):
            small_count += 1
            if small_count >= 3 and j > m:  # the last three have n >= m
                return total, term, part, size, weighted, plain, j + 1
        else:
            small_count = 0
    return None


def _exp_or_inf(v: float) -> float:
    """math.exp, or inf where it overflows."""
    try:
        return math.exp(v)
    except OverflowError:
        return math.inf


def _pow_or_inf(u: float, e: float) -> float:
    """u ** e, or inf where it overflows or u = 0 < -e."""
    try:
        return u ** e
    except (OverflowError, ZeroDivisionError):
        return math.inf


def _binomial(p: HypParams, u):
    """(value, estimate) of F(a,b;b;1-u) = u^-a, or u^-b at c = a: the
    direct series is the binomial series, summed in closed form.  At a
    float u or at every point of an array; the value is inf where it
    overflows."""
    e = -(p.a if p.c == p.b else p.b)
    value = specfun.pointwise(lambda v: _pow_or_inf(v, e), u)
    # u is exact and libm's pow within an ulp: the estimate allows two
    return value, 4.0 * _EPS * value


def _log_series_result(a: float, b: float, m: int, sums, u, ell):
    """(value, estimate, whether it serves) of the log series for c-a-b =
    m from the sums of _zb_sum at a = c-a, b = c-b if m < 0, at a float u
    or arrays.  math.lgamma erred against mpmath (x from 1e-4 to 1e5) by
    at most 18 eps where |lgamma| < 4, else 4.1 eps |lgamma|: B's three
    by 5 (|lgamma| + 4) eps at most; their sum, exp(), the factor and the
    product add eps lg + 4 eps, and the Pochhammer products of m >= 2 4
    eps per step past the first."""
    k = abs(m)
    total, term, part, size, weighted, _, terms = sums
    # G(a+b+k)/(G(a+k) G(b+k)) = (a+b)_k/((a)_k (b)_k B(a,b)); inf, so
    # handed over, where B(a,b) underflows or (a)_k (b)_k overflows; by
    # (a)_k first where (a)_k (b)_k underflows (tiny a, b, a factor ~1)
    beta, (lg_a, lg_b, lg_ab) = specfun.beta_with_log_gammas(a, b)
    num = pa = pb = 1.0
    for j in range(k):
        num, pa, pb = num * (a + b + j), pa * (a + j), pb * (b + j)
    den = pa * pb * beta
    if not den:
        num, den = num / pa, pb * beta
    scale = num / den if 0.0 < den < math.inf else math.inf
    value = (-scale if k % 2 else scale) * total
    if k == 0:
        tail = abs(term) * u / (1.0 - u)
    elif k == 1:
        tail = abs(term) * (u / (1.0 - u) + 1.0) * (ell + 2.0)
    else:
        r = u * (max(a, b) + terms) / (terms + 1.0 - k)
        if min(a, b) > 1.0:
            r = r * (min(a, b) + terms) / (terms + 1.0)
        tail = (np.where(r < 1.0, part * r / (1.0 - r), math.inf)
                if isinstance(r, np.ndarray) else
                part * r / (1.0 - r) if r < 1.0 else math.inf)
    lg = abs(lg_a) + abs(lg_b) + abs(lg_ab)
    err = (abs(scale) * (tail + _EPS * (SERIES_ROUNDINGS * weighted
                                        + terms * abs(total)))
           + _EPS * (6.0 * lg + 64.0 + 4.0 * max(k - 1, 0)) * abs(value))
    if m < 0:
        # u^-k = e^{k ell}; u^s scales the rounding of c-a-b = -k, eps
        # (a+b+c) = eps (2(c-a + c-b) + 3k), by ell as well
        factor = specfun.pointwise(_exp_or_inf, k * ell)
        value, err = value * factor, err * factor
        err += _EPS * (2.0 + (2.0 * (a + b) + 4.0 * k) * ell) * abs(value)
    serves = (size <= MAX_CANCEL * abs(total)) & (err < math.inf)
    return value, err, serves


def _zb_log(p: HypParams, u: float, ell: float,
            m: int) -> Optional[EvalResult]:
    """F(p; 1-u) at c-a-b = m by the log series, or None where it hands
    over to the direct series."""
    a, b = (p.a, p.b) if m >= 0 else (p.c - p.a, p.c - p.b)
    sums = _zb_sum(a, b, u, ell, abs(m))
    if sums is None:
        return None
    value, err, serves = _log_series_result(a, b, m, sums, u, ell)
    return EvalResult(value, err, sums[-1] + 1, METHOD_ZB_LOG) if serves \
        else None


def zb_complement_sums(a: float, b: float, u: float) -> tuple[float, float]:
    """Return (C-1, D1): C = sum c_n u^n, D1 = sum_{n>=1} c_n d_n u^n.

    The log-free and log-coefficient parts of the zero-balanced
    expansion, both vanishing like u, so that callers recombining them
    against exactly known linear terms (the asymptotic-defect functions)
    keep full relative accuracy where C-1 formed by subtraction has none.
    RangeError where a sum overflows a float.
    """
    u = float(u)
    if not (0.0 <= u <= 0.75):
        raise DomainError(f"complement u must lie in [0, 0.75], got {u!r}")
    sums = _zb_sum(a, b, u, 0.0, 0, from_one=True)
    if sums is None:
        raise ConvergenceError(
            f"zero-balanced coefficient sums at u={u} did not converge"
        )
    if not (math.isfinite(sums[5]) and math.isfinite(sums[0])):
        raise RangeError(
            f"zero-balanced coefficient sums at u={u} overflow a float")
    return sums[5], sums[0]


def _connection_prefactors(a: float, b: float, c: float, s: float):
    """For DLMF 15.8.4 at a <= b: A (None at a pole of G(c-a) G(c-b)), the
    sign and log of B/u^s, and the sum of |log G| in A and B; OverflowError
    where a log-gamma or A overflows."""
    lg_c = math.lgamma(c)
    lg_s, sg_s = specfun.log_abs_gamma(s)
    lg_ms, sg_ms = specfun.log_abs_gamma(-s)
    lg_ca, sg_ca = specfun.log_abs_gamma(c - a)
    lg_cb, sg_cb = specfun.log_abs_gamma(c - b)
    lg_a, lg_b = math.lgamma(a), math.lgamma(b)
    coef_a = None
    lg_sum = abs(lg_c) + abs(lg_s) + abs(lg_ms) + abs(lg_a) + abs(lg_b)
    if sg_ca and sg_cb:
        coef_a = sg_s * sg_ca * sg_cb * math.exp(lg_c + lg_s - lg_ca - lg_cb)
        if coef_a:
            lg_sum += abs(lg_ca) + abs(lg_cb)
    return coef_a, sg_ms, lg_c + lg_ms - lg_a - lg_b, lg_sum


def _connection_result(a: float, b: float, s: float, log_u, lg_sum: float,
                       part_a, err_a, coef_b, f2, err_2):
    """(value, estimate, whether DLMF 15.8.4 serves) from A F1, B u^s and
    F2 and their errors, at a float u or an array."""
    part_b = coef_b * f2
    value = part_a + part_b
    size = abs(part_a) + abs(part_b)
    # exp() turns the rounding of its (log-gamma) argument into relative
    # error of A and B, and u^s scales the rounding of s = c-(a+b) by log u
    rounding = CONNECTION_ROUNDING + _EPS * (
        lg_sum + (a + b + 2.0 * abs(s)) * abs(log_u))
    err = err_a + abs(coef_b) * err_2 + rounding * size
    serves = (size <= MAX_CANCEL * abs(value)) & (abs(err) < math.inf)
    return value, err, serves


def _connection(a: float, b: float, c: float, u: float,
                log_u: float) -> Optional[EvalResult]:
    """F(a,b;c;1-u) by DLMF 15.8.4 for s = c-a-b not an integer and
    u < 1/2, or None where it hands over to the direct series."""
    a, b = min(a, b), max(a, b)  # so F(a,b;..) and F(b,a;..) agree to the bit
    s = c - (a + b)
    part_a = err_a = 0.0
    terms = 0
    try:
        coef_a, sg_ms, log_b, lg_sum = _connection_prefactors(a, b, c, s)
        coef_b = sg_ms * math.exp(log_b + s * log_u)
        if coef_a is not None:
            f1 = _direct_series(a, b, 1.0 - s, u)
            part_a = coef_a * f1.value
            err_a = abs(coef_a) * f1.abs_err_estimate
            terms = f1.terms_used
        f2 = _direct_series(c - a, c - b, 1.0 + s, u)
    except (OverflowError, RangeError):
        return None
    value, err, serves = _connection_result(
        a, b, s, log_u, lg_sum, part_a, err_a, coef_b, f2.value,
        f2.abs_err_estimate)
    if not serves:
        return None
    return EvalResult(value, err, terms + f2.terms_used, METHOD_CONNECTION)


def _x_err(x, u):
    """The relative rounding of x = fl(1-u), at a float or an array: 1-x
    is exact for x >= 1/2, and so is (1-x) - u wherever u > 2 eps."""
    return abs((1.0 - x) - u) / x


def f21_from_complement(p: HypParams, u: float,
                        minus_log_u: float) -> EvalResult:
    """F(p; 1-u) for 0 <= u < 1, with u and -log(u) given: below u = 1/2
    by a complement route or its hand-over, else by the direct series.
    Raises RangeError when the value overflows or the direct series would
    run where 1-u rounds to 1, ConvergenceError when out of terms."""
    u, ell = float(u), float(minus_log_u)
    if not (0.0 <= u < 1.0):
        raise DomainError(f"complement u must lie in [0, 1), got {u!r}")
    if not math.isfinite(ell):
        raise DomainError(f"-log(u) must be finite, got {ell!r}")
    if u < X_SWITCH:
        route, m = _route(p)
        r = (_connection(p.a, p.b, p.c, u, -ell) if route == "connection"
             else _zb_log(p, u, ell, m) if route == "log" else None)
        if r is not None:
            return r
        if route == "power" and u > 0.0:
            value, err = _binomial(p, u)
            if value == math.inf:
                raise RangeError(
                    f"F({p.a},{p.b};{p.c};1-u) at u={u!r} overflows a float")
            return EvalResult(value, err, 0, METHOD_DIRECT)
    x = 1.0 - u
    if x == 1.0:
        raise RangeError(
            f"F({p.a},{p.b};{p.c};1-u) at u={u!r}: the direct series would "
            f"run at 1-u, which rounds to 1")
    return _direct_series(p.a, p.b, p.c, x, _x_err(x, u))


def f21(p: HypParams, x: float) -> EvalResult:
    """Evaluate F(a,b;c;x) for 0 <= x < 1.

    Raises RangeError when the value overflows a float, and
    ConvergenceError when a series exhausts its term cap.
    """
    x = _check_x(x)
    if x > X_SWITCH:
        u = 1.0 - x  # exact: x >= 1/2
        return f21_from_complement(p, u, -math.log(u))
    return _direct_series(p.a, p.b, p.c, x)


def f21_at_one(p: HypParams) -> float:
    """Gauss limit F(a,b;c;1) = Gamma(c)Gamma(c-a-b)/(Gamma(c-a)Gamma(c-b)).

    Requires c > a + b; the function diverges at x = 1 otherwise.
    """
    s = p.c - p.a - p.b
    if s <= 0.0:
        raise DomainError(
            f"F(a,b;c;1) finite only for c > a+b; got c-(a+b) = {s!r}"
        )
    log_value = (specfun.log_gamma(p.c) + specfun.log_gamma(s)
                 - specfun.log_gamma(p.c - p.a) - specfun.log_gamma(p.c - p.b))
    try:
        return math.exp(log_value)
    except OverflowError:
        raise RangeError(f"F({p.a},{p.b};{p.c};1) overflows a float") from None


def _derivative(p: HypParams, x, value):
    """dF(p; x)/dx from value(q, x) = F(q; x), at a float x or an array."""
    if p.balanced_sign:
        return p.a * p.b / p.c * value(
            HypParams(p.a + 1.0, p.b + 1.0, p.c + 1.0), x)
    # (1-x) F'(x) = (ab/(a+b)) F(a,b;a+b+1;x), the m = 1 log series past
    # 1/2, and one direct series below it, where 1/(1-x) is at most 2
    w = value(HypParams(p.a, p.b, p.c + 1.0), x)
    return p.a * p.b / p.c * w / (1.0 - x)


def f21_derivative(p: HypParams, x: float) -> float:
    """dF(a,b;c;x)/dx = (ab/c) F(a+1,b+1;c+1;x), or for c = a+b
    (ab/(a+b)) F(a,b;a+b+1;x)/(1-x)."""
    return _derivative(p, _check_x(x), lambda q, y: f21(q, y).value)


# ---------------------------------------------------------------------------
# array evaluation
#
# A family's loop runs at every lane of a batch in lockstep: each numpy
# step adds a block of terms to every lane still summing, and a lane
# stops where the scalar rule stops it.  A block is a (terms, lanes)
# array, so that each term's row is contiguous; per-term factors enter
# as columns.  A lane carries its own point and, where the lanes of one
# run sum different series of a family, the index of its parameters: a
# step forms the per-term factors as a column per triple a, b, c of the
# ratio family, or f_m(n) as a column per m of the log family (c_n and
# d_n depend on a, b alone, so a run shares them), and each lane takes
# its own column.  So the sums a caller needs at its points run as one
# lockstep run per family: both series of the connection formula, the
# direct series of every parameter triple, a caller's own with the
# hand-overs past 1/2, and the m = 0 and m = 1 log series of v and w in
# pqfun.  Every run is the lockstep, at any lane count.
# Running products and sums are scans down the rows, applied in
# sequence as the scalar loop does; numpy's + - * / round as Python's
# do; log and exp come from math point by point.  So each lane gets its
# scalar call's bits.  Every entry point runs through specfun's one
# array-form driver, which sums each distinct point in its domain once,
# keyed on its bits.  The lockstep sums routes only: a lane that hands
# over is not served (a log sum that stalls or cancels, a connection
# formula that cancels or whose series fails, 1-u = 1 on the direct
# route, a series that overflows or runs out of terms), and where a
# prefactor or B(a, b) overflows the run raises and serves no lane.
# Every point not served, and every point out of range, takes its
# scalar call's result, point by point in index order.  So a batch
# returns, and raises first, what a loop of scalar calls would.

# Terms per block: BLOCK_MIN, or as many as already summed, but at most
# BLOCK_CELLS over all lanes.
BLOCK_MIN = 16
BLOCK_CELLS = 16384
# A scan whose rows hold at least this many cells (lanes times parts)
# runs one ufunc call per row; a narrower one runs ufunc.accumulate down
# the columns.  Both combine each lane's terms in order, to the same
# bits.  Measured on blocks of 5 to 64 terms (Python 3.11, numpy 2.4,
# one Xeon core): accumulate costs 5-9 ns a cell at any width, a row
# call ~2 us plus ~1 ns a cell, so they tie at 192-256 cells; the row
# scan is 2-2.8x faster at 512-1000 and 5x at 3000, accumulate 1.4-2.9x
# faster at 64.
SCAN_ROWS_FROM = 256

@dataclass(frozen=True)
class EvalResults:
    """The EvalResult fields of a batch of points, one array each."""

    value: np.ndarray
    abs_err_estimate: np.ndarray
    terms_used: np.ndarray
    method: np.ndarray


class _Lanes:
    """Per-lane value, estimate, term count and whether the lockstep
    serves the lane, of a batch."""

    def __init__(self, size: int) -> None:
        self.value = np.zeros(size)
        self.err = np.zeros(size)
        self.terms = np.zeros(size, dtype=np.int64)
        self.served = np.ones(size, dtype=bool)

    def take(self, at, other: "_Lanes") -> None:
        self.value[at] = other.value
        self.err[at] = other.err
        self.terms[at] = other.terms
        self.served[at] = other.served

    def __getitem__(self, at: slice) -> "_Lanes":
        part = _Lanes(0)
        part.value, part.err = self.value[at], self.err[at]
        part.terms, part.served = self.terms[at], self.served[at]
        return part


def _parts(counts: Sequence[int]) -> list[slice]:
    """The lanes of consecutive parts of counts[i] lanes each."""
    ends = np.cumsum(counts).tolist()
    return [slice(end - count, end) for count, end in zip(counts, ends)]


def _scan(ufunc: np.ufunc, *parts) -> list[np.ndarray]:
    """For each part (start, steps), row i: start combined with steps[0],
    then with steps[1], ... up to steps[i], lane by lane.  The parts,
    steps of one shape, run side by side in one scan."""
    terms, *lanes = parts[0][1].shape
    out = np.empty((terms + 1, len(parts), *lanes))
    for p, (start, steps) in enumerate(parts):
        out[0, p] = start
        out[1:, p] = steps
    if out[0].size < SCAN_ROWS_FROM:
        ufunc.accumulate(out, axis=0, out=out)
    else:
        for prev, row in zip(out[:-1], out[1:]):
            ufunc(prev, row, out=row)
    return [out[1:, p] for p in range(len(parts))]


def _runs_of_three(cond: np.ndarray, small: np.ndarray,
                   now) -> tuple[np.ndarray, ...]:
    """A block of the stop rule "passed three times in a row, or stops
    at once where ``now``": from the tests cond[:, i] and the runs
    small[i] before the block, the lanes that stop, the step at which
    each does, and the runs after it."""
    ext = np.concatenate(((small >= 2)[None], (small >= 1)[None], cond))
    hit = ext[2:] & ext[1:-1] & ext[:-2] | now
    run = np.where(ext[-1], np.where(ext[-2], 2, 1), 0)
    return hit.any(axis=0), hit.argmax(axis=0), run


def _lockstep(step, fixed: tuple, state: tuple[np.ndarray, ...], cap: int):
    """Sum a series at every lane of a batch in lockstep, by blocks.

    ``fixed`` holds each lane's inputs as (1, lanes) rows, or as values
    every lane shares, ``state`` what the next term reads or the caller
    wants.  ``step(n, k, fixed, state)`` adds terms n+1 .. n+k and
    returns the state after each, as (k, lanes) arrays, the stop test at
    each, and where a lane stops at once (or False).  Returns the state
    at each lane's stop, its terms after the first, and where ``cap``
    terms were not enough."""
    size = state[0].size
    final = tuple(np.zeros(size) for _ in state)
    summed = np.zeros(size, dtype=np.int64)
    idx = np.arange(size)
    small = np.zeros(size, dtype=np.int8)
    n = 0
    with np.errstate(all="ignore"):
        while idx.size and n < cap:
            k = max(1, min(max(BLOCK_MIN, n), BLOCK_CELLS // idx.size,
                           cap - n))
            rows, passed, now = step(n, k, fixed, state)
            stop, at, small = _runs_of_three(passed, small, now)
            n += k
            keep = np.flatnonzero(~stop)
            if keep.size < idx.size:
                lanes = np.flatnonzero(stop)
                j = at[lanes]
                i = idx[lanes]
                for out, row in zip(final, rows):
                    out[i] = row[j, lanes]
                summed[i] = n - k + j + 1
                idx, small = idx[keep], small[keep]
                fixed = tuple(v.take(keep, axis=1)
                              if isinstance(v, np.ndarray) else v
                              for v in fixed)
            # copies: the block is freed before the next one is made
            state = tuple(row[-1][keep] for row in rows)
            del rows, passed, now
    stalled = np.zeros(size, dtype=bool)
    stalled[idx] = True
    return final, summed, stalled


def _ratio_many(a, b, c, xs: np.ndarray, total: np.ndarray,
                pick: Optional[np.ndarray] = None):
    """_ratio_sum at every point of xs onto the sums ``total``, laid out
    as its result (arrays), and the lanes out of terms: a, b, c floats,
    or arrays of which lane i takes entry pick[i]."""

    def step(n, k, fixed, state):
        x, pick = fixed
        term, total, weighted, comp, _ = state
        # term n+j takes factor j, and its stop test the ratio factor j+1
        m = np.arange(n, n + k + 1.0)[:, None]  # a + m rounds as a + n
        mult = (a + m) * (b + m) / ((c + m) * (m + 1.0))
        if pick is not None:  # a column per parameter triple
            mult = mult.take(pick[0], axis=1)
        mult = mult * x
        (terms,) = _scan(np.multiply, (term, mult[:k]))
        sizes = np.abs(terms)
        sums, weights = _scan(np.add, (total, terms),
                              (weighted, m[1:] * sizes))
        prev = np.concatenate((total[None], sums[:-1]))
        back = sums - prev
        (comps,) = _scan(np.add,
                         (comp, (prev - (sums - back)) + (terms - back)))
        r = np.where(sizes != 0.0, np.maximum(np.abs(mult[1:]), x), 0.0)
        passed = (r < 1.0) & (sizes * r <= np.maximum(
            SERIES_RTOL * np.abs(sums) * (1.0 - r), _TINY))
        return (terms, sums, weights, comps, r), passed, ~(sizes < np.inf)

    ones, zeros = np.ones(xs.size), np.zeros(xs.size)
    (term, total, weighted, comp, r), summed, stalled = _lockstep(
        step, (xs[None], None if pick is None else pick[None]),
        (ones, total, zeros, zeros, ones), MAX_TERMS_DIRECT)
    with np.errstate(all="ignore"):
        return (total + comp, term, r, weighted, summed), stalled


def _direct_many(jobs: Sequence[tuple]) -> list[_Lanes]:
    """_direct_series for each job (a, b, c, xs, x_err) at every point
    of its xs, x_err a float or one per point, by one lockstep run over
    all of them where they have any lanes: the lanes of each job."""
    counts = [j[3].size for j in jobs]
    if not sum(counts):
        return [_Lanes(0) for _ in jobs]
    xs = np.concatenate([j[3] for j in jobs])
    x_err = np.concatenate([np.zeros(j[3].size) + j[4] for j in jobs])
    params, pick = jobs[0][:3], None
    if any(j[:3] != params for j in jobs):
        params = np.array([j[:3] for j in jobs]).T
        pick = np.repeat(np.arange(len(jobs)), counts)
    (total, term, r, weighted, summed), stalled = _ratio_many(
        *params, xs, np.ones(xs.size), pick)
    out = _Lanes(xs.size)
    out.value = total
    with np.errstate(all="ignore"):
        out.err = _ratio_estimate(term, r, weighted, total, x_err)
    out.terms = summed + 1
    out.served = np.isfinite(total) & ~stalled
    return [out[at] for at in _parts(counts)]


def _zb_many(a: float, b: float, u: np.ndarray, ell: np.ndarray, m,
             from_one: bool = False):
    """_zb_sum at every (u, ell) pair, m an int or one per pair, laid out
    as its result (arrays), and the lanes out of terms."""
    # c_n, d_n, f_m(n) and f_m'(n) as the scalar loop forms them, as
    # columns; f_m and f_m' a column per m, picked per lane where m is
    # given per lane
    d_0 = specfun.ramanujan_r(a, b)
    j = np.arange(float(MAX_TERMS_LOG))[:, None]
    kinds, pick = (np.unique(m, return_inverse=True)
                   if isinstance(m, np.ndarray) else ([m], None))
    f_all, fp_all = np.stack([_falling(int(k))[3] for k in kinds], axis=-1)
    m_max = int(max(kinds))
    if pick is None:
        f_0, fp_0 = f_all[0, 0], fp_all[0, 0]
    else:
        pick = pick.reshape(1, -1)
        f_0, fp_0 = f_all[0, pick[0]], fp_all[0, pick[0]]
    start = size = np.zeros(u.size)
    with np.errstate(all="ignore"):
        (c_all,) = _scan(np.multiply,
                         (1.0, (a + j) * (b + j) / ((j + 1.0) * (j + 1.0))))
        (d_all,) = _scan(np.add, (
            d_0, 2.0 / (j + 1.0) - 1.0 / (a + j) - 1.0 / (b + j)))
        if not from_one:
            start = f_0 * (d_0 + ell) - fp_0
            size = abs(fp_0) + f_0 * (abs(d_0) + ell)
    j += 1.0

    def step(n, k, fixed, state):
        uu, ll, pick = fixed
        cs, ds = c_all[n:n + k], d_all[n:n + k]
        fs, fps = f_all[n + 1:n + k + 1], fp_all[n + 1:n + k + 1]
        if pick is not None:
            fs, fps = fs[:, pick[0]], fps[:, pick[0]]
        (u_pows,) = _scan(np.multiply, (state[0], uu.repeat(k, axis=0)))
        terms = cs * (fs * (ds + ll) - fps) * u_pows
        c_u = cs * u_pows
        parts = c_u * (np.abs(fps) + fs * (np.abs(ds) + ll))  # T~_n
        sums, sizes, weights, plains = _scan(
            np.add, (state[1], terms), (state[2], parts),
            (state[3], j[n:n + k] * parts), (state[4], c_u))
        passed = np.abs(terms) <= SERIES_RTOL * np.abs(sums)
        if from_one:  # the stop waits for C - 1 too
            passed &= c_u <= SERIES_RTOL * plains
        if n + 1 < m_max:  # the stop rule counts terms n >= m
            passed &= fs > 0.0
        rows = u_pows, sums, sizes, weights, plains, terms, parts
        return rows, passed, False

    ones, zeros = np.ones(u.size), np.zeros(u.size)
    (_, total, size, weighted, plain, term, part), summed, stalled = _lockstep(
        step, (u[None], ell[None], pick),
        (ones, start, size, zeros, zeros, start, size), MAX_TERMS_LOG)
    return (total, term, part, size, weighted, plain, summed), stalled


def _zb_log_many(a: float, b: float, ms: Sequence[int], u: np.ndarray,
                 ell: np.ndarray) -> list[_Lanes]:
    """_zb_log for each m in ms at every (u, ell) pair, a and b the pair
    summed (c-a, c-b where m < 0), by one lockstep run: per m, the lanes,
    where a lane that hands over is not served.  RangeError where B(a, b)
    overflows."""
    size = u.size
    sums, stalled = _zb_many(
        a, b, np.tile(u, len(ms)), np.tile(ell, len(ms)),
        abs(ms[0]) if len(set(ms)) == 1 else np.repeat(np.abs(ms), size))
    results = []
    for m, part in zip(ms, _parts([size] * len(ms))):
        own = tuple(s[part] for s in sums)
        out = _Lanes(size)
        with np.errstate(all="ignore"):
            out.value, out.err, serves = _log_series_result(
                a, b, m, own, u, ell)
        out.terms = own[-1] + 1
        out.served = serves & ~stalled[part]
        results.append(out)
    return results


def _connection_many(ps: Sequence[HypParams], u: np.ndarray,
                     log_u: np.ndarray) -> list[_Lanes]:
    """_connection for each p in ps at every point of u, their series by
    one lockstep run: per p, the lanes, where a lane that hands over is
    not served.  OverflowError where a prefactor overflows."""
    setups, jobs = [], []
    for p in ps:
        a, b = min(p.a, p.b), max(p.a, p.b)
        s = p.c - (a + b)
        pre = _connection_prefactors(a, b, p.c, s)
        setups.append((a, b, s, pre, len(jobs)))
        jobs.append((p.c - a, p.c - b, 1.0 + s, u, 0.0))
        if pre[0] is not None:
            jobs.append((a, b, 1.0 - s, u, 0.0))
    series = _direct_many(jobs)
    results = []
    for a, b, s, (coef_a, sg_ms, log_b, lg_sum), at in setups:
        out = _Lanes(u.size)
        coef_b = sg_ms * specfun.pointwise(_exp_or_inf, log_b + s * log_u)
        f2 = series[at]
        f1 = f2 if coef_a is None else series[at + 1]
        with np.errstate(all="ignore"):
            part_a, err_a = ((0.0, 0.0) if coef_a is None
                             else (coef_a * f1.value, abs(coef_a) * f1.err))
            out.value, out.err, serves = _connection_result(
                a, b, s, log_u, lg_sum, part_a, err_a, coef_b, f2.value,
                f2.err)
        out.terms = f2.terms + (0 if coef_a is None else f1.terms)
        out.served = f1.served & f2.served & serves
        results.append(out)
    return results


def _from_complement_many(
        ps: Sequence[HypParams], u: np.ndarray, ell: np.ndarray,
        own: Sequence[tuple] = ()) -> tuple[list[_Lanes], list[_Lanes]]:
    """f21_from_complement for each p in ps at every (u, ell) pair with
    u < 1/2, and the caller's own direct series, jobs of _direct_many:
    per p, then per job, the lanes.  A lane whose route hands over, or
    whose direct route meets 1-u = 1, is not served.  The connection
    formulas run as one lockstep run, the log series as one per pair a,
    b they sum, and the direct series, the caller's and the direct
    routes', as one."""
    if not u.size:
        return [_Lanes(0) for _ in ps], _direct_many(own)
    routes = [_route(p) for p in ps]
    found, logs, direct, jobs = {}, {}, [], list(own)
    conn = [i for i, (route, _) in enumerate(routes) if route == "connection"]
    if conn:
        found.update(zip(conn, _connection_many(
            [ps[i] for i in conn], u, -ell)))
    x = 1.0 - u
    for i, (p, (route, m)) in enumerate(zip(ps, routes)):
        if route == "log":
            pair = (p.a, p.b) if m >= 0 else (p.c - p.a, p.c - p.b)
            logs.setdefault(pair, []).append(i)
        elif route == "power":
            found[i] = lanes = _Lanes(u.size)
            lanes.value, lanes.err = _binomial(p, u)  # inf at u = 0
            lanes.served = lanes.value < math.inf
        elif route == "direct":
            direct.append(i)  # a lane at 1-u = 1 sums x = 0 instead
            jobs.append((p.a, p.b, p.c, np.where(x < 1.0, x, 0.0),
                         _x_err(x, u)))
    for (a, b), group in logs.items():
        found.update(zip(group, _zb_log_many(
            a, b, [routes[i][1] for i in group], u, ell)))
    series = _direct_many(jobs)
    for i, lanes in zip(direct, series[len(own):]):
        lanes.served &= x < 1.0
        found[i] = lanes
    return [found[i] for i in range(len(ps))], series[:len(own)]


def f21_many(p: HypParams, xs) -> EvalResults:
    """f21 at every point of the 1-d array xs, in lockstep: each point
    gets the value, estimate, term count and method of its f21 call, to
    the bit, and the batch raises what the first failing point would."""
    xs = specfun.as_points(xs)
    method = {"connection": METHOD_CONNECTION,
              "log": METHOD_ZB_LOG}.get(_route(p)[0], METHOD_DIRECT)

    def lanes_of(xs):
        out = _Lanes(xs.size)
        near = xs > X_SWITCH
        u = 1.0 - xs[near]  # exact: x >= 1/2
        [above], [below] = _from_complement_many(
            (p,), u, -specfun.pointwise(math.log, u),
            [(p.a, p.b, p.c, xs[~near], 0.0)])
        out.take(near, above)
        out.take(~near, below)
        return (out.value, out.err, out.terms,
                np.where(near, method, METHOD_DIRECT), out.served)

    return EvalResults(*specfun._array_form(
        (xs,), (0.0 <= xs) & (xs < 1.0), lanes_of,
        lambda x: astuple(f21(p, x)), (float, float, np.int64, object)))


def _lo_hi_many(ps: Sequence[HypParams], lo: np.ndarray,
                ell: np.ndarray) -> list[np.ndarray]:
    """The values F(p; lo) for each p in ps, then F(p; 1-lo) for each, as
    f21 and f21_from_complement give them at (lo, ell = -log(lo)): at
    each distinct pair with 0 <= lo <= 1/2 and ell finite, one direct run
    for all the F(p; lo) and the direct routes past 1/2, and one run per
    other route; at lo = 1/2 both are the direct series at 1/2, so
    F(p; 1-lo) is a copy of F(p; lo).  A point that a route hands over,
    or out of that range, takes the values of its scalar calls, in that
    order, or raises their first error."""

    def lanes_of(lo, ell):
        near = lo < X_SWITCH
        above, below = _from_complement_many(
            ps, lo[near], ell[near], [(p.a, p.b, p.c, lo, 0.0) for p in ps])
        values = [out.value for out in below]
        served = np.logical_and.reduce([out.served for out in below])
        for lanes, at_lo in zip(above, below):
            values.append(at_lo.value.copy())
            values[-1][near] = lanes.value
            served[near] &= lanes.served
        return (*values, served)

    return specfun._array_form(
        (lo, ell), (0.0 <= lo) & (lo <= X_SWITCH) & np.isfinite(ell),
        lanes_of,
        lambda lo, ell: ([f21(p, lo).value for p in ps]
                         + [f21_from_complement(p, lo, ell).value
                            for p in ps]),
        (float,) * (2 * len(ps)))


def f21_derivative_many(p: HypParams, xs) -> np.ndarray:
    """f21_derivative at every point of the 1-d array xs, to the bit."""
    return _derivative(p, specfun.as_points(xs),
                       lambda q, y: f21_many(q, y).value)


def zb_complement_sums_many(a: float, b: float,
                            us) -> tuple[np.ndarray, np.ndarray]:
    """zb_complement_sums at every point of us, to the bit: (C-1, D1)."""
    u = specfun.as_points(us)

    def lanes_of(u):
        sums, stalled = _zb_many(a, b, u, np.zeros(u.size), 0, from_one=True)
        return (sums[5], sums[0],
                ~stalled & np.isfinite(sums[5]) & np.isfinite(sums[0]))

    return tuple(specfun._array_form(
        (u,), (0.0 <= u) & (u <= 0.75), lanes_of,
        lambda u: zb_complement_sums(a, b, u), (float, float)))


def f21_minus_one_many(a: float, b: float, c: float, xs) -> np.ndarray:
    """f21_minus_one at every point of xs, to the bit."""
    HypParams(a, b, c)  # DomainError for a bad parameter
    x = specfun.as_points(xs)

    def lanes_of(x):
        (total, *_), stalled = _ratio_many(a, b, c, x, np.zeros(x.size))
        return total, np.isfinite(total) & ~stalled

    return specfun._array_form((x,), (0.0 <= x) & (x <= 0.75), lanes_of,
                               lambda x: (f21_minus_one(a, b, c, x),))[0]
