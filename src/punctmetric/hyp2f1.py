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
Where a part overflows or runs out of terms, the parts cancel by more
than MAX_CANCEL (sum T~_n/|S|, or (|A F1| + |B u^s F2|)/|F|), or DLMF
15.8.4's estimate reaches |F| (F2 cancelling within itself), the
direct series serves at x = 1-u, as it does at once for the other
integer s, as in F(2,2;1;x); at c = b it is the binomial series of
F(a,b;b;1-u) = u^-a (a, b swapped at c = a), summed in closed form.
Two hand-overs come before their series end, each only where the end
would hand over too, so that neither moves a bit: the log series stops
once its running sum of T~_n passes MAX_CANCEL (1 + _CAP_SLACK + 6 eps
lg) times u^-min(a,b)/scale, a bound on |S| (see _CAP_SLACK), and DLMF
15.8.4 sums F2 before F1, so that where F2 overflows, as it does within
a few terms at large s, F1's ~s terms are not summed.
Given u exactly (u = e^{-t}/(1+e^{-t})) and -log(u) finite, nothing is
lost to cancellation, even where u underflows to 0.  The ``*_many``
forms give each point of a 1-d array the bits of its float call; they
live in ``_hyp2f1_arrays``, whose lockstep sums one series for one
parameter set a run, and load it, and numpy, on first use.  Each
route past x = 1/2 has one body, ``_zb_log`` and ``_connection``: it
runs at a float u, and at every point of an array where the array
form passes the lockstep's summers and a pointwise exp.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple

from . import specfun
from .errors import ConvergenceError, DomainError, RangeError

SERIES_RTOL = 1e-15
MAX_TERMS_DIRECT = 1_000_000
MAX_TERMS_LOG = 200
X_SWITCH = 0.5
# past x = 1/2 a route hands over where its parts cancel by more than this
MAX_CANCEL = 1e3
# The log route's hand-over is certain once its running sum Z of T~_n
# passes MAX_CANCEL (1 + _CAP_SLACK + 6 eps lg) u^-min(a,b)/scale, a, b
# the pair summed and scale, lg those of _log_scale: Z only grows, and
# serving needs Z <= MAX_CANCEL |S| at the stop, S the computed sum.
# There c >= max(a, b), so F(a,b;c;1-u) <= u^-min(a,b) (at a <= b, (b)_n
# <= (c)_n: each term is at most that of (1-x)^-a), and |S| is at most
# F/scale plus S's own error, of which
#   - the roundings, eps (SERIES_ROUNDINGS N Z + N |S|), are below
#     eps 201 (16 MAX_CANCEL + 1) |S| < 3.6e-10 |S| where Z <= MAX_CANCEL
#     |S| (N <= MAX_TERMS_LOG + 1 terms);
#   - the tail past the stop, |T_N| u/(1-u) or |T_N| (u/(1-u) + 1)(ell
#     + 2) with |T_N| <= SERIES_RTOL |S|, is below 1.5e-12 |S| at m <= 1
#     (ell < 745), and T~_N r/(1-r) at m >= 2 is taken as small;
# and the cap itself falls short of MAX_CANCEL u^-min(a,b) times the
# exact 1/scale by at most B's and the Pochhammer products' error, eps (6
# lg + 64 + 4k) (see _log_scale and _zb_log), an ulp of the
# pow (u and the exponent are exact) and 4 roundings: 6 eps lg + 1e-13.
# The slack is over twice the 3.7e-10 left when 6 eps lg is set apart.
_CAP_SLACK = 1e-9
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
# the method of a complement route's result, where it serves
_METHODS = {"connection": METHOD_CONNECTION, "log": METHOD_ZB_LOG}


class HypParams(NamedTuple("HypParams", [("a", float), ("b", float),
                                          ("c", float)])):
    """A positive parameter triple (a, b, c) for F(a,b;c;x)."""

    __slots__ = ()

    def __new__(cls, a: float, b: float, c: float) -> HypParams:
        self = tuple.__new__(cls, (specfun.to_float(a, "a"),
                                   specfun.to_float(b, "b"),
                                   specfun.to_float(c, "c")))
        for name, v in zip("abc", self):
            if not math.isfinite(v) or v <= 0.0:
                raise DomainError(
                    f"hypergeometric parameter {name} must be positive and "
                    f"finite, got {v!r}"
                )
        return self

    @property
    def balanced_sign(self) -> int:
        """Sign of c - (a+b): 0 means zero balanced."""
        s = self.c - (self.a + self.b)
        if s == 0.0:
            return 0
        return 1 if s > 0.0 else -1


class EvalResult(NamedTuple):
    value: float
    abs_err_estimate: float
    terms_used: int
    method: str


def _check_x(x: float) -> float:
    x = specfun.to_float(x, "x")
    if not (0.0 <= x < 1.0):
        raise DomainError(f"x must lie in [0, 1), got {x!r}")
    return x


def _route(p: HypParams) -> tuple[str, int]:
    """How F(p; 1-u) is summed at u < 1/2, and m: ("log", m) for c =
    (a+b)+m, rounded, with |m| <= MAX_TERMS_LOG (m < 0 only where c > a
    and c > b, by Euler's transformation), ("connection", 0) for c-a-b
    not an integer, else ("power", 0) at c = a or c = b and ("direct",
    0) elsewhere.  c = a or c = b, as given, comes before the log route:
    where a + b rounds to b = c, as at a = 1/2, b = 1e300, the m = 0 log
    series would sum F(a,b;a+b;.) with overflowing terms, and F is u^-a."""
    a_b = p.a + p.b
    s = p.c - a_b
    power = p.c in (p.a, p.b)
    if not power and -MAX_TERMS_LOG <= s <= MAX_TERMS_LOG:
        m = round(s)
        if p.c == a_b + m and (m >= 0 or (p.c > p.a and p.c > p.b)):
            return "log", m
    if math.isfinite(s) and not s.is_integer():
        return "connection", 0
    return ("power" if power else "direct"), 0


def _ratio_sum(a: float, b: float, c: float, x: float, total: float):
    """The ratio family at x summed onto ``total`` (1.0 holds T_0, 0.0
    starts at n = 1): (sum, last term, tail ratio r, sum of n |T_n|,
    terms after T_0), or None when out of terms.  At the first term
    that overflows the sum stops, and is not finite."""
    # n counts in floats, exact below 2^53, and |v| is v where v > 0,
    # else 0.0 - v, which is +0.0 at either zero: each term takes the
    # float operations of an int counter, abs() and max(), in their
    # order, with no int conversion or builtin call
    if not x:
        # every term after T_0 is a zero whatever a and b, but (a+n)(b+n)
        # can overflow, and inf times x = 0 is NaN: a = b = 0 sums the
        # same terms from ratios that cannot
        a = b = 0.0
    rtol, tiny, inf = SERIES_RTOL, _TINY, math.inf
    end = float(MAX_TERMS_DIRECT)
    term = 1.0
    comp = weighted = n = 0.0
    small_count = 0
    ratio = (a + n) * (b + n) / ((c + n) * (n + 1.0)) * x
    while n < end:
        term *= ratio
        # Knuth's TwoSum: comp gathers each addition's exact error
        t = total + term
        back = t - total
        comp += (total - (t - back)) + (term - back)
        total = t
        size = term if term > 0.0 else 0.0 - term
        n += 1.0
        weighted += n * size
        # Stop on the geometric tail: once c + n > 0 the step ratio
        # crosses x at most once (their difference has sign
        # (a+b-c-1)n + ab-c over (c+n)(n+1)), so past the hump the tail
        # is at most |T_n| r/(1-r), r = max(ratio, x); the 3-in-a-row
        # guard rides out the hump itself.  While c + n <= 0 a later
        # step ratio can be as large as c + n is near 0, so no test is
        # taken: terms that dip there grow again near n = -c.  A zero
        # term passes at any r (r = 0: every later term is 0, as after a
        # zero b), and the right side is at least the smallest
        # subnormal, where the terms of a subnormal sum may stick (a
        # step ratio above 1/2 rounds an ulp back to an ulp).
        ratio = (a + n) * (b + n) / ((c + n) * (n + 1.0)) * x
        r = 0.0
        if size:  # r = max(|ratio|, x)
            r = ratio if ratio > 0.0 else 0.0 - ratio
            if x > r:
                r = x
        if r < 1.0 and c + n > 0.0 and size * r <= (
                rtol * (total if total > 0.0 else 0.0 - total) * (1.0 - r)
                or tiny):
            small_count += 1
            # inf <= inf passes a term that overflowed onto a total that did
            if small_count == 3 or size == inf:
                return total + comp, term, r, weighted, int(n)
        elif size < inf:
            small_count = 0
        else:
            return total + comp, term, r, weighted, int(n)
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
    x = specfun.to_float(x, "x")
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
    f_{j+1}(x) = (x-j) f_j(x) in integers, as floats, and as rows (n-1,
    float(n), f_m(n), f_m'(n), |f_m'(n)|) for n >= 1."""
    f, fp = [1] * (MAX_TERMS_LOG + 1), [0] * (MAX_TERMS_LOG + 1)
    for j in range(m):
        fp = [(n - j) * d + v for n, (v, d) in enumerate(zip(f, fp))]
        f = [(n - j) * v for n, v in enumerate(f)]
    f, fp = tuple(map(_as_float, f)), tuple(map(_as_float, fp))
    return f, fp, tuple((n - 1, float(n), f[n], fp[n], abs(fp[n]))
                        for n in range(1, MAX_TERMS_LOG + 1))


def _zb_sum(a: float, b: float, u: float, ell: float, m: int,
            from_one: bool = False, cap: float = math.inf):
    """The log family c_n (f_m(n)(d_n + ell) - f_m'(n)) u^n, summed from
    n = 0 (from n = 1 if from_one, where the stop rule waits for C - 1
    too): (sum, last term, last T~_n, sum of T~_n, sum of n T~_n, C - 1,
    terms after the first), or None when out of terms or once the sum
    of T~_n passes cap."""
    f, fp, rows = _falling(m)
    c_n = u_pow = 1.0
    d_n = specfun._ramanujan_r(a, b)
    total = size = weighted = plain = 0.0
    if not from_one:
        total = f[0] * (d_n + ell) - fp[0]
        size = abs(fp[0]) + f[0] * (abs(d_n) + ell)
    small_count = 0
    for j, n, f_n, fp_n, size_fp in rows:  # j = n-1
        if size > cap:
            return None
        a_n, b_n = a + j, b + j
        c_n *= a_n * b_n / (n * n)
        d_n += 2.0 / n - 1.0 / a_n - 1.0 / b_n
        u_pow *= u
        c_u = c_n * u_pow
        term = c_n * (f_n * (d_n + ell) - fp_n) * u_pow
        d_abs = d_n if d_n > 0.0 else 0.0 - d_n  # |v| as in _ratio_sum
        part = c_u * (size_fp + f_n * (d_abs + ell))
        total += term
        size += part
        weighted += n * part
        plain += c_u
        if ((term if term > 0.0 else 0.0 - term)
                <= SERIES_RTOL * (total if total > 0.0 else 0.0 - total)
                and (not from_one or c_u <= SERIES_RTOL * plain)):
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


def _binomial(p: HypParams, u: float) -> tuple[float, float]:
    """(value, estimate) of F(a,b;b;1-u) = u^-a, or u^-b at c = a: the
    direct series is the binomial series, summed in closed form.  The
    value is inf where it overflows."""
    value = _pow_or_inf(u, -(p.a if p.c == p.b else p.b))
    # u is exact and libm's pow within an ulp: the estimate allows two
    return value, 4.0 * _EPS * value


def _log_scale(a: float, b: float, k: int) -> tuple[float, float]:
    """G(a+b+k)/(G(a+k) G(b+k)), the log series' factor at c-a-b = +-k,
    and the sum lg of |log G| in B(a,b).  math.lgamma erred against
    mpmath (x from 1e-4 to 1e5) by at most 18 eps where |lgamma| < 4,
    else 4.1 eps |lgamma|: B's three by 5 (|lgamma| + 4) eps at most."""
    # (a+b)_k/((a)_k (b)_k B(a,b)); inf, so handed over, where B(a,b)
    # or a log-gamma of it overflows, B(a,b) underflows or (a)_k (b)_k
    # overflows; by (a)_k first where (a)_k (b)_k underflows (tiny a, b,
    # a factor ~1)
    try:
        beta, lgs = specfun._beta_with_log_gammas(a, b)
    except RangeError:
        return math.inf, math.inf
    num = pa = pb = 1.0
    for j in range(k):
        num, pa, pb = num * (a + b + j), pa * (a + j), pb * (b + j)
    den = pa * pb * beta
    if not den:
        num, den = num / pa, pb * beta
    return (num / den if 0.0 < den < math.inf else math.inf,
            sum(map(abs, lgs)))


def _zb_log(p: HypParams, u, ell, m: int, zb_sum=None, exp=_exp_or_inf):
    """F(p; 1-u) at c-a-b = m by the log series: (value, estimate,
    whether it serves, terms) at a float u, or at every (u, ell) pair of
    arrays where the caller passes the lockstep's zb_sum and a pointwise
    exp; None where it hands over to the direct series at every point.
    To B's error (see _log_scale) the sum of its log-gammas, exp(), the
    factor and the product add eps lg + 4 eps, and the Pochhammer
    products of m >= 2 4 eps per step past the first."""
    a, b = (p.a, p.b) if m >= 0 else (p.c - p.a, p.c - p.b)
    k = abs(m)
    scale, lg = _log_scale(a, b, k)
    if scale == math.inf:
        return None
    cap = MAX_CANCEL * (1.0 + _CAP_SLACK + 6.0 * _EPS * lg) * _pow_or_inf(
        u, -min(a, b)) / scale
    sums = (zb_sum or _zb_sum)(a, b, u, ell, k, False, cap)
    if sums is None:
        return None
    total, term, part, size, weighted, _, terms = sums
    value = (-scale if k % 2 else scale) * total
    if k == 0:
        tail = abs(term) * u / (1.0 - u)
    elif k == 1:
        tail = abs(term) * (u / (1.0 - u) + 1.0) * (ell + 2.0)
    else:
        r = u * (max(a, b) + terms) / (terms + 1.0 - k)
        if min(a, b) > 1.0:
            r = r * (min(a, b) + terms) / (terms + 1.0)
        tail = (specfun.where(r < 1.0, part * r / (1.0 - r), math.inf)
                if specfun.is_array(r) else
                part * r / (1.0 - r) if r < 1.0 else math.inf)
    err = (abs(scale) * (tail + _EPS * (SERIES_ROUNDINGS * weighted
                                        + terms * abs(total)))
           + _EPS * (6.0 * lg + 64.0 + 4.0 * max(k - 1, 0)) * abs(value))
    if m < 0:
        # u^-k = e^{k ell}; u^s scales the rounding of c-a-b = -k, eps
        # (a+b+c) = eps (2(c-a + c-b) + 3k), by ell as well
        factor = exp(k * ell)
        value, err = value * factor, err * factor
        err += _EPS * (2.0 + (2.0 * (a + b) + 4.0 * k) * ell) * abs(value)
    serves = (size <= MAX_CANCEL * abs(total)) & (err < math.inf)
    return value, err, serves, terms + 1


def zb_complement_sums(a: float, b: float, u: float) -> tuple[float, float]:
    """Return (C-1, D1): C = sum c_n u^n, D1 = sum_{n>=1} c_n d_n u^n.

    The log-free and log-coefficient parts of the zero-balanced
    expansion, both vanishing like u, so that callers recombining them
    against exactly known linear terms (the asymptotic-defect functions)
    keep full relative accuracy where C-1 formed by subtraction has none.
    RangeError where a sum overflows a float.
    """
    a = specfun._require_positive(a, "a")
    b = specfun._require_positive(b, "b")
    u = specfun.to_float(u, "u")
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


def _connection(a: float, b: float, c: float, u, log_u, direct=None,
                exp=math.exp):
    """F(a,b;c;1-u) by DLMF 15.8.4 for s = c-a-b not an integer and u <
    1/2: (value, estimate, whether it serves, terms) at a float u, or at
    every point of arrays u, log_u where the caller passes the
    lockstep's direct series and a pointwise exp; None where it hands
    over to the direct series at every point.  It serves only where
    the parts cancel by at most MAX_CANCEL and the estimate is below
    |F|, so that F2 cancelling within itself cannot flip F's sign."""
    a, b = min(a, b), max(a, b)  # so F(a,b;..) and F(b,a;..) agree to the bit
    s = c - (a + b)
    direct = direct or _direct_series
    part_a = err_a = 0.0
    try:
        lg_c = math.lgamma(c)
        lg_s, sg_s = specfun._log_abs_gamma(s)
        lg_ms, sg_ms = specfun._log_abs_gamma(-s)
        lg_ca, sg_ca = specfun._log_abs_gamma(c - a)
        lg_cb, sg_cb = specfun._log_abs_gamma(c - b)
        lg_a, lg_b = math.lgamma(a), math.lgamma(b)
        lg_sum = abs(lg_c) + abs(lg_s) + abs(lg_ms) + abs(lg_a) + abs(lg_b)
        coef_a = None  # at a pole of G(c-a) G(c-b), A = 0
        if sg_ca and sg_cb:
            coef_a = sg_s * sg_ca * sg_cb * math.exp(
                lg_c + lg_s - lg_ca - lg_cb)
            if coef_a:
                lg_sum += abs(lg_ca) + abs(lg_cb)
        coef_b = sg_ms * exp(lg_c + lg_ms - lg_a - lg_b + s * log_u)
        # F2 first: where it overflows, in a few terms at large s, the
        # route hands over before F1 sums its ~s terms
        f2, err_2, terms = direct(c - a, c - b, 1.0 + s, u)[:3]
        if coef_a is not None:
            f1, err_1, terms_1 = direct(a, b, 1.0 - s, u)[:3]
            part_a, err_a = coef_a * f1, abs(coef_a) * err_1
            terms = terms + terms_1
    except (OverflowError, RangeError, ConvergenceError):
        # a series out of terms: where s - 1 passes MAX_TERMS_DIRECT, the
        # first one cannot reach its tail tests
        return None
    # at an array, F1 or F2 not finite (overflowed, out of terms) makes
    # F so, which does not serve: the lanes need no masks
    part_b = coef_b * f2
    value = part_a + part_b
    size = abs(part_a) + abs(part_b)
    # exp() turns the rounding of its (log-gamma) argument into relative
    # error of A and B, and u^s scales the rounding of s = c-(a+b) by log u
    rounding = CONNECTION_ROUNDING + _EPS * (
        lg_sum + (a + b + 2.0 * abs(s)) * abs(log_u))
    err = err_a + abs(coef_b) * err_2 + rounding * size
    serves = (size <= MAX_CANCEL * abs(value)) & (abs(err) < abs(value))
    return value, err, serves, terms


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
    u = specfun.to_float(u, "u")
    ell = specfun.to_float(minus_log_u, "minus_log_u")
    if not (0.0 <= u < 1.0):
        raise DomainError(f"complement u must lie in [0, 1), got {u!r}")
    if not math.isfinite(ell):
        raise DomainError(f"-log(u) must be finite, got {ell!r}")
    return _f21_from_complement(p, u, ell)


def _f21_from_complement(p: HypParams, u: float, ell: float) -> EvalResult:
    """f21_from_complement at a float u in [0, 1) and a finite float ell,
    unchecked."""
    if u < X_SWITCH:
        route, m = _route(p)
        r = (_connection(p.a, p.b, p.c, u, -ell) if route == "connection"
             else _zb_log(p, u, ell, m) if route == "log" else None)
        if r is not None and r[2]:
            return EvalResult(r[0], r[1], r[3], _METHODS[route])
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
        return _f21_from_complement(p, u, -math.log(u))
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


# the array forms that other modules call, from the array half, which
# loads numpy
__getattr__ = specfun.lazy_names(
    globals(), "._hyp2f1_arrays",
    ("EvalResults", "f21_many", "f21_derivative_many",
     "zb_complement_sums_many", "f21_minus_one_many", "_lo_hi_many"))

# bind this module's names into the package, however it was imported
from . import _bind  # noqa: E402

_bind(__name__)
