"""Gauss hypergeometric function F(a,b;c;x) on the real interval [0, 1).

Evaluation strategy
-------------------
* x <= 1/2: the defining Maclaurin series, term recurrence
  T_{n+1} = T_n (a+n)(b+n) / ((c+n)(n+1)) x.
* x > 1/2 and c == a+b (zero balanced): the logarithmic expansion in
  u = 1-x,

      F = (1/B(a,b)) * sum_n c_n (d_n + log(1/u)) u^n,
      c_n = (a)_n (b)_n / (n!)^2,
      d_n = 2 psi(n+1) - psi(a+n) - psi(b+n),   d_0 = R(a,b),

  which converges geometrically for u < 1.
* x > 1/2 and c == a+b+1: term-differentiating the expansion above and
  using (1-x) dF(a,b;a+b;x)/dx = (ab/(a+b)) F(a,b;a+b+1;x) gives

      F(a,b;a+b+1;x) = ((a+b)/(ab*B(a,b))) * sum_n c_n (1 - n(d_n + log(1/u))) u^n.

  The direct series decays only like n^{-2} here, far too slow near x = 1.
* x > 1/2 and s = c-a-b not an integer: the connection formula DLMF
  15.8.4 in u = 1-x,

      F = A F(a,b;1-s;u) + B u^s F(c-a,c-b;1+s;u),
      A = G(c)G(s)/(G(c-a)G(c-b)),   B = G(c)G(-s)/(G(a)G(b)),

  two direct series at u < 1/2 in place of one that needs ~35/u terms.
  A and B come from log-gamma with signs; A = 0 when c-a or c-b is a
  pole of G.  The error estimate counts the rounding of |A F1| + |B u^s F2|,
  so the cancellation of the two parts for s near an integer shows; past
  CONNECTION_MAX_CANCEL, or when A or B overflows, the direct series
  serves instead.
* any other c with x > 1/2 (s an integer other than 0 and 1): the direct
  series with an extended term cap.
* float and array forms: ``f21_many`` and the other ``*_many`` forms take
  one parameter triple and a 1-d array of points, and give each point
  the bits of its float call.  Only the summation loops are per form (a
  Python loop at one point, ``_lockstep`` over a batch; a one-point
  ``f21_many`` call costs 7-13 ``f21`` calls).  The route choice, the
  error estimates, and the prefactors and closing step of the connection
  formula are shared functions of a float or an array.

The `*_from_complement` entry points take u = 1-x and -log(u) explicitly,
so callers that know the complement exactly (logistic parameterizations
with u = e^{-t}/(1+e^{-t})) lose nothing to cancellation; they remain
correct even when u has underflowed to zero provided -log(u) is supplied
finite.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import specfun
from .errors import ConvergenceError, DomainError, RangeError

SERIES_RTOL = 1e-15
MAX_TERMS_DIRECT = 1_000_000
MAX_TERMS_LOG = 200
X_SWITCH = 0.5
# DLMF 15.8.4 hands over to the direct series when its two parts cancel
# by more than this factor (s = c-a-b close to an integer).
CONNECTION_MAX_CANCEL = 1e3
# rounding allowance of DLMF 15.8.4 per unit of |A F1| + |B u^s F2|
CONNECTION_ROUNDING = 1e-14
_EPS = 2.0 ** -53

METHOD_DIRECT = "direct_series"
METHOD_ZB_LOG = "zb_log_series"
METHOD_CONNECTION = "connection_series"
METHOD_GAUSS_LIMIT = "gauss_limit"


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


def _route(p: HypParams) -> str:
    """How F(p; x) is summed at x > 1/2: "zb" (c = a+b), "shifted"
    (c = a+b+1), "connection" (c-a-b not an integer) or "direct"."""
    s = p.c - (p.a + p.b)
    if s == 0.0:
        return "zb"
    if p.c == (p.a + p.b) + 1.0:
        return "shifted"
    if math.isfinite(s) and not s.is_integer():
        return "connection"
    return "direct"


def _direct_estimate(term, r, total):
    """The direct series' tail |T_n| r/(1-r) plus the sum's rounding."""
    return abs(term) * r / (1.0 - r) + 4e-16 * abs(total)


def _direct_series(a: float, b: float, c: float, x: float) -> EvalResult:
    # Neumaier-compensated accumulation: near x = 1 the sum runs to thousands
    # of terms and a bare += loses ~n*eps of the total.
    term = 1.0
    total = 1.0
    comp = 0.0
    n = 0
    r = x
    small_count = 0
    while n < MAX_TERMS_DIRECT:
        term *= (a + n) * (b + n) / ((c + n) * (n + 1.0)) * x
        t = total + term
        if abs(total) >= abs(term):
            comp += (total - t) + term
        else:
            comp += (term - t) + total
        total = t
        n += 1
        # Stop on the geometric tail, not the bare term: the step ratio tends
        # to x (it crosses x at most once, since their difference has sign
        # (a+b-c-1)n + ab-c), so past the hump the tail after T_n is at most
        # |T_n| r/(1-r) with r = max(ratio, x).  The 3-in-a-row guard rides
        # out the hump itself.
        ratio = (a + n) * (b + n) / ((c + n) * (n + 1.0)) * x
        r = max(abs(ratio), x)
        if r < 1.0 and abs(term) * r <= SERIES_RTOL * abs(total) * (1.0 - r):
            small_count += 1
            if small_count == 3:
                break
        else:
            small_count = 0
    else:
        raise ConvergenceError(
            f"direct series for F({a},{b};{c};{x}) did not converge "
            f"within {MAX_TERMS_DIRECT} terms"
        )
    total += comp
    if not math.isfinite(total):
        raise RangeError(
            f"direct series for F({a},{b};{c};{x}) overflows a float")
    return EvalResult(total, _direct_estimate(term, r, total), n + 1,
                      METHOD_DIRECT)


def _check_complement(u: float, minus_log_u: float) -> tuple[float, float]:
    u = float(u)
    minus_log_u = float(minus_log_u)
    if not (0.0 <= u < 1.0):
        raise DomainError(f"complement u must lie in [0, 1), got {u!r}")
    if not math.isfinite(minus_log_u):
        raise DomainError(f"-log(u) must be finite, got {minus_log_u!r}")
    return u, minus_log_u


def _log_series_scale(a: float, b: float, shifted: bool) -> float:
    """The factor 1/B(a,b), or (a+b)/(ab B(a,b)) if shifted, before the
    sum of a zero-balanced log series; RangeError where B(a,b)
    underflows to 0 (at large a, b)."""
    beta = specfun.beta(a, b)
    if not shifted:
        num, den = 1.0, beta
    elif a * b * beta != 0.0:
        num, den = a + b, a * b * beta
    else:
        # a*b underflows at tiny a, b, where B ~ (a+b)/(ab) is huge and
        # the factor near 1: divide by a first (only here, so that other
        # inputs keep their bits)
        num, den = (a + b) / a, b * beta
    if den == 0.0:
        raise RangeError(
            f"the log series' factor {'(a+b)/(ab B)' if shifted else '1/B'}"
            f" at a={a!r}, b={b!r} is out of float range "
            f"(B(a,b) underflows)")
    return num / den


def _log_series_result(a: float, b: float, shifted: bool, total, term,
                       u, ell):
    """(value, estimate) of a zero-balanced log series from its sum and
    last term, at a float u or an array.  The estimate counts the tail,
    and the rounding of the sum and of B(a,b), whose three log-gammas'
    rounding exp() turns into relative error."""
    scale = _log_series_scale(a, b, shifted)
    value = scale * total
    if shifted:
        tail = abs(scale) * abs(term) * (u / (1.0 - u) + 1.0) * (ell + 2.0)
    else:
        tail = abs(scale) * abs(term) * u / (1.0 - u)
    lg = abs(math.lgamma(a)) + abs(math.lgamma(b)) + abs(math.lgamma(a + b))
    return value, tail + (4e-16 + _EPS * lg) * abs(value)


def _zb_log(a: float, b: float, u: float, ell: float,
            shifted: bool) -> EvalResult:
    """F(a,b;a+b;1-u), or F(a,b;a+b+1;1-u) if shifted, by the log series
    (see the module docstring), u and ell = -log(u) checked."""
    c = a + b + 1.0 if shifted else a + b
    c_n = 1.0
    d_n = specfun.ramanujan_r(a, b)
    u_pow = 1.0
    total = 1.0 if shifted else d_n + ell  # the n = 0 term
    term = total
    n = 0
    small_count = 0
    while n < MAX_TERMS_LOG:
        c_n *= (a + n) * (b + n) / ((n + 1.0) * (n + 1.0))
        d_n += 2.0 / (n + 1.0) - 1.0 / (a + n) - 1.0 / (b + n)
        u_pow *= u
        n += 1
        if shifted:
            term = c_n * (1.0 - n * (d_n + ell)) * u_pow
        else:
            term = c_n * (d_n + ell) * u_pow
        total += term
        if abs(term) <= SERIES_RTOL * abs(total):
            small_count += 1
            if small_count == 3:
                break
        else:
            small_count = 0
    else:
        raise ConvergenceError(
            f"{'log series' if shifted else 'zero-balanced log series'} for "
            f"F({a},{b};{c};1-{u}) did not converge within {MAX_TERMS_LOG} "
            f"terms")
    value, err = _log_series_result(a, b, shifted, total, term, u, ell)
    if not math.isfinite(value):
        raise RangeError(
            f"log series for F({a},{b};{c};1-{u}) overflows a float")
    return EvalResult(value, err, n + 1, METHOD_ZB_LOG)


def zb_from_complement(a: float, b: float, u: float,
                       minus_log_u: float) -> EvalResult:
    """F(a,b;a+b;1-u) via the logarithmic expansion, u and -log(u) given."""
    return _zb_log(a, b, *_check_complement(u, minus_log_u), shifted=False)


def zb_shifted_from_complement(a: float, b: float, u: float,
                               minus_log_u: float) -> EvalResult:
    """F(a,b;a+b+1;1-u) via the differentiated logarithmic expansion."""
    return _zb_log(a, b, *_check_complement(u, minus_log_u), shifted=True)


def _zb_coefficients(a: float, b: float):
    """c_n and d_n of the zero-balanced expansion for n = 0, 1, ..., by
    the recurrence of the scalar log-series loop."""
    c_n = 1.0
    d_n = specfun.ramanujan_r(a, b)
    m = 0
    while True:
        yield c_n, d_n
        c_n *= (a + m) * (b + m) / ((m + 1.0) * (m + 1.0))
        d_n += 2.0 / (m + 1.0) - 1.0 / (a + m) - 1.0 / (b + m)
        m += 1


def zb_complement_sums(a: float, b: float, u: float) -> tuple[float, float]:
    """Return (C-1, D1): C = sum c_n u^n, D1 = sum_{n>=1} c_n d_n u^n.

    These are the log-free and log-coefficient parts of the zero-balanced
    expansion, with the leading 1 of C left off so both sums vanish like
    u as u -> 0.  Callers recombining them against exactly known linear
    terms (the asymptotic-defect functions) keep full relative accuracy
    that way; C-1 formed by subtraction would have none once u is below
    the float resolution of 1.
    """
    u = float(u)
    if not (0.0 <= u <= 0.75):
        raise DomainError(f"complement u must lie in [0, 0.75], got {u!r}")
    u_pow = 1.0
    c_total = 0.0
    d_total = 0.0
    for c_n, d_n in itertools.islice(_zb_coefficients(a, b), 1,
                                     MAX_TERMS_LOG + 1):
        u_pow *= u
        c_term = c_n * u_pow
        c_total += c_term
        d_total += c_term * d_n
        if c_term * (abs(d_n) + 1.0) <= 1e-18 * (abs(c_total) + abs(d_total)):
            return c_total, d_total
    raise ConvergenceError(
        f"zero-balanced coefficient sums at u={u} did not converge"
    )


def f21_minus_one(a: float, b: float, c: float, x: float) -> float:
    """F(a,b;c;x) - 1 as a direct sum starting at the linear term.

    For x far below the float resolution of 1 the difference f21(...) - 1
    would lose every digit; summing from n = 1 keeps full relative
    accuracy (the result is ~ (ab/c) x).  Restricted to x <= 3/4 so the
    series stays fast; a, b and c must be positive and finite.
    """
    HypParams(a, b, c)  # DomainError for a bad parameter
    x = float(x)
    if not (0.0 <= x <= 0.75):
        raise DomainError(f"f21_minus_one requires 0 <= x <= 3/4, got {x!r}")
    term = 1.0
    total = 0.0
    n = 0
    small_count = 0
    while n < MAX_TERMS_DIRECT:
        term *= (a + n) * (b + n) / ((c + n) * (n + 1.0)) * x
        total += term
        n += 1
        if abs(term) <= SERIES_RTOL * (abs(total) + 1e-300):
            small_count += 1
            if small_count == 3:
                return total
        else:
            small_count = 0
    raise ConvergenceError(
        f"series for F({a},{b};{c};{x}) - 1 did not converge"
    )


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
    serves = ((size <= CONNECTION_MAX_CANCEL * abs(value))
              & (abs(err) < math.inf))
    return value, err, serves


def _connection(a: float, b: float, c: float,
                u: float) -> Optional[EvalResult]:
    """F(a,b;c;1-u) by DLMF 15.8.4 (see the module docstring) for
    s = c-a-b not an integer and u < 1/2.

    Returns None, for the caller to sum the direct series, when a
    prefactor or a series overflows or the parts cancel by more than
    CONNECTION_MAX_CANCEL.
    """
    a, b = min(a, b), max(a, b)  # so F(a,b;..) and F(b,a;..) agree to the bit
    s = c - (a + b)
    log_u = math.log(u)
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


def f21(p: HypParams, x: float) -> EvalResult:
    """Evaluate F(a,b;c;x) for 0 <= x < 1.

    Raises RangeError when the value overflows a float, and
    ConvergenceError when a series exhausts its term cap.
    """
    x = _check_x(x)
    if x > X_SWITCH:
        route = _route(p)
        u = 1.0 - x  # exact: x >= 1/2
        if route == "connection":
            r = _connection(p.a, p.b, p.c, u)
            if r is not None:
                return r
        elif route != "direct":
            return _zb_log(p.a, p.b, u, -math.log(u),
                           shifted=route == "shifted")
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


def zb_near_one(a: float, b: float, x: float) -> EvalResult:
    """F(a,b;a+b;x) by the logarithmic expansion around x = 1.

    Intended for x > 1/2; converges for any x in (0, 1).  For x >= 1/2
    the complement 1-x is exact in floating point.
    """
    x = _check_x(x)
    if x == 0.0:
        raise DomainError("zb_near_one requires 0 < x < 1")
    u = 1.0 - x
    return zb_from_complement(a, b, u, -math.log(u))


def _derivative(p: HypParams, x, value):
    """dF(p; x)/dx from value(q, x) = F(q; x), at a float x or an array."""
    if p.balanced_sign:
        return p.a * p.b / p.c * value(
            HypParams(p.a + 1.0, p.b + 1.0, p.c + 1.0), x)
    # (1-x) F'(x) = (ab/(a+b)) F(a,b;a+b+1;x), a log series past 1/2;
    # F(a+1,b+1;a+b+1) has c-a-b = -1 and only the direct series there
    w = value(HypParams(p.a, p.b, p.c + 1.0), x)
    return p.a * p.b / p.c * w / (1.0 - x)


def f21_derivative(p: HypParams, x: float) -> float:
    """dF(a,b;c;x)/dx = (ab/c) F(a+1,b+1;c+1;x), or for c = a+b
    (ab/(a+b)) F(a,b;a+b+1;x)/(1-x)."""
    return _derivative(p, _check_x(x), lambda q, y: f21(q, y).value)


def zb_derivative(a: float, b: float, x: float) -> float:
    """dF(a,b;a+b;x)/dx via (ab/(a+b)) F(a,b;a+b+1;x) / (1-x)."""
    return f21_derivative(HypParams(a, b, a + b), x)


def _count(value, name: str) -> int:
    """value as an int; NaN, inf and non-integral counts are rejected."""
    if isinstance(value, (int, np.integer)):
        return int(value)
    try:
        count = float(value)
    except (TypeError, ValueError):
        count = math.nan
    if not count.is_integer():
        raise DomainError(f"{name} must be a whole number, got {value!r}")
    return int(count)


def ratio_coeffs(p: HypParams, n_max: int) -> np.ndarray:
    """Maclaurin coefficients 0..n_max of F(a+1,b+1;c+1;x) / F(a,b;c;x).

    Power-series long division with compensated summation.  Requires
    a <= c and b <= c (the coefficients are then totally monotone).
    """
    if not (p.a <= p.c and p.b <= p.c):
        raise DomainError(
            f"ratio_coeffs requires a <= c and b <= c, got {p!r}"
        )
    n_max = _count(n_max, "n_max")
    if not (0 <= n_max <= 200):
        raise DomainError(f"n_max must lie in [0, 200], got {n_max!r}")
    a, b, c = p.a, p.b, p.c
    num = [1.0]
    den = [1.0]
    for n in range(n_max):
        num.append(num[-1] * (a + 1 + n) * (b + 1 + n) / ((c + 1 + n) * (n + 1.0)))
        den.append(den[-1] * (a + n) * (b + n) / ((c + n) * (n + 1.0)))
    out = [1.0]
    for n in range(1, n_max + 1):
        conv = math.fsum(out[k] * den[n - k] for k in range(n))
        out.append(num[n] - conv)
    return np.asarray(out, dtype=float)


def finite_difference_table(seq: Sequence[float], k_max: int) -> list[np.ndarray]:
    """Forward-difference table: rows Delta^k a_n for k = 0..k_max.

    Delta^{k+1} a_n = Delta^k a_n - Delta^k a_{n+1}; row k has
    len(seq) - k entries.  A sequence is totally monotone iff every row
    is nonnegative (to all depths; finite depth here).
    """
    row = np.asarray(seq, dtype=float)
    k_max = _count(k_max, "k_max")
    if row.ndim != 1 or row.size == 0:
        raise DomainError("seq must be a nonempty 1-d sequence")
    if not (0 <= k_max < row.size):
        raise DomainError(
            f"k_max must satisfy 0 <= k_max < len(seq) = {row.size}, "
            f"got {k_max!r}"
        )
    table = [row]
    for _ in range(k_max):
        row = row[:-1] - row[1:]
        table.append(row)
    return table


# ---------------------------------------------------------------------------
# array evaluation
#
# The loops of the *_many forms; what they share with the float forms is
# listed in the module docstring.  Each runs a scalar kernel's loop at
# every point of a 1-d array for one parameter triple, in lockstep: one
# numpy step adds a block of terms to every point still summing, and a
# point stops where the scalar kernel's own rule stops it.  The per-term
# factors depend on the triple alone, so they stay Python floats built in
# the scalar order; the running products and sums along a block are ufunc
# accumulations, which apply their operation in sequence as the scalar
# loop does; numpy's + - * / round as Python's do; and log and exp come
# from math point by point (specfun.pointwise).  So every point's value,
# estimate, term count and method are those of its scalar call, to the
# bit, and a batch raises what a loop of scalar calls would raise first.

# Terms per block: BLOCK_MIN, or as many as the series has summed if
# more, but at most BLOCK_CELLS over all points, so memory stays
# O(points) and the long tail of a few points costs a few numpy calls
# per thousand terms.
BLOCK_MIN = 16
BLOCK_CELLS = 4096

# per-point status of a lockstep series: its scalar form returns, raises
# RangeError on overflow, or raises some other error
_OK, _OVERFLOW, _RAISES = 0, 1, 2


@dataclass(frozen=True)
class EvalResults:
    """The EvalResult fields of a batch of points, one array each."""

    value: np.ndarray
    abs_err_estimate: np.ndarray
    terms_used: np.ndarray
    method: np.ndarray


class _Lanes:
    """Per-point value, estimate, term count and status of a batch."""

    def __init__(self, size: int) -> None:
        self.value = np.zeros(size)
        self.err = np.zeros(size)
        self.terms = np.zeros(size, dtype=np.int64)
        self.status = np.full(size, _OK, dtype=np.int8)

    def take(self, at, other: "_Lanes") -> None:
        self.value[at] = other.value
        self.err[at] = other.err
        self.terms[at] = other.terms
        self.status[at] = other.status


def _block(n: int, points: int, cap: int) -> int:
    """Terms in the next block of a series that has summed n of its cap."""
    return max(1, min(max(BLOCK_MIN, n), BLOCK_CELLS // points, cap - n))


def _prepend(first: np.ndarray, rest: np.ndarray) -> np.ndarray:
    """The column first before the columns of rest."""
    return np.concatenate((first[:, None], rest), axis=1)


def _running(ufunc: np.ufunc, start: np.ndarray,
             steps: np.ndarray) -> np.ndarray:
    """Row i: start[i] combined with steps[i, 0], then with steps[i, 1], ..."""
    return ufunc.accumulate(_prepend(start, steps), axis=1)[:, 1:]


def _runs_of_three(cond: np.ndarray,
                   small: np.ndarray) -> tuple[np.ndarray, ...]:
    """A block of the stop rule "the test passed at three steps in a row".

    cond[i, j] is point i's test at step j of the block, small[i] its run
    of passed tests before the block.  Returns the points that stop in
    the block, the step at which each stops, and each point's run at the
    end of the block.
    """
    ext = _prepend(small >= 2, _prepend(small >= 1, cond))
    hit = ext[:, 2:] & ext[:, 1:-1] & ext[:, :-2]
    run = np.where(ext[:, -1], np.where(ext[:, -2], 2, 1), 0)
    return hit.any(axis=1), hit.argmax(axis=1), run


def _lockstep(step, fixed: tuple[np.ndarray, ...],
              state: tuple[np.ndarray, ...], cap: int,
              three_in_a_row: bool = True):
    """Sum a series at every point of a batch in lockstep, by blocks.

    ``fixed`` holds each point's inputs as (points, 1) columns, ``state``
    the values a term reads from the terms before it or the caller wants
    at the stop.  ``step(n, k, fixed, state)`` adds terms n+1 .. n+k and
    returns the state after each of them, as (points, k) arrays, with
    the stop test at each, a (points, k) bool array.  A point stops at
    its third passed test in a row, or at its first if not
    ``three_in_a_row``, and its active set shrinks block by block.

    Returns the state at each point's stop, the terms each point summed
    after the first, and the points still summing after ``cap`` terms.
    """
    size = state[0].size
    final = tuple(np.zeros(size) for _ in state)
    summed = np.zeros(size, dtype=np.int64)
    idx = np.arange(size)
    small = np.zeros(size, dtype=np.int8)
    n = 0
    with np.errstate(all="ignore"):
        while idx.size and n < cap:
            k = _block(n, idx.size, cap)
            cols, passed = step(n, k, fixed, state)
            if three_in_a_row:
                stop, at, small = _runs_of_three(passed, small)
            else:
                stop, at = passed.any(axis=1), passed.argmax(axis=1)
            if stop.any():
                rows = np.flatnonzero(stop)
                j = at[rows]
                i = idx[rows]
                for out, col in zip(final, cols):
                    out[i] = col[rows, j]
                summed[i] = n + j + 1
            n += k
            keep = ~stop
            idx, small = idx[keep], small[keep]
            fixed = tuple(v[keep] for v in fixed)
            state = tuple(col[keep, -1] for col in cols)
    stalled = np.zeros(size, dtype=bool)
    stalled[idx] = True
    return final, summed, stalled


def _factors(a: float, b: float, c: float, n: int, k: int) -> np.ndarray:
    """(a+m)(b+m)/((c+m)(m+1)) for m = n .. n+k-1, as the scalar loops
    form them."""
    return np.array([(a + m) * (b + m) / ((c + m) * (m + 1.0))
                     for m in range(n, n + k)])


def _next_coefficients(coefs, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The next k (c_n, d_n) of coefs, as two arrays."""
    cd = np.array([next(coefs) for _ in range(k)])
    return cd[:, 0], cd[:, 1]


def _direct_many(a: float, b: float, c: float, xs: np.ndarray) -> _Lanes:
    """_direct_series at every point of xs."""
    def step(n, k, fixed, state):
        (x,) = fixed
        term, total, comp, _ = state
        # term n+j takes factor j, and its stop test the ratio factor j+1
        mult = _factors(a, b, c, n, k + 1) * x
        terms = _running(np.multiply, term, mult[:, :k])
        sums = _running(np.add, total, terms)
        prev = _prepend(total, sums[:, :-1])
        abs_terms = np.abs(terms)
        comps = _running(np.add, comp, np.where(
            np.abs(prev) >= abs_terms,
            (prev - sums) + terms, (terms - sums) + prev))
        r = np.maximum(np.abs(mult[:, 1:]), x)
        passed = (r < 1.0) & (abs_terms * r
                              <= SERIES_RTOL * np.abs(sums) * (1.0 - r))
        return (terms, sums, comps, r), passed

    ones = np.ones(xs.size)
    (term, total, comp, r), summed, stalled = _lockstep(
        step, (xs[:, None],), (ones, ones, np.zeros(xs.size), ones),
        MAX_TERMS_DIRECT)
    out = _Lanes(xs.size)
    with np.errstate(all="ignore"):
        out.value = total + comp
        out.err = _direct_estimate(term, r, out.value)
    out.terms = summed + 1
    out.status[~np.isfinite(out.value)] = _OVERFLOW
    out.status[stalled] = _RAISES  # ConvergenceError: out of terms
    return out


def _zb_log_many(a: float, b: float, u: np.ndarray, ell: np.ndarray,
                 shifted: bool) -> _Lanes:
    """zb_from_complement (or, shifted, zb_shifted_from_complement) at
    every (u, ell) pair, the pairs already checked."""
    coefs = _zb_coefficients(a, b)
    _, d_0 = next(coefs)

    def step(n, k, fixed, state):
        uu, ll = fixed
        u_pow, total, _ = state
        cs, ds = _next_coefficients(coefs, k)
        u_pows = _running(np.multiply, u_pow, np.repeat(uu, k, axis=1))
        if shifted:
            m = np.arange(n + 1.0, n + k + 1.0)
            terms = cs * (1.0 - m * (ds + ll)) * u_pows
        else:
            terms = cs * (ds + ll) * u_pows
        sums = _running(np.add, total, terms)
        return (u_pows, sums, terms), \
            np.abs(terms) <= SERIES_RTOL * np.abs(sums)

    start = np.ones(u.size) if shifted else d_0 + ell
    (_, total, term), summed, stalled = _lockstep(
        step, (u[:, None], ell[:, None]), (np.ones(u.size), start, start),
        MAX_TERMS_LOG)
    out = _Lanes(u.size)
    out.terms = summed + 1
    out.status[stalled] = _RAISES  # ConvergenceError: out of terms
    try:
        with np.errstate(all="ignore"):
            out.value, out.err = _log_series_result(a, b, shifted, total,
                                                    term, u, ell)
    except RangeError:
        out.status[:] = _RAISES
        return out
    out.status[(out.status == _OK) & ~np.isfinite(out.value)] = _OVERFLOW
    return out


def _exp_or_inf(v: float) -> float:
    """math.exp, or inf where it overflows."""
    try:
        return math.exp(v)
    except OverflowError:
        return math.inf


def _connection_many(a: float, b: float, c: float,
                     u: np.ndarray) -> tuple[_Lanes, np.ndarray]:
    """_connection at every point of u: the lanes, and where _connection
    returns None (the caller sums the direct series there)."""
    out = _Lanes(u.size)
    a, b = min(a, b), max(a, b)
    s = c - (a + b)
    log_u = specfun.pointwise(math.log, u)
    try:
        coef_a, sg_ms, log_b, lg_sum = _connection_prefactors(a, b, c, s)
    except OverflowError:
        return out, np.ones(u.size, dtype=bool)
    exp_b = specfun.pointwise(_exp_or_inf, log_b + s * log_u)
    none = np.isinf(exp_b)  # the scalar call's exp overflows
    live = np.flatnonzero(~none)
    uu, coef_b = u[live], sg_ms * exp_b[live]
    part_a = err_a = np.zeros(live.size)
    terms = np.zeros(live.size, dtype=np.int64)
    status = np.full(live.size, _OK, dtype=np.int8)
    if coef_a is not None:
        f1 = _direct_many(a, b, 1.0 - s, uu)
        part_a = coef_a * f1.value
        err_a = abs(coef_a) * f1.err
        terms = f1.terms
        status = f1.status
    f2 = _direct_many(c - a, c - b, 1.0 + s, uu)
    # a point's scalar call stops at the first series that fails
    status = np.where(status == _OK, f2.status, status)
    with np.errstate(all="ignore"):
        value, err, serves = _connection_result(
            a, b, s, log_u[live], lg_sum, part_a, err_a, coef_b, f2.value,
            f2.err)
    raises = status == _RAISES
    out.value[live] = value
    out.err[live] = err
    out.terms[live] = terms + f2.terms
    out.status[live] = np.where(raises, _RAISES, _OK)
    none[live] = ~raises & ((status == _OVERFLOW) | ~serves)
    return out, none


def f21_many(p: HypParams, xs) -> EvalResults:
    """f21 at every point of the 1-d array xs, in lockstep.

    Each point gets the value, estimate, term count and method of its
    f21 call, to the bit.  An x outside [0, 1) raises the DomainError of
    the first such point; otherwise the batch raises what the first
    point whose f21 call raises would.
    """
    xs = specfun.as_points(xs)
    specfun.reject_first(~((0.0 <= xs) & (xs < 1.0)),
                         lambda i: _check_x(xs[i]))
    out = _Lanes(xs.size)
    method = np.full(xs.size, METHOD_DIRECT, dtype=object)
    direct = xs <= X_SWITCH
    near = np.flatnonzero(~direct)
    if near.size:
        u = 1.0 - xs[near]  # exact: x >= 1/2
        route = _route(p)
        if route in ("zb", "shifted"):
            ell = -specfun.pointwise(math.log, u)
            out.take(near, _zb_log_many(p.a, p.b, u, ell,
                                        shifted=route == "shifted"))
            method[near] = METHOD_ZB_LOG
        elif route == "connection":
            lanes, none = _connection_many(p.a, p.b, p.c, u)
            out.take(near, lanes)
            method[near] = METHOD_CONNECTION
            method[near[none]] = METHOD_DIRECT
            direct[near[none]] = True
        else:
            direct[near] = True
    if direct.any():
        out.take(direct, _direct_many(p.a, p.b, p.c, xs[direct]))
    specfun.reject_first(out.status != _OK, lambda i: f21(p, xs[i]))
    return EvalResults(out.value, out.err, out.terms, method)


def f21_derivative_many(p: HypParams, xs) -> np.ndarray:
    """f21_derivative at every point of the 1-d array xs, to the bit."""
    return _derivative(p, specfun.as_points(xs),
                       lambda q, y: f21_many(q, y).value)


def _complement_log_many(a: float, b: float, us, minus_log_us,
                         shifted: bool) -> EvalResults:
    """_zb_log at every (u, -log u) pair, to the bit."""
    u = specfun.as_points(us)
    ell = specfun.as_points(minus_log_us)
    if u.shape != ell.shape:
        raise DomainError(
            f"u and -log(u) differ in shape: {u.shape} and {ell.shape}")
    specfun.reject_first(~((0.0 <= u) & (u < 1.0) & np.isfinite(ell)),
                         lambda i: _check_complement(u[i], ell[i]))
    out = _zb_log_many(a, b, u, ell, shifted)
    specfun.reject_first(out.status != _OK,
                         lambda i: _zb_log(
                             a, b, *_check_complement(u[i], ell[i]), shifted))
    return EvalResults(out.value, out.err, out.terms,
                       np.full(u.size, METHOD_ZB_LOG, dtype=object))


def zb_from_complement_many(a: float, b: float, us,
                            minus_log_us) -> EvalResults:
    """zb_from_complement at every (u, -log u) pair, to the bit."""
    return _complement_log_many(a, b, us, minus_log_us, shifted=False)


def zb_shifted_from_complement_many(a: float, b: float, us,
                                    minus_log_us) -> EvalResults:
    """zb_shifted_from_complement at every (u, -log u) pair, to the bit."""
    return _complement_log_many(a, b, us, minus_log_us, shifted=True)


def zb_complement_sums_many(a: float, b: float,
                            us) -> tuple[np.ndarray, np.ndarray]:
    """zb_complement_sums at every point of us, to the bit: (C-1, D1)."""
    u = specfun.as_points(us)
    specfun.reject_first(~((0.0 <= u) & (u <= 0.75)),
                         lambda i: zb_complement_sums(a, b, u[i]))
    coefs = itertools.islice(_zb_coefficients(a, b), 1, None)

    def step(n, k, fixed, state):
        (uu,) = fixed
        u_pow, c_total, d_total = state
        cs, ds = _next_coefficients(coefs, k)
        u_pows = _running(np.multiply, u_pow, np.repeat(uu, k, axis=1))
        c_terms = cs * u_pows
        c_sums = _running(np.add, c_total, c_terms)
        d_sums = _running(np.add, d_total, c_terms * ds)
        tiny = (c_terms * (np.abs(ds) + 1.0)
                <= 1e-18 * (np.abs(c_sums) + np.abs(d_sums)))
        return (u_pows, c_sums, d_sums), tiny

    zeros = np.zeros(u.size)
    (_, c_out, d_out), _, stalled = _lockstep(
        step, (u[:, None],), (np.ones(u.size), zeros, zeros), MAX_TERMS_LOG,
        three_in_a_row=False)
    specfun.reject_first(stalled, lambda i: zb_complement_sums(a, b, u[i]))
    return c_out, d_out


def f21_minus_one_many(a: float, b: float, c: float, xs) -> np.ndarray:
    """f21_minus_one at every point of xs, to the bit."""
    HypParams(a, b, c)  # DomainError for a bad parameter
    x = specfun.as_points(xs)
    specfun.reject_first(~((0.0 <= x) & (x <= 0.75)),
                         lambda i: f21_minus_one(a, b, c, x[i]))

    def step(n, k, fixed, state):
        (xx,) = fixed
        term, total = state
        terms = _running(np.multiply, term, _factors(a, b, c, n, k) * xx)
        sums = _running(np.add, total, terms)
        return (terms, sums), \
            np.abs(terms) <= SERIES_RTOL * (np.abs(sums) + 1e-300)

    (_, out), _, stalled = _lockstep(
        step, (x[:, None],), (np.ones(x.size), np.zeros(x.size)),
        MAX_TERMS_DIRECT)
    specfun.reject_first(stalled, lambda i: f21_minus_one(a, b, c, x[i]))
    return out
