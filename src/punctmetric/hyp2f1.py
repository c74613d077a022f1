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

The `*_from_complement` entry points take u = 1-x and -log(u) explicitly,
so callers that know the complement exactly (logistic parameterizations
with u = e^{-t}/(1+e^{-t})) lose nothing to cancellation; they remain
correct even when u has underflowed to zero provided -log(u) is supplied
finite.
"""

from __future__ import annotations

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
    err = abs(term) * r / (1.0 - r) + 4e-16 * abs(total)
    return EvalResult(total, err, n + 1, METHOD_DIRECT)


def _check_complement(u: float, minus_log_u: float) -> tuple[float, float]:
    u = float(u)
    minus_log_u = float(minus_log_u)
    if not (0.0 <= u < 1.0):
        raise DomainError(f"complement u must lie in [0, 1), got {u!r}")
    if not math.isfinite(minus_log_u):
        raise DomainError(f"-log(u) must be finite, got {minus_log_u!r}")
    return u, minus_log_u


def zb_from_complement(a: float, b: float, u: float,
                       minus_log_u: float) -> EvalResult:
    """F(a,b;a+b;1-u) via the logarithmic expansion, u and -log(u) given."""
    u, ell = _check_complement(u, minus_log_u)
    c_n = 1.0
    d_n = specfun.ramanujan_r(a, b)
    u_pow = 1.0
    total = d_n + ell
    term = total
    n = 0
    small_count = 0
    while n < MAX_TERMS_LOG:
        c_n *= (a + n) * (b + n) / ((n + 1.0) * (n + 1.0))
        d_n += 2.0 / (n + 1.0) - 1.0 / (a + n) - 1.0 / (b + n)
        u_pow *= u
        n += 1
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
            f"zero-balanced log series for F({a},{b};{a+b};1-{u}) did not "
            f"converge within {MAX_TERMS_LOG} terms"
        )
    inv_beta = 1.0 / specfun.beta(a, b)
    value = inv_beta * total
    r = max(u, 1e-300)
    err = abs(inv_beta) * abs(term) * r / (1.0 - r) + 4e-16 * abs(value)
    return EvalResult(value, err, n + 1, METHOD_ZB_LOG)


def zb_shifted_from_complement(a: float, b: float, u: float,
                               minus_log_u: float) -> EvalResult:
    """F(a,b;a+b+1;1-u) via the differentiated logarithmic expansion."""
    u, ell = _check_complement(u, minus_log_u)
    c_n = 1.0
    d_n = specfun.ramanujan_r(a, b)
    u_pow = 1.0
    total = 1.0  # n = 0 term: c_0 * (1 - 0)
    term = total
    n = 0
    small_count = 0
    while n < MAX_TERMS_LOG:
        c_n *= (a + n) * (b + n) / ((n + 1.0) * (n + 1.0))
        d_n += 2.0 / (n + 1.0) - 1.0 / (a + n) - 1.0 / (b + n)
        u_pow *= u
        n += 1
        term = c_n * (1.0 - n * (d_n + ell)) * u_pow
        total += term
        if abs(term) <= SERIES_RTOL * abs(total):
            small_count += 1
            if small_count == 3:
                break
        else:
            small_count = 0
    else:
        raise ConvergenceError(
            f"log series for F({a},{b};{a+b+1};1-{u}) did not converge "
            f"within {MAX_TERMS_LOG} terms"
        )
    scale = (a + b) / (a * b * specfun.beta(a, b))
    value = scale * total
    r = max(u, 1e-300)
    err = abs(scale) * abs(term) * (r / (1.0 - r) + 1.0) * (ell + 2.0) \
        + 4e-16 * abs(value)
    return EvalResult(value, err, n + 1, METHOD_ZB_LOG)


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
    c_n = 1.0
    d_n = specfun.ramanujan_r(a, b)
    u_pow = 1.0
    c_total = 0.0
    d_total = 0.0
    for n in range(MAX_TERMS_LOG):
        c_n *= (a + n) * (b + n) / ((n + 1.0) * (n + 1.0))
        d_n += 2.0 / (n + 1.0) - 1.0 / (a + n) - 1.0 / (b + n)
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
    series stays fast; parameters are the caller's responsibility.
    """
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


def _connection(a: float, b: float, c: float, s: float,
                u: float) -> Optional[EvalResult]:
    """F(a,b;c;1-u) by DLMF 15.8.4 (see the module docstring) for
    s = c-a-b not an integer and u < 1/2.

    Returns None, for the caller to sum the direct series, when a
    prefactor or a series overflows or the parts cancel by more than
    CONNECTION_MAX_CANCEL.
    """
    a, b = min(a, b), max(a, b)  # so F(a,b;..) and F(b,a;..) agree to the bit
    log_u = math.log(u)
    part_a = err_a = 0.0
    terms = 0
    try:
        lg_c = math.lgamma(c)
        lg_s, sg_s = specfun.log_abs_gamma(s)
        lg_ms, sg_ms = specfun.log_abs_gamma(-s)
        lg_ca, sg_ca = specfun.log_abs_gamma(c - a)
        lg_cb, sg_cb = specfun.log_abs_gamma(c - b)
        lg_a, lg_b = math.lgamma(a), math.lgamma(b)
        coef_b = sg_ms * math.exp(lg_c + lg_ms - lg_a - lg_b + s * log_u)
        coef_a = 0.0
        if sg_ca and sg_cb:
            coef_a = sg_s * sg_ca * sg_cb * math.exp(
                lg_c + lg_s - lg_ca - lg_cb)
            f1 = _direct_series(a, b, 1.0 - s, u)
            part_a = coef_a * f1.value
            err_a = abs(coef_a) * f1.abs_err_estimate
            terms = f1.terms_used
        f2 = _direct_series(c - a, c - b, 1.0 + s, u)
    except (OverflowError, RangeError):
        return None
    part_b = coef_b * f2.value
    value = part_a + part_b
    size = abs(part_a) + abs(part_b)
    # exp() turns the rounding of its (log-gamma) argument into relative
    # error of A and B, and u^s scales the rounding of s = c-(a+b) by log u
    lg_sum = abs(lg_c) + abs(lg_s) + abs(lg_ms) + abs(lg_a) + abs(lg_b)
    if coef_a:
        lg_sum += abs(lg_ca) + abs(lg_cb)
    rounding = CONNECTION_ROUNDING + _EPS * (
        lg_sum + (a + b + 2.0 * abs(s)) * abs(log_u))
    err = err_a + abs(coef_b) * f2.abs_err_estimate + rounding * size
    if not (size <= CONNECTION_MAX_CANCEL * abs(value) and math.isfinite(err)):
        return None
    return EvalResult(value, err, terms + f2.terms_used, METHOD_CONNECTION)


def f21(p: HypParams, x: float) -> EvalResult:
    """Evaluate F(a,b;c;x) for 0 <= x < 1.

    Raises RangeError when the value overflows a float, and
    ConvergenceError when a series exhausts its term cap.
    """
    x = _check_x(x)
    if x <= X_SWITCH:
        return _direct_series(p.a, p.b, p.c, x)
    u = 1.0 - x  # exact: x >= 1/2
    if p.balanced_sign == 0:
        return zb_from_complement(p.a, p.b, u, -math.log(u))
    if p.c == (p.a + p.b) + 1.0:
        return zb_shifted_from_complement(p.a, p.b, u, -math.log(u))
    s = p.c - (p.a + p.b)
    if math.isfinite(s) and not s.is_integer():
        r = _connection(p.a, p.b, p.c, s, u)
        if r is not None:
            return r
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
    return math.exp(
        specfun.log_gamma(p.c) + specfun.log_gamma(s)
        - specfun.log_gamma(p.c - p.a) - specfun.log_gamma(p.c - p.b)
    )


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


def f21_derivative(p: HypParams, x: float) -> float:
    """dF(a,b;c;x)/dx = (ab/c) F(a+1,b+1;c+1;x)."""
    shifted = HypParams(p.a + 1.0, p.b + 1.0, p.c + 1.0)
    return p.a * p.b / p.c * f21(shifted, x).value


def zb_derivative(a: float, b: float, x: float) -> float:
    """dF(a,b;a+b;x)/dx via (ab/(a+b)) F(a,b;a+b+1;x) / (1-x)."""
    x = _check_x(x)
    u = 1.0 - x
    if x > X_SWITCH:
        w = zb_shifted_from_complement(a, b, u, -math.log(u)).value
    else:
        w = _direct_series(a, b, a + b + 1.0, x).value
    return a * b / (a + b) * w / u


def ratio_coeffs(p: HypParams, n_max: int) -> np.ndarray:
    """Maclaurin coefficients 0..n_max of F(a+1,b+1;c+1;x) / F(a,b;c;x).

    Power-series long division with compensated summation.  Requires
    a <= c and b <= c (the coefficients are then totally monotone).
    """
    if not (p.a <= p.c and p.b <= p.c):
        raise DomainError(
            f"ratio_coeffs requires a <= c and b <= c, got {p!r}"
        )
    n_max = int(n_max)
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
    k_max = int(k_max)
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
