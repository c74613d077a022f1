"""Gamma-family scalar special functions.

Everything here is a plain float -> float kernel: log-gamma, gamma, digamma,
the beta function, and the Ramanujan constant

    R(a, b) = -2*gamma_E - psi(a) - psi(b),

which is the additive constant in the logarithmic expansion of zero-balanced
hypergeometric functions near x = 1.  R(1/2, 1/2) = log 16.

It also holds the helpers the other modules share: ``finite_complex``
checks a point of the plane, ``as_points`` the input of an array form,
and ``pointwise`` takes log, exp and log1p from ``math`` point by
point, because numpy's vectorised versions may round differently by an
ulp, and an array form must match its scalar form to the bit.
"""

from __future__ import annotations

import cmath
import math
from typing import Callable

import numpy as np

from .errors import DomainError, RangeError

# Euler-Mascheroni constant, -psi(1).
EULER_GAMMA = 0.57721566490153286

# psi(y) ~ log y - 1/(2y) - sum B_{2k} / (2k y^{2k}); coefficients below are
# -B_{2k}/(2k) for k = 1..7, applied in y^{-2} powers.
_DIGAMMA_ASYMP = (
    -1.0 / 12.0,
    1.0 / 120.0,
    -1.0 / 252.0,
    1.0 / 240.0,
    -1.0 / 132.0,
    691.0 / 32760.0,
    -1.0 / 12.0,
)

_DIGAMMA_SHIFT = 10.0


def _require_positive(x: float, name: str) -> float:
    x = float(x)
    if not math.isfinite(x) or x <= 0.0:
        raise DomainError(f"{name} must be a positive finite real, got {x!r}")
    return x


def _overflow(what: str) -> RangeError:
    return RangeError(f"{what} overflows a float")


def log_gamma(x: float) -> float:
    """Natural log of Gamma(x) for x > 0; RangeError past x ~ 2.5e305."""
    x = _require_positive(x, "x")
    try:
        return math.lgamma(x)
    except OverflowError:
        raise _overflow(f"log Gamma({x!r})") from None


def log_abs_gamma(x: float) -> tuple[float, int]:
    """(log|Gamma(x)|, sign of Gamma(x)) for any finite real x.

    At the poles x = 0, -1, -2, ... the pair is (inf, 0), so that
    sign * exp(-log) reads 1/Gamma(x) = 0 there.  Like math.lgamma this
    raises OverflowError past x ~ 2.5e305.
    """
    x = float(x)
    if not math.isfinite(x):
        raise DomainError(f"x must be finite, got {x!r}")
    if x <= 0.0 and x.is_integer():
        return math.inf, 0
    # Gamma alternates in sign between the poles: negative on (-1, 0)
    sign = 1 if x > 0.0 or math.floor(x) % 2 == 0 else -1
    return math.lgamma(x), sign


def gamma(x: float) -> float:
    """Gamma(x) for x > 0; RangeError where it overflows (x > ~171.6)."""
    x = _require_positive(x, "x")
    try:
        return math.gamma(x)
    except OverflowError:
        raise _overflow(f"Gamma({x!r})") from None


def digamma(x: float) -> float:
    """psi(x) = Gamma'(x)/Gamma(x) for x > 0.

    Upward recurrence psi(x) = psi(x+1) - 1/x lifts the argument to
    y >= 10, where the truncated Bernoulli series is good to ~4e-17.
    """
    x = _require_positive(x, "x")
    acc = 0.0
    y = x
    while y < _DIGAMMA_SHIFT:
        acc -= 1.0 / y
        y += 1.0
    inv2 = 1.0 / (y * y)
    tail = 0.0
    power = inv2
    for coeff in _DIGAMMA_ASYMP:
        tail += coeff * power
        power *= inv2
    return acc + math.log(y) - 0.5 / y + tail


def beta(a: float, b: float) -> float:
    """Euler beta B(a, b) = Gamma(a) Gamma(b) / Gamma(a+b) for a, b > 0.

    RangeError where B or one of its log-gammas overflows.
    """
    return beta_with_log_gammas(a, b)[0]


def beta_with_log_gammas(
        a: float, b: float) -> tuple[float, tuple[float, float, float]]:
    """(B(a, b), (log Gamma(a), log Gamma(b), log Gamma(a+b))): ``beta``
    and the three log-gammas it is formed from, each evaluated once, for
    callers that also need them."""
    a = _require_positive(a, "a")
    b = _require_positive(b, "b")
    try:
        lg = (math.lgamma(a), math.lgamma(b), math.lgamma(a + b))
        return math.exp(lg[0] + lg[1] - lg[2]), lg
    except OverflowError:
        raise _overflow(f"B({a!r}, {b!r})") from None


def ramanujan_r(a: float, b: float) -> float:
    """R(a, b) = -2*gamma_E - psi(a) - psi(b) for a, b > 0."""
    return -2.0 * EULER_GAMMA - digamma(a) - digamma(b)


def pointwise(fn: Callable[[float], float], x):
    """fn, a ``math`` function, at the float x, or at every point of the
    float array x (then an array comes back)."""
    if isinstance(x, np.ndarray):
        return np.fromiter(map(fn, x.tolist()), float, x.size)
    return fn(x)


def finite_complex(p, name: str, index: int | None = None) -> complex:
    """p as a complex number, checked finite; where it is not one, a
    DomainError that names it (name[index] where an index is given)."""
    try:
        w = complex(p)
        if cmath.isfinite(w):
            return w
        problem = f"must be finite, got {w!r}"
    except (TypeError, ValueError, OverflowError):
        problem = f"must be a finite complex number, got {p!r}"
    label = name if index is None else f"{name}[{index}]"
    raise DomainError(f"{label} {problem}")


def as_points(xs) -> np.ndarray:
    """xs as a 1-d float array, the input of every array form."""
    arr = np.asarray(xs, dtype=float)
    if arr.ndim != 1:
        raise DomainError(
            f"points must form a 1-d array, got shape {arr.shape}")
    return arr


def _distinct(*keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(first, inverse) for the points of 1-d float arrays of one length,
    a point being its values in ``keys``: ``first`` the indices of the
    distinct points' first occurrences, in the caller's order, and
    ``inverse`` each point's place in ``first``; both are slice(None)
    where no point repeats.  Points are keyed on their bits, so 0.0 and
    -0.0 stay apart and a repeat gets the bits of its first
    occurrence."""
    bits = [np.ascontiguousarray(k).view(np.uint64) for k in keys]
    # quicksort by the first key; equal points then sit together unless
    # equal first keys come with other later keys, which all keys sort
    order = np.argsort(bits[0])
    new = _changes(bits, order)
    if len(bits) > 1 and (new != _changes(bits[:1], order)).any():
        order = np.lexsort(bits[::-1])
        new = _changes(bits, order)
    if new.all():
        return slice(None), slice(None)
    heads = np.minimum.reduceat(order, np.flatnonzero(new))
    rank = np.argsort(heads)
    place = np.empty_like(rank)
    place[rank] = np.arange(rank.size)
    inverse = np.empty_like(order)
    inverse[order] = place[np.add.accumulate(new, dtype=np.intp) - 1]
    return heads[rank], inverse


def _changes(bits: list[np.ndarray], order: np.ndarray) -> np.ndarray:
    """Where the keys, taken in ``order``, differ from the point before."""
    new = np.zeros(order.size, dtype=bool)
    new[:1] = True
    for b in bits:
        s = b[order]
        new[1:] |= s[1:] != s[:-1]
    return new


def reject_first(bad: np.ndarray, scalar: Callable[[int], object]) -> None:
    """Raise what ``scalar(i)`` raises for the first point i flagged bad.

    An array form flags the points whose scalar form raises, then calls
    it on the first of them, so it raises what a loop of scalar calls
    would raise first.
    """
    if bad.any():
        i = int(np.argmax(bad))
        scalar(i)
        raise AssertionError(
            f"point {i} was flagged, but its scalar form returned")
