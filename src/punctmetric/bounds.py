"""Distance and density bounds for plane domains with punctures.

Two families of certified estimates:

* a lower bound for the hyperbolic distance in a domain omitting a
  sequence of points whose moduli grow by at most a factor e^c per step
  (``ring_lower_bound``), together with the two classical coefficient
  choices it improves on (``baseline_bounds``);
* a two-sided sandwich for the density of a finitely punctured plane,
  driven by the log-distance from z to the nearest puncture circle
  (``rho_bounds``); its lower end is also the pairwise sup of
  two-puncture densities (``sigma_lower``).

A density query searches the N x N puncture distances as numpy
arrays, a fixed-size block of rows at a time, so it costs O(N^2)
array work, one block of scratch memory and N scalar ``h`` calls.

Everything here is a bound, never an approximation: a value is only
returned when the hypothesis it needs has been checked, and outputs
err on the safe side.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from . import metric
from .errors import DomainError

__all__ = [
    "PuncturedDomain",
    "RingBoundParams",
    "BaselineBounds",
    "RhoBounds",
    "ring_gap",
    "ring_coefficients",
    "ring_lower_bound",
    "baseline_bounds",
    "rho_bounds",
    "sigma_lower",
]


def _check_finite(pts: Sequence[complex]) -> None:
    for j, p in enumerate(pts):
        if not cmath.isfinite(p):
            raise DomainError(f"punctures must be finite; index {j} is {p!r}")


@dataclass(frozen=True)
class PuncturedDomain:
    """The complement of a finite set of at least two distinct points."""

    punctures: tuple[complex, ...]

    def __init__(self, punctures: Sequence[complex]):
        pts = tuple(complex(p) for p in punctures)
        if len(pts) < 2:
            raise DomainError(
                "need at least two punctures for a hyperbolic domain, "
                f"got {len(pts)}")
        _check_finite(pts)
        first: dict[complex, int] = {}
        for j, p in enumerate(pts):
            i = first.setdefault(p, j)
            if i != j:
                raise DomainError(
                    f"punctures must be pairwise distinct; "
                    f"index {i} and {j} are both {p!r}")
        object.__setattr__(self, "punctures", pts)

    def _check_interior(self, z: complex) -> complex:
        z = complex(z)
        if not cmath.isfinite(z):
            raise DomainError(f"z must be finite, got {z!r}")
        if z in self.punctures:
            raise DomainError(f"z = {z!r} is a puncture of the domain")
        return z


class RingBoundParams(NamedTuple):
    c: float
    A: float
    B: float


class BaselineBounds(NamedTuple):
    sv512_A: float
    bp_A: float
    bp_B: float


class RhoBounds(NamedTuple):
    lower: float
    upper: float


def _check_gap(c: float) -> float:
    c = float(c)
    if not (c > 0.0) or not math.isfinite(c):
        raise DomainError(f"log-ratio gap c must be positive, got {c!r}")
    return c


def ring_gap(punctures: Sequence[complex], r1: float | None = None) -> float:
    """Validate a puncture sequence for the ring bound; return its gap.

    The sequence must start at 0 and have nondecreasing positive moduli
    after that, in the order given (the hypothesis is about the sequence,
    so nothing is re-sorted here).  The returned value is the smallest c
    with |a_{n+1}| <= e^c |a_n| along the list, i.e. the largest step of
    log|a_n|; any gap >= max(that, 0+) is admissible.  With only two
    points there is no constrained step and 0.0 comes back.

    When ``r1`` is given, also check the base-point condition
    e^{-c/2} |a_1| <= r1 that the distance bound needs.
    """
    pts = [complex(p) for p in punctures]
    if len(pts) < 2:
        raise DomainError("need at least the punctures a0 = 0 and a1")
    _check_finite(pts)
    if pts[0] != 0:
        raise DomainError(f"the sequence must start at 0, got {pts[0]!r}")
    # hypot gives inf where abs(complex) raises OverflowError
    moduli = [math.hypot(p.real, p.imag) for p in pts]
    if math.inf in moduli:
        raise DomainError(f"|a{moduli.index(math.inf)}| overflows a float")
    if not moduli[1] > 0.0:
        raise DomainError("a1 must be nonzero")
    for n in range(1, len(moduli) - 1):
        if moduli[n + 1] < moduli[n]:
            raise DomainError(
                f"moduli must be nondecreasing; |a{n + 1}| < |a{n}|")
    seen = set(pts)
    if len(seen) != len(pts):
        raise DomainError("punctures must be pairwise distinct")
    c = 0.0
    for n in range(1, len(moduli) - 1):
        c = max(c, math.log(moduli[n + 1]) - math.log(moduli[n]))
    if r1 is not None:
        r1 = float(r1)
        if not math.isfinite(r1):
            raise DomainError(f"r1 must be finite, got {r1!r}")
        # the theorem covers |z1| down to e^{-c/2}|a1| only
        if math.exp(-0.5 * c) * moduli[1] > r1:
            raise DomainError(
                f"r1 = {r1!r} lies below the admissible floor "
                f"{math.exp(-0.5 * c) * moduli[1]!r}")
    return c


def ring_coefficients(c: float) -> RingBoundParams:
    """Slope and offset of the log-modulus distance bound for gap c."""
    c = _check_gap(c)
    a = metric.varphi(c) / c
    b = metric.varphi(c) - metric.varphi(0.5 * c)
    return RingBoundParams(c, a, b)


def ring_lower_bound(c: float, r1: float, r2: float) -> float:
    """Lower bound for the hyperbolic distance between moduli r1 <= r2.

    Valid in any domain omitting a sequence of points admissible for
    ``ring_gap`` at this c, provided r1 clears the e^{-c/2}|a1| floor
    (the caller's duty, or use ring_gap with r1).  Clamped at 0: a
    negative raw value just means the bound says nothing there.
    """
    c = _check_gap(c)
    r1 = float(r1)
    r2 = float(r2)
    if not (0.0 < r1 <= r2 < math.inf):
        raise DomainError(
            f"need 0 < r1 <= r2 < inf, got r1={r1!r}, r2={r2!r}")
    params = ring_coefficients(c)
    raw = params.A * (math.log(r2) - math.log(r1)) - params.B
    return max(0.0, raw)


def baseline_bounds(c: float) -> BaselineBounds:
    """The two classical coefficient pairs the ring bound is compared to.

    ``sv512_A`` with offset 0, and (``bp_A``, ``bp_B``), under the same
    hypotheses as ``ring_lower_bound``.
    """
    c = _check_gap(c)
    two_c0 = 2.0 * metric.c0()
    return BaselineBounds(
        sv512_A=metric.h(0.5 * c),
        bp_A=math.log1p(c / two_c0) / c,
        bp_B=c / (4.0 * math.pi),
    )


# Rows of the distance matrix are searched this many elements at a
# time, so a query's scratch memory does not grow with N.
_BLOCK = 8192


def _neighbours(x: np.ndarray, y: np.ndarray,
                d: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per puncture a, the distances to the other punctures nearest d_a.

    Returns (below, above): the largest |b-a| <= d_a and the smallest
    |b-a| >= d_a, NaN where no other puncture is on that side.  A
    distance that overflows comes back as inf.
    """
    n = len(x)
    rows = max(1, _BLOCK // n)
    below = np.empty(n)
    above = np.empty(n)
    for i in range(0, n, rows):
        j = min(i + rows, n)
        # np.hypot is the libm hypot that abs(complex) calls, so each
        # r equals the scalar abs(b - a) bit for bit (np.abs does not)
        r = np.hypot(x - x[i:j, None], y - y[i:j, None])
        r.flat[i::n + 1] = np.nan  # the diagonal: a is not its own neighbour
        dj = d[i:j, None]
        below[i:j] = np.fmax.reduce(np.where(r <= dj, r, np.nan), axis=1)
        above[i:j] = np.fmin.reduce(np.where(r >= dj, r, np.nan), axis=1)
    return below, above


# Certified intervals must absorb their own rounding: h goes through
# agm/log chains that are only good to a few ulps, and on the negative
# axis the lower bound coincides with the exact density, so without
# one-sided slack the ordering lower <= rho would be a coin flip.
_EVAL_SLACK = 4e-15


def rho_bounds(dom: PuncturedDomain, z: complex) -> RhoBounds:
    """Two-sided bounds for the hyperbolic density at z.

    For each puncture a, with d = |z-a|, the log-gap
    m = min_b |log d - log|b-a|| sandwiches d rho(z) between h(m) and
    pi/(4m).  The lower bound takes the best puncture; the upper bound
    takes the best finite candidate and is +inf when every m vanishes
    (z on a critical circle of every puncture).  A candidate whose
    distances overflowed gives no upper bound: its m or d is then
    larger than the true one.

    log is monotone, so m comes from just two other punctures: the
    one with the largest |b-a| <= d and the one with the smallest
    |b-a| >= d.  Those are found with array reductions over all the
    pairwise distances, a fixed block of rows at a time, and only
    they go through ``math.log``.  A query costs O(N^2) array work,
    scratch memory for one block, and N calls of ``metric.h``.
    """
    z = dom._check_interior(z)
    pts = np.array(dom.punctures)
    x, y = pts.real, pts.imag
    with np.errstate(over="ignore"):
        dists = np.hypot(z.real - x, z.imag - y)
        below, above = _neighbours(x, y, dists)
    lower = 0.0
    upper = math.inf
    for d, lo, hi in zip(dists.tolist(), below.tolist(), above.tolist()):
        s = math.log(d)
        # min passes over NaN: a missing neighbour, or inf - inf once d
        # and a distance have both overflowed
        m = min(math.inf, s - math.log(lo), math.log(hi) - s)
        # past T_CAP, where h raises, H(m) = 2(m + log 16) up to a relative
        # O(m e^{-m}) < 1e-290 (the C0 floor would be ~2e-3 low there)
        hm = metric.h(m) if m <= metric.T_CAP else 0.5 / (m + math.log(16.0))
        lower = max(lower, hm / d)
        q = 4.0 * m * d
        # hi = inf is a distance that overflowed: its true log-gap is
        # finite, unknown and may be below m
        if 0.0 < q < math.inf and hi != math.inf:
            upper = min(upper, math.pi / q)
    # within ~1e-309 of a puncture h(m)/d overflows, but the density is
    # finite: the largest float is still below it
    lower = min(lower, sys.float_info.max) * (1.0 - _EVAL_SLACK)
    if math.isfinite(upper):
        upper *= 1.0 + _EVAL_SLACK
    return RhoBounds(lower, upper)


def sigma_lower(dom: PuncturedDomain, z: complex) -> float:
    """Best two-puncture density at z, a certified lower bound.

    Every ordered pair (a, b) of punctures gives the density of the
    plane punctured at a and b alone, pulled back through the affine
    map sending them to 0 and 1; the sup over pairs minorizes the
    density of the full domain.  With w = (z-a)/(b-a) the pair's
    negative-axis floor is

        lambda01(-|w|)/|b-a| = h(log|z-a| - log|b-a|)/|z-a|,

    and h is even and decreasing in |t|, so for each a the best b is
    the one whose log-distance is nearest log|z-a|.  The sup over pairs
    is therefore exactly the lower end of ``rho_bounds``.
    """
    return rho_bounds(dom, z).lower
