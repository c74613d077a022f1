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

``rho_bounds`` searches the N(N-1)/2 pairwise puncture distances as
numpy arrays, one fixed-size block at a time, so it costs O(N^2) array
work and one block of scratch memory.  Each pair gets a cheap proxy,
the log of its squared distance, and only the few candidates per
puncture that the proxy cannot rule out get an exact hypot; blocks the
proxy cannot serve, and a single-block domain, are searched exactly.
Both queries find the lower end
by walking the punctures outward from z until no farther one can raise
it, so each makes a few scalar ``h`` calls, not N; ``sigma_lower``
needs nothing else, and scans only the visited punctures' rows of
distances, O(N) array work each after an O(N log N) sort.

Everything here is a bound, never an approximation: a value is only
returned when the hypothesis it needs has been checked, and outputs
err on the safe side.
"""

from __future__ import annotations

import cmath
import functools
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

    def lower_bound(self, r1: float, r2: float) -> float:
        """``ring_lower_bound(c, r1, r2)`` from coefficients that
        ``ring_coefficients(c)`` returned, without evaluating them
        again."""
        return _ring_lower(self, *_check_radii(r1, r2))


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
    """Slope and offset of the log-modulus distance bound for gap c:
    A = varphi(c)/c and B = varphi(c) - varphi(c/2)."""
    c = _check_gap(c)
    v = metric.varphi(c)
    return RingBoundParams(c, v / c, v - metric.varphi(0.5 * c))


def _check_radii(r1: float, r2: float) -> tuple[float, float]:
    r1 = float(r1)
    r2 = float(r2)
    if not (0.0 < r1 <= r2 < math.inf):
        raise DomainError(
            f"need 0 < r1 <= r2 < inf, got r1={r1!r}, r2={r2!r}")
    return r1, r2


_EPS = sys.float_info.epsilon


def _ring_lower(p: RingBoundParams, r1: float, r2: float) -> float:
    """max(0, A L - B), L = log r2 - log r1, rounded to the safe side.

    varphi(c) is A c and varphi(c/2) is A c - B, to an ulp or so, each
    within metric.varphi_error of the truth (whose margin absorbs those
    ulps).  So A is lowered by the first error over c and B raised by
    both, each also by its own rounding.  Each log is good to an ulp,
    at most eps |log r|, and their difference to half an ulp more, so
    L is lowered by 4 eps (|log r1| + |log r2|).  The few roundings
    after that are each at most eps/2 of a_lo L or |b_hi|, and
    4 eps (a_lo L + |b_hi|) covers them.
    """
    c, a, b = p
    phi = a * c
    err = metric.varphi_error(phi)
    a_lo = max(0.0, a * (1.0 - _EPS) - err / c)
    b_hi = b + _EPS * abs(b) + err + metric.varphi_error(phi - b)
    l1, l2 = math.log(r1), math.log(r2)
    gap = max(0.0, (l2 - l1) - 4.0 * _EPS * (abs(l1) + abs(l2)))
    raw = a_lo * gap - b_hi
    return max(0.0, raw - 4.0 * _EPS * (a_lo * gap + abs(b_hi)))


def ring_lower_bound(c: float, r1: float, r2: float) -> float:
    """Lower bound for the hyperbolic distance between moduli r1 <= r2.

    Valid in any domain omitting a sequence of points admissible for
    ``ring_gap`` at this c, provided r1 clears the e^{-c/2}|a1| floor
    (the caller's duty, or use ring_gap with r1).  Clamped at 0: a
    negative raw value just means the bound says nothing there.

    The bound is A log(r2/r1) - B with the coefficients of
    ``ring_coefficients``.  It is certified: A is taken from below and
    B from above by varphi's error bound (``metric.varphi_error``), the
    log gap from below by the rounding of its two logs, and the last
    steps' rounding is subtracted too, so the result is never above the
    exact value of the formula.  The slack is about
    varphi_error(varphi(c)) log(r2/r1)/c: a few eps of the bound for c
    below metric.VARPHI_TAYLOR_T, where that error bound is relative,
    and at most ~2e-13 of it above.
    """
    c = _check_gap(c)
    r1, r2 = _check_radii(r1, r2)
    return _ring_lower(ring_coefficients(c), r1, r2)


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


# A block of the distance matrix holds at most this many elements (one
# row, if a row is longer), so a query's scratch memory stays small.
_BLOCK = 8192


def _bracket(r: np.ndarray, d, axis: int) -> tuple[np.ndarray, np.ndarray]:
    """Along axis of r, the largest entry <= d and the smallest >= d, NaN
    where there is none (NaN entries never qualify)."""
    return (np.fmax.reduce(np.where(r <= d, r, np.nan), axis=axis),
            np.fmin.reduce(np.where(r >= d, r, np.nan), axis=axis))


def _pair_block(x: np.ndarray, y: np.ndarray, i: int, j: int) -> np.ndarray:
    """|b-a| for the punctures a in rows i:j and b in columns i:n, NaN
    where b = a (a is not its own neighbour)."""
    # np.hypot is the libm hypot that abs(complex) calls, so each r
    # equals the scalar abs(b - a) bit for bit (np.abs does not)
    r = np.hypot(x[i:] - x[i:j, None], y[i:] - y[i:j, None])
    r.flat[::len(x) - i + 1] = np.nan
    return r


def _exact_block(x: np.ndarray, y: np.ndarray, d: np.ndarray, i: int,
                 j: int, below: np.ndarray, above: np.ndarray) -> None:
    """Fold the exact brackets of the block of rows i:j, columns i:n,
    into below and above: its own rows along axis 1, the later columns
    j:n along axis 0."""
    r = _pair_block(x, y, i, j)
    lo, hi = _bracket(r, d[i:j, None], axis=1)
    np.fmax(below[i:j], lo, out=below[i:j])
    np.fmin(above[i:j], hi, out=above[i:j])
    if j < len(x):
        lo, hi = _bracket(r[:, j - i:], d[j:], axis=0)
        np.fmax(below[j:], lo, out=below[j:])
        np.fmin(above[j:], hi, out=above[j:])


# The filter's proxy for a pair is g = |log(dx^2 + dy^2) - 2 log d_a|,
# and the exact search ranks the pair by mu = |log d_a - log r|, r =
# hypot(dx, dy).  g/2 differs from mu by at most:
#   - dx^2 + dy^2 against r^2: the squares and their sum round three
#     times (an underflowed square adds 2^-1075, below eps/2 of a
#     normal sum), and r is within an ulp of its root, so the two logs
#     differ by at most 4 eps ~ 1e-15;
#   - np.log of the sum and of d, and the two math.log terms of
#     _log_gap: each taken to be within 4 ulps (numpy's and libm's
#     logs measure within one) of a result below 1500 in magnitude
#     (the sum is normal, d a positive float), so seven of them,
#     counting the doubled ones twice, add at most 7 * 4 ulps of
#     2048 ~ 6.4e-12;
#   - the two subtractions, eps of g < 3000 and of 2 mu, ~1e-12.
# So g is within 1e-11 of 2 mu, and the pair that wins m has g within
# 2e-11 of its puncture's smallest g.  The window is fifty times that,
# and still keeps a few candidates per puncture on a random domain.
_WINDOW = 1e-9

# Squares of coordinate differences up to 2^511 sum to at most 2^1023:
# no proxy overflows while every coordinate is at most half that.
_COORD_MAX = 2.0 ** 510


def _filtered_block(x: np.ndarray, y: np.ndarray, d: np.ndarray,
                    t: np.ndarray, best: np.ndarray, i: int, j: int,
                    below: np.ndarray, above: np.ndarray) -> bool:
    """The block of rows i:j, columns i:n, searched by its proxies
    g = |log(dx^2 + dy^2) - t| with t = 2 log d.

    Each puncture's running smallest g, rows along axis 1 and later
    columns along axis 0, is folded into best; the pairs within
    _WINDOW of it get an exact hypot, folded into below and above on
    both of their punctures.  Returns False, having done nothing, when
    a squared distance is not a normal float.
    """
    n = len(x)
    k = j - i
    dx = x[i:] - x[i:j, None]
    dy = y[i:] - y[i:j, None]
    q = np.square(dx)
    q += np.square(dy)
    # a is not its own neighbour: its proxy is log(inf) - t = inf
    q.flat[::n - i + 1] = np.inf
    if not q.min() >= sys.float_info.min:
        return False
    p = np.log(q, out=q)
    g = np.abs(p - t[i:j, None])
    np.minimum(best[i:j], g.min(axis=1), out=best[i:j])
    cand = g <= best[i:j, None] + _WINDOW
    if j < n:
        g = np.abs(p[:, k:] - t[j:])
        np.minimum(best[j:], g.min(axis=0), out=best[j:])
        cand[:, k:] |= g <= best[j:] + _WINDOW
    flat = np.flatnonzero(cand)
    r = np.hypot(dx.flat[flat], dy.flat[flat])
    r = np.concatenate((r, r))
    idx = np.concatenate(np.divmod(flat, n - i)) + i
    di = d[idx]
    np.fmax.at(below, idx, np.where(r <= di, r, np.nan))
    np.fmin.at(above, idx, np.where(r >= di, r, np.nan))
    return True


def _neighbours(x: np.ndarray, y: np.ndarray,
                d: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per puncture a, bracketing distances to other punctures that fix
    its log-gap.

    Returns (below, above), distances |b-a| <= d_a and >= d_a, NaN where
    no other puncture is on that side.  ``_log_gap(d_a, below, above)``
    is a's log-gap, and a distance that overflows comes back as inf.
    Where the exact search runs they are the largest |b-a| <= d_a and
    the smallest >= d_a; the filtered search brackets over its
    candidates only, which always include the side that wins m.

    hypot is even in each argument, so |b-a| and |a-b| are the same
    bits and each unordered pair is measured once: the block of rows
    i:j holds the columns i:n only, and serves the search of its own
    rows along axis 1 and that of the later columns j:n along axis 0.

    Past one block, each block is filtered by cheap proxies and only
    its few candidates get an exact hypot (``_filtered_block``).  A
    block whose squared distances leave the normal floats, and every
    block of a query where some d_a or coordinate is too large for the
    proxies, takes the exact search.
    """
    n = len(x)
    # one block holds the whole matrix: the loop below would give the
    # same bits, but its fold arrays cost ~10 us of a ~40 us N = 2 query
    if n * n <= _BLOCK:
        return _bracket(_pair_block(x, y, 0, n), d[:, None], axis=1)
    below = np.full(n, np.nan)
    above = np.full(n, np.nan)
    filtered = (np.isfinite(d).all()
                and max(np.abs(x).max(), np.abs(y).max()) <= _COORD_MAX)
    if filtered:
        t = 2.0 * np.log(d)
        # not inf: a g of inf (a puncture's own pair) must stay outside
        # every window
        best = np.full(n, sys.float_info.max)
    i = 0
    while i < n:
        j = min(n, i + max(1, _BLOCK // (n - i)))
        if not (filtered and _filtered_block(x, y, d, t, best, i, j,
                                             below, above)):
            _exact_block(x, y, d, i, j, below, above)
        i = j
    return below, above


def _log_gap(d: float, lo: float, hi: float) -> float:
    """m = min |log d - log r| over the bracketing distances r = lo, hi."""
    s = math.log(d)
    # min passes over NaN: a missing neighbour, or inf - inf once d
    # and a distance have both overflowed
    return min(math.inf, s - math.log(lo), math.log(hi) - s)


def _row_gap(x: np.ndarray, y: np.ndarray, d: np.ndarray, a: int) -> float:
    """Puncture a's log-gap m, its neighbours found by one scan of its
    row of distances rather than by _neighbours."""
    r = np.hypot(x - x[a], y - y[a])
    r[a] = np.nan
    lo, hi = _bracket(r, d[a], axis=0)
    return _log_gap(float(d[a]), float(lo), float(hi))


# Certified intervals must absorb their own rounding: h goes through
# agm/log chains that are only good to a few ulps, and on the negative
# axis the lower bound coincides with the exact density, so without
# one-sided slack the ordering lower <= rho would be a coin flip.
_EVAL_SLACK = 4e-15

# No computed h(m) exceeds this: h is even and decreasing in |m|, and
# the factor covers the few ulps of rounding in h's agm chain.
_H_CEILING = metric.h(0.0) * (1.0 + 1e-12)


def _lower_end(d: np.ndarray, gap) -> float:
    """max over punctures a of h(m_a)/d_a, with m_a = gap(a), lowered by
    the evaluation slack.

    The punctures are visited in increasing d, and the walk stops at the
    first whose ceiling _H_CEILING/d is below the best value so far: no
    later one can beat it, as division rounds monotonically.  So only
    the one or few punctures that decide the answer pay for gap and h,
    and the result is that of the full max to the bit.  No puncture is
    skipped that could raise: h does not, for m in [0, T_CAP].
    """
    dl = d.tolist()
    best = 0.0
    for a in sorted(range(len(dl)), key=dl.__getitem__):
        if _H_CEILING / dl[a] < best:
            break
        m = gap(a)
        # past T_CAP, where h raises, H(m) = 2(m + log 16) up to a relative
        # O(m e^{-m}) < 1e-290 (the C0 floor would be ~2e-3 low there)
        hm = metric.h(m) if m <= metric.T_CAP else 0.5 / (m + math.log(16.0))
        best = max(best, hm / dl[a])
    # within ~1e-309 of a puncture h(m)/d overflows, but the density is
    # finite: the largest float is still below it
    return min(best, sys.float_info.max) * (1.0 - _EVAL_SLACK)


def _coordinates(dom: PuncturedDomain,
                 z: complex) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The punctures' coordinates x, y and their distances |z-a|, inf
    where one overflows (under np.errstate(over="ignore"))."""
    pts = np.array(dom.punctures)
    x, y = pts.real, pts.imag
    return x, y, np.hypot(z.real - x, z.imag - y)


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
    |b-a| >= d.  Those are found with array reductions over the
    N(N-1)/2 pairwise puncture pairs, a block of at most ``_BLOCK`` at
    a time, and only they go through ``math.log``.  Each pair gets the
    proxy |log(|b-a|^2) - log(d^2)|, and only the pairs within 1e-9 of
    their puncture's best proxy get an exact hypot: a few per puncture
    on a random domain, and always the one that decides m, so the
    result is that of a hypot for every pair to the bit.  That exact
    search serves a domain of one block (N <= 90), a block with a
    squared distance below the normal floats, and every block of a
    query with a coordinate beyond 2^510 or an infinite d.  The upper
    end needs every m; the lower end walks the punctures outward from
    z and stops once no farther one can raise it, so ``metric.h`` runs
    on typically one to three of them.  A query costs O(N^2) array
    work, N(N-1)/2 proxies, a few hypots per puncture and a few arrays
    of one block of scratch memory: about 0.03 ms at N = 10, 0.2 ms at
    N = 100 and 6-9 ms at N = 1000 (Python 3.11, numpy 2.4, one Xeon
    core).
    """
    z = dom._check_interior(z)
    with np.errstate(over="ignore"):
        x, y, dists = _coordinates(dom, z)
        below, above = _neighbours(x, y, dists)
    gaps = []
    upper = math.inf
    for d, lo, hi in zip(dists.tolist(), below.tolist(), above.tolist()):
        m = _log_gap(d, lo, hi)
        gaps.append(m)
        q = 4.0 * m * d
        # hi = inf is a distance that overflowed: its true log-gap is
        # finite, unknown and may be below m
        if 0.0 < q < math.inf and hi != math.inf:
            upper = min(upper, math.pi / q)
    if math.isfinite(upper):
        upper *= 1.0 + _EVAL_SLACK
    return RhoBounds(_lower_end(dists, gaps.__getitem__), upper)


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
    is therefore exactly the lower end of ``rho_bounds``, and it is
    found by the same outward walk.  Only the punctures the walk visits
    need their m, so each of those scans its own row of distances, and
    the pairwise search never runs: a query costs an O(N log N) sort,
    plus O(N) array work and one ``metric.h`` call for each visited
    puncture, typically one to three.
    """
    z = dom._check_interior(z)
    with np.errstate(over="ignore"):
        x, y, dists = _coordinates(dom, z)
        return _lower_end(dists, functools.partial(_row_gap, x, y, dists))
