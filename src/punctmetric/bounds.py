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

Both density queries find the lower end by walking the punctures
outward from z until no farther one can raise it, so each makes a few
scalar ``h`` calls, not N; ``sigma_lower`` needs nothing else, and
takes only the visited punctures' rows of distances.

They take one of two routes by the number of punctures.  Below
``_LISTS_BELOW`` they run on Python lists: ``rho_bounds`` takes
abs(b - a) of every unordered pair once.  abs(complex) calls the libm
hypot that np.hypot calls, so both routes give the same bits, and on
these few punctures the lists cost less than the fixed cost of a
query's numpy calls; they, and the ring bounds, run without numpy.
From there on they run on numpy arrays, which the domain builds when it
is made (so numpy loads there, not in a query): an
O(N log N) sort, O(N) array work for each visited row (the rows of a
long walk come a batch at a time), and for the upper end of
``rho_bounds`` a search of the pairwise puncture distances, a chunk
of at most ``_BLOCK`` at a time, nearest to z first.  It prunes on
squared distances, a tenth of the cost of a hypot, and drops each
puncture once the squares it has met bound its 4 m d below the best
found; only the punctures that can decide the bound get exact
distances, a scan of their row each.  So at N = 1000 it squares a
fraction of the N(N-1) pairs (typically 2-10%) and takes a hypot of
fewer (0.2-3%), and it holds one chunk of scratch memory.

Everything here is a bound, never an approximation: a value is only
returned when the hypothesis it needs has been checked, and outputs
err on the safe side.
"""

from __future__ import annotations

import functools
import itertools
import math
import sys
from typing import NamedTuple, Sequence

from . import metric, specfun
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


def _check_distinct(pts: Sequence[complex]) -> None:
    first: dict[complex, int] = {}
    for j, p in enumerate(pts):
        i = first.setdefault(p, j)
        if i != j:
            raise DomainError(
                f"punctures must be pairwise distinct; "
                f"index {i} and {j} are both {p!r}")


class PuncturedDomain:
    """The complement of a finite set of at least two distinct points.

    Immutable; equality and hash are those of ``punctures``."""

    __slots__ = ("punctures", "_xy")
    punctures: tuple[complex, ...]
    # the punctures' coordinates x, y as read-only arrays for the array
    # route, built once from _LISTS_BELOW punctures on, else None
    _xy: tuple | None

    def __init__(self, punctures: Sequence[complex]):
        pts = tuple(specfun.finite_complex(p, "punctures", j)
                    for j, p in enumerate(punctures))
        if len(pts) < 2:
            raise DomainError(
                "need at least two punctures for a hyperbolic domain, "
                f"got {len(pts)}")
        _check_distinct(pts)
        object.__setattr__(self, "punctures", pts)
        object.__setattr__(self, "_xy", _coordinates(pts)
                           if len(pts) >= _LISTS_BELOW else None)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        return f"{type(self).__name__}(punctures={self.punctures!r})"

    def __eq__(self, other) -> bool:
        if type(other) is type(self):
            return self.punctures == other.punctures
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.punctures)

    def __reduce__(self):
        # pickle and copy rebuild through __init__, as assignment fails
        return type(self), (self.punctures,)


# numpy, which the array route runs on: bound by _load_numpy, which each
# entry of the route calls first
np = None


def _load_numpy() -> None:
    global np
    import numpy as np


def _coordinates(pts: tuple[complex, ...]) -> tuple:
    """The punctures' coordinates x, y as read-only arrays."""
    _load_numpy()
    coords = np.fromiter(pts, complex, len(pts))
    x, y = coords.real.copy(), coords.imag.copy()
    x.flags.writeable = y.flags.writeable = False
    return x, y


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
    c = specfun.to_float(c, "c")
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
    pts = [specfun.finite_complex(p, "punctures", j)
           for j, p in enumerate(punctures)]
    if len(pts) < 2:
        raise DomainError("need at least the punctures a0 = 0 and a1")
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
    _check_distinct(pts)
    c = 0.0
    for n in range(1, len(moduli) - 1):
        c = max(c, math.log(moduli[n + 1]) - math.log(moduli[n]))
    if r1 is not None:
        r1 = specfun.to_float(r1, "r1")
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
    r1 = specfun.to_float(r1, "r1")
    r2 = specfun.to_float(r2, "r2")
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


# A chunk of the neighbour search holds at most this many cells (one
# column, or one row of an exact scan, where that is longer), so a
# query's scratch memory stays small.
_BLOCK = 8192


def _bracket(r: np.ndarray, d, axis: int) -> tuple[np.ndarray, np.ndarray]:
    """Along axis of r, the largest entry <= d and the smallest >= d, NaN
    where there is none (NaN entries never qualify)."""
    return (np.fmax.reduce(np.where(r <= d, r, np.nan), axis=axis),
            np.fmin.reduce(np.where(r >= d, r, np.nan), axis=axis))


def _row_bracket(x: np.ndarray, y: np.ndarray, d: np.ndarray,
                 a: int) -> tuple[float, float]:
    """Puncture a's bracket over one scan of its row of distances."""
    # np.hypot is the libm hypot that abs(complex) calls, so each r
    # equals the scalar abs(b - a) bit for bit (np.abs does not), and
    # hypot is even, so a row and a column give the same bits
    r = np.hypot(x - x[a], y - y[a])
    r[a] = np.nan
    lo, hi = _bracket(r, d[a], axis=0)
    return float(lo), float(hi)


def _rows_bracket(x: np.ndarray, y: np.ndarray, d: np.ndarray,
                  rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The brackets of the punctures rows, from one (rows x N) array of
    their distances: the bits of ``_row_bracket`` on each, in fewer
    numpy calls where there are several (and more where there is one)."""
    r = np.hypot(x - x[rows, None], y - y[rows, None])
    r[np.arange(rows.size), rows] = np.nan
    return _bracket(r, d[rows, None], axis=1)


def _upper_candidate(d: float, m: float, hi: float) -> float:
    """4 m d from a puncture's exact log-gap m and upper neighbour
    distance hi, where pi/(4 m d) bounds the density from above; 0.0
    where it does not."""
    q = 4.0 * m * d
    # hi = inf is a distance that overflowed: its true log-gap is
    # finite, unknown and may be below m
    return q if q < math.inf and hi != math.inf else 0.0


# A row leaves the search once its bound 4 (log(p)/2 + _GAP_SLACK) d is
# below the best exact 4 m d, where p is the smallest max(s/d^2, d^2/s)
# over the cells the row has met and s = dx^2 + dy^2 the square of
# their distance r = |b-a|.  That max is e^|log s - log d^2|, so
# exactly log(p)/2 is the smallest |log r - log d| over the r met, and
# m is the smallest over every r: log(p)/2 >= m.  In floats
# m = _log_gap(d, lo, hi) exceeds its exact value (of the hypot values
# d, lo, hi) by at most
#   - an ulp of each of its two math.logs, whose values are below 745
#     in magnitude (the logs of the positive floats), and half an ulp
#     of their difference, below 1490: 3 * 2^-43 ~ 3.4e-13;
# and log(p)/2 falls below its exact value by at most
#   - half the log of 1 + 4 eps, ~4.5e-16: dx^2, dy^2 and their sum
#     round by eps/2 each, and libm's hypot gets r within an ulp, so s
#     is within 3 eps of r^2; d^2 and the quotient (the one of s/d^2
#     and d^2/s that is >= 1) round by eps/2 each;
#   - half of 4 ulps (numpy's log measures within one) of a log below
#     log(2^1984) ~ 1375: 2 * 2^-42 ~ 4.6e-13.
# Adding the slack rounds by at most 2^-44 more, as log(p)/2 < 688, so
# fl(log(p)/2 + slack) >= m while the slack exceeds ~8.1e-13; it is
# twelve times that.  The bound then multiplies in the order of
# q = 4 m d, which rounds monotonically, so it is never below the q of
# the row's full bracket: a dropped row cannot hold the largest q.
#
# These errors hold while the squares are normal floats.  A cell whose
# s is below _TINY is set to NaN, so it gives no information: that
# covers a's own cell (s = 0) and every s that lost its relative
# accuracy to underflow (an underflowed square is within 2^-1075 of its
# exact value, below 2^-115 of an s >= _TINY).  A row whose d^2 is below
# _TINY gets NaN cells only, so it is never dropped.  An s or d^2 that
# overflows makes p = inf, no information either, and p < 2^1984 where
# it is finite.
_GAP_SLACK = 1e-11
_TINY = 2.0 ** -960


def _neighbours(x: np.ndarray, y: np.ndarray,
                d: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per puncture a, bracketing distances to other punctures that fix
    its log-gap, as far as the upper end of ``rho_bounds`` needs them.

    Returns (below, above, exact), exact the indices of the punctures
    searched in full.  For those, below and above are the largest
    |b-a| <= d_a and the smallest >= d_a, NaN where no other puncture
    is on that side, and a distance that overflows comes back as inf;
    ``_log_gap`` of them is a's log-gap.  Every puncture that can hold
    the largest 4 m d is among them.

    The columns are visited in index order, a chunk of at most
    ``_BLOCK`` squared distances over the rows still live at a time;
    callers pass the punctures nearest to z first (``_nearest_first``),
    since |b-a| is near d_a for b near z.  After each chunk the live row
    of the largest bound, from the squares so far, is completed by an
    exact scan of its row, which raises the best exact 4 m d, and every
    row whose bound is below that best drops out (see ``_GAP_SLACK``).
    The rows still live after the last column get exact scans too, as
    many at a time as ``_BLOCK`` distances hold.
    """
    n = len(x)
    below = np.full(n, np.nan)
    above = np.full(n, np.nan)
    d2 = d * d
    d2[d2 < _TINY] = np.nan
    # per live row: its coordinates, d, d^2 and the smallest
    # max(s/d^2, d^2/s) so far
    live, xl, yl, dl, d2l = np.arange(n), x, y, d, d2
    p = np.full(n, np.inf)
    done = []
    best = 0.0
    c = 0
    while live.size and c < n:
        # the first chunks are narrow, so that rows can drop out before
        # most columns are visited; past them a chunk at most doubles the
        # columns visited
        k = max(1, min(_BLOCK // live.size, c + 16))
        # a column of the chunk per visited puncture, live rows along
        # its length: numpy's loops then run over the long axis
        dx = xl - x[c:c + k, None]
        dy = yl - y[c:c + k, None]
        s = np.add(np.square(dx, out=dx), np.square(dy, out=dy), out=dx)
        s[s < _TINY] = np.nan
        np.divide(d2l, s, out=dy)
        np.fmax(np.divide(s, d2l, out=s), dy, out=s)
        p = np.fmin(p, np.fmin.reduce(s, axis=0))
        c += k
        bound = 4.0 * (0.5 * np.log(p) + _GAP_SLACK) * dl
        j = int(np.argmax(bound))
        a = int(live[j])
        da = float(d[a])
        lo_a, hi_a = below[a], above[a] = _row_bracket(x, y, d, a)
        best = max(best, _upper_candidate(da, _log_gap(da, lo_a, hi_a), hi_a))
        done.append(a)
        keep = ~(bound < best)
        keep[j] = False
        live, xl, yl, dl, d2l, p = (v[keep]
                                    for v in (live, xl, yl, dl, d2l, p))
    step = max(1, _BLOCK // n)
    for i in range(0, live.size, step):
        rows = live[i:i + step]
        below[rows], above[rows] = _rows_bracket(x, y, d, rows)
    return below, above, np.concatenate((np.array(done, dtype=np.intp), live))


def _log_gap(d: float, lo: float, hi: float) -> float:
    """m = min |log d - log r| over the bracketing distances r = lo, hi."""
    s = math.log(d)
    # min passes over NaN: a missing neighbour, or inf - inf once d
    # and a distance have both overflowed
    return min(math.inf, s - math.log(lo), math.log(hi) - s)


# Certified intervals must absorb their own rounding: h goes through
# agm/log chains that are only good to a few ulps, and on the negative
# axis the lower bound coincides with the exact density, so without
# one-sided slack the ordering lower <= rho would be a coin flip.
_EVAL_SLACK = 4e-15

# No computed h(m) exceeds this: h is even and decreasing in |m|, and
# the factor covers the few ulps of rounding in h's agm chain.
_H_CEILING = metric.h(0.0) * (1.0 + 1e-12)


def _lower_end(order: Sequence[int], d, gap) -> float:
    """max over punctures a of h(m_a)/d_a, with m_a = gap(a), lowered by
    the evaluation slack.

    order holds the punctures by increasing d_a (see ``_nearest_first``),
    and is read up to the first puncture whose ceiling _H_CEILING/d is
    below the best value so far: no later one can beat it, as division
    rounds monotonically.  So only the one or few punctures that decide
    the answer pay for gap and h, gap is asked for them in that order,
    and the result is that of the full max to the bit.  No puncture is
    skipped that could raise: h does not, for m in [0, T_CAP].
    """
    best = 0.0
    for a in order:
        da = float(d[a])
        if _H_CEILING / da < best:
            break
        m = gap(a)
        # past T_CAP, where h raises, H(m) = 2(m + log 16) up to a relative
        # O(m e^{-m}) < 1e-290 (the C0 floor would be ~2e-3 low there)
        hm = metric.h(m) if m <= metric.T_CAP else 0.5 / (m + math.log(16.0))
        best = max(best, hm / da)
    # within ~1e-309 of a puncture h(m)/d overflows, but the density is
    # finite: the largest float is still below it
    return min(best, sys.float_info.max) * (1.0 - _EVAL_SLACK)


def _row_gaps(x: np.ndarray, y: np.ndarray, d: np.ndarray,
              gaps: dict[int, float]):
    """gap for ``_lower_end`` on the array route, whose walk order is
    range(N): a's log-gap from gaps where the search found it, else from
    a scan of its row.

    A missing row is scanned together with those of the next indices
    above a that lack a gap too, as one array: as many rows as were
    scanned so far (1, 1, 2, 4, ...), and at most ``_BLOCK`` distances
    unless one row holds more.  A long walk then costs a few numpy
    calls, not one scan per puncture, and no walk scans more than twice
    the rows it needs; one that stops within two punctures scans no row
    it does not need.
    """
    n = len(x)
    cap = max(1, _BLOCK // n)
    scanned = 0

    def gap(a: int) -> float:
        nonlocal scanned
        if a not in gaps:
            size = min(max(1, scanned), cap)
            if size == 1:
                gaps[a] = _log_gap(float(d[a]), *_row_bracket(x, y, d, a))
            else:
                rows = [a, *itertools.islice(
                    (b for b in range(a + 1, n) if b not in gaps), size - 1)]
                lo, hi = _rows_bracket(x, y, d, np.array(rows))
                gaps.update(zip(rows, map(_log_gap, d[rows].tolist(),
                                          lo.tolist(), hi.tolist())))
            scanned += size
        return gaps[a]

    return gap


# Below this many punctures both queries run on Python lists of the
# punctures, where the array route's fixed cost of numpy calls (some
# 20-45 us a query) outweighs the N(N-1)/2 scalar hypots; at N = 22 the
# two routes of rho_bounds cost about the same (70-75 us in the median
# over uniform unit-disk domains), while sigma_lower stays cheaper on
# lists up to N = 48 at least (CHANGES.md).
_LISTS_BELOW = 22


def _check_off_punctures(z: complex, nearest: float) -> None:
    # the difference of two distinct floats is never 0, so the nearest
    # distance is 0 exactly where z is a puncture
    if nearest == 0.0:
        raise DomainError(f"z = {z!r} is a puncture of the domain")


def _nearest_first(dom: PuncturedDomain,
                   z: complex) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The punctures' coordinates x, y and their distances d_a = |z-a|,
    inf where one overflows (under np.errstate(over="ignore")), all
    three permuted into increasing d_a: the walk order of ``_lower_end``
    is then range(N).

    Raises DomainError where z is not finite or is a puncture.  A domain
    of fewer than ``_LISTS_BELOW`` punctures, which meets this route only
    where the cut was lowered after it was made, has its coordinates
    built here.
    """
    z = specfun.finite_complex(z, "z")
    x, y = dom._xy or _coordinates(dom.punctures)
    d = np.hypot(z.real - x, z.imag - y)
    perm = np.argsort(d)
    d = d[perm]
    _check_off_punctures(z, d[0])
    return x[perm], y[perm], d


def _abs(w: complex) -> float:
    """|w|, to the bit of np.hypot(w.real, w.imag): abs(complex) calls the
    same libm hypot (math.hypot does not), but raises OverflowError where
    the modulus of finite parts overflows, and that is inf here."""
    try:
        return abs(w)
    except OverflowError:
        return math.inf


def _distances(a: complex, pts: Sequence[complex]) -> list[float]:
    """[|b - a| for b in pts], each as ``_abs`` gives it."""
    try:
        return [abs(b - a) for b in pts]
    except OverflowError:
        return [_abs(b - a) for b in pts]


def _list_nearest_first(pts: tuple[complex, ...],
                        z: complex) -> tuple[list[float], list[int]]:
    """The list route's distances d_a = |z - a| and order for
    ``_lower_end``; raises as ``_nearest_first`` does."""
    z = specfun.finite_complex(z, "z")
    d = _distances(z, pts)
    order = sorted(range(len(d)), key=d.__getitem__)
    _check_off_punctures(z, d[order[0]])
    return d, order


def _list_brackets(pts: tuple[complex, ...],
                   d: list[float]) -> tuple[list[float], list[float]]:
    """Every puncture's bracket on the list route: per puncture a, the
    largest |b-a| <= d_a and the smallest >= d_a, NaN where there is
    none.  Each unordered pair's distance is taken once and feeds the
    brackets of both its punctures."""
    n = len(pts)
    lo, hi = [math.nan] * n, [math.nan] * n
    for i in range(1, n):
        di = d[i]
        for j, r in enumerate(_distances(pts[i], pts[:i])):
            # no r is NaN, and r <= NaN is false: a side that has none
            # yet takes the first r on it
            if r <= di and not r <= lo[i]:
                lo[i] = r
            if r >= di and not r >= hi[i]:
                hi[i] = r
            dj = d[j]
            if r <= dj and not r <= lo[j]:
                lo[j] = r
            if r >= dj and not r >= hi[j]:
                hi[j] = r
    return lo, hi


def _list_row_gap(pts: tuple[complex, ...], d: list[float], a: int) -> float:
    """Puncture a's log-gap on the list route, from one scan of its row."""
    da = d[a]
    row = _distances(pts[a], pts[:a] + pts[a + 1:])
    return _log_gap(da, max([r for r in row if r <= da], default=math.nan),
                    min([r for r in row if r >= da], default=math.nan))


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
    |b-a| >= d, and only they go through ``math.log``.  The lower end
    walks the punctures outward from z, as ``sigma_lower`` does, and
    stops once no farther one can raise it, so ``metric.h`` runs on
    typically one to three of them.

    Below ``_LISTS_BELOW`` punctures the query runs on Python lists:
    abs(b - a) once for each unordered pair, which calls the same libm
    hypot as np.hypot, so both routes give the same bits.  From it on
    the upper end needs the largest 4 m d only.  Its search
    (``_neighbours``) visits the pairs nearest to z first, as squared
    distances, and drops each puncture once the squares seen so far
    bound its 4 m d below the best one found, by a slack that covers
    their rounding.  The punctures that could hold the largest 4 m d
    are searched in full with exact hypots, so the result is that of a
    hypot for every pair to the bit.  A puncture the walk visits takes
    its m from the search where that searched it in full, else from a
    scan of its row, batched with the rows of the next ones
    (``_row_gaps``).

    At N = 1000 the search squares typically 2-10% of the N(N-1)
    ordered pairs and takes an exact hypot of 0.2-3% of them, and it
    holds one chunk of scratch memory.  Where no puncture can be
    dropped, as on 1000 punctures on a circle about z, it squares every
    pair and then scans every row: O(N^2) work, some tens of times a
    typical query's.  Below the cut a query takes the N(N-1)/2 hypots
    and a sort.  CHANGES.md holds the measured per-query times of both
    routes.
    """
    pts = dom.punctures
    if len(pts) < _LISTS_BELOW:
        d, order = _list_nearest_first(pts, z)
        lo, hi = _list_brackets(pts, d)
        m = list(map(_log_gap, d, lo, hi))
        q = max(map(_upper_candidate, d, m, hi))
        lower = _lower_end(order, d, m.__getitem__)
    else:
        _load_numpy()
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            x, y, dists = _nearest_first(dom, z)
            below, above, exact = _neighbours(x, y, dists)
            d, lo, hi = (dists[exact].tolist(), below[exact].tolist(),
                         above[exact].tolist())
            m = list(map(_log_gap, d, lo, hi))
            q = max(map(_upper_candidate, d, m, hi), default=0.0)
            lower = _lower_end(range(len(dists)), dists, _row_gaps(
                x, y, dists, dict(zip(exact.tolist(), m))))
    # pi/q is monotone in q: this is the smallest pi/(4 m d)
    return RhoBounds(lower, math.pi / q * (1.0 + _EVAL_SLACK)
                     if q > 0.0 else math.inf)


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
    the pairwise search never runs: a query costs a sort, one
    ``metric.h`` call for each visited puncture, typically one to
    three, and a scan of its row: a Python list below ``_LISTS_BELOW``
    punctures, else a numpy row, batched with the next ones where the
    walk goes on (``_row_gaps``).  So a query costs O(N log N) for the
    sort and O(N) per visited row; where the walk visits every
    puncture, as on 1000 punctures on a circle about z, that is O(N^2).
    CHANGES.md holds the measured per-query times.
    """
    pts = dom.punctures
    if len(pts) < _LISTS_BELOW:
        d, order = _list_nearest_first(pts, z)
        return _lower_end(order, d, functools.partial(_list_row_gap, pts, d))
    _load_numpy()
    with np.errstate(over="ignore"):
        x, y, d = _nearest_first(dom, z)
        return _lower_end(range(len(d)), d, _row_gaps(x, y, d, {}))
