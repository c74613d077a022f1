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
takes only the visited punctures' rows.

For each puncture a they need the bracket of d_a = |z-a| among a's
distances to the other punctures, and those distances belong to the
domain, not to z: the domain sorts each puncture's row of them once,
when it is made, where they fit (``_sorted_rows``).  So the queries
take one of three routes by the number N of punctures:

* below ``_LISTS_BELOW``, sorted Python lists of the distances' logs,
  each taken once per pair when the domain is made, where a query
  bisects each row it needs at log d_a, and so takes one log a row;
  they, and the ring bounds, run without numpy;
* from there on up to ``_TABLE_CELLS`` distances (N <= 128), one
  sorted (N, N-1) array, where one comparison with d brackets every
  row at once;
* past that budget (at N = 1000 the rows would take 8 MB), no rows:
  ``rho_bounds`` searches the pairwise distances for its upper end, a
  chunk of at most ``_BLOCK`` at a time, the punctures nearest to z
  first, with each chunk's last slots given to the two that bracket the
  distance d of the puncture it last searched in full.  It prunes on
  squared distances, a tenth of the cost of a hypot, and drops each
  puncture once the squares it has met bound its 4 m d below the best
  found; only the punctures that can decide the bound get exact
  distances, a scan of their row each.  It returns the largest 4 m d
  and the log-gaps of the punctures it searched in full, which the
  lower end's walk reads; each other row the walk visits is scanned on
  its own.  So at N = 1000 it squares a fraction of the N(N-1)
  pairs (1-14%, under 7% in nine queries of ten) and takes a hypot of
  fewer (0.1-1.8%), and it holds one chunk of scratch memory.

Every distance is the libm hypot's, as abs(complex) or np.hypot, and
every log that decides a bound is math.log's, so the three routes give
the same bits.  From ``_LISTS_BELOW`` punctures on
the domain also keeps its coordinates as numpy arrays (so numpy loads
when such a domain is made, not in a query).

Everything here is a bound, never an approximation: a value is only
returned when the hypothesis it needs has been checked, and outputs
err on the safe side.
"""

from __future__ import annotations

import bisect
import cmath
import json
import math
import sys
from typing import NamedTuple, Sequence

from . import metric, specfun
from .errors import DomainError, PunctMetricError

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


def _finite_punctures(punctures: Sequence[complex]) -> tuple[complex, ...]:
    """The punctures as complex numbers, checked finite at C speed; where
    that fails, the loop that raises the DomainError naming the first
    bad one, or whatever it meets first."""
    given = tuple(punctures)  # a one-shot iterable is read once
    try:
        pts = tuple(map(complex, given))
        if all(map(cmath.isfinite, pts)):
            return pts
    except Exception:  # the loop below raises it, or an earlier error
        pass
    return tuple(specfun.finite_complex(p, "punctures", j)
                 for j, p in enumerate(given))


def _check_distinct(pts: Sequence[complex]) -> None:
    if len(set(pts)) == len(pts):
        return
    first: dict[complex, int] = {}
    for j, p in enumerate(pts):
        i = first.setdefault(p, j)
        if i != j:
            raise DomainError(
                f"punctures must be pairwise distinct; "
                f"index {i} and {j} are both {p!r}")


class PuncturedDomain:
    """The complement of a finite set of at least two distinct points.

    Immutable; equality and hash are those of ``punctures``.  It holds,
    built once when it is made, what the density queries read of the
    punctures alone: below ``_LISTS_BELOW`` punctures the logs of each
    one's distances to the others, sorted, as Python lists; from there
    on the punctures' coordinates as numpy arrays and, up to
    ``_TABLE_CELLS`` distances, each one's sorted distances as one
    read-only (N, N-1) array (at most 128 KB; ~0.12 ms to build at
    N = 100, ~0.24 ms at N = 128).  Past
    that budget, as at N = 1000, where the rows would take 8 MB, it
    keeps none."""

    __slots__ = ("punctures", "_xy", "_rows")
    punctures: tuple[complex, ...]
    # the punctures' coordinates x, y as read-only arrays for the array
    # routes, built once from _LISTS_BELOW punctures on, else None
    _xy: tuple | None
    # each puncture's sorted log-distances (lists) or distances (array)
    # to the others (_sorted_rows)
    _rows: list | np.ndarray | None

    def __init__(self, punctures: Sequence[complex]):
        pts = _finite_punctures(punctures)
        if len(pts) < 2:
            raise DomainError(
                "need at least two punctures for a hyperbolic domain, "
                f"got {len(pts)}")
        _check_distinct(pts)
        xy = _coordinates(pts) if len(pts) >= _LISTS_BELOW else None
        object.__setattr__(self, "punctures", pts)
        object.__setattr__(self, "_xy", xy)
        object.__setattr__(self, "_rows", _sorted_rows(pts, xy))

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


# integers from here on round past the largest float
_FLOAT_LIMIT = 2 ** 1024 - 2 ** 970


def _is_real(v: object) -> bool:
    """Whether a JSON value is a number that a float holds: JSON true
    and false (bools) are not, nor an integer past the float range."""
    return type(v) is float or (type(v) is int and abs(v) < _FLOAT_LIMIT)


def _read_domain(path: str) -> PuncturedDomain:
    """The domain of a file that holds a JSON list of punctures, each an
    [re, im] pair or a real: the command line's domain files."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except ValueError as exc:
            raise PunctMetricError(
                f"domain file {path!r} is not valid JSON: {exc}") from None
    if not isinstance(data, list):
        raise PunctMetricError(
            f"domain file {path!r} must hold a JSON list of [re, im] pairs")
    pts = []
    for entry in data:
        if _is_real(entry):
            pts.append(complex(entry, 0.0))
        elif (isinstance(entry, list) and len(entry) == 2
              and _is_real(entry[0]) and _is_real(entry[1])):
            pts.append(complex(entry[0], entry[1]))
        else:
            raise PunctMetricError(
                f"bad domain entry {entry!r}: expected [re, im] or a real")
    return PuncturedDomain(pts)


# numpy, which the array routes run on: bound by _coordinates, which
# makes the arrays of every domain that takes them
np = None


def _coordinates(pts: tuple[complex, ...]) -> tuple:
    """The punctures' coordinates x, y as read-only arrays."""
    global np
    import numpy as np
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
    pts = _finite_punctures(punctures)
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
    # c/2 rounds to 0 at the smallest subnormal c, where varphi is 0
    half = 0.5 * c
    return RingBoundParams(c, metric._varphi_over_t(c, v),
                           v - (metric.varphi(half) if half else 0.0))


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
    err = metric._varphi_error(phi)
    a_lo = max(0.0, a * (1.0 - _EPS) - err / c)
    b_hi = b + _EPS * abs(b) + err + metric._varphi_error(phi - b)
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
    return BaselineBounds(
        sv512_A=metric.h(0.5 * c),
        bp_A=metric._bp_log(c),
        bp_B=c / (4.0 * math.pi),
    )


# A chunk of the neighbour search holds at most this many cells, its
# witness columns included (one column, or one row of an exact scan,
# where that is longer), so a query's scratch memory stays small.
_BLOCK = 8192


def _row_bracket(x: np.ndarray, y: np.ndarray, d: np.ndarray,
                 a: int) -> tuple[float, float, int | None, int | None]:
    """Puncture a's bracket over one scan of its row of distances, and the
    indices of the two punctures that hold it, None where a side has
    none."""
    # np.hypot is the libm hypot that abs(complex) calls, so each r
    # equals the scalar abs(b - a) bit for bit (np.abs does not), and
    # hypot is even, so a row and a column give the same bits
    r = np.hypot(x - x[a], y - y[a])
    r[a] = np.nan
    da = float(d[a])
    i = int(np.where(r <= da, r, -np.inf).argmax())
    j = int(np.where(r >= da, r, np.inf).argmin())
    if not r[j] >= da:
        # the least is the fill, inf: the first distance that overflowed
        # is the one, where there is one
        j = int(np.argmax(r >= da))
    lo, hi = float(r[i]), float(r[j])
    # an argmax over no qualifying entry points at one that fails its
    # test
    if not lo <= da:
        lo, i = math.nan, None
    if not hi >= da:
        hi, j = math.nan, None
    return lo, hi, i, j


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
#
# The table (``_table_upper``) bounds a row's 4 m d the same way, by
# 4 (m' + _GAP_SLACK) d, where m' is m from np.log values of d and its
# bracket's two ends.  Each is within 4 ulps of its exact log, below 745
# in magnitude (4 * 2^-43), and their difference rounds by half an ulp
# more (2^-43 below 1490), so m' falls below the exact m by at most
# 9 * 2^-43, and _log_gap's m exceeds it by at most 3 * 2^-43 (above).
# Adding the slack rounds by 2^-43 more, so fl(m' + slack) >= m while
# the slack exceeds 13 * 2^-43 ~ 1.5e-12; it is six times that.
_GAP_SLACK = 1e-11
_TINY = 2.0 ** -960


def _neighbours(x: np.ndarray, y: np.ndarray,
                d: np.ndarray) -> tuple[float, dict[int, float]]:
    """The largest 4 m d over the punctures, 0.0 where none bounds the
    density (see ``_upper_candidate``), and the log-gap m of each
    puncture searched in full, as a dict from its index.  Every puncture
    that can hold the largest 4 m d is among those.

    A chunk holds at most ``_BLOCK`` squared distances: those of the
    rows still live to the next few columns.  The columns come in index
    order, and callers pass the punctures nearest to z first
    (``_nearest_first``), since |b-a| is near d_a for b near z.  After
    each chunk the live row of the largest bound, from the squares so
    far, is completed by an exact scan of its row, which raises the best
    exact 4 m d, and every row whose bound is below that best drops out
    (see ``_GAP_SLACK``).  The scan also names the row's witnesses, the
    two punctures w that bracket its d, and those past the next chunk's
    columns take its last slots.  A witness of row a nearly fixes the
    log-gap of every puncture a' near a too, as
    |r(a', w) - d_a'| <= |r(a, w) - d_a| + 2|a - a'|, so one chunk drops
    a's cluster, where the columns nearest z would drop its rows one
    chunk at a time.  A witness column is visited again when the index
    order reaches it, which leaves every running minimum as it was.
    The rows still live after the last column get exact scans too, one
    row at a time.
    """
    n = len(x)
    # one workspace per query, thread-safe: each chunk's differences,
    # squares, quotients and mask are views of it, so the chunks reuse
    # its pages where fresh arrays would fault in new ones.  A chunk
    # holds at most _BLOCK cells, or one column of every live row
    size = max(_BLOCK, n)
    spare_x, spare_y, spare_tiny = (np.empty(size), np.empty(size),
                                    np.empty(size, dtype=bool))
    gaps = {}
    d2 = d * d
    d2[d2 < _TINY] = np.nan
    # per live row: its coordinates, d, d^2 and the smallest
    # max(s/d^2, d^2/s) so far
    live, xl, yl, dl, d2l = np.arange(n), x, y, d, d2
    p = np.full(n, np.inf)
    best = 0.0
    wits = []
    c = 0

    def complete(a: int, lo: float, hi: float) -> float:
        da = float(d[a])
        m = gaps[a] = _log_gap(da, lo, hi)
        return _upper_candidate(da, m, hi)

    while live.size and c < n:
        # the first chunks are narrow, so that rows can drop out before
        # most columns are visited; past them a chunk at most doubles the
        # columns visited
        k = max(1, min(_BLOCK // live.size, c + 16))
        extra = [w for w in dict.fromkeys(wits)
                 if w is not None and w >= c + k][:k]
        t = c + k - len(extra)
        # a column of the chunk per visited puncture, live rows along
        # its length: numpy's loops then run over the long axis.  The
        # last chunk can hold fewer than k columns, as x[c:t] stops at n
        cx, cy = np.append(x[c:t], x[extra]), np.append(y[c:t], y[extra])
        shape = (cx.size, live.size)
        cells = cx.size * live.size
        dx = np.subtract(xl, cx[:, None], out=spare_x[:cells].reshape(shape))
        dy = np.subtract(yl, cy[:, None], out=spare_y[:cells].reshape(shape))
        s = np.add(np.square(dx, out=dx), np.square(dy, out=dy), out=dx)
        tiny = np.less(s, _TINY, out=spare_tiny[:cells].reshape(shape))
        s[tiny] = np.nan
        np.divide(d2l, s, out=dy)
        np.fmax(np.divide(s, d2l, out=s), dy, out=s)
        p = np.fmin(p, np.fmin.reduce(s, axis=0))
        c = t
        bound = 4.0 * (0.5 * np.log(p) + _GAP_SLACK) * dl
        j = int(np.argmax(bound))
        a = int(live[j])
        lo_a, hi_a, *wits = _row_bracket(x, y, d, a)
        best = max(best, complete(a, lo_a, hi_a))
        keep = ~(bound < best)
        keep[j] = False
        live, xl, yl, dl, d2l, p = (v[keep]
                                    for v in (live, xl, yl, dl, d2l, p))
    for a in live.tolist():
        best = max(best, complete(a, *_row_bracket(x, y, d, a)[:2]))
    return best, gaps


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

# Every computed h(m) lies within a relative 1e-12 of h(m): h's agm
# chain rounds to a few ulps (tests/test_bounds.py checks it against
# Hempel's upper bound on h).  So no computed h(m) exceeds this
# ceiling, as h is even and decreasing in |m|.
_H_SLACK = 1.0 + 1e-12
_H_CEILING = metric.h(0.0) * _H_SLACK
_LOG16 = math.log(16.0)


def _lower_end(order: Sequence[int], d, gap) -> float:
    """max over punctures a of h(m_a)/d_a, with m_a = gap(a), lowered by
    the evaluation slack.

    order holds the punctures by increasing d_a (see ``_nearest_first``),
    and is read up to the first puncture whose ceiling _H_CEILING/d is
    below the best value so far: no later one can beat it, as division
    rounds monotonically.  So only the one or few punctures that decide
    the answer pay for gap, gap is asked for them in that order, and a
    visited puncture pays for h only where it may raise the best (the
    two rules below); the result is that of the full max to the bit.
    No puncture is skipped that could raise: h does not, for m in [0,
    T_CAP].
    """
    best = 0.0
    m_best = d_best = math.inf  # of the puncture that gave best
    for a in order:
        da = float(d[a])
        if _H_CEILING / da < best:
            break
        m = gap(a)
        # Skip h where the real quotient h(m)/d, h(m) as computed, is at
        # most best: rounded, it cannot pass best.  (i) h decreases in m
        # >= 0, so a computed h(m) passes the computed h(m_best) by at
        # most their few ulps of rounding, which d >= d_best * _H_SLACK
        # (1e-12 above d_best, less one rounding) more than covers.
        # (ii) Hempel's 2 h(m) < 1/(m + log 16) (verify's thm_c212_5):
        # the ulps of the computed h(m), and the four roundings of the
        # bound, sit far inside _H_SLACK; past T_CAP h(m) is taken as
        # that bound without the slack
        if (m >= m_best and da >= d_best * _H_SLACK
                or _H_SLACK * 0.5 / (m + _LOG16) / da < best):
            continue
        # past T_CAP, where h raises, H(m) = 2(m + log 16) up to a relative
        # O(m e^{-m}) < 1e-290 (the C0 floor would be ~2e-3 low there)
        hm = metric._h(m) if m <= metric.T_CAP else 0.5 / (m + _LOG16)
        if hm / da > best:
            best, m_best, d_best = hm / da, m, da
    # within ~1e-309 of a puncture h(m)/d overflows, but the density is
    # finite: the largest float is still below it
    return min(best, sys.float_info.max) * (1.0 - _EVAL_SLACK)


def _row_gaps(x: np.ndarray, y: np.ndarray, d: np.ndarray,
              gaps: dict[int, float]):
    """gap for ``_lower_end`` on the array route, whose walk order is
    range(N): a's log-gap from gaps where the search found it, else from
    a scan of its row (``_row_bracket``), so the walk scans exactly the
    rows it visits that the search did not complete."""

    def gap(a: int) -> float:
        if a not in gaps:
            gaps[a] = _log_gap(float(d[a]), *_row_bracket(x, y, d, a)[:2])
        return gaps[a]

    return gap


# Below this many punctures both queries run on Python lists, where the
# fixed cost of a table query's numpy calls (~31 us a rho_bounds query)
# outweighs a bisection of every log row in Python.  On log rows
# rho_bounds costs the same on both at N ~ 40 (15, 19, 28 and 32 us at
# N = 16, 22, 34 and 40), and sigma_lower stays cheaper on lists past
# N = 48; but the lists are built in Python, a hypot and a log per pair,
# so their build grows as N^2, and faster than the table's: ~76 against
# ~27 us at N = 22, ~0.17 against ~0.036 ms at N = 34, where a domain
# would need ~35 rho_bounds queries to repay it (CHANGES.md holds the
# timings).
_LISTS_BELOW = 22

# Up to this many distances, N(N-1) <= 2^14 (N <= 128, 128 KB), a domain
# of _LISTS_BELOW punctures or more keeps its sorted rows as one array;
# past it the queries search the pairs from z outward.  A table query
# beats the search at every N measured (up to 400), but its build grows
# as N^2: at N = 128 the ~0.24 ms it adds is repaid by about three
# rho_bounds queries or twenty sigma_lower ones, at N = 400 by some
# forty or six hundred (CHANGES.md holds the timings; these counts
# scale them to the build that takes each pair's hypot once).
_TABLE_CELLS = 2 ** 14


def _sorted_rows(pts: tuple[complex, ...], xy: tuple | None):
    """Each puncture's distances to the others, sorted: below
    ``_LISTS_BELOW`` punctures a list of Python lists of their logs,
    each ended by one NaN; a read-only (N, N-1) array of the distances
    up to ``_TABLE_CELLS`` distances; None past them.

    Each distance is abs(b - a) (``_distances``) on the lists, np.hypot
    of the coordinates' differences in the array, the same libm hypot,
    and hypot is even: the rows hold the bits that the neighbour search
    compares, whichever route holds them.  A list row's logs are the
    math.log values that ``_log_gap`` takes of its distances, each
    taken once for the two rows of its pair, so a list query takes
    only log d a row (``_list_gap``)."""
    n = len(pts)
    if n < _LISTS_BELOW:
        rows = [[] for _ in pts]
        log = math.log
        # each unordered pair's distance, and its log, once for the rows
        # of both; abs raises where a distance overflows, and
        # _distances then gives it as inf
        for i in range(1, n):
            a = pts[i]
            try:
                row = [log(abs(b - a)) for b in pts[:i]]
            except OverflowError:
                row = [*map(log, _distances(a, pts[:i]))]
            rows[i] += row
            for other, r in zip(rows, row):
                other.append(r)
        # one NaN after the sorted logs, outside every bisection: a side
        # with no neighbour reads it, as row[i] past the last log or as
        # row[-1] before the first, so it is NaN, as _bracket gives it
        for row in rows:
            row.sort()
            row.append(math.nan)
        return rows
    if n * (n - 1) > _TABLE_CELLS:
        return None
    x, y = xy
    # hypot on the strict lower triangle, and its transpose above: each
    # pair's distance once.  x_i - x_j is -(x_j - x_i) exactly and hypot
    # is even, so the bits are those of the full table; each row sorts
    # its 0 (the diagonal) first, and the rows keep the rest, C-ordered
    # for _table_upper's flat take
    r = np.zeros((n, n))
    with np.errstate(over="ignore"):
        np.hypot(x[:, None] - x, y[:, None] - y, out=r,
                 where=np.tri(n, n, -1, dtype=bool))
    r += r.T
    r.sort(axis=1)
    rows = np.ascontiguousarray(r[:, 1:])
    rows.flags.writeable = False
    return rows


def _bracket(row, d: float) -> tuple[float, float]:
    """The largest entry below d and the smallest >= d of a sorted row,
    by bisection, NaN where a side has none.  Where the upper end is d,
    the log-gap is 0 whatever the lower end."""
    i = bisect.bisect_left(row, d)
    return (float(row[i - 1]) if i else math.nan,
            float(row[i]) if i < len(row) else math.nan)


def _list_gap(row: list[float], d: float) -> float:
    """``_log_gap`` of d and its bracket in a log row of the list route
    (``_sorted_rows``), by one bisection of the row's logs.  log is
    monotone, so the bracket of log d among the logs is that of d among
    the distances, or, where a distance below d shares log d, gives
    m = 0 as that bracket does."""
    s = math.log(d)
    i = bisect.bisect_left(row, s, 0, len(row) - 1)
    return min(math.inf, s - row[i - 1], row[i] - s)


def _check_off_punctures(z: complex, nearest: float) -> None:
    # the difference of two distinct floats is never 0, so the nearest
    # distance is 0 exactly where z is a puncture
    if nearest == 0.0:
        raise DomainError(f"z = {z!r} is a puncture of the domain")


def _array_distances(dom: PuncturedDomain,
                     z: complex) -> tuple[np.ndarray, np.ndarray]:
    """The distances d_a = |z-a| in the domain's order, inf where one
    overflows (under np.errstate(over="ignore")), and the permutation
    that sorts them, the walk order of ``_lower_end``.

    Raises DomainError where z is not finite or is a puncture.
    """
    z = specfun.finite_complex(z, "z")
    x, y = dom._xy
    d = np.hypot(z.real - x, z.imag - y)
    perm = np.argsort(d)
    _check_off_punctures(z, d[perm[0]])
    return d, perm


def _nearest_first(dom: PuncturedDomain,
                   z: complex) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The punctures' coordinates x, y and their distances d_a = |z-a|,
    all three permuted into increasing d_a (``_array_distances``): the
    walk order of ``_lower_end`` is then range(N)."""
    d, perm = _array_distances(dom, z)
    x, y = dom._xy
    return x[perm], y[perm], d[perm]


def _table_upper(rows: np.ndarray,
                 d: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
    """The largest 4 m d over the punctures of a table (see
    ``_upper_candidate``), and every puncture's bracket of d as
    ``_bracket`` gives it: arrays of the lower and the upper ends.

    The rows ascend, so row a's entries below d_a come first, and the
    first entry that is not is the upper end: one comparison of the
    table with d gives every bracket.  Each row then bounds its 4 m d
    from np.log values, with the slack ``_GAP_SLACK``, and only the rows
    whose bound can reach the best exact 4 m d so far take exact values
    (math.log, as ``_log_gap``): typically one or two.
    """
    n, k = rows.shape
    below = rows < d[:, None]
    count = below.argmin(axis=1)
    # argmin finds no False in a row wholly below its d
    count[below[:, -1]] = k
    at = np.arange(0, n * k, k) + count
    hi = rows.take(at, mode="clip")
    lo = rows.take(at - 1, mode="clip")
    hi[count == k] = np.nan
    lo[count == 0] = np.nan
    s = np.log(d)
    # fmin passes over NaN, as _log_gap's min does
    bound = 4.0 * (np.fmin(s - np.log(lo), np.log(hi) - s) + _GAP_SLACK) * d

    def exact(a: int) -> float:
        da, hia = float(d[a]), float(hi[a])
        return _upper_candidate(da, _log_gap(da, float(lo[a]), hia), hia)

    best = exact(bound.argmax())
    for a in (~(bound < best)).nonzero()[0]:
        best = max(best, exact(a))
    return best, lo, hi


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
    ``_lower_end``; raises as ``_array_distances`` does."""
    z = specfun.finite_complex(z, "z")
    d = _distances(z, pts)
    order = sorted(range(len(d)), key=d.__getitem__)
    _check_off_punctures(z, d[order[0]])
    return d, order


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
    |b-a| >= d, and only their logs enter m.  The lower end
    walks the punctures outward from z, as ``sigma_lower`` does, and
    stops once no farther one can raise it, so h (``metric._h``) runs on
    typically one to three of them.

    Where the domain keeps its sorted rows, the bracket of each d is a
    bisection of its row: on the lists, below ``_LISTS_BELOW``
    punctures, which hold the distances' logs, one ``bisect`` a row at
    log d, in one pass that takes m and 4 m d of every row with one
    log each (``_list_gap``); on the table of distances, up to
    ``_TABLE_CELLS`` of them, one comparison of the whole table with
    d, after which only the rows whose np.log bound on 4 m d can reach
    the best take exact values (``_table_upper``).  A query then costs
    N distances to z, a sort of them, the brackets and the walk's h
    calls.

    Past the budget the upper end's search (``_neighbours``) visits the
    pairs nearest to z first, as squared distances, with the last slots
    of each chunk given to the two punctures that bracket the d of the
    puncture it last searched in full, and drops each puncture once the
    squares seen so far bound its 4 m d below the best one found, by a
    slack that covers their rounding.  The punctures that could hold
    the largest 4 m d are searched in full with exact hypots, so the
    result is that of a hypot for every pair to the bit.  The search
    returns that largest 4 m d and the log-gap of each puncture it
    searched in full.  A puncture the walk visits takes its m from
    those where it can, else from a scan of its row (``_row_gaps``).

    At N = 1000 the search squares 1-14% of the N(N-1) ordered pairs
    (under 7% in nine queries of ten) and takes an exact hypot of
    0.1-1.8% of them, and it holds one chunk of scratch memory.  Where
    no puncture can be dropped, as on 1000 punctures on a circle about
    z, it squares every pair, the witness columns twice, and then scans
    every row: O(N^2) work, about 40 ms at best, some tens of times a
    typical query's.  CHANGES.md holds the measured per-query times of
    the three routes.
    """
    rows = dom._rows
    if rows is None:
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            x, y, d = _nearest_first(dom, z)
            q, gaps = _neighbours(x, y, d)
            lower = _lower_end(range(len(d)), d, _row_gaps(x, y, d, gaps))
    elif type(rows) is list:
        d, order = _list_nearest_first(dom.punctures, z)
        m = []
        q = 0.0
        end = len(d) - 1
        # _list_gap and _upper_candidate, inlined: one pass over the
        # rows (hi = inf is the log of a distance that overflowed)
        for da, row in zip(d, rows):
            s = math.log(da)
            i = bisect.bisect_left(row, s, 0, end)
            hi = row[i]
            ma = min(math.inf, s - row[i - 1], hi - s)
            m.append(ma)
            qa = 4.0 * ma * da
            if q < qa < math.inf and hi != math.inf:
                q = qa
        lower = _lower_end(order, d, m.__getitem__)
    else:
        with np.errstate(over="ignore", invalid="ignore"):
            d, perm = _array_distances(dom, z)
            q, lo, hi = _table_upper(rows, d)
        lower = _lower_end(perm, d, lambda a: _log_gap(
            float(d[a]), float(lo[a]), float(hi[a])))
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
    need their m: where the domain keeps its sorted rows, a bisection
    of each visited row, Python's ``bisect`` on the lists' logs at
    log d (``_list_gap``) and on the table's distances at d alike, so
    a query costs N distances to z, their sort and one call of h
    (``metric._h``) for each visited puncture, typically one to
    three.  Past ``_TABLE_CELLS`` distances each
    visited puncture scans its own row (``_row_gaps``): O(N) per visited
    row, and O(N^2) where the walk visits every puncture, as on 1000
    punctures on a circle about z.  The pairwise search never runs.
    CHANGES.md holds the measured per-query times.
    """
    rows = dom._rows
    if rows is None:
        with np.errstate(over="ignore"):
            x, y, d = _nearest_first(dom, z)
            return _lower_end(range(len(d)), d, _row_gaps(x, y, d, {}))
    if type(rows) is list:
        d, order = _list_nearest_first(dom.punctures, z)
        return _lower_end(order, d, lambda a: _list_gap(rows[a], d[a]))
    with np.errstate(over="ignore"):
        d, perm = _array_distances(dom, z)
    d, order = d.tolist(), perm.tolist()
    return _lower_end(order, d,
                      lambda a: _log_gap(d[a], *_bracket(rows[a], d[a])))


# bind this module's names into the package, however it was imported
from . import _bind  # noqa: E402

_bind(__name__)
