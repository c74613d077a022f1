"""The array half of ``hyp2f1``, which loads numpy: the lockstep, and
every array form of hyp2f1.  hyp2f1 hands out the array forms that
other modules call on first use (PEP 562), so its scalar calls run
without numpy.  The points a run does not serve take the scalar calls
of hyp2f1, looked up there at call time.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple, Sequence

import numpy as np

from . import hyp2f1, specfun
from ._arrays import _array_form, as_points
from .hyp2f1 import (
    MAX_TERMS_DIRECT,
    MAX_TERMS_LOG,
    METHOD_DIRECT,
    SERIES_RTOL,
    X_SWITCH,
    HypParams,
    _derivative,
    _exp_or_inf,
    _falling,
    _METHODS,
    _ratio_estimate,
    _route,
    _TINY,
    _x_err,
)

# A family's loop runs at every lane of a batch in lockstep: each numpy
# step adds a block of terms to every lane still summing, and a lane
# stops where the scalar rule stops it.  A block is a (terms, lanes)
# array, so that each term's row is contiguous; per-term factors enter
# as columns.  A run sums one series, for one parameter set, at the
# points of its lanes: _ratio_many and _direct_many the direct series,
# _zb_many the log family.  _from_complement_many chooses among the
# routes as _f21_from_complement does, and runs the one body of the
# log series (hyp2f1._zb_log) and of DLMF 15.8.4 (hyp2f1._connection,
# F2, then F1) on arrays, with those summers and a pointwise exp.
# Every run is the lockstep, at any lane count.
# Running products and sums are scans down the rows, applied in
# sequence as the scalar loop does; numpy's + - * / round as Python's
# do; log and exp come from math point by point.  So each lane gets its
# scalar call's bits.  Every entry point runs through the one array-form
# driver (``_arrays._array_form``): each distinct point of a call in its
# domain, keyed on its bits, is summed once, and a point keeps its
# results where they are all finite.  The lockstep sums routes only, so
# a lane that hands over gets a value that is not finite: NaN where a
# log sum stalls or cancels, a connection formula cancels or its
# estimate reaches |F|, 1-u = 1 on the direct route, a series runs out
# of terms, or the route is the closed form u^-a at c = b (u^-b at c =
# a), a log route whose B(a, b) is past the float range or a connection
# route whose prefactor overflows; inf or NaN where a series overflows,
# among them a step ratio that overflows at x = +-0, where inf * 0
# makes it NaN.
# Every other point, and every point out of range, takes its scalar
# call's result, point by point in index order.  So a batch returns,
# and raises first, what a loop of scalar calls would.

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


@functools.lru_cache(maxsize=MAX_TERMS_LOG + 1)
def _falling_table(m: int) -> np.ndarray:
    """hyp2f1._falling(m)'s f_m and f_m' as columns of a read-only
    (2, n, 1) array."""
    table = np.array(_falling(m)[:2])[:, :, None]
    table.flags.writeable = False
    return table


class EvalResults(NamedTuple):
    """The EvalResult fields of a batch of points, one array each."""

    value: np.ndarray
    abs_err_estimate: np.ndarray
    terms_used: np.ndarray
    method: np.ndarray


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

    ``fixed`` holds each lane's inputs as (1, lanes) rows, ``state``
    what the next term reads or the caller wants.  ``step(n, k, fixed,
    state)`` adds terms n+1 .. n+k and returns the state after each, as
    (k, lanes) arrays, the stop test at each, and where a lane stops at
    once (or False).  Returns the state at each lane's stop and its
    terms after the first: NaN and 0 where ``cap`` terms were not
    enough."""
    size = state[0].size
    final = tuple(np.full(size, np.nan) for _ in state)
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
                fixed = tuple(v.take(keep, axis=1) for v in fixed)
            # copies: the block is freed before the next one is made
            state = tuple(row[-1][keep] for row in rows)
            del rows, passed, now
    return final, summed


def _ratio_many(a: float, b: float, c: float, xs: np.ndarray,
                total: np.ndarray):
    """_ratio_sum at every point of xs onto the sums ``total``, laid out
    as its result (arrays); NaN sums where a lane runs out of terms."""
    # a, b, c and the counter in each lane's unit, its scalar loop's:
    # 1.0 at x = +-0, where that loop sums (0, 0; c).  A run that holds
    # both units carries them as a row beside x.
    unit = hyp2f1._unit(a, b, c, float(MAX_TERMS_DIRECT))
    fixed = (xs[None],)
    if unit != 1.0 and not xs.all():
        unit = np.where(xs, unit, 1.0)
        fixed += (unit[None],)

    def step(n, k, fixed, state):
        x, one = fixed if len(fixed) == 2 else (*fixed, unit)
        term, total, weighted, comp, _ = state
        # term n+j takes factor j, and its stop test the ratio factor j+1;
        # a + m rounds as a + n, and m = (n + j) one exactly
        m = np.arange(n, n + k + 1.0)[:, None] * one
        cm = c * one + m
        mult = (a * one + m) * (b * one + m) / (cm * (m + one)) * x
        (terms,) = _scan(np.multiply, (term, mult[:k]))
        sizes = np.abs(terms)
        sums, weights = _scan(np.add, (total, terms),
                              (weighted, m[1:] * sizes))
        prev = np.concatenate((total[None], sums[:-1]))
        back = sums - prev
        (comps,) = _scan(np.add,
                         (comp, (prev - (sums - back)) + (terms - back)))
        r = np.where(sizes != 0.0, np.maximum(np.abs(mult[1:]), x), 0.0)
        # no tail test while c + n <= 0, as in _ratio_sum
        passed = (r < 1.0) & (cm[1:] > 0.0) & (sizes * r <= np.maximum(
            SERIES_RTOL * np.abs(sums) * (1.0 - r), _TINY))
        return (terms, sums, weights, comps, r), passed, ~(sizes < np.inf)

    ones, zeros = np.ones(xs.size), np.zeros(xs.size)
    (term, total, weighted, comp, r), summed = _lockstep(
        step, fixed, (ones, total, zeros, zeros, ones), MAX_TERMS_DIRECT)
    with np.errstate(all="ignore"):
        return total + comp, term, r, weighted / unit, summed


def _direct_many(a: float, b: float, c: float, xs: np.ndarray,
                 x_err=0.0) -> tuple[np.ndarray, ...]:
    """_direct_series at every point of xs, x_err a float or one per
    point: a lane whose series overflows or runs out of terms has a
    value that is not finite."""
    total, term, r, weighted, summed = _ratio_many(
        a, b, c, xs, np.ones(xs.size))
    with np.errstate(all="ignore"):
        err = _ratio_estimate(term, r, weighted, total, x_err)
    return total, err, summed + 1


def _nan_lanes(size: int) -> tuple[np.ndarray, ...]:
    """(value, estimate, terms) of lanes that a route does not serve."""
    nan = np.full(size, np.nan)
    return nan, nan, np.zeros(size, dtype=np.int64)


def _zb_many(a: float, b: float, u: np.ndarray, ell: np.ndarray, m: int,
             from_one: bool = False, cap=None):
    """_zb_sum at every (u, ell) pair, laid out as its result (arrays);
    NaN sums where a lane runs out of terms.  A lane sums on past the
    scalar loop's cap: its end hands over too (see hyp2f1._CAP_SLACK)."""
    # c_n, d_n, f_m(n) and f_m'(n) as the scalar loop forms them, as
    # columns
    d_0 = specfun._ramanujan_r(a, b)
    j = np.arange(float(MAX_TERMS_LOG))[:, None]
    f_all, fp_all = _falling_table(m)
    f_0, fp_0 = f_all[0, 0], fp_all[0, 0]
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
        uu, ll = fixed
        cs, ds = c_all[n:n + k], d_all[n:n + k]
        fs, fps = f_all[n + 1:n + k + 1], fp_all[n + 1:n + k + 1]
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
        if n + 1 < m:  # the stop rule counts terms n >= m
            passed &= fs > 0.0
        rows = u_pows, sums, sizes, weights, plains, terms, parts
        return rows, passed, False

    ones, zeros = np.ones(u.size), np.zeros(u.size)
    (_, total, size, weighted, plain, term, part), summed = _lockstep(
        step, (u[None], ell[None]),
        (ones, start, size, zeros, zeros, start, size), MAX_TERMS_LOG)
    return total, term, part, size, weighted, plain, summed


def _exp_many(v: np.ndarray) -> np.ndarray:
    """hyp2f1._exp_or_inf at every point of v."""
    return specfun.pointwise(_exp_or_inf, v)


def _from_complement_many(p: HypParams, u: np.ndarray,
                          ell: np.ndarray) -> tuple[np.ndarray, ...]:
    """_f21_from_complement at every (u, ell) pair with u < 1/2: the
    route bodies of hyp2f1, looked up there at call time, run on the
    arrays with the lockstep's summers.  A lane whose route hands over,
    or whose direct route meets 1-u = 1, has a value that is not finite,
    as every lane of the closed-form route (c = a or c = b) has."""
    route, m = _route(p)
    if not u.size or route == "power":  # its scalar _binomial serves
        return _nan_lanes(u.size)
    if route == "direct":
        x = 1.0 - u  # a lane at 1-u = 1 sums x = 0 instead
        value, err, terms = _direct_many(
            p.a, p.b, p.c, np.where(x < 1.0, x, 0.0), _x_err(x, u))
        return np.where(x < 1.0, value, np.nan), err, terms
    with np.errstate(all="ignore"):
        r = (hyp2f1._connection(p.a, p.b, p.c, u, -ell, _direct_many,
                                _exp_many) if route == "connection" else
             hyp2f1._zb_log(p, u, ell, m, _zb_many, _exp_many))
    if r is None:
        return _nan_lanes(u.size)
    value, err, serves, terms = r
    return np.where(serves, value, np.nan), err, terms


def f21_many(p: HypParams, xs) -> EvalResults:
    """f21 at every point of the 1-d array xs, in lockstep: each point
    gets the value, estimate, term count and method of its f21 call, to
    the bit, and the batch raises what the first failing point would."""
    xs = as_points(xs)
    # objects, so that each point's method is a reference to a shared name
    methods = np.array([METHOD_DIRECT, _METHODS.get(_route(p)[0],
                                                    METHOD_DIRECT)],
                       dtype=object)

    def lanes_of(xs):
        near = xs > X_SWITCH
        u = 1.0 - xs[near]  # exact: x >= 1/2
        above = _from_complement_many(p, u, -specfun.pointwise(math.log, u))
        out = []
        for hi, lo in zip(above, _direct_many(p.a, p.b, p.c, xs[~near])):
            lane = np.empty(xs.size, lo.dtype)
            lane[near], lane[~near] = hi, lo
            out.append(lane)
        return (*out, methods[near.view(np.int8)])

    return EvalResults(*_array_form(
        (xs,), (0.0 <= xs) & (xs < 1.0), lanes_of,
        lambda x: hyp2f1.f21(p, x),
        (float, float, np.int64, object)))


def _lo_hi_many(ps: Sequence[HypParams], lo: np.ndarray,
                ell: np.ndarray) -> list[np.ndarray]:
    """The values F(p; lo) for each p in ps, then F(p; 1-lo) for each, as
    f21 and f21_from_complement give them at (lo, ell = -log(lo)): at
    each distinct pair with 0 <= lo <= 1/2 and ell finite, for each p in
    turn, the direct series at every lo and the complement route at lo <
    1/2; at lo = 1/2 both are the direct series at 1/2, so F(p; 1-lo) is
    a copy of F(p; lo).  A point that a route hands over, or out of that
    range, takes the values of its scalar calls, in that order, or
    raises their first error."""

    def lanes_of(lo, ell):
        near = lo < X_SWITCH
        values, his = [], []
        for p in ps:
            values.append(_direct_many(p.a, p.b, p.c, lo)[0])
            his.append(values[-1].copy())
            his[-1][near] = _from_complement_many(p, lo[near], ell[near])[0]
        return (*values, *his)

    return _array_form(
        (lo, ell), (0.0 <= lo) & (lo <= X_SWITCH) & np.isfinite(ell),
        lanes_of,
        lambda lo, ell: ([hyp2f1.f21(p, lo).value for p in ps]
                         + [hyp2f1.f21_from_complement(p, lo, ell).value
                            for p in ps]),
        (float,) * (2 * len(ps)))


def f21_derivative_many(p: HypParams, xs) -> np.ndarray:
    """f21_derivative at every point of the 1-d array xs, to the bit."""
    return _derivative(p, as_points(xs),
                       lambda q, y: f21_many(q, y).value)


def zb_complement_sums_many(a: float, b: float,
                            us) -> tuple[np.ndarray, np.ndarray]:
    """zb_complement_sums at every point of us, to the bit: (C-1, D1)."""
    a = specfun._require_positive(a, "a")
    b = specfun._require_positive(b, "b")
    u = as_points(us)

    def lanes_of(u):
        sums = _zb_many(a, b, u, np.zeros(u.size), 0, from_one=True)
        return sums[5], sums[0]

    return tuple(_array_form(
        (u,), (0.0 <= u) & (u <= 0.75), lanes_of,
        lambda u: hyp2f1.zb_complement_sums(a, b, u), (float, float)))


def f21_minus_one_many(a: float, b: float, c: float, xs) -> np.ndarray:
    """f21_minus_one at every point of xs, to the bit."""
    HypParams(a, b, c)  # DomainError for a bad parameter
    x = as_points(xs)

    def lanes_of(x):
        return _ratio_many(a, b, c, x, np.zeros(x.size))[:1]

    return _array_form((x,), (0.0 <= x) & (x <= 0.75), lanes_of,
                       lambda x: (hyp2f1.f21_minus_one(a, b, c, x),))[0]
