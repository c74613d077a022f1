"""The array half of ``hyp2f1``, which loads numpy: the lockstep, and
every array form of hyp2f1.  hyp2f1 hands out these names on first use
(PEP 562), so its scalar calls run without numpy.  The runs read
SCAN_ROWS_FROM, _lockstep and _direct_many through hyp2f1, and take the
scalar calls there, at call time: a value or a wrapper set on hyp2f1
reaches every run.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple, Optional, Sequence

import numpy as np

from . import hyp2f1, specfun
from ._arrays import _array_form, as_points
from .hyp2f1 import (
    MAX_TERMS_DIRECT,
    MAX_TERMS_LOG,
    METHOD_CONNECTION,
    METHOD_DIRECT,
    METHOD_ZB_LOG,
    SERIES_RTOL,
    X_SWITCH,
    HypParams,
    _binomial,
    _connection_prefactors,
    _connection_result,
    _derivative,
    _exp_or_inf,
    _falling,
    _log_series_result,
    _ratio_estimate,
    _route,
    _TINY,
    _x_err,
)

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
# scalar call's bits.  Every entry point runs through the one array-form
# driver (``_arrays._array_form``): each distinct point of a call in its
# domain, keyed on its bits, is summed once.  The lockstep sums routes
# only: a lane that hands over is not served (a log sum that stalls or
# cancels, a connection formula that cancels or whose series fails,
# 1-u = 1 on the direct route, a series that overflows or runs out of
# terms), and where a prefactor or B(a, b) overflows the run raises and
# serves no lane.
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


@functools.lru_cache(maxsize=MAX_TERMS_LOG + 1)
def _falling_table(m: int) -> np.ndarray:
    """hyp2f1._falling(m)'s f_m and f_m' as a read-only (2, n) array."""
    table = np.array(_falling(m)[:2])
    table.flags.writeable = False
    return table


class EvalResults(NamedTuple):
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
    if out[0].size < hyp2f1.SCAN_ROWS_FROM:
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
        cm = c + m
        mult = (a + m) * (b + m) / (cm * (m + 1.0))
        if pick is not None:  # a column per parameter triple
            mult, cm = mult.take(pick[0], axis=1), cm.take(pick[0], axis=1)
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
        # no tail test while c + n <= 0, as in _ratio_sum
        passed = (r < 1.0) & (cm[1:] > 0.0) & (sizes * r <= np.maximum(
            SERIES_RTOL * np.abs(sums) * (1.0 - r), _TINY))
        return (terms, sums, weights, comps, r), passed, ~(sizes < np.inf)

    ones, zeros = np.ones(xs.size), np.zeros(xs.size)
    (term, total, weighted, comp, r), summed, stalled = hyp2f1._lockstep(
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
    f_all, fp_all = np.stack([_falling_table(int(k)) for k in kinds], axis=-1)
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
    (_, total, size, weighted, plain, term, part), summed, stalled = \
        hyp2f1._lockstep(step, (u[None], ell[None], pick),
                         (ones, start, size, zeros, zeros, start, size),
                         MAX_TERMS_LOG)
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
    series = hyp2f1._direct_many(jobs)
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
        return [_Lanes(0) for _ in ps], hyp2f1._direct_many(own)
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
    series = hyp2f1._direct_many(jobs)
    for i, lanes in zip(direct, series[len(own):]):
        lanes.served &= x < 1.0
        found[i] = lanes
    return [found[i] for i in range(len(ps))], series[:len(own)]


def f21_many(p: HypParams, xs) -> EvalResults:
    """f21 at every point of the 1-d array xs, in lockstep: each point
    gets the value, estimate, term count and method of its f21 call, to
    the bit, and the batch raises what the first failing point would."""
    xs = as_points(xs)
    # objects, so that each point's method is a reference to a shared name
    methods = np.array([METHOD_DIRECT, {
        "connection": METHOD_CONNECTION,
        "log": METHOD_ZB_LOG}.get(_route(p)[0], METHOD_DIRECT)], dtype=object)

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
                methods[near.view(np.int8)], out.served)

    return EvalResults(*_array_form(
        (xs,), (0.0 <= xs) & (xs < 1.0), lanes_of,
        lambda x: hyp2f1.f21(p, x),
        (float, float, np.int64, object)))


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
        sums, stalled = _zb_many(a, b, u, np.zeros(u.size), 0, from_one=True)
        return (sums[5], sums[0],
                ~stalled & np.isfinite(sums[5]) & np.isfinite(sums[0]))

    return tuple(_array_form(
        (u,), (0.0 <= u) & (u <= 0.75), lanes_of,
        lambda u: hyp2f1.zb_complement_sums(a, b, u), (float, float)))


def f21_minus_one_many(a: float, b: float, c: float, xs) -> np.ndarray:
    """f21_minus_one at every point of xs, to the bit."""
    HypParams(a, b, c)  # DomainError for a bad parameter
    x = as_points(xs)

    def lanes_of(x):
        (total, *_), stalled = _ratio_many(a, b, c, x, np.zeros(x.size))
        return total, np.isfinite(total) & ~stalled

    return _array_form((x,), (0.0 <= x) & (x <= 0.75), lanes_of,
                       lambda x: (hyp2f1.f21_minus_one(a, b, c, x),))[0]
