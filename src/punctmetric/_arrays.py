"""The array half of ``specfun``, ``metric`` and ``pqfun``, which loads
numpy.  Those modules hand out these names on first use (PEP 562), so
``import punctmetric`` and the scalar calls run without numpy.

``_array_form`` is the one driver of every array form of ``hyp2f1``,
``pqfun`` and ``metric``: the array computation serves what it can, and
every other point takes its scalar call.  It keys each point on its
bits (``_distinct``), and holds what the array code gave at each point
of a form and its parameters in one memo of at most MEMO_CELLS cells,
so that each distinct point runs once per process.
"""

from __future__ import annotations

import math

import numpy as np

from . import metric, pqfun, specfun
from .elliptic import AGM_MAX_ITER, AGM_RTOL
from .errors import ConvergenceError, DomainError, PunctMetricError


def as_points(xs) -> np.ndarray:
    """xs as a 1-d float array, the input of every array form."""
    try:
        arr = np.asarray(xs, dtype=float)
    except OverflowError:  # an int past the float range: name the first
        for i, x in enumerate(xs):
            specfun.to_float(x, "points", i)
        raise
    if arr.ndim != 1:
        raise DomainError(
            f"points must form a 1-d array, got shape {arr.shape}")
    return arr


def _distinct(*keys: np.ndarray):
    """The indices of the first occurrences of the distinct points of
    1-d float arrays of one length, in the caller's order, a point being
    its values in ``keys``; slice(None) where no point repeats.  Points
    are keyed on their bits, so 0.0 and -0.0 stay apart."""
    bits = [np.ascontiguousarray(k).view(np.uint64) for k in keys]
    # a stable sort by the first key, the kind _sorted runs, so that a
    # process touches one numpy sort kernel; equal points then sit
    # together, the first occurrence first, unless equal first keys
    # come with other later keys, which all keys sort
    order = np.argsort(bits[0], kind="stable")
    new = _changes(bits, order)
    if len(bits) > 1 and (new != _changes(bits[:1], order)).any():
        order = np.lexsort(bits[::-1])
        new = _changes(bits, order)
    if new.all():
        return slice(None)
    first = np.zeros(order.size, dtype=bool)
    first[order[new]] = True
    return np.flatnonzero(first)


def _changes(bits: list[np.ndarray], order: np.ndarray) -> np.ndarray:
    """Where the keys, taken in ``order``, differ from the point before."""
    new = np.zeros(order.size, dtype=bool)
    new[:1] = True
    for b in bits:
        s = b[order]
        new[1:] |= s[1:] != s[:-1]
    return new


# The array code's results per form and parameters, as a table of
# columns: each point's bits, a uint64 column per key, then its results
# and served flag, its rows sorted on the first key.  A table is replaced
# whole, never written in place.
_memo: dict = {}
# Cells the memo may hold, a cell being one column of one row (8 bytes at
# most).  Past it the memo starts over; a call that holds more alone is
# served but not stored.
MEMO_CELLS = 1 << 18


def _cells(table: tuple) -> int:
    return table[0].size * len(table)


def _find(table: tuple, bits: list) -> tuple[np.ndarray, np.ndarray]:
    """(hit, at): whether table holds each point, given by its bits per
    key, and at which row.  Rows of one first key sit together, so a
    point whose first key is held with other later keys scans them."""
    first = table[0]
    # searched below the last row, every point lands on a row: its own
    # where held, the last one past every held key
    at = np.searchsorted(first[:-1], bits[0])
    hit = first[at] == bits[0]
    if len(bits) == 1:
        return hit, at
    same = hit.copy()
    for col, b in zip(table[1:], bits[1:]):
        hit &= col[at] == b
    for i in np.flatnonzero(same & ~hit).tolist():
        rows = np.arange(at[i], np.searchsorted(first, bits[0][i], "right"))
        for col, b in zip(table[1:], bits[1:]):
            rows = rows[col[rows] == b[i]]
        if rows.size:
            hit[i], at[i] = True, rows[0]
    return hit, at


def _sorted(table: tuple) -> tuple:
    order = np.argsort(table[0], kind="stable")
    return tuple(col[order] for col in table)


def _keep(key: str, table: tuple, chunk: tuple) -> None:
    """Hold table under key; past MEMO_CELLS, start over with the call's
    new points, or hold nothing new where they alone pass it."""
    if _cells(chunk) > MEMO_CELLS:
        return
    _memo.pop(key, None)
    if sum(map(_cells, _memo.values())) + _cells(table) > MEMO_CELLS:
        _memo.clear()
        table = _sorted(chunk)
    _memo[key] = table


def _array_form(form: tuple, keys, valid: np.ndarray, lanes_of, scalar,
                dtypes=(float,)) -> list[np.ndarray]:
    """The one driver of the array forms: arrays of the given dtypes
    with the results at every point, a point being its values in the
    1-d float arrays ``keys``.  lanes_of(*keys) gives the results at the
    points where ``valid`` holds, then where each is served (True for
    all); where it raises a typed error, or math's OverflowError (as a
    connection prefactor may), it serves no point.  It runs once per
    process on each distinct point of the form and parameters ``form``,
    which must fix the results at every point: a repeat, in this call or
    a later one, takes the results of its first occurrence from the
    memo.  Every point not served, in index order, takes what
    scalar(*point) returns at Python floats, or raises its error.  So a
    batch returns what a loop of scalar calls returns, and raises that
    loop's first error."""
    full = [np.zeros(valid.size, dtype) for dtype in dtypes]
    served = np.zeros(valid.size, dtype=bool)
    at = slice(None) if valid.all() else np.flatnonzero(valid)
    points = [k[at] for k in keys]
    key = repr(form)  # keeps 0.0 and -0.0, or 1 and 1.0, apart
    bits = [np.ascontiguousarray(p).view(np.uint64) for p in points]
    table = _memo.get(key, ())
    hit, rows = (_find(table, bits) if table
                 else (np.zeros(points[0].size, dtype=bool), None))
    if not hit.all():
        new = np.flatnonzero(~hit)
        new = new[_distinct(*(p[new] for p in points))]
        try:
            *lanes, ok = lanes_of(*(p[new] for p in points))
        except (PunctMetricError, OverflowError):
            table = ()  # no point served
        else:
            chunk = (*(b[new] for b in bits), *lanes,
                     np.broadcast_to(ok, new.shape))
            table = _sorted(tuple(map(np.concatenate, zip(table, chunk)))
                            if table else chunk)
            rows = _find(table, bits)[1]
            _keep(key, table, chunk)
    for out, col in zip(full + [served], table[len(keys):]):
        out[at] = col[rows]
    for i in np.flatnonzero(~served).tolist():
        for out, v in zip(full, scalar(*(k[i].item() for k in keys))):
            out[i] = v
    return full


# metric: h, H, H' and varphi at every point of a 1-d array, to the bit
# of the float call, through one formula each (metric._h, _varphi_*)
# whose AGM loop is per form

def _agm_many(x: float, m: np.ndarray) -> np.ndarray:
    """agm(x, m) at every point of m, 0 < m <= x, by elliptic.agm's steps."""
    out = np.empty(m.size)
    idx = np.arange(m.size)
    a = np.full(m.size, x)
    b = m
    for _ in range(AGM_MAX_ITER):
        done = a - b <= AGM_RTOL * a
        out[idx[done]] = 0.5 * (a[done] + b[done])
        keep = ~done
        idx, a, b = idx[keep], a[keep], b[keep]
        if not idx.size:
            return out
        a, b = 0.5 * (a + b), np.sqrt(a * b)
    raise ConvergenceError(
        f"agm did not converge within {AGM_MAX_ITER} iterations")


def h_many(ts) -> np.ndarray:
    """h at every point of the 1-d array ts, to the bit."""
    ts = as_points(ts)
    return _array_form(
        ("h_many",), (ts,), np.abs(ts) <= metric.T_CAP,
        lambda t: (metric._h(t, np.sqrt, _agm_many), True),
        lambda t: (metric.h(t),))[0]


def big_h_many(ts) -> np.ndarray:
    """big_h at every point of the 1-d array ts, to the bit."""
    return 1.0 / metric.h_many(ts)


def big_h_prime_many(ts) -> np.ndarray:
    """big_h_prime at every point of the 1-d array ts, to the bit."""
    return 2.0 * math.pi * pqfun.p_prime_many(metric._HALF, ts)


def varphi_many(ts) -> np.ndarray:
    """varphi at every point of the 1-d array ts, to the bit."""
    ts = as_points(ts)

    def lanes_of(ts):
        s = 0.5 * ts
        taylor = ts < metric.VARPHI_TAYLOR_T
        closed = s >= metric.VARPHI_CLOSED_S
        agm_route = ~(taylor | closed)
        out = np.empty(ts.size)
        out[taylor] = metric._varphi_taylor(ts[taylor])
        out[closed] = metric._varphi_closed(ts[closed])
        out[agm_route] = metric._varphi_agm(s[agm_route], np.sqrt, _agm_many)
        return out, True

    return _array_form(("varphi_many",), (ts,), (0.0 < ts) & (ts < np.inf),
                       lanes_of, lambda t: (metric.varphi(t),))[0]


# pqfun: each function at every point of a 1-d array, to the bit of its
# float call, by the function itself run on the array

def _each(fn, args: tuple, points, valid=np.isfinite) -> np.ndarray:
    """fn(*args, point) at every point of the 1-d array points: fn runs
    once on the points where ``valid`` holds, and every other point
    takes its float call, as does every point where fn raises."""
    arr = as_points(points)
    return _array_form(
        (fn.__name__, *args), (arr,), valid(arr),
        lambda x: (fn(*args, x), True),
        lambda x: (fn(*args, x),))[0]


def p_func_many(pr: pqfun.ZeroBalancedPair, ts) -> np.ndarray:
    """p_func at every point of ts."""
    return _each(pqfun.p_func, (pr,), ts)


def p_prime_many(pr: pqfun.ZeroBalancedPair, ts) -> np.ndarray:
    """p_prime at every point of ts."""
    return _each(pqfun.p_prime, (pr,), ts)


def slope_g_many(pr: pqfun.ZeroBalancedPair, ts) -> np.ndarray:
    """slope_g at every point of ts."""
    return _each(pqfun.slope_g, (pr,), ts,
                 lambda t: np.isfinite(t) & (t != 0.0))


def p_excess_many(pr: pqfun.ZeroBalancedPair, ts) -> np.ndarray:
    """p_excess at every point of ts."""
    return _each(pqfun.p_excess, (pr,), ts)


def q_func_many(pr: pqfun.ZeroBalancedPair, ts) -> np.ndarray:
    """q_func at every point of ts."""
    return _each(pqfun.q_func, (pr,), ts)


def q_log_many(pr: pqfun.ZeroBalancedPair, ts) -> np.ndarray:
    """q_log at every point of ts."""
    return _each(pqfun.q_log, (pr,), ts)


def q_excess_many(pr: pqfun.ZeroBalancedPair, ts) -> np.ndarray:
    """q_excess at every point of ts."""
    return _each(pqfun.q_excess, (pr,), ts,
                 lambda t: (0.0 <= t) & (t < np.inf))


def n_func_many(a: float, b: float, c: float, xs) -> np.ndarray:
    """n_func at every point of xs."""
    return _each(pqfun.n_func, (a, b, c), xs,
                 lambda x: (0.0 < x) & (x < 1.0))


def m_func_many(a: float, b: float, c: float, xs) -> np.ndarray:
    """m_func at every point of xs."""
    return _each(pqfun.m_func, (a, b, c), xs,
                 lambda x: (0.0 < x) & (x < 1.0))
