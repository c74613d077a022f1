"""The array half of ``specfun``, ``metric`` and ``pqfun``, which loads
numpy.  Those modules hand out these names on first use (PEP 562), so
``import punctmetric`` and the scalar calls run without numpy.

``_array_form`` is the one driver of every array form of ``hyp2f1``,
``pqfun`` and ``metric``: the array computation runs at each distinct
point of a call once (``_distinct`` keys points on their bits), a point
keeps its array results where they are all finite, and every other
point takes its scalar call.  It keeps nothing between calls: the one
cache of repeated work is verify's, of whole checks
(``verify.run_check``).
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
    """(first, group): the indices of the first occurrences of the
    distinct points of 1-d float arrays of one length, in the caller's
    order, a point being its values in ``keys``, and for each point the
    index in ``first`` of its own; slice(None) for both where no point
    repeats.  Points are keyed on their bits, so 0.0 and -0.0 stay
    apart."""
    bits = [np.ascontiguousarray(k).view(np.uint64) for k in keys]
    # np.unique finds first occurrences by a stable sort; all keys are
    # sorted only where a later key splits a group of the first
    _, first, group = np.unique(bits[0], return_index=True,
                                return_inverse=True)
    if any((b[first[group.ravel()]] != b).any() for b in bits[1:]):
        _, first, group = np.unique(np.stack(bits, 1), axis=0,
                                    return_index=True, return_inverse=True)
    if first.size == bits[0].size:
        return slice(None), slice(None)
    order = np.argsort(first, kind="stable")
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    return first[order], rank[group.ravel()]


def _array_form(keys, valid: np.ndarray, lanes_of, scalar,
                dtypes=(float,)) -> list[np.ndarray]:
    """The one driver of the array forms: arrays of the given dtypes
    with the results at every point, a point being its values in the
    1-d float arrays ``keys``.  lanes_of(*keys) gives the results at the
    distinct points where ``valid`` holds, each once, and a point keeps
    them where its float results are all finite; where lanes_of raises
    a typed error, no point keeps any.  Every other point, in index order, takes
    what scalar(*point) returns at Python floats, or raises its error.
    So a batch returns what a loop of scalar calls returns, and raises
    that loop's first error."""
    full = [np.zeros(valid.size, dtype) for dtype in dtypes]
    kept = np.zeros(valid.size, dtype=bool)
    at = slice(None) if valid.all() else np.flatnonzero(valid)
    points = [k[at] for k in keys]
    first, group = _distinct(*points)
    if points[0].size:
        try:
            lanes = lanes_of(*(p[first] for p in points))
        except PunctMetricError:
            pass  # no point keeps its results
        else:
            kept[at] = np.logical_and.reduce(
                [np.isfinite(v) for v in lanes if v.dtype.kind == "f"])[group]
            for out, lane in zip(full, lanes):
                out[at] = lane[group]
    for i in np.flatnonzero(~kept).tolist():
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
        (ts,), np.abs(ts) <= metric.T_CAP,
        lambda t: (metric._h(t, np.sqrt, _agm_many),),
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
        return (out,)

    return _array_form((ts,), (0.0 < ts) & (ts < np.inf), lanes_of,
                       lambda t: (metric.varphi(t),))[0]


# pqfun: each function at every point of a 1-d array, to the bit of its
# float call, by the function itself run on the array

def _each(fn, args: tuple, points, valid=np.isfinite) -> np.ndarray:
    """fn(*args, point) at every point of the 1-d array points: fn runs
    once on the points where ``valid`` holds, and every other point
    takes its float call, as does every point where fn raises or gives
    a result that is not finite."""
    arr = as_points(points)
    return _array_form((arr,), valid(arr), lambda x: (fn(*args, x),),
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
