"""Array forms against their scalar forms on batches of 3000 points.

A lockstep block scans its running sums row by row over every lane
while the lanes still summing are at least ``SCAN_ROWS_FROM`` wide, and
by ``ufunc.accumulate`` once fewer are left.  These batches start past
that width on every route and keep lanes summing long after the first
block, so both scans and the hand-over between them meet each point's
scalar bits.  Each batch also runs with one scan forced throughout.
"""

import math
import struct

import numpy as np
import pytest

from punctmetric import _hyp2f1_arrays, hyp2f1
from punctmetric.errors import PunctMetricError
from punctmetric.hyp2f1 import HypParams

SIZE = 3000
ABOVE_HALF = math.nextafter(0.5, 1.0)


def _bits(values):
    return [struct.pack("<d", float(v)) for v in values]


def _outcome(call):
    """The call's result, or the type and message of its typed error."""
    try:
        return call()
    except PunctMetricError as exc:
        return type(exc), str(exc)


def _points(lo, hi, ends=()):
    """SIZE points: ``ends`` and an even spread from lo to hi, in a
    seeded order, so that lanes that stop early and late interleave."""
    spread = np.linspace(lo, hi, SIZE - len(ends))
    points = np.concatenate((np.array(ends, dtype=float), spread))
    return np.random.default_rng(SIZE).permutation(points)


def _assert_f21_many(each_scan, p, xs):
    want = [hyp2f1.f21(p, x) for x in xs]
    for got in each_scan(lambda: hyp2f1.f21_many(p, xs)):
        assert _bits(got.value) == _bits(r.value for r in want)
        assert _bits(got.abs_err_estimate) == _bits(
            r.abs_err_estimate for r in want)
        assert got.terms_used.tolist() == [r.terms_used for r in want]
        assert got.method.tolist() == [r.method for r in want]
    return got


# (parameters, points past 1/2 or not, the method there)
_ROUTES = {
    "direct": (HypParams(400.0, 300.0, 10.0), False, "direct_series"),
    "log_m0": (HypParams(0.5, 0.5, 1.0), True, "zb_log_series"),
    "log_m1": (HypParams(0.5, 0.5, 2.0), True, "zb_log_series"),
    "log_m3": (HypParams(1.0, 1.0, 5.0), True, "zb_log_series"),
    "log_euler": (HypParams(1.5, 1.5, 2.0), True, "zb_log_series"),
    "connection": (HypParams(0.3, 0.7, 1.1), True, "connection_series"),
    "power": (HypParams(1.0, 2.0, 2.0), True, "direct_series"),
}


@pytest.mark.parametrize("route", sorted(_ROUTES))
def test_f21_many_matches_f21_on_wide_batches(route, each_scan):
    p, near_one, method = _ROUTES[route]
    if near_one:  # u = 1-x from 1.1e-16 to 1/2
        xs = _points(ABOVE_HALF, 1.0 - 1e-12,
                     ends=(math.nextafter(1.0, 0.0),))
    else:  # from x = 0 to x = 0.3, where the series sums ~600 terms
        xs = _points(0.0, 0.3, ends=(1e-300,))
    got = _assert_f21_many(each_scan, p, xs)
    assert set(got.method) == {method}
    if route != "power":  # the closed form sums no terms
        # blocks hold BLOCK_CELLS // SIZE = 5 terms while most lanes sum:
        # the first lanes stop in the first block (the connection route
        # counts two series), the last ones many blocks later
        assert _hyp2f1_arrays.BLOCK_CELLS // SIZE == 5
        assert got.terms_used.min() < 10
        assert got.terms_used.max() > 40


def test_from_one_sums_match_on_wide_batches(each_scan):
    us = _points(0.0, 0.75, ends=(5e-324, 1e-300))
    a, b = 0.5, 0.5
    want = [hyp2f1.zb_complement_sums(a, b, u) for u in us]
    for c_m1, d1 in each_scan(
            lambda: hyp2f1.zb_complement_sums_many(a, b, us)):
        assert _bits(c_m1) == _bits(w[0] for w in want)
        assert _bits(d1) == _bits(w[1] for w in want)
    want = _bits(hyp2f1.f21_minus_one(a, b, a + b, u) for u in us)
    for got in each_scan(
            lambda: hyp2f1.f21_minus_one_many(a, b, a + b, us)):
        assert _bits(got) == want


def test_wide_batch_raises_at_a_lane_that_overflows_mid_block(each_scan):
    # F(400,300;10;x) overflows at x = 0.5 after hundreds of terms, while
    # the lanes around it converge; the batch raises what the first
    # failing scalar call raises
    p = HypParams(400.0, 300.0, 10.0)
    xs = _points(0.0, 0.3)
    xs[SIZE // 2] = 0.5
    xs[SIZE // 2 + 1] = 0.45
    want = _outcome(lambda: [hyp2f1.f21(p, x) for x in xs])
    assert want[0].__name__ == "RangeError" and "0.5" in want[1]
    assert each_scan(lambda: _outcome(
        lambda: hyp2f1.f21_many(p, xs))) == [want] * 3
