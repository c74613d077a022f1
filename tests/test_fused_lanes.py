"""Lockstep runs against their scalar loops, and array forms that sum
each distinct point once, against their scalar forms.

A run of the ratio family sums one triple a, b, c, and a run of the log
family one m, at every lane; each lane must get its scalar loop's bits.
The entry points key points on their bits, so repeated points, 0.0 and
-0.0, and the |t| of a +-t grid must each come out as their scalar call
does, and a batch must raise what its first failing point raises.
"""

import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from punctmetric import _arrays, _hyp2f1_arrays, hyp2f1, pqfun, verify
from punctmetric.errors import PunctMetricError
from punctmetric.hyp2f1 import HypParams


def _bits(values):
    return [struct.pack("<d", float(v)) for v in values]


def _outcome(call):
    """The call's result, or the type and message of its typed error."""
    try:
        return call()
    except PunctMetricError as exc:
        return type(exc), str(exc)


def _sums_bits(sums):
    """A lockstep run's sums per lane, or the scalar loop's, as bits."""
    return [_bits(field) for field in sums]


def _scalar_sums(results, fields):
    """The scalar loops' results laid out as a lockstep run's: a list per
    field, NaN sums and 0 terms where a loop ran out of terms, and the
    stalled lanes."""
    rows = [r or (math.nan,) * (fields - 1) + (0,) for r in results]
    return [list(col) for col in zip(*rows)], [r is None for r in results]


def _stalled(sums):
    """The lanes of a lockstep run that ran out of terms: no term summed
    and NaN state."""
    return [n == 0 and all(math.isnan(f[i]) for f in sums[:-1])
            for i, n in enumerate(sums[-1].tolist())]


_param = st.floats(0.05, 6.0)
_lanes = st.integers(1, 12)


@settings(deadline=None)
@given(st.data())
def test_mixed_parameter_ratio_run_matches_scalar_loops(data):
    # the lanes of each triple in a run of their own
    size = data.draw(_lanes)
    triples = [data.draw(st.tuples(_param, _param, _param))
               for _ in range(data.draw(st.integers(1, 4)))]
    pick = np.array([data.draw(st.integers(0, len(triples) - 1))
                     for _ in range(size)])
    xs = np.array([data.draw(st.floats(0.0, 0.5)) for _ in range(size)])
    total = np.array([data.draw(st.sampled_from((0.0, 1.0)))
                      for _ in range(size)])
    for g, triple in enumerate(triples):
        at = pick == g
        if not at.any():
            continue
        got = _hyp2f1_arrays._ratio_many(*triple, xs[at], total[at])
        want, want_stalled = _scalar_sums(
            [hyp2f1._ratio_sum(*triple, float(x), float(t))
             for x, t in zip(xs[at], total[at])], 5)
        assert _sums_bits(got[:-1]) == _sums_bits(want[:-1])
        assert got[-1].tolist() == want[-1]
        assert _stalled(got) == want_stalled


def test_ratio_run_with_negative_lower_parameters_matches_scalar_loops():
    # DLMF 15.8.4's first series has c = 1 - s < 0 where s > 1: no lane
    # takes a tail test while c + n <= 0, so each sums past n = -c, as
    # its scalar loop does
    triples = [(2.843, 0.00742, -67.84), (0.00742, 2.843, 69.84),
               (0.5, 0.5, -19.5), (1.5, 2.0, 3.0)]
    xs = np.array([0.4971, 0.3, 0.1, 1e-10])
    for triple in triples:
        got = _hyp2f1_arrays._ratio_many(*triple, xs, np.ones(xs.size))
        want, want_stalled = _scalar_sums(
            [hyp2f1._ratio_sum(*triple, float(x), 1.0) for x in xs], 5)
        assert _sums_bits(got[:-1]) == _sums_bits(want[:-1])
        assert got[-1].tolist() == want[-1]
        assert all(n > -triple[2] for n in want[-1])
        assert not any(_stalled(got))


@settings(deadline=None)
@given(st.data())
def test_mixed_m_log_run_matches_scalar_loops(data):
    # the lanes of each m in a run of their own
    size = data.draw(_lanes)
    a, b = data.draw(_param), data.draw(_param)
    from_one = data.draw(st.booleans())
    u = np.array([data.draw(st.floats(1e-12, 0.45)) for _ in range(size)])
    ell = -np.log(u)
    ms = np.array([data.draw(st.integers(0, 6)) for _ in range(size)])
    for m in set(ms.tolist()):
        at = ms == m
        got = _hyp2f1_arrays._zb_many(a, b, u[at], ell[at], m, from_one)
        want, want_stalled = _scalar_sums(
            [hyp2f1._zb_sum(a, b, float(v), float(e), m, from_one)
             for v, e in zip(u[at], ell[at])], 7)
        assert _sums_bits(got[:-1]) == _sums_bits(want[:-1])
        assert got[-1].tolist() == want[-1]
        assert _stalled(got) == want_stalled


def test_distinct_keys_points_on_their_bits():
    xs = np.array([0.5, -0.0, 0.25, 0.0, 0.5, -0.0, 0.25, 1.0])
    # first occurrences, in order, and each point's place among them
    first, group = _arrays._distinct(xs)
    assert first.tolist() == [0, 1, 2, 3, 7]
    assert group.tolist() == [0, 1, 2, 3, 0, 1, 2, 4]
    assert _bits(xs[first][group]) == _bits(xs)
    # a point is all its keys: equal u with another ell is another point
    u = np.array([0.1, 0.1, 0.1])
    ell = np.array([2.0, 3.0, 2.0])
    first, group = _arrays._distinct(u, ell)
    assert first.tolist() == [0, 1] and group.tolist() == [0, 1, 0]
    xs = np.arange(4.0)
    assert _arrays._distinct(xs) == (slice(None), slice(None))


_REPEATS = [0.3, -0.0, 0.0, 0.3, 0.9, 0.0, 0.9, -0.0, 0.3, 0.75, 0.75]


def _assert_results(many, scalars):
    """many() against a loop of scalar calls: their EvalResult fields to
    the bit, or the same first error."""
    want = _outcome(lambda: [call() for call in scalars])
    got = _outcome(many)
    if isinstance(want, tuple):
        assert got == want
        return
    assert _bits(got.value) == _bits(r.value for r in want)
    assert _bits(got.abs_err_estimate) == _bits(r.abs_err_estimate
                                                for r in want)
    assert got.terms_used.tolist() == [r.terms_used for r in want]
    assert got.method.tolist() == [r.method for r in want]


@pytest.mark.parametrize("p", [HypParams(0.5, 0.5, 1.0),
                               HypParams(0.3, 0.7, 1.1),
                               HypParams(1.0, 2.0, 2.0),
                               HypParams(2.0, 3.0, 4.5)])
def test_repeated_points_get_their_scalar_bits(p):
    xs = np.array(_REPEATS)
    _assert_results(lambda: hyp2f1.f21_many(p, xs),
                    [lambda x=x: hyp2f1.f21(p, x) for x in xs])
    for u in (np.abs(xs) / 2.0, xs / 2.0 + 0.01):
        ell = -np.log(np.where(u > 0.0, u, 1e-300))
        ell[1] += 1.0  # the u of another point, but another ell
        want = _outcome(lambda: [
            (hyp2f1.f21(p, v).value,
             hyp2f1.f21_from_complement(p, v, e).value)
            for v, e in zip(u.tolist(), ell.tolist())])
        got = _outcome(lambda: hyp2f1._lo_hi_many([p], u, ell))
        if isinstance(want, tuple):
            assert got == want
        else:
            assert [_bits(g) for g in got] == [_bits(w) for w in zip(*want)]


def test_repeated_points_in_the_sums_from_one():
    xs = np.array(_REPEATS) / 2.0
    cm1, d1 = hyp2f1.zb_complement_sums_many(0.5, 0.5, xs)
    want = [hyp2f1.zb_complement_sums(0.5, 0.5, x) for x in xs]
    assert _bits(cm1) == _bits(w[0] for w in want)
    assert _bits(d1) == _bits(w[1] for w in want)
    got = hyp2f1.f21_minus_one_many(0.5, 0.7, 1.3, xs)
    assert _bits(got) == _bits(hyp2f1.f21_minus_one(0.5, 0.7, 1.3, x)
                               for x in xs)


@pytest.mark.parametrize("many, scalar", [
    (pqfun.p_func_many, pqfun.p_func),
    (pqfun.p_prime_many, pqfun.p_prime),
    (pqfun.q_func_many, pqfun.q_func),
    (pqfun.q_log_many, pqfun.q_log),
    (pqfun.p_excess_many, pqfun.p_excess),
])
def test_plus_minus_t_grids_fold_to_their_scalar_bits(many, scalar):
    ts = np.linspace(-4.0, 4.0, 41)
    ts = np.concatenate((ts, -ts, [0.0, -0.0, 750.0, -750.0]))
    pr = pqfun.ZeroBalancedPair(0.5, 0.5)
    assert _bits(many(pr, ts)) == _bits(scalar(pr, float(t)) for t in ts)


@pytest.mark.parametrize("abc", [(0.5, 0.5, 1.0), (0.9, 1.1, 2.6),
                                 (1.0, 1.0, 1.5), (2.0, 3.0, 5.0)])
def test_x_and_one_minus_x_halves_get_their_scalar_bits(abc):
    xs = np.linspace(0.01, 0.99, 99)
    xs = np.concatenate((xs, 1.0 - xs, xs[::-1]))
    for many, scalar in ((pqfun.n_func_many, pqfun.n_func),
                         (pqfun.m_func_many, pqfun.m_func)):
        assert _bits(many(*abc, xs)) == _bits(scalar(*abc, float(x))
                                              for x in xs)


# F(400, 300; 10; x), a direct series, overflows at these x, each with
# its own message
_FAIL_A, _FAIL_B = 0.9, 0.8


@pytest.mark.parametrize("xs, first", [
    ([0.1, _FAIL_A, 0.2, _FAIL_A, _FAIL_B], _FAIL_A),
    ([_FAIL_B, _FAIL_A, _FAIL_A, 0.1, _FAIL_B], _FAIL_B),
    ([0.1, 0.1, _FAIL_A, 0.1, _FAIL_A, 0.2, 0.3], _FAIL_A),
])
def test_equal_failing_points_raise_the_first_ones_error(xs, first):
    p = HypParams(400.0, 300.0, 10.0)
    want = _outcome(lambda: hyp2f1.f21(p, first))
    assert isinstance(want, tuple)
    assert _outcome(lambda: [hyp2f1.f21(p, x) for x in xs]) == want
    assert _outcome(lambda: hyp2f1.f21_many(p, np.array(xs))) == want
    assert _outcome(lambda: hyp2f1.f21_minus_one_many(
        400.0, 300.0, 10.0, np.array(xs) * 0.75 / 0.9)) == _outcome(
        lambda: [hyp2f1.f21_minus_one(400.0, 300.0, 10.0, x * 0.75 / 0.9)
                 for x in xs])


# (p, q) pairs that pqfun evaluates in one call: zero-balanced v and w
# (log series with m = 0 and m = 1 past 1/2), and v with v'/(ab/c) for a
# non-integer c - a - b (two connection routes, four direct series);
# the pair's call must give each p what a call for p alone gives
_PAIRS = {
    "v_w": (HypParams(0.5, 0.5, 1.0), HypParams(0.5, 0.5, 2.0)),
    "v_w_wide": (HypParams(1.0, 2.0, 3.0), HypParams(1.0, 2.0, 4.0)),
    "connection": (HypParams(0.9, 1.1, 2.6), HypParams(1.9, 2.1, 3.6)),
    "mixed": (HypParams(0.5, 0.5, 1.0), HypParams(1.5, 1.5, 2.0)),
}


@pytest.mark.parametrize("name", sorted(_PAIRS))
def test_fused_pairs_match_unfused_calls(name, each_scan):
    ps = _PAIRS[name]
    # each run starts past the crossover
    size = _hyp2f1_arrays.SCAN_ROWS_FROM + 300
    ts = np.random.default_rng(7).permutation(
        np.concatenate((np.linspace(0.0, 40.0, size - 2), [0.0, 1e-9])))
    e = np.exp(-ts)
    lo, ell = e / (1.0 + e), ts + np.log1p(e)
    want = ([hyp2f1.f21_many(p, lo).value for p in ps]
            + [hyp2f1._lo_hi_many([p], lo, ell)[1] for p in ps])
    scalar = ([[hyp2f1.f21(p, x).value for x in lo] for p in ps]
              + [[hyp2f1.f21_from_complement(p, v, w).value
                  for v, w in zip(lo, ell)] for p in ps])
    for got in each_scan(lambda: hyp2f1._lo_hi_many(ps, lo, ell)):
        assert [_bits(g) for g in got] == [_bits(w) for w in want]
        assert [_bits(g) for g in got] == [_bits(s) for s in scalar]


def test_verify_suites_run_no_lockstep_under_four_lanes(lanes):
    for suite in ("default", "strict"):
        verify.run_suite(suite)
    assert lanes and min(lanes) >= 4


_key = st.sampled_from((0.0, -0.0, 0.5, 1.0, math.inf, -1e-300, 5e-324))


@settings(deadline=None)
@given(st.integers(1, 3).flatmap(lambda n: st.lists(
    st.tuples(*[_key] * n), min_size=1, max_size=12)))
def test_distinct_matches_a_dict_of_bit_tuples(rows):
    # a point is the bits of all its keys: +-0.0 apart, and equal first
    # keys with other later keys two points
    keys = [np.array(col) for col in zip(*rows)]
    seen = {}
    for i, row in enumerate(rows):
        seen.setdefault(tuple(_bits(row)), i)
    want_first = list(seen.values())
    want_group = [want_first.index(seen[tuple(_bits(row))]) for row in rows]
    first, group = _arrays._distinct(*keys)
    if isinstance(first, slice):
        assert group == slice(None)
        assert want_first == list(range(len(rows)))
    else:
        assert first.tolist() == want_first
        assert group.tolist() == want_group


def test_array_form_keeps_only_finite_results():
    # a point keeps its array results where every float one is finite;
    # each other point, in index order, takes its scalar call, and the
    # batch raises the first error of those calls
    xs = np.array([0.0, 1.0, 2.0, 3.0, 4.0, 1.0, 5.0])
    value = np.array([10.0, math.inf, 12.0, 13.0, -0.0, 15.0])
    err = np.array([0.5, 0.5, math.nan, 0.5, 0.5, 0.5])
    terms = np.arange(6) * 2**40
    calls = []

    def lanes_of(x):
        assert x.tolist() == [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]
        return value, err, terms

    def scalar(x):
        calls.append(x)
        return -x, 0.25, 7

    got = _arrays._array_form((xs,), np.full(xs.size, True), lanes_of,
                              scalar, (float, float, np.int64))
    assert calls == [1.0, 2.0, 1.0]
    assert _bits(got[0]) == _bits([10.0, -1.0, -2.0, 13.0, -0.0, -1.0, 15.0])
    assert _bits(got[1]) == _bits([0.5, 0.25, 0.25, 0.5, 0.5, 0.25, 0.5])
    assert got[2].tolist() == [0, 7, 7, 3 * 2**40, 4 * 2**40, 7, 5 * 2**40]

    def failing(x):
        calls.append(x)
        if x == 2.0:
            raise PunctMetricError(f"no value at {x}")
        return scalar(x)

    calls.clear()
    with pytest.raises(PunctMetricError, match="no value at 2.0"):
        _arrays._array_form((xs,), np.full(xs.size, True), lanes_of,
                            failing, (float, float, np.int64))
    assert calls == [1.0, 1.0, 2.0]
