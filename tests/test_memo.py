"""The array forms' memo: each distinct point of a form and its
parameters runs once per process, up to ``_arrays.MEMO_CELLS``.

A warm call must return what the cold call returned, to the bit, and
run no array code (no lockstep, no AGM); a call that overlaps an
earlier one must sum its new points alone; and every batch must still
return, or raise, what a loop of scalar calls would.  conftest.py
empties the memo after each test.
"""

import math
import struct

import numpy as np
import pytest

from punctmetric import _arrays, hyp2f1, metric, pqfun, verify
from punctmetric.errors import PunctMetricError
from punctmetric.hyp2f1 import HypParams
from punctmetric.pqfun import ZeroBalancedPair


def _bits(values):
    return [struct.pack("<d", float(v)) for v in values]


def _outcome(call):
    """The call's result, or the type and message of its typed error."""
    try:
        return call()
    except PunctMetricError as exc:
        return type(exc), str(exc)


@pytest.fixture
def lanes(monkeypatch):
    """The lane count of every lockstep run from here on."""
    counts = []
    lockstep = hyp2f1._lockstep

    def counted(step, fixed, state, cap):
        counts.append(state[0].size)
        return lockstep(step, fixed, state, cap)

    monkeypatch.setattr(hyp2f1, "_lockstep", counted)
    return counts


@pytest.fixture
def agm(monkeypatch):
    """The point count of every array AGM run from here on."""
    counts = []
    agm_many = _arrays._agm_many

    def counted(x, m):
        counts.append(m.size)
        return agm_many(x, m)

    monkeypatch.setattr(_arrays, "_agm_many", counted)
    return counts


def _arrays_of(got):
    return [got] if isinstance(got, np.ndarray) else list(got)


def _fields(got):
    """An array form's results as comparable lists: bits, or values
    where they are not floats."""
    if isinstance(got, hyp2f1.EvalResults):
        return [_bits(got.value), _bits(got.abs_err_estimate),
                got.terms_used.tolist(), got.method.tolist()]
    if isinstance(got, np.ndarray):
        got = [got]
    return [_bits(g) for g in got]


_XS = np.concatenate((np.linspace(0.0, 0.99, 40), [0.5, 0.25, -0.0]))
_LO = np.linspace(0.0, 0.5, 30)
_ELL = -np.log(np.where(_LO > 0.0, _LO, 1e-300))
# t on both sides of 0, with repeats, 0 and -0
_TS = np.concatenate((np.linspace(-30.0, 30.0, 41), [1.5, 0.0, -0.0, 300.0]))
# varphi's Taylor, AGM and closed routes, with repeats
_VS = np.concatenate((np.geomspace(1e-9, 90.0, 40), [3.0, 3.0]))
_PR = ZeroBalancedPair(0.5, 0.5)

# every array form: f21_many on each route past 1/2, the other lockstep
# entry points, metric's forms and every pqfun form
_ENTRIES = {
    "f21_log": lambda: hyp2f1.f21_many(HypParams(0.5, 0.5, 1.0), _XS),
    "f21_connection": lambda: hyp2f1.f21_many(HypParams(0.3, 0.7, 1.1), _XS),
    "f21_power": lambda: hyp2f1.f21_many(HypParams(1.0, 2.0, 2.0), _XS),
    "f21_direct": lambda: hyp2f1.f21_many(HypParams(2.0, 3.0, 4.5), _XS),
    "lo_hi": lambda: hyp2f1._lo_hi_many(
        (HypParams(0.5, 0.5, 1.0), HypParams(0.5, 0.5, 2.0)), _LO, _ELL),
    "sums_from_one": lambda: hyp2f1.zb_complement_sums_many(
        0.5, 0.5, _XS * 0.75),
    "minus_one": lambda: hyp2f1.f21_minus_one_many(0.5, 0.7, 1.3, _XS * 0.75),
    "f21_derivative": lambda: hyp2f1.f21_derivative_many(
        HypParams(0.5, 0.5, 1.0), _XS),
    "h_many": lambda: metric.h_many(_TS),
    "big_h_many": lambda: metric.big_h_many(_TS),
    "big_h_prime_many": lambda: metric.big_h_prime_many(_TS),
    "varphi_many": lambda: metric.varphi_many(_VS),
    "p_func_many": lambda: pqfun.p_func_many(_PR, _TS),
    "p_prime_many": lambda: pqfun.p_prime_many(_PR, _TS),
    "slope_g_many": lambda: pqfun.slope_g_many(_PR, _TS[_TS != 0.0]),
    "p_excess_many": lambda: pqfun.p_excess_many(_PR, _TS),
    "q_func_many": lambda: pqfun.q_func_many(_PR, _TS),
    "q_log_many": lambda: pqfun.q_log_many(_PR, _TS),
    "q_excess_many": lambda: pqfun.q_excess_many(_PR, np.abs(_TS)),
    "n_func_many": lambda: pqfun.n_func_many(0.5, 0.5, 1.0, _XS[1:-1]),
    "m_func_many": lambda: pqfun.m_func_many(1.0, 2.0, 3.5, _XS[1:-1]),
}


@pytest.mark.parametrize("name", sorted(_ENTRIES))
def test_a_warm_call_returns_the_cold_bits_and_sums_nothing(name, lanes,
                                                            agm):
    cold = _ENTRIES[name]()
    runs = len(lanes) + len(agm)
    warm = _ENTRIES[name]()
    assert _fields(warm) == _fields(cold)
    assert runs and len(lanes) + len(agm) == runs
    # a caller gets copies: writing to them leaves the memo as it was
    for field in _arrays_of(warm):
        field[:] = 0
    assert _fields(_ENTRIES[name]()) == _fields(cold)
    assert len(lanes) + len(agm) == runs


def test_a_second_pass_of_both_suites_runs_no_array_code(lanes, agm):
    def both():
        return [r.to_dict() for suite in ("default", "strict")
                for r in verify.run_suite(suite)]

    cold = both()
    assert lanes and agm
    del lanes[:], agm[:]
    assert both() == cold
    assert lanes == [] and agm == []
    assert 0 < _held_cells() < _arrays.MEMO_CELLS


def test_an_overlapping_batch_sums_its_new_points_alone(lanes):
    p = HypParams(2.0, 3.0, 4.5)  # one direct run below 1/2
    old = np.linspace(0.01, 0.45, 10)
    new = np.array([0.05, 0.15, 0.35])
    hyp2f1.f21_many(p, old)
    del lanes[:]
    xs = np.concatenate((old[::2], new, new[:1], old[1::2]))
    got = hyp2f1.f21_many(p, xs)
    assert lanes == [3]
    assert _bits(got.value) == _bits(hyp2f1.f21(p, x).value for x in xs)
    assert got.terms_used.tolist() == [hyp2f1.f21(p, x).terms_used
                                       for x in xs]
    for many, scalar in (
            (lambda u: hyp2f1.zb_complement_sums_many(0.5, 0.5, u)[1],
             lambda u: hyp2f1.zb_complement_sums(0.5, 0.5, u)[1]),
            (lambda u: hyp2f1.f21_minus_one_many(0.5, 0.7, 1.3, u),
             lambda u: hyp2f1.f21_minus_one(0.5, 0.7, 1.3, u))):
        many(old)
        del lanes[:]
        assert _bits(many(xs)) == _bits(scalar(x) for x in xs)
        assert lanes == [3]


def test_an_overlapping_lo_hi_batch_sums_its_new_points_alone(monkeypatch):
    jobs = []
    direct_many = hyp2f1._direct_many
    monkeypatch.setattr(hyp2f1, "_direct_many",
                        lambda js: jobs.append(js) or direct_many(js))
    ps = (HypParams(0.5, 0.5, 1.0), HypParams(0.5, 0.5, 2.0))
    hyp2f1._lo_hi_many(ps, _LO[:20], _ELL[:20])
    del jobs[:]
    got = hyp2f1._lo_hi_many(ps, _LO[::-1], _ELL[::-1])
    # the log routes sum no direct series: the run holds F(p; lo) alone
    assert len(jobs) == 1
    assert [_bits(j[3]) for j in jobs[0]] == [_bits(_LO[:19:-1])] * 2
    assert [_bits(g) for g in got] == (
        [_bits(hyp2f1.f21(p, lo).value for lo in _LO[::-1]) for p in ps]
        + [_bits(hyp2f1.f21_from_complement(p, lo, ell).value
                 for lo, ell in zip(_LO[::-1], _ELL[::-1])) for p in ps])


_FAILING = HypParams(400.0, 300.0, 10.0)  # overflows at x = 0.5 and 0.9


@pytest.mark.parametrize("xs", [
    [0.1, 0.9, 0.2, 0.5],
    [0.2, 1.0, 0.1, 0.5],
    [0.1, math.nan, 0.2],
    [0.1, -0.5, 0.2, 0.3],
    [0.3, 0.2, 0.1],
])
def test_warm_batches_return_or_raise_as_the_scalar_loop(xs, lanes):
    want = _outcome(lambda: [hyp2f1.f21(_FAILING, x) for x in xs])
    hyp2f1.f21_many(_FAILING, [0.1, 0.2, 0.3])  # warm some points
    for _ in range(2):  # the second time with every point held
        got = _outcome(lambda: hyp2f1.f21_many(_FAILING, np.array(xs)))
        if isinstance(want, tuple):
            assert got == want
        else:
            assert _bits(got.value) == _bits(r.value for r in want)
    summed = len(lanes)
    _outcome(lambda: hyp2f1.f21_many(_FAILING, np.array(xs)))
    assert len(lanes) == summed
    # points out of range are no table's rows
    held = [t for k, t in _arrays._memo.items() if "f21_many" in k]
    assert held and all(np.isfinite(t[0].view(float)).all()
                        and (t[0].view(float) < 1.0).all() for t in held)


def test_plus_and_minus_zero_are_two_points(lanes):
    p = HypParams(2.0, 3.0, 4.5)
    hyp2f1.f21_many(p, [0.0])
    hyp2f1.f21_many(p, [-0.0])
    assert lanes == [1, 1]
    got = hyp2f1.f21_many(p, [-0.0, 0.0, -0.0])
    assert lanes == [1, 1]
    assert _bits(got.value) == _bits([hyp2f1.f21(p, 0.0).value] * 3)
    (table,) = _arrays._memo.values()
    assert sorted(_bits(table[0].view(float))) == sorted(_bits([0.0, -0.0]))


def test_equal_lo_with_another_ell_is_another_point(lanes):
    ps = (HypParams(0.5, 0.5, 1.0),)
    lo = np.array([0.1, 0.1, 0.2])
    ell = np.array([2.0, 3.0, 1.5])
    hyp2f1._lo_hi_many(ps, lo[:1], ell[:1])
    hyp2f1._lo_hi_many(ps, lo[1:], ell[1:])
    summed = len(lanes)
    # every point held, (0.1, 3.0) found past (0.1, 2.0) of the same lo
    got = hyp2f1._lo_hi_many(ps, lo[[1, 2, 0, 1]], ell[[1, 2, 0, 1]])
    assert len(lanes) == summed
    assert [_bits(g) for g in got] == [
        _bits(hyp2f1.f21(ps[0], lo[i]).value for i in (1, 2, 0, 1)),
        _bits(hyp2f1.f21_from_complement(ps[0], lo[i], ell[i]).value
              for i in (1, 2, 0, 1))]
    assert got[1][0] != got[1][2]  # the ell counts


def _held_cells():
    return sum(map(_arrays._cells, _arrays._memo.values()))


def test_the_memo_never_passes_its_cells(monkeypatch, lanes):
    monkeypatch.setattr(_arrays, "MEMO_CELLS", 120)
    rng = np.random.default_rng(27)
    ps = [HypParams(0.5, 0.5, 1.0), HypParams(2.0, 3.0, 4.5)]
    for size in (3, 5, 12, 2, 19, 8, 1, 7):
        for p in ps:
            xs = rng.uniform(0.0, 0.99, size)
            want = [hyp2f1.f21(p, x).value for x in xs]
            assert _bits(hyp2f1.f21_many(p, xs).value) == _bits(want)
            assert _bits(hyp2f1.f21_many(p, xs).value) == _bits(want)
            assert _held_cells() <= 120
        us = rng.uniform(0.0, 0.75, size)
        hyp2f1.f21_minus_one_many(0.5, 0.7, 1.3, us)
        assert _held_cells() <= 120
    # past the cap the memo starts over with the call's new points
    _arrays._memo.clear()
    us = np.linspace(0.01, 0.7, 50)  # 3 cells a point
    hyp2f1.f21_minus_one_many(0.5, 0.7, 1.3, us[:30])
    hyp2f1.f21_minus_one_many(0.5, 0.7, 1.3, us[20:])
    (table,) = _arrays._memo.values()
    assert _bits(table[0].view(float)) == _bits(us[30:])
    del lanes[:]
    hyp2f1.f21_minus_one_many(0.5, 0.7, 1.3, us[30:])
    hyp2f1.f21_minus_one_many(0.5, 0.7, 1.3, us[:1])
    assert lanes == [1]
    # a call of more cells than the cap alone is served but not stored
    _arrays._memo.clear()
    hyp2f1.f21_minus_one_many(0.5, 0.7, 1.3, [0.1])
    held = dict(_arrays._memo)
    xs = np.linspace(0.01, 0.7, 41)  # 41 points of 3 cells each
    for _ in range(2):
        del lanes[:]
        got = hyp2f1.f21_minus_one_many(0.5, 0.7, 1.3, xs)
        assert _bits(got) == _bits(hyp2f1.f21_minus_one(0.5, 0.7, 1.3, x)
                                   for x in xs)
        assert lanes == [41]
        assert list(_arrays._memo) == list(held)
        assert all(_arrays._memo[k] is t for k, t in held.items())
