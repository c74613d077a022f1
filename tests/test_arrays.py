"""Array forms against their scalar forms, as oracles.

Every ``*_many`` form must give each point the value, error estimate,
term count and method of its scalar call, to the bit (compared by bit
pattern, so the sign of zero counts), and a batch must raise what a
loop of scalar calls raises first.  Batches of every size run the
lockstep kernels, down to a single point.  No form keeps a call: a
repeat sums again and returns fresh arrays.
"""

import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from punctmetric import _arrays, _hyp2f1_arrays, hyp2f1, metric, pqfun
from punctmetric.errors import (ConvergenceError, DomainError,
                                PunctMetricError, RangeError)
from punctmetric.hyp2f1 import HypParams

HALF = pqfun.ZeroBalancedPair(0.5, 0.5)
ABOVE_HALF = math.nextafter(0.5, 1.0)


def _bits(values):
    return [struct.pack("<d", float(v)) for v in values]


def _outcome(call):
    """The call's result, or the type and message of its typed error."""
    try:
        return call()
    except PunctMetricError as exc:
        return type(exc), str(exc)


def _assert_same(many, scalar, size):
    """many() for a whole batch against scalar(i) for each i < size."""
    want = _outcome(lambda: [scalar(i) for i in range(size)])
    got = _outcome(many)
    if isinstance(want, tuple):
        assert got == want
    elif isinstance(got, hyp2f1.EvalResults):
        assert _bits(got.value) == _bits(r.value for r in want)
        assert _bits(got.abs_err_estimate) == _bits(
            r.abs_err_estimate for r in want)
        assert got.terms_used.tolist() == [r.terms_used for r in want]
        assert got.method.tolist() == [r.method for r in want]
    else:
        assert isinstance(got, np.ndarray) and got.shape == (size,)
        assert _bits(got) == _bits(want)


def _assert_pointwise(many, scalar, points):
    """many(array of points) against scalar(point) at each point."""
    _assert_same(lambda: many(np.array(points, dtype=float)),
                 lambda i: scalar(points[i]), len(points))


def _assert_f21_many(p, xs):
    _assert_pointwise(lambda arr: hyp2f1.f21_many(p, arr),
                      lambda x: hyp2f1.f21(p, x), xs)


_SPECIAL_X = [0.0, 0.5, ABOVE_HALF]
# dozens of points on either side of x = 1/2
_GRID_X = _SPECIAL_X + np.linspace(0.01, 0.95, 80).tolist()
_BATCH = {"min_size": 1, "max_size": 60}


# (parameters, the methods f21 reports past x = 1/2)
@pytest.mark.parametrize("p,methods", [
    (HypParams(0.5, 0.5, 1.0), {"zb_log_series"}),          # c = a+b
    (HypParams(0.5, 0.5, 2.0), {"zb_log_series"}),          # c = a+b+1
    (HypParams(0.5, 0.5, 3.0), {"zb_log_series"}),          # c = a+b+2
    (HypParams(1.0, 1.0, 5.0), {"zb_log_series"}),          # c = a+b+3
    # c = a+b+2, where the log series cancels and hands over near 1/2
    (HypParams(3.0, 5.0, 10.0), {"zb_log_series", "direct_series"}),
    # s = -1 and -2 with c > a, b: Euler's transformation
    (HypParams(1.5, 1.5, 2.0), {"zb_log_series"}),
    (HypParams(2.5, 2.5, 3.0), {"zb_log_series"}),
    (HypParams(0.3, 0.7, 1.1), {"connection_series"}),      # s = 0.1
    (HypParams(0.7, 1.3, 1.3), {"connection_series"}),      # Gamma pole
    # s within 1e-9 of 1: the connection formula cancels and hands over
    (HypParams(0.3, 0.7, 2.0 + 5e-10), {"direct_series"}),
    # s = 1.002: it hands over at some points only
    (HypParams(1.5, 0.6, 3.102), {"connection_series", "direct_series"}),
    # s = -3 and -1 with c <= a or c <= b: the direct series and its tail
    (HypParams(2.0, 2.0, 1.0), {"direct_series"}),
    (HypParams(1.0, 2.0, 2.0), {"direct_series"}),
])
def test_f21_many_matches_f21_on_every_route(p, methods):
    _assert_f21_many(p, _GRID_X)
    _assert_f21_many(p, _SPECIAL_X)
    for x in _SPECIAL_X:
        _assert_f21_many(p, [x])
    got = hyp2f1.f21_many(p, _GRID_X).method
    assert set(got[np.array(_GRID_X) <= 0.5]) == {"direct_series"}
    assert set(got[np.array(_GRID_X) > 0.5]) == methods


_param = st.floats(0.05, 5.0)


@st.composite
def _f21_cases(draw):
    a, b = draw(_param), draw(_param)
    route = draw(st.sampled_from(
        ["zb", "shifted", "connection", "near_integer", "integer", "euler",
         "any"]))
    if route == "zb":
        c = a + b
    elif route == "shifted":
        c = a + b + 1.0
    elif route == "connection":
        c = a + b + draw(st.floats(-2.5, 3.5).filter(
            lambda s: not float(s).is_integer()))
    elif route == "near_integer":
        c = (a + b + draw(st.sampled_from([-1.0, 1.0, 2.0]))
             + draw(st.sampled_from([-1e-9, -1e-12, 1e-12, 1e-9])))
    elif route == "integer":
        c = a + b + draw(st.sampled_from([-2.0, 2.0, 3.0]))
    elif route == "euler":  # c-a-b = -k, c-a and c-b near the old b and a
        k = draw(st.sampled_from([1.0, 2.0]))
        a, b = a + k, b + k
        c = a + b - k
    else:
        c = draw(st.floats(0.05, 8.0))
    if c <= 0.0:
        c = a + b
    # near-integer s and the integer s that Euler's transformation does
    # not serve sum the direct series past x = 1/2, ~35/(1-x) terms: keep
    # those x off 1 so the scalar oracle is quick
    x_hi = 0.95 if route in ("near_integer", "integer", "any") else 1.0
    # a batch on one side of x = 1/2, so that side runs in lockstep
    side = (st.floats(0.5, x_hi, exclude_min=True, exclude_max=True)
            if draw(st.booleans()) else st.floats(0.0, 0.5))
    x = st.one_of(st.sampled_from(_SPECIAL_X),
                  st.floats(0.0, x_hi, exclude_max=True))
    return HypParams(a, b, c), (draw(st.lists(side, **_BATCH))
                                + draw(st.lists(x, max_size=10)))


@settings(max_examples=60, deadline=None)
@given(_f21_cases())
def test_f21_many_matches_f21(case):
    _assert_f21_many(*case)


def test_f21_many_raises_the_first_typed_error():
    big = HypParams(150.5, 120.25, 100.0)  # overflows near x = 1
    _assert_f21_many(big, [0.1] * 30 + [0.999] + [0.2] * 5)
    _assert_f21_many(HALF.params(), [0.1] * 30 + [1.0, math.nan])
    _assert_f21_many(HALF.params(), [0.1, math.nan])
    # zero-balanced log series whose terms overflow, or whose B(a, b)
    # underflows: every point past 1/2 raises the scalar RangeError
    for a in (400.0, 1e4):
        for c in (2.0 * a, 2.0 * a + 1.0):
            _assert_f21_many(HypParams(a, a, c), [0.9, 0.95])
            _assert_f21_many(HypParams(a, a, c), [0.05, 0.9])


# F(400, 300; 10; x) overflows at x = 0.5 and 0.9
@pytest.mark.parametrize("xs", [
    [0.1, 0.9, 0.2, 0.5],
    [0.2, 1.0, 0.1, 0.5],
    [0.1, math.nan, 0.2],
    [0.1, -0.5, 0.2, 0.3],
    [0.3, 0.2, 0.1],
])
def test_batches_return_or_raise_as_the_scalar_loop(xs):
    _assert_f21_many(HypParams(400.0, 300.0, 10.0), xs)


def test_a_point_is_the_bits_of_all_its_keys(lanes):
    # every point of a call is summed in one run, repeats, 0.0 and -0.0
    # among them, and gets its scalar bits
    p = HypParams(2.0, 3.0, 4.5)
    got = hyp2f1.f21_many(p, [-0.0, 0.0, -0.0])
    assert lanes == [3]
    assert _bits(got.value) == _bits([hyp2f1.f21(p, 0.0).value] * 3)
    # pqfun's raw lanes sum each distinct (lo, ell) once, and equal lo
    # with another ell is another point: (0.1, 3.0) and (0.1, 2.0) each
    # get their own complement value, the repeat of (0.1, 3.0) a copy
    del lanes[:]
    ps = (HypParams(0.5, 0.5, 1.0),)
    lo = np.array([0.1, 0.2, 0.1, 0.1])
    ell = np.array([3.0, 1.5, 2.0, 3.0])
    got = hyp2f1._lo_hi_many(ps, lo, ell)
    assert lanes and set(lanes) == {3}
    assert [_bits(g) for g in got] == [
        _bits(hyp2f1.f21(ps[0], x).value for x in lo),
        _bits(hyp2f1.f21_from_complement(ps[0], x, e).value
              for x, e in zip(lo, ell))]
    assert got[1][0] != got[1][2]  # the ell counts


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


def _result_fields(got):
    """An array form's result as a list of its arrays."""
    if isinstance(got, hyp2f1.EvalResults):
        return [got.value, got.abs_err_estimate, got.terms_used, got.method]
    return [got] if isinstance(got, np.ndarray) else list(got)


def _as_bits(got):
    """An array form's result as comparable lists: bits, or values where
    they are not floats."""
    return [_bits(f) if f.dtype.kind == "f" else f.tolist()
            for f in _result_fields(got)]


_XS = np.concatenate((np.linspace(0.0, 0.99, 40), [0.5, 0.25, -0.0]))
_LO = np.linspace(0.0, 0.5, 30)
_ELL = -np.log(np.where(_LO > 0.0, _LO, 1e-300))
# t on both sides of 0, with repeats, 0 and -0
_TS = np.concatenate((np.linspace(-30.0, 30.0, 41), [1.5, 0.0, -0.0, 300.0]))
# varphi's Taylor, AGM and closed routes, with repeats
_VS = np.concatenate((np.geomspace(1e-9, 90.0, 40), [3.0, 3.0]))

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
    "p_func_many": lambda: pqfun.p_func_many(HALF, _TS),
    "p_prime_many": lambda: pqfun.p_prime_many(HALF, _TS),
    "slope_g_many": lambda: pqfun.slope_g_many(HALF, _TS[_TS != 0.0]),
    "p_excess_many": lambda: pqfun.p_excess_many(HALF, _TS),
    "q_func_many": lambda: pqfun.q_func_many(HALF, _TS),
    "q_log_many": lambda: pqfun.q_log_many(HALF, _TS),
    "q_excess_many": lambda: pqfun.q_excess_many(HALF, np.abs(_TS)),
    "n_func_many": lambda: pqfun.n_func_many(0.5, 0.5, 1.0, _XS[1:-1]),
    "m_func_many": lambda: pqfun.m_func_many(1.0, 2.0, 3.5, _XS[1:-1]),
}


@pytest.mark.parametrize("name", sorted(_ENTRIES))
def test_a_repeated_call_sums_again_into_fresh_arrays(name, lanes, agm):
    # no array form keeps a call: a repeat runs the same lockstep and
    # AGM work and returns the first call's bits, and what a caller
    # writes into its arrays reaches no later call
    first = _ENTRIES[name]()
    runs = (list(lanes), list(agm))
    assert runs != ([], [])
    del lanes[:], agm[:]
    again = _ENTRIES[name]()
    assert (lanes, agm) == runs
    assert _as_bits(again) == _as_bits(first)
    for field in _result_fields(again):
        field[:] = 0
    assert _as_bits(_ENTRIES[name]()) == _as_bits(first)


_u = st.one_of(st.sampled_from([0.0, 5e-324, 1e-300, 0.5, 0.75]),
               st.floats(0.0, 0.75))


@settings(max_examples=40, deadline=None)
@given(_param, _param, st.one_of(st.lists(_u, **_BATCH),
                                 st.lists(_u, min_size=1, max_size=3)))
def test_complement_kernels_match(a, b, us):
    ells = [-math.log(u) if u > 0.0 else 745.0 for u in us]
    # c-a-b = m, and for m < 0 only where Euler's transformation serves
    for m in (0.0, 1.0, 2.0, 3.0, -1.0, -2.0):
        c = a + b + m
        if c <= max(a, b):
            continue
        p = HypParams(a, b, c)
        _assert_raw_lanes([p], [(u, e) for u, e in zip(us, ells)
                                if u <= 0.5])
    _assert_raw_defect_sums(a, b, us)
    for part in (0, 1):
        _assert_pointwise(
            lambda arr: hyp2f1.zb_complement_sums_many(a, b, arr)[part],
            lambda u: hyp2f1.zb_complement_sums(a, b, u)[part], us)
    _assert_pointwise(
        lambda arr: hyp2f1.f21_minus_one_many(a, b, a + b, arr),
        lambda u: hyp2f1.f21_minus_one(a, b, a + b, u), us)


_H_SPECIAL = [0.0, -0.0, 1e-300, -1e-300, 700.0, -700.0]


@settings(max_examples=40, deadline=None)
@given(st.lists(st.one_of(st.sampled_from(_H_SPECIAL),
                          st.floats(-700.0, 700.0)), **_BATCH))
def test_h_many_matches_h(ts):
    _assert_pointwise(metric.h_many, metric.h, ts)
    _assert_pointwise(metric.big_h_many, metric.big_h, ts)


def test_h_many_specials_and_errors():
    _assert_pointwise(metric.h_many, metric.h, _H_SPECIAL * 5)
    _assert_pointwise(metric.h_many, metric.h, [0.0] * 30 + [701.0])
    _assert_pointwise(metric.h_many, metric.h, [0.0, math.inf, 701.0])


_T_SPECIAL = [0.0, -0.0, 1e-300, -1e-300]
_t = st.one_of(st.sampled_from(_T_SPECIAL), st.floats(-40.0, 40.0))
_PAIRS = [HALF, pqfun.ZeroBalancedPair(1.0, 2.0),
          pqfun.ZeroBalancedPair(0.3, 1.7)]


def _pq_forms(pr):
    return [
        (lambda ts: pqfun.p_func_many(pr, ts), lambda t: pqfun.p_func(pr, t)),
        (lambda ts: pqfun.p_prime_many(pr, ts),
         lambda t: pqfun.p_prime(pr, t)),
        (lambda ts: pqfun.p_excess_many(pr, ts),
         lambda t: pqfun.p_excess(pr, t)),
        (lambda ts: pqfun.slope_g_many(pr, ts),
         lambda t: pqfun.slope_g(pr, t)),
        (lambda ts: pqfun.q_func_many(pr, ts), lambda t: pqfun.q_func(pr, t)),
        (lambda ts: pqfun.q_log_many(pr, ts), lambda t: pqfun.q_log(pr, t)),
        (lambda ts: pqfun.q_excess_many(pr, ts),
         lambda t: pqfun.q_excess(pr, t)),
    ]


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(_PAIRS), st.lists(_t, **_BATCH))
def test_pq_many_match(pr, ts):
    for many, scalar in _pq_forms(pr):
        _assert_pointwise(many, scalar, ts)


# a +-t grid: its t and -t are one lane of pqfun's sums, at s = |t|
_HALF_T = [0.0, 1e-300, 1e-8, 0.5, 1.0, 2.5, 20.0, 300.0, 700.0]


@pytest.mark.parametrize("pr", _PAIRS)
def test_a_plus_minus_t_grid_sums_each_abs_t_once(pr, lanes):
    # every form gets its scalar calls' bits at t and -t, +-0.0, +-1e-300
    # and +-700 among them, and where a form serves both signs, the grid
    # sums the lanes of its t >= 0 half alone
    grid = _HALF_T + [-t for t in _HALF_T]
    half = np.array(_HALF_T[1:])
    for many, scalar in _pq_forms(pr):
        _assert_loop_parity(many, scalar, [(t,) for t in grid])
        del lanes[:]
        try:
            many(np.concatenate((half, -half)))
        except DomainError:  # q_excess at t < 0
            continue
        both = list(lanes)
        del lanes[:]
        many(half)
        assert both == lanes and both


# ab >= a+b for (3, 3): the P-functions raise at every point, G after
# its t = 0 check
@pytest.mark.parametrize("pr", _PAIRS + [pqfun.ZeroBalancedPair(3.0, 3.0)])
def test_pq_many_at_zero_and_errors(pr):
    grid = _T_SPECIAL * 8 + [0.5, -2.0]
    for many, scalar in _pq_forms(pr):
        # slope_g raises at t = 0 and q_excess at t < 0: same error both ways
        _assert_pointwise(many, scalar, grid)
        _assert_pointwise(many, scalar, [1.0] * 30 + [math.nan])
        _assert_pointwise(many, scalar, np.abs(grid).tolist())
        # several failing points: the first one's error, whatever its kind
        _assert_pointwise(many, scalar, [0.5, math.nan, 0.0, -1.0])
        _assert_pointwise(many, scalar, [0.5, -1.0, 0.0, math.nan])
    _assert_pointwise(metric.big_h_prime_many, metric.big_h_prime, grid)
    _assert_pointwise(metric.varphi_many, metric.varphi, [1e-300] + grid)
    _assert_pointwise(metric.varphi_many, metric.varphi,
                      [0.25] * 30 + [3.0, 7.5])
    # both sides of the closed-form switch at t = 2 VARPHI_CLOSED_S, the
    # t ~ 1489 where e^{-t/2} is subnormal, and t far past it
    switch = 2.0 * metric.VARPHI_CLOSED_S
    _assert_pointwise(metric.varphi_many, metric.varphi,
                      [math.nextafter(switch, 0.0), switch, 149.0, 151.0,
                       1488.7, 1489.0, 1489.3, 2833.0, 1e5, 1e300, 0.25])
    _assert_pointwise(metric.varphi_many, metric.varphi, [1e300, 2.0])


def test_zero_dimensional_arrays_are_floats():
    for pr in _PAIRS:
        for _, scalar in _pq_forms(pr):
            got = scalar(np.array(1.0))
            assert type(got) is float
            assert _bits([got]) == _bits([scalar(1.0)])
    for fn in (pqfun.n_func, pqfun.m_func):
        got = fn(0.5, 0.5, 1.0, np.array(0.3))
        assert type(got) is float
        assert _bits([got]) == _bits([fn(0.5, 0.5, 1.0, 0.3)])


def test_empty_arrays_give_empty_arrays():
    empty = np.array([])
    forms = [lambda: hyp2f1.zb_complement_sums_many(0.5, 0.5, empty),
             lambda: hyp2f1.f21_minus_one_many(0.5, 0.7, 1.3, empty),
             lambda: metric.h_many(empty), lambda: metric.varphi_many(empty)]
    # one p per route past 1/2: log, connection, power and direct
    for p in (HALF.params(), HypParams(0.9, 1.1, 2.6),
              HypParams(1.0, 2.0, 2.0), HypParams(2.0, 2.0, 1.0)):
        forms += [lambda p=p: hyp2f1.f21_many(p, empty),
                  lambda p=p: tuple(hyp2f1._lo_hi_many([p], empty, empty)),
                  lambda p=p: hyp2f1.f21_derivative_many(p, empty)]
    for fn in (pqfun.n_func_many, pqfun.m_func_many):
        forms.append(lambda fn=fn: fn(0.9, 1.1, 2.6, empty))
    forms += [lambda many=many: many(empty)
              for pr in _PAIRS for many, _ in _pq_forms(pr)]
    for form in forms:
        got = form()
        fields = got if isinstance(got, tuple) else [got]  # EvalResults too
        for field in fields:
            assert isinstance(field, np.ndarray) and field.shape == (0,)


_x = st.one_of(st.sampled_from([1e-300, 0.5, ABOVE_HALF, 1.0 - 1e-16]),
               st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([(0.5, 0.5, 1.0), (1.0, 1.0, 1.5), (0.25, 0.25, 1.0),
                        (0.3, 0.7, 1.0), (0.9, 1.1, 2.6)]),
       st.lists(_x, **_BATCH))
def test_n_and_m_many_match(abc, xs):
    _assert_pointwise(lambda arr: pqfun.n_func_many(*abc, arr),
                      lambda x: pqfun.n_func(*abc, x), xs)
    _assert_pointwise(lambda arr: pqfun.m_func_many(*abc, arr),
                      lambda x: pqfun.m_func(*abc, x), xs)


# every public array form, at points given by the test
_PUBLIC_FORMS = {
    "f21_many": lambda xs: hyp2f1.f21_many(HALF.params(), xs),
    "f21_derivative_many": lambda xs: hyp2f1.f21_derivative_many(
        HALF.params(), xs),
    "zb_complement_sums_many": lambda xs: hyp2f1.zb_complement_sums_many(
        0.5, 0.5, xs),
    "f21_minus_one_many": lambda xs: hyp2f1.f21_minus_one_many(
        0.5, 0.5, 1.0, xs),
    **{name: getattr(metric, name) for name in (
        "h_many", "big_h_many", "big_h_prime_many", "varphi_many")},
    **{name: lambda xs, many=getattr(pqfun, name): many(HALF, xs)
       for name in ("p_func_many", "p_prime_many", "slope_g_many",
                    "p_excess_many", "q_func_many", "q_log_many",
                    "q_excess_many")},
    "n_func_many": lambda xs: pqfun.n_func_many(0.5, 0.5, 1.0, xs),
    "m_func_many": lambda xs: pqfun.m_func_many(0.5, 0.5, 1.0, xs),
}


@pytest.mark.parametrize("xs, shown", [
    ("abc", r"points\[0\] .* got 'abc'"),
    ([1 + 2j], r"points\[0\] .* got \(1\+2j\)"),
    ([0.25, object()], r"points\[1\] .* got <object"),
    ([0.25, 0.5, 10**400], r"points\[2\] .* got 1000"),
], ids=["str", "complex", "object", "big_int"])
@pytest.mark.parametrize("name", sorted(_PUBLIC_FORMS))
def test_a_point_that_is_no_real_number_is_a_domain_error(name, xs, shown):
    # as the scalar forms refuse it, naming the first such entry
    with pytest.raises(DomainError, match=shown):
        _PUBLIC_FORMS[name](xs)


def test_many_forms_reject_non_1d_input():
    with pytest.raises(PunctMetricError):
        hyp2f1.f21_many(HALF.params(), np.zeros((2, 2)))
    with pytest.raises(PunctMetricError):
        metric.h_many(0.5)


# Differential grid: every hyp2f1 array form against a loop of its
# scalar calls, on parameters at every route and at the float range's
# edges.  Where the loop returns, the batch must give each point the
# loop's bits; where it raises, the batch must raise the same typed
# error with the same message.  Any warning fails the test.

_EDGE_AB = [5e-324, 1e-320, 1e-310, 0.5, 2.0, 50.0, 600.0, 1e8, 1e306]


def _edge_params():
    """Triples with c = a+b+m, m in -2..2, c = a, c = b, and c drawn at
    random, for every pair a <= b of _EDGE_AB."""
    rng = np.random.default_rng(24)
    out = []
    for i, a in enumerate(_EDGE_AB):
        for b in _EDGE_AB[i:]:
            cs = [a + b + m for m in (-2.0, -1.0, 0.0, 1.0, 2.0)]
            cs += [a, b, float(np.exp(rng.uniform(-5.0, 7.0)))]
            out += [HypParams(a, b, c) for c in cs if c > 0.0]
    # the direct series' step ratio has a product past the float range
    # by its term cap: (c+n)(n+1), (a+n)(b+n), or both
    out += [HypParams(1e154, 1e154, 9e307), HypParams(1e200, 1e200, 1e300),
            HypParams(1e200, 3.0, 1.7e308), HypParams(0.5, 2.0, 1e305)]
    return out


def _edge_points(rng, hi, specials):
    """A batch of 1-6 points in [0, hi), a special point or two, and a
    repeat."""
    points = (rng.uniform(0.0, hi, rng.integers(1, 7)).tolist()
              + rng.choice(specials, rng.integers(1, 3)).tolist())
    rng.shuffle(points)
    return np.array(points + points[:1])


def _key(value):
    return struct.pack("<d", value) if isinstance(value, float) else value


def _fields(result):
    """An array form's result, or a scalar call's, as a sequence of its
    fields."""
    return result if isinstance(result, (tuple, list)) else (result,)


def _assert_loop_parity(many, scalar, points):
    """many(*columns) against [scalar(*point) for point in points]: the
    same fields to the bit, or the same typed error."""
    want = _outcome(lambda: [scalar(*pt) for pt in points])
    got = _outcome(lambda: many(*(np.array(c) for c in zip(*points))))
    if isinstance(want, tuple):
        assert got == want
        return
    assert [tuple(map(_key, pt)) for pt in zip(*_fields(got))] == [
        tuple(map(_key, _fields(w))) for w in want]


def _assert_raw_lanes(ps, points):
    """_lo_hi_many(ps, lo, ell), whose lanes pqfun takes raw, at (lo,
    ell) points with 0 <= lo <= 1/2 and ell finite: every lane that is
    not finite is NaN, and every finite one has the bits of its scalar
    call, F(p; lo) for each p and then F(p; 1-lo) for each."""
    got = hyp2f1._lo_hi_many(ps, np.array([lo for lo, _ in points]),
                             np.array([ell for _, ell in points]))
    for i, (lo, ell) in enumerate(points):
        calls = ([lambda q=q: hyp2f1.f21(q, lo).value for q in ps]
                 + [lambda q=q: hyp2f1.f21_from_complement(q, lo, ell).value
                    for q in ps])
        for lane, call in zip(got, calls):
            if math.isfinite(lane[i]):
                assert _bits([lane[i]]) == _bits([call()])
            else:
                assert math.isnan(lane[i])


def _assert_raw_defect_sums(a, b, us):
    """_defect_sums_many(a, b, us), whose lanes pqfun takes raw: every
    lane that is not finite is NaN; where C-1 and D1 are finite, they
    are zb_complement_sums' bits, and where v-1 is, f21_minus_one's."""
    cm1, d1, vm1 = _hyp2f1_arrays._defect_sums_many(a, b, np.array(us))
    for lanes in (cm1, d1, vm1):
        assert not np.isinf(lanes).any()
    for i, u in enumerate(us):
        if math.isfinite(cm1[i]) and math.isfinite(d1[i]):
            assert _bits([cm1[i], d1[i]]) == _bits(
                hyp2f1.zb_complement_sums(a, b, u))
        if math.isfinite(vm1[i]):
            assert _bits([vm1[i]]) == _bits(
                [hyp2f1.f21_minus_one(a, b, a + b, u)])


_EDGE_X = [0.0, 0.5, ABOVE_HALF, 0.9, 0.99, 1e-300, 1.0, -0.25, math.nan]
_EDGE_U = [0.0, 5e-324, 1e-300, 0.3, 0.5, 0.75, 0.9, -0.25, math.inf]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("p", _edge_params(), ids=repr)
def test_array_forms_match_a_scalar_loop(p):
    rng = np.random.default_rng([24, *struct.unpack("<3Q", struct.pack(
        "<3d", p.a, p.b, p.c))])
    xs = _edge_points(rng, 1.0, _EDGE_X)
    _assert_loop_parity(lambda x: hyp2f1.f21_many(p, x),
                        lambda x: hyp2f1.f21(p, x), [(x,) for x in xs])
    _assert_loop_parity(lambda x: hyp2f1.f21_derivative_many(p, x),
                        lambda x: hyp2f1.f21_derivative(p, x),
                        [(x,) for x in xs])
    us = _edge_points(rng, 0.5, _EDGE_U)
    with np.errstate(all="ignore"):
        ells = np.where(us == math.inf, math.inf, -np.log(np.abs(us)))
    pairs = [(u, e) for u, e in zip(us.tolist(), ells.tolist())
             if 0.0 <= u <= 0.5 and e < math.inf]
    _assert_raw_lanes([p, HypParams(p.a, p.b, p.c + 1.0)], pairs)
    if p.c == p.a + p.b:
        _assert_raw_defect_sums(p.a, p.b, [u for u, _ in pairs])
    # pqfun, which takes those lanes raw, at the same points
    for many, scalar in ((pqfun.n_func_many, pqfun.n_func),
                         (pqfun.m_func_many, pqfun.m_func)):
        _assert_loop_parity(lambda x: many(p.a, p.b, p.c, x),
                            lambda x: scalar(p.a, p.b, p.c, x),
                            [(u,) for u in us])
    _assert_loop_parity(
        lambda u: hyp2f1.zb_complement_sums_many(p.a, p.b, u),
        lambda u: hyp2f1.zb_complement_sums(p.a, p.b, u), [(u,) for u in us])
    _assert_loop_parity(
        lambda x: hyp2f1.f21_minus_one_many(p.a, p.b, p.c, x),
        lambda x: hyp2f1.f21_minus_one(p.a, p.b, p.c, x), [(u,) for u in us])


@pytest.mark.filterwarnings("error")
def test_unserved_points_take_their_scalar_calls():
    # B(a, b) overflows at a subnormal a: the log run serves no lane, and
    # the scalar call hands over to the direct series
    p = HypParams(1e-320, 50.0, 50.0)
    _assert_loop_parity(lambda x: hyp2f1.f21_many(p, x),
                        lambda x: hyp2f1.f21(p, x), [(0.9,), (0.3,)])
    assert hyp2f1.f21_many(p, [0.9]).value.tolist() == [1.0]
    pr = pqfun.ZeroBalancedPair(1e-320, 50.0)
    for many, scalar in ((pqfun.p_func_many, pqfun.p_func),
                         (pqfun.q_log_many, pqfun.q_log)):
        assert _bits(many(pr, [1.0, -1.0])) == _bits(
            [scalar(pr, 1.0), scalar(pr, -1.0)])
    # 0 * inf in the log run's first term, outside any series
    p = HypParams(1e-310, 2.0, 3.0)
    _assert_loop_parity(lambda x: hyp2f1.f21_many(p, x),
                        lambda x: hyp2f1.f21(p, x), [(0.6,)])
    # the connection prefactors overflow: the direct series serves
    p = HypParams(600.0, 600.0, 1200.5)
    assert hyp2f1._connection(600.0, 600.0, 1200.5, 0.4,
                              math.log(0.4)) is None
    _assert_loop_parity(lambda x: hyp2f1.f21_many(p, x),
                        lambda x: hyp2f1.f21(p, x), [(0.6,), (0.7,)])
    assert hyp2f1.f21_many(p, [0.6, 0.7]).method.tolist() == [
        "direct_series"] * 2


def test_mixed_batches_raise_their_first_points_error():
    with pytest.raises(ConvergenceError, match="u=0.3 did not converge"):
        hyp2f1.zb_complement_sums_many(1e-320, 1e-320, [0.3, 0.9])
    with pytest.raises(DomainError, match="got 0.9"):
        hyp2f1.zb_complement_sums_many(1e-320, 1e-320, [0.9, 0.3])
    with pytest.raises(RangeError, match="u=0.25 overflow"):
        hyp2f1.zb_complement_sums_many(1e8, 1.0, [0.25, 0.9])
    with pytest.raises(RangeError, match="u=0.5 overflow"):
        hyp2f1.zb_complement_sums(1e8, 1.0, 0.5)


# Differential grid: every pqfun and metric array form against a loop of
# its scalar calls, on pairs from the smallest subnormal to 1e300 and at
# the edges of t and x.  Where the loop raises, the batch must raise the
# same typed error with the same message.  x stays off 1 - 1e-16: at b =
# 1e300 the direct series there sums 1e6 terms (0.7 s) to a
# ConvergenceError, in both forms.

_EDGE_PAIR = [5e-324, 1e-300, 1e-8, 0.5, 2.0, 50.0, 1e8, 1e300]
_EDGE_T = [0.0, -0.0, 1e-300, -1e-300, 700.0, -745.0, 1e5, math.inf,
           -math.inf, math.nan]
_EDGE_UNIT = [5e-324, 1e-300, 1e-17, 0.5, ABOVE_HALF, 0.0, 1.0, -0.5,
              math.nan]


def _edge_batches(rng, edges, inner=(), inside=math.isfinite):
    """Two batches of points, each shuffled, with a repeat: the edges
    ``inside`` the domain and the points ``inner``, then every edge."""
    batches = []
    for points in ([e for e in edges if inside(e)] + list(inner),
                   list(edges)):
        rng.shuffle(points)
        batches.append([(t,) for t in points + points[:1]])
    return batches


def _rng_of(*values):
    return np.random.default_rng([25, *struct.unpack(
        f"<{len(values)}Q", struct.pack(f"<{len(values)}d", *values))])


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("a, b", [(a, b) for i, a in enumerate(_EDGE_PAIR)
                                  for b in _EDGE_PAIR[i:]])
def test_pq_array_forms_match_a_scalar_loop(a, b):
    rng = _rng_of(a, b)
    pr = pqfun.ZeroBalancedPair(a, b)
    for points in _edge_batches(rng, _EDGE_T):
        for many, scalar in _pq_forms(pr):
            _assert_loop_parity(many, scalar, points)
    for c in (a + b, a + b + 1.0, max(a, b), 1.5 * max(a, b), a + b + 0.5):
        for points in _edge_batches(rng, _EDGE_UNIT, [rng.uniform()],
                                    lambda x: 0.0 < x < 1.0):
            for many, scalar in ((pqfun.n_func_many, pqfun.n_func),
                                 (pqfun.m_func_many, pqfun.m_func)):
                _assert_loop_parity(lambda x: many(a, b, c, x),
                                    lambda x: scalar(a, b, c, x), points)


@pytest.mark.filterwarnings("error")
def test_metric_array_forms_match_a_scalar_loop():
    rng = _rng_of(25.0)
    inner = rng.uniform(-800.0, 800.0, 6).tolist()
    for points in _edge_batches(rng, _EDGE_T + [1400.0, 1500.0], inner):
        for many, scalar in ((metric.h_many, metric.h),
                             (metric.big_h_many, metric.big_h),
                             (metric.big_h_prime_many, metric.big_h_prime),
                             (metric.varphi_many, metric.varphi)):
            _assert_loop_parity(many, scalar, points)
