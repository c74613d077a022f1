"""The named-property registry: both tolerance profiles pass, reports are
deterministic and serializable, and hypothesis violations are refused
rather than silently reinterpreted.
"""

import json
import math
import random
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from punctmetric import metric, pqfun, verify
from punctmetric.errors import DomainError, HypothesisError, UnknownCheckError

EXPECTED_CHECKS = {
    "lem_vaman_1", "lem_vaman_2", "lem_vaman_3",
    "lem_concave_coeffs", "cor_concave_shape", "lem_hlvv_sign",
    "thm_genconv_logconvex", "thm_genconv_limits",
    "thm_main_parity", "thm_main_convex", "thm_main_pprime_bounds",
    "thm_main_slopes",
    "thm_main2_qq", "thm_main2_subadd", "thm_main2_qbounds",
    "thm_c212_1", "thm_c212_2", "thm_c212_3", "thm_c212_4", "thm_c212_5",
    "kustner_total_monotone", "cor_phi_decreasing",
}


def test_registry_names():
    assert set(verify.check_names()) == EXPECTED_CHECKS
    assert len(verify.check_names()) >= 21


def test_default_suite_all_pass():
    reports = verify.run_suite()
    assert [r.name for r in reports] == sorted(EXPECTED_CHECKS)
    failures = [(r.name, r.worst_margin, r.notes)
                for r in reports if not r.passed]
    assert failures == []


def test_strict_suite_all_pass():
    failures = [(r.name, r.worst_margin, r.notes)
                for r in verify.run_suite(tol_profile="strict")
                if not r.passed]
    assert failures == []


def test_suite_deterministic():
    a = [r.to_dict() for r in verify.run_suite()]
    b = [r.to_dict() for r in verify.run_suite()]
    assert a == b
    # and serializable as-is
    assert json.loads(json.dumps(a)) == a


def test_report_shape():
    r = verify.run_check("thm_main_parity")
    d = r.to_dict()
    assert d["name"] == "thm_main_parity"
    assert d["passed"] is True
    assert set(d) == {"name", "passed", "grid", "worst_point",
                      "worst_margin", "tolerance", "notes"}
    assert d["grid"]["count"] == 81


def test_unknown_check():
    with pytest.raises(UnknownCheckError):
        verify.run_check("nonsense")
    # it is also a KeyError, so dict-style callers can catch it naturally
    with pytest.raises(KeyError):
        verify.run_check("nonsense")


def test_strict_profile_is_denser_and_tighter():
    base = verify.run_check("thm_main2_qq")
    strict = verify.run_check("thm_main2_qq", tol_profile="strict")
    assert strict.grid.count == 4 * base.grid.count
    assert strict.tolerance == base.tolerance / 10.0
    # explicit overrides win over the profile
    g = verify.GridSpec(-5.0, 5.0, 11)
    r = verify.run_check("thm_main2_qq", grid=g, tol=1e-6,
                         tol_profile="strict")
    assert r.grid == g
    assert r.tolerance == 1e-6


def test_bad_profile():
    with pytest.raises(DomainError):
        verify.run_suite(tol_profile="loose")
    with pytest.raises(DomainError):
        verify.run_check("thm_main_parity", tol_profile="loose")


@pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf, -1e-12,
                                 "0.5", True, False, [1e-6], 1j])
def test_bad_tolerance(tol):
    with pytest.raises(DomainError):
        verify.run_check("thm_main2_qq", tol=tol)


def test_tolerance_takes_any_real_number():
    r = verify.run_check("thm_main2_qq", tol=1e-6)
    assert verify.run_check("thm_main2_qq", tol=np.float64(1e-6)) == r
    assert verify.run_check("thm_main2_qq", tol=1).tolerance == 1.0


def test_param_override_and_hypothesis_guards():
    # vaman case needs one of the three lemma parameter patterns
    with pytest.raises(HypothesisError):
        verify.run_check("lem_vaman_1", params={"a": 0.9, "b": 0.9, "c": 2.0})
    # coefficient concavity needs max(a,b) < c
    with pytest.raises(HypothesisError):
        verify.run_check("lem_concave_coeffs",
                         params={"a": 1.0, "b": 1.0, "c": 1.0})
    # the q-bound family needs a + b >= 1
    with pytest.raises(HypothesisError):
        verify.run_check("thm_main2_qbounds", params={"a": 0.25, "b": 0.25})
    # total monotonicity needs -1 <= a <= c and 0 < b <= c
    with pytest.raises(HypothesisError):
        verify.run_check("kustner_total_monotone",
                         params={"a": 2.0, "b": 0.5, "c": 1.0})
    # and a different admissible pair still passes
    r = verify.run_check("thm_main2_qq", params={"a": 0.75, "b": 1.25})
    assert r.passed


def test_ratio_table_reference():
    # F(3/2,3/2;2;x) / F(1/2,1/2;1;x), the Kuestner check's default ratio
    got = verify._ratio_table(0.5, 0.5, 1.0, 6)
    want = [1.0, 0.875, 0.8125, 0.7724609375, 0.74365234375,
            0.721466064453125, 0.7035980224609375]
    assert len(got) == 1
    assert got[0] == pytest.approx(want, rel=1e-13)


def test_ratio_table_convention():
    # F(0,b+1;c+1;x) / F(-1,b;c;x) = 1/(1 - bx/c): r_n = (b/c)^n exactly
    table = verify._ratio_table(-1.0, 0.5, 1.0, 2, 2)
    assert [row.tolist() for row in table] == [
        [1.0, 0.5, 0.25], [0.5, 0.25, 0.125], [0.25, 0.125, 0.0625]]
    # row k + 1 holds Delta^k r_n - Delta^k r_(n+1), n = 0..n_max
    table = verify._ratio_table(0.5, 0.5, 1.0, 4, 3)
    longer = verify._ratio_table(0.5, 0.5, 1.0, 5, 2)
    for k in range(3):
        assert table[k].size == 5
        assert (table[k + 1] == longer[k][:-1] - longer[k][1:]).all()


@pytest.mark.parametrize("a", [-1, -0.5, 0])
def test_kustner_runs_down_to_a_minus_one(a):
    r = verify.run_check("kustner_total_monotone", params={"a": a})
    assert r.passed
    assert r.worst_margin >= 0.0


def test_kustner_refuses_non_finite_parameters():
    # c = inf meets -1 <= a <= c and 0 < b <= c
    for params in ({"c": math.inf}, {"a": math.nan}, {"b": -math.inf}):
        with pytest.raises(DomainError):
            verify.run_check("kustner_total_monotone", params=params)


def test_coefficient_tables_stop_at_r_200():
    # depth 201 and n_max + k_max = 195 + 6 = 201 are refused, 200 runs
    with pytest.raises(DomainError):
        verify.run_check("lem_concave_coeffs", grid=verify.GridSpec(0, 30, 202))
    with pytest.raises(DomainError):
        verify.run_check("kustner_total_monotone",
                         grid=verify.GridSpec(0, 195, 41))
    assert verify.run_check("lem_concave_coeffs",
                            grid=verify.GridSpec(0, 30, 201)).passed
    assert verify.run_check("kustner_total_monotone",
                            grid=verify.GridSpec(0, 194, 41)).passed
    # round(hi) = -1 would leave no n
    with pytest.raises(DomainError):
        verify.run_check("kustner_total_monotone",
                         grid=verify.GridSpec(-5.0, -0.6, 41))


def test_k_max_is_a_whole_number():
    six = verify.run_check("kustner_total_monotone", params={"k_max": 6})
    assert verify.run_check("kustner_total_monotone",
                            params={"k_max": 6.0}) == six
    for k_max in (1.5, -1, math.nan, math.inf, -math.inf, "6", True):
        with pytest.raises(DomainError):
            verify.run_check("kustner_total_monotone", params={"k_max": k_max})


def test_unknown_parameter_is_refused():
    with pytest.raises(DomainError, match="known: a, b, c"):
        verify.run_check("lem_vaman_1", params={"A": 0.7})
    with pytest.raises(DomainError, match="known: none"):
        verify.run_check("thm_c212_1", params={"a": 0.5})


@pytest.mark.parametrize("name,params", [
    ("lem_vaman_1", {"a": "2"}),
    ("lem_vaman_1", {"a": True}),
    ("lem_vaman_1", {"a": None}),
    ("thm_main_convex", {"pairs": 2.5}),
    ("thm_main2_subadd", {"seed": "x"}),
    ("thm_main2_subadd", {"pairs": -5}),
    ("cor_phi_decreasing", {"seed": -1}),
])
def test_parameter_override_of_wrong_type_is_refused(name, params):
    with pytest.raises(DomainError):
        verify.run_check(name, params=params)


def test_parameter_override_takes_the_default_type():
    # an int where the default is a float, a float where it is an int
    r = verify.run_check("lem_vaman_1", params={"a": 2, "b": 2, "c": 1})
    assert r == verify.run_check("lem_vaman_1")
    r = verify.run_check("thm_main2_subadd", params={"pairs": 500.0,
                                                     "seed": 1202.0})
    assert r == verify.run_check("thm_main2_subadd")


@pytest.mark.parametrize("tol", [-1e-30, 0.0, math.inf, math.nan])
def test_genconv_limit_tol_must_be_finite_and_positive(tol):
    cases = [dict(case) for case
             in verify._REGISTRY["thm_genconv_limits"].params["cases"]]
    cases[0]["tol"] = tol
    with pytest.raises(DomainError, match="gauss case"):
        verify.run_check("thm_genconv_limits", params={"cases": cases})


@pytest.mark.parametrize("name,params,entry", [
    ("thm_genconv_limits", {"cases": [{"kind": "gauss"}]}, r"cases\[0\]"),
    ("thm_genconv_limits", {"cases": [{"kind": "zb", "a": 0.5, "b": 0.5,
                                       "u": 1e-8, "tol": 1e-6, "x": 0.5}]},
     r"cases\[0\]"),
    ("thm_genconv_limits", {"cases": [{"kind": "pole"}]}, r"cases\[0\]"),
    ("thm_genconv_limits", {"cases": [[0.5, 0.5]]}, r"cases\[0\]"),
    ("thm_genconv_limits", {"cases": [{"kind": "zb", "a": "0.5", "b": 0.5,
                                       "u": 1e-8, "tol": 1e-6}]},
     r"cases\[0\]\['a'\]"),
    ("thm_main_pprime_bounds", {"pairs": [[0.5]]}, r"pairs\[0\]"),
    ("thm_main_pprime_bounds", {"pairs": [[0.5, 0.5], [1.0, 2.0, 3.0]]},
     r"pairs\[1\]"),
    ("thm_main_pprime_bounds", {"pairs": [0.5, 0.5]}, r"pairs\[0\]"),
    ("thm_main_pprime_bounds", {"pairs": 2.5}, "pairs must take the form"),
    ("lem_hlvv_sign", {"cases": [[1.0, 1.0, 1.5, 1]]}, r"cases\[0\]\[3\]"),
    ("lem_hlvv_sign", {"cases": [[1.0, 1.0, 1.5]]}, r"cases\[0\]"),
])
def test_list_override_entries_take_the_default_shape(name, params, entry):
    with pytest.raises(DomainError, match=entry):
        verify.run_check(name, params=params)


def test_list_override_entries_take_the_default_types():
    r = verify.run_check("thm_main_pprime_bounds", params={"pairs": [(1, 2)]})
    assert r == verify.run_check("thm_main_pprime_bounds",
                                 params={"pairs": [[1.0, 2.0]]})
    cases = verify._REGISTRY["thm_genconv_limits"].params["cases"]
    assert verify.run_check("thm_genconv_limits",
                            params={"cases": cases[1:]}).passed


def test_convex_pairs_out_of_reach_are_refused():
    # |s - t| < 2 t_span for every draw, so no pair could ever be kept
    for gap in (40.0, 41.0, math.nan):
        with pytest.raises(HypothesisError):
            verify.run_check("thm_main_convex",
                             params={"min_gap": gap, "t_span": 20.0})


def _subadditive_pairs_one_by_one(seed, lo, hi, count):
    draw = random.Random(seed).random
    pairs = []
    for _ in range(count):
        s = lo + (hi - lo) * draw()
        t = lo + (hi - lo) * draw()
        pairs.append((s, t))
    return pairs


def _convex_pairs_one_by_one(seed, span, gap, count):
    # the gap by inversion of its law, then the lower point, then the order
    draw = random.Random(seed).random
    pairs = []
    for _ in range(count):
        d = 2 * span - (2 * span - max(gap, 0.0)) * math.sqrt(draw())
        lower = -span + (2 * span - d) * draw()
        pair = (lower, lower + d)
        pairs.append(pair if draw() < 0.5 else pair[::-1])
    return pairs


@pytest.mark.parametrize("name", ["thm_main2_subadd", "cor_phi_decreasing"])
def test_subadditive_pairs_are_the_pair_by_pair_draws(name):
    params = verify._REGISTRY[name].params
    s, t = verify._subadditive_pairs(params)
    assert list(zip(s.tolist(), t.tolist())) == _subadditive_pairs_one_by_one(
        params["seed"], params["s_lo"], params["s_hi"], params["pairs"])


@pytest.mark.parametrize("gap", [0.5, 30.0])
def test_convex_pairs_are_the_pair_by_pair_draws(gap):
    # the sampler keeps a few ulps of headroom below the largest gap, so
    # the pairs agree with the plain formulas to rounding
    params = dict(verify._REGISTRY["thm_main_convex"].params, min_gap=gap)
    s, t = verify._convex_pairs(params)
    want = _convex_pairs_one_by_one(params["seed"], params["t_span"], gap,
                                    params["pairs"])
    assert np.column_stack((s, t)) == pytest.approx(np.array(want),
                                                    rel=0, abs=1e-13)
    s2, t2 = verify._convex_pairs(params)
    assert s2.tolist() == s.tolist() and t2.tolist() == t.tolist()


@pytest.mark.parametrize("span,gap", [
    (20.0, 40.0 - 1e-13), (20.0, math.nextafter(40.0, 0.0)),
    (0.7, 1.4 - 1e-15), (3.0, 0.5), (1e-310, 1e-310), (2.0, -math.inf)])
def test_convex_pairs_meet_the_gap_in_floats(span, gap):
    s, t = verify._convex_pairs(
        {"seed": 5, "pairs": 2000, "min_gap": gap, "t_span": span})
    assert s.size == t.size == 2000
    assert (np.abs(s - t) >= gap).all()
    assert (np.abs(s) <= span).all() and (np.abs(t) <= span).all()


def test_convex_pairs_near_the_largest_gap_cost_no_more():
    # rejection would keep one draw in 1.6e7 here
    span, gap, count = 20.0, 39.99, 1000
    start = time.perf_counter()
    s, t = verify._convex_pairs(
        {"seed": 20260817, "pairs": count, "min_gap": gap, "t_span": span})
    assert time.perf_counter() - start < 2.0
    d = np.abs(s - t)
    assert (d >= gap).all() and (np.abs(s) <= span).all() \
        and (np.abs(t) <= span).all()
    # the gap's density is proportional to 2T - d on [g, 2T]: mean
    # g + (2T - g)/3, standard deviation (2T - g)/sqrt(18)
    room = 2 * span - gap
    assert abs(d.mean() - (gap + room / 3)) < 4 * room / math.sqrt(18 * count)


@pytest.mark.parametrize("name,params", [
    ("thm_main_convex", {"t_span": math.inf}),
    ("thm_main_convex", {"t_span": math.nan}),
    ("thm_main_convex", {"t_span": -1.0}),
    ("thm_main_convex", {"t_span": 0.0, "min_gap": -1.0}),
    ("thm_main_convex", {"t_span": 1e308}),        # s - t overflows
    ("thm_main2_subadd", {"s_lo": math.inf}),
    ("thm_main2_subadd", {"s_hi": math.nan}),
    ("thm_main2_subadd", {"s_lo": 30.0}),          # above s_hi
    ("thm_main2_subadd", {"s_lo": 25.0}),          # empty
    ("thm_main2_subadd", {"s_hi": 1e308}),         # s + t overflows
    ("cor_phi_decreasing", {"s_hi": 1e308}),
])
def test_sampler_ranges_are_typed_errors(name, params):
    with pytest.raises(DomainError):
        verify.run_check(name, params=params)


def test_grid_override_must_fit_claim():
    # hypothesis violations are about parameters; a grid outside the
    # claim's domain is a plain domain failure
    with pytest.raises(DomainError):
        verify.run_check("lem_vaman_1", grid=verify.GridSpec(0.0, 2.0, 10))
    with pytest.raises(DomainError):
        verify.run_check("thm_main2_qbounds",
                         grid=verify.GridSpec(-3.0, 3.0, 10))


def test_gridspec_validation():
    with pytest.raises(DomainError):
        verify.GridSpec(1.0, 0.0, 10)
    with pytest.raises(DomainError):
        verify.GridSpec(0.0, 1.0, 2)
    with pytest.raises(DomainError):
        verify.GridSpec(0.0, 1.0, 10, "log")     # log needs lo > 0
    with pytest.raises(DomainError):
        verify.GridSpec(0.0, 1.0, 10, "cubic")
    with pytest.raises(DomainError):
        verify.GridSpec(-1e308, 1e308, 3)        # hi - lo overflows
    g = verify.GridSpec(1.0, 4.0, 3, "log")
    assert list(g.points()) == pytest.approx([1.0, 2.0, 4.0])


@pytest.mark.parametrize("count", [31.9, True, "31", math.nan, math.inf, -31])
def test_gridspec_count_is_a_whole_number(count):
    with pytest.raises(DomainError, match="count must be a whole number"):
        verify.GridSpec(0, 30, count)


def test_gridspec_count_takes_a_whole_float():
    assert verify.GridSpec(0, 30, 31.0) == verify.GridSpec(0, 30, 31)
    assert type(verify.GridSpec(0, 30, np.int64(31)).count) is int


def test_gridspec_points_linear():
    g = verify.GridSpec(-1.0, 1.0, 5)
    assert list(g.points()) == pytest.approx([-1.0, -0.5, 0.0, 0.5, 1.0])


def test_find_t0():
    from punctmetric import metric
    t0 = verify.find_t0()
    assert abs(t0 - 2.56944) < 5e-4
    assert verify.T0_BRACKET[0] < t0 < verify.T0_BRACKET[1]
    # it really is a zero of g(t) = H(t) - (t + C0) H'(t)
    c0 = metric.c0()
    g = lambda t: metric.big_h(t) - (t + c0) * metric.big_h_prime(t)
    assert abs(g(t0)) < 1e-10
    assert g(t0 - 0.01) > 0.0 > g(t0 + 0.01)


def test_max_weighted_h():
    t0, peak = verify.max_weighted_h()
    assert abs(peak - 1.24477) < 5e-4
    assert peak < 1.25
    # interior maximum of 2(t + C0) h(t): neighbours sit below
    from punctmetric import metric
    c0 = metric.c0()
    w = lambda t: 2.0 * (t + c0) * metric.h(t)
    assert w(t0) >= w(t0 - 1e-3)
    assert w(t0) >= w(t0 + 1e-3)
    assert peak == pytest.approx(w(t0), rel=1e-10)


def test_check_single_report_notes_carry_diagnostics():
    r = verify.run_check("thm_c212_4")
    assert "t0" in r.notes and "1.25" in r.notes
    assert r.passed


def test_nan_samples_fail_their_check(monkeypatch):
    # a running minimum with a strict "<" skips NaN margins, so a kernel
    # returning NaN everywhere used to pass with margin +inf
    monkeypatch.setattr(pqfun, "q_func_many",
                        lambda pr, ts: np.full(len(ts), math.nan))
    r = verify.run_check("thm_main2_qq")
    assert not r.passed
    assert r.worst_margin == -math.inf
    assert r.worst_point == -10.0
    d = r.to_dict()
    assert d["worst_margin"] == "-inf"
    assert json.loads(json.dumps(d, allow_nan=False)) == d


def test_partly_nan_samples_fail_their_check(monkeypatch):
    h_many = metric.h_many
    monkeypatch.setattr(metric, "h_many",
                        lambda ts: np.where(ts > 10.0, math.nan, h_many(ts)))
    r = verify.run_check("thm_c212_1")
    assert not r.passed
    assert r.worst_margin == -math.inf


# The reduction before margins became arrays, kept as the oracle: a
# strict running minimum fed one sample at a time.

class _Worst:
    def __init__(self):
        self.point = None
        self.margin = math.inf

    def add(self, point, margin):
        if margin < self.margin:
            self.margin = margin
            self.point = point

    def merge(self, other):
        self.add(other.point, other.margin)


def _monotone_worst(xs, ys, increasing):
    sign = 1.0 if increasing else -1.0
    w = _Worst()
    for i in range(len(xs) - 1):
        w.add(float(xs[i]), sign * (ys[i + 1] - ys[i]) - verify.STRICT_FLOOR)
    return w


def _chord_worst(xs, ys, convex):
    w = _Worst()
    for i in range(len(xs) - 2):
        x1, x2, x3 = xs[i], xs[i + 1], xs[i + 2]
        chord = ys[i] + (ys[i + 2] - ys[i]) * ((x2 - x1) / (x3 - x1))
        slack = chord - ys[i + 1] if convex else ys[i + 1] - chord
        w.add(float(x2), slack - verify.STRICT_FLOOR)
    return w


def _deviation_worst(points, devs):
    w = _Worst()
    for p, d in zip(points, devs):
        w.add(p, -abs(d))
    return w


def _floor_worst(points, values):
    w = _Worst()
    for p, v in zip(points, values):
        w.add(p, v - verify.STRICT_FLOOR)
    return w


def _same(new, old):
    point, margin = new
    assert point == old.point
    assert margin == old.margin
    assert math.copysign(1.0, margin) == math.copysign(1.0, old.margin)


# repeated values and signed zeros make exact ties among the margins
_values = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 1e-12, -1e-12, 2e-12]),
    st.floats(-10.0, 10.0))
_samples = st.integers(3, 12).flatmap(lambda n: st.tuples(
    st.lists(st.floats(1e-3, 5.0), min_size=n, max_size=n),
    st.lists(_values, min_size=n, max_size=n)))


def _grid(gaps):
    # uneven, strictly increasing, starting at a signed zero
    return np.cumsum([-0.0] + gaps[1:])


@settings(max_examples=300, deadline=None)
@given(_samples, st.booleans())
def test_part_builders_match_the_loops(sample, flag):
    gaps, ys = sample
    xs = _grid(gaps)
    _same(verify._worst(verify._steps(xs, ys, flag)),
          _monotone_worst(list(xs), ys, flag))
    _same(verify._worst(verify._chord(xs, ys, flag)),
          _chord_worst(list(xs), ys, flag))
    _same(verify._worst(verify._deviations(xs, ys)),
          _deviation_worst(xs.tolist(), ys))
    _same(verify._worst(verify._floor(xs, ys)),
          _floor_worst(xs.tolist(), ys))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(_samples, st.integers(0, 3), st.booleans()),
                max_size=5))
def test_worst_merges_parts_in_order(specs):
    new = []
    old = _Worst()
    for (gaps, ys), kind, flag in specs:
        xs = _grid(gaps)
        if kind == 0:
            new.append(verify._steps(xs, ys, flag))
            old.merge(_monotone_worst(list(xs), ys, flag))
        elif kind == 1:
            new.append(verify._chord(xs, ys, flag))
            old.merge(_chord_worst(list(xs), ys, flag))
        elif kind == 2:
            new.append(verify._deviations(xs, ys))
            old.merge(_deviation_worst(xs.tolist(), ys))
        else:
            new.append(verify._floor(xs, ys))
            old.merge(_floor_worst(xs.tolist(), ys))
    _same(verify._worst(*new), old)
