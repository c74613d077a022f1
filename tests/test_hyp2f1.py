"""Gaussian hypergeometric evaluation: closed forms, frozen references,
and the hypergeometric ODE as a three-way consistency check.

Frozen literals are 17-digit truncations of 50-digit evaluations.
"""

import math
import random
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from punctmetric import hyp2f1
from punctmetric.errors import ConvergenceError, DomainError, RangeError
from punctmetric.hyp2f1 import (
    HypParams,
    f21,
    f21_at_one,
    f21_from_complement,
    f21_derivative,
    f21_derivative_many,
    f21_many,
    f21_minus_one,
    f21_minus_one_many,
)

HALF = HypParams(0.5, 0.5, 1.0)


@pytest.mark.parametrize("x", [0.0, 0.1, 0.5, 0.75, 0.95, 0.99])
def test_geometric_closed_form(x):
    # F(1,2;2;x) = 1/(1-x)
    got = f21(HypParams(1.0, 2.0, 2.0), x).value
    assert got * (1.0 - x) == pytest.approx(1.0, abs=5e-15)


@pytest.mark.parametrize("x", [0.1, 0.35, 0.6, 0.9])
def test_log_closed_form(x):
    # F(1,1;2;x) = -log(1-x)/x
    got = f21(HypParams(1.0, 1.0, 2.0), x).value
    assert got == pytest.approx(-math.log1p(-x) / x, rel=1e-14)


@pytest.mark.parametrize("y", [0.2, 0.5, 0.8])
def test_arcsin_closed_form(y):
    # F(1/2,1/2;3/2;y^2) = arcsin(y)/y
    got = f21(HypParams(0.5, 0.5, 1.5), y * y).value
    assert got == pytest.approx(math.asin(y) / y, rel=1e-14)


@pytest.mark.parametrize("p,x,want", [
    ((0.3, 0.7, 1.1), 0.35, 1.0830428825533563),
    ((2.5, 1.5, 3.2), 0.8, 5.7807136627184874),
    ((0.5, 0.5, 1.0), 0.99, 2.3527158167797426),
    ((0.5, 0.5, 2.0), 0.9999, 1.2729535764534029),
    ((1.2, 0.8, 2.0), 0.6, 1.5032399566003182),
    ((0.5, 0.5, 1.5), 0.999, 1.5399384391655189),
])
def test_frozen_references(p, x, want):
    r = f21(HypParams(*p), x)
    assert r.value == pytest.approx(want, rel=1e-13)
    # the estimate bounds the truncation tail; allow a few ulps of
    # accumulated rounding on top of it
    assert abs(r.value - want) <= r.abs_err_estimate + 2e-15 * want


def test_method_routing():
    assert f21(HALF, 0.3).method == "direct_series"
    assert f21(HALF, 0.99).method == "zb_log_series"          # c = a+b
    assert f21(HypParams(0.5, 0.5, 2.0), 0.99).method == "zb_log_series"
    # c-a-b = 2, and -1 by Euler's transformation: the same log series
    assert f21(HypParams(0.5, 0.5, 3.0), 0.99).method == "zb_log_series"
    assert f21(HypParams(1.5, 1.5, 2.0), 0.99).method == "zb_log_series"
    # c-a-b = 0.1: the 1-x connection formula
    assert f21(HypParams(0.3, 0.7, 1.1), 0.99).method == "connection_series"
    # c-a-b = -3 with c < a, where Euler's transformation has no positive
    # parameters: still the direct series
    assert f21(HypParams(2.0, 2.0, 1.0), 0.9).method == "direct_series"


def test_value_continuous_across_switch():
    for p in (HALF, HypParams(0.5, 0.5, 2.0), HypParams(0.3, 0.7, 1.1)):
        lo = f21(p, 0.5).value
        hi = f21(p, math.nextafter(0.5, 1.0)).value
        assert hi == pytest.approx(lo, rel=1e-13)


@given(st.floats(0.1, 3.0), st.floats(0.1, 3.0), st.floats(0.2, 4.0),
       st.floats(0.0, 0.9))
def test_symmetry_in_ab(a, b, c, x):
    va = f21(HypParams(a, b, c), x)
    vb = f21(HypParams(b, a, c), x)
    assert vb.value == pytest.approx(va.value, rel=1e-13)


@pytest.mark.parametrize("a", [0.5, 1.0, 1.5])
@pytest.mark.parametrize("b", [0.5, 1.0, 1.5])
@pytest.mark.parametrize("c", [0.5, 1.0, 1.5])
def test_hypergeometric_ode(a, b, c):
    # x(1-x) F'' + (c - (a+b+1)x) F' - ab F = 0, with F' and F'' taken
    # through independent parameter shifts
    p = HypParams(a, b, c)
    p2 = HypParams(a + 2.0, b + 2.0, c + 2.0)
    for x in [0.1 * k for k in range(1, 10)]:
        f = f21(p, x).value
        fp = f21_derivative(p, x)
        fpp = (a * b / c) * ((a + 1.0) * (b + 1.0) / (c + 1.0)) \
            * f21(p2, x).value
        t1 = x * (1.0 - x) * fpp
        t2 = (c - (a + b + 1.0) * x) * fp
        t3 = a * b * f
        scale = abs(t1) + abs(t2) + abs(t3)
        assert abs(t1 + t2 - t3) <= 1e-8 * scale


@pytest.mark.parametrize("x", [0.01, 0.3, 0.62, 0.9])
def test_derivative_matches_central_difference(x):
    p = HypParams(0.7, 1.3, 1.9)
    step = 1e-6
    num = (f21(p, x + step).value - f21(p, x - step).value) / (2.0 * step)
    assert f21_derivative(p, x) == pytest.approx(num, rel=2e-9)


def test_zb_near_one_agrees_with_direct():
    # same function through the log expansion, which converges for any
    # u = 1-x < 1, and the Maclaurin series that f21 sums at x <= 1/2
    p = HypParams(1.2, 0.8, 2.0)
    for x in (0.3, 0.45, 0.5):
        direct = f21(p, x).value
        logexp = hyp2f1._zb_log(p, 1.0 - x, -math.log1p(-x), 0).value
        assert logexp == pytest.approx(direct, rel=1e-13)


def test_zb_derivative_consistent():
    for x in (0.2, 0.6, 0.85):
        step = 1e-6
        num = (f21(HALF, x + step).value
               - f21(HALF, x - step).value) / (2.0 * step)
        assert f21_derivative(HALF, x) == pytest.approx(num, rel=2e-8)


def test_f21_minus_one_small_x():
    # leading term (ab/c) x dominates; the full subtraction would lose
    # every digit at x = 1e-12
    got = f21_minus_one(0.5, 0.5, 1.0, 1e-12)
    assert got == pytest.approx(0.25e-12, rel=1e-10)
    for x in (1e-4, 0.05, 0.5, 0.75):
        assert 1.0 + f21_minus_one(0.5, 0.5, 1.0, x) == pytest.approx(
            f21(HALF, x).value, rel=1e-14)


def test_f21_at_one_gauss_formula():
    assert f21_at_one(HypParams(0.3, 0.4, 1.5)) == pytest.approx(
        1.1811918510948158, rel=1e-13)
    # F(1/2,1/2;2;1) = 4/pi
    assert f21_at_one(HypParams(0.5, 0.5, 2.0)) == pytest.approx(
        4.0 / math.pi, rel=1e-13)


def test_f21_at_one_requires_convergence():
    with pytest.raises(DomainError):
        f21_at_one(HALF)                      # c = a+b diverges
    with pytest.raises(DomainError):
        f21_at_one(HypParams(1.0, 2.0, 2.5))  # c < a+b diverges


@given(st.floats(-0.5, 1.5).filter(lambda x: x < 0.0 or x >= 1.0))
def test_argument_domain(x):
    with pytest.raises(DomainError):
        f21(HALF, x)


@pytest.mark.parametrize("a,b,c", [
    (0.0, 1.0, 1.0), (-0.5, 1.0, 1.0), (1.0, 1.0, 0.0),
    (math.nan, 1.0, 1.0), (1.0, math.inf, 1.0), (1.0, 1.0, -1.0),
])
def test_parameter_domain(a, b, c):
    with pytest.raises(DomainError):
        HypParams(a, b, c)
    with pytest.raises(DomainError):
        f21_minus_one(a, b, c, 0.5)
    with pytest.raises(DomainError):
        f21_minus_one_many(a, b, c, [0.1, 0.5])


def test_error_estimate_is_honest():
    # error fields bound the distance to the frozen references above
    r = f21(HypParams(0.3, 0.7, 1.1), 0.35)
    assert r.abs_err_estimate < 1e-13
    assert r.terms_used > 3


# x > 1/2 with c-a-b not an integer: (a, b, c-a-b, x), c-a-b = +-0.01 close
# to the integers where the connection formula's two parts cancel
_OFF_BALANCE = [
    (a, b, s, x)
    for a, b in ((0.3, 1.7), (1.5, 0.6), (2.5, 2.5))
    for s in (-2.2, -0.7, -0.01, 0.01, 0.5, 2.5)
    for x in (math.nextafter(0.5, 1.0), 0.9, 0.99, 1.0 - 1e-5, 1.0 - 1e-10)
    if a + b + s > 0.0
]


def _mp_f21(a, b, c, x):
    mpmath = pytest.importorskip("mpmath")
    # 60 digits keep mpmath's own cancellation at large a, b out of the
    # reference
    with mpmath.workdps(60):
        return mpmath.hyp2f1(a, b, c, mpmath.mpf(x))


def _assert_estimate_holds(p, x):
    r = f21(p, x)
    ref = _mp_f21(p.a, p.b, p.c, x)
    assert abs(r.value - ref) <= r.abs_err_estimate
    return r, ref


@pytest.mark.parametrize("a,b,s,x", _OFF_BALANCE)
def test_off_balance_near_one_against_mpmath(a, b, s, x):
    r, ref = _assert_estimate_holds(HypParams(a, b, a + b + s), x)
    assert r.abs_err_estimate <= 1e-11 * abs(ref)


def test_off_balance_seed_defect_against_mpmath():
    # the direct series raised ConvergenceError here (a million terms)
    r, _ = _assert_estimate_holds(HypParams(0.5, 0.7, 1.3), 0.99999)
    assert r.method == "connection_series"
    assert r.terms_used < 100


@pytest.mark.parametrize("x", [0.9, 0.99, 1.0 - 1e-10])
def test_gamma_pole_closed_form(x):
    # F(a,b;b;x) = (1-x)^(-a): c-b = 0 is a pole of Gamma, so the first
    # connection term vanishes and the second is a polynomial
    r, ref = _assert_estimate_holds(HypParams(0.7, 1.3, 1.3), x)
    assert r.method == "connection_series"
    assert r.value == pytest.approx((1.0 - x) ** -0.7, rel=1e-13)
    # F(1,2;2;x) = 1/(1-x) has c-a-b = -1, an integer, and c = b: the
    # closed form of its direct series
    _assert_estimate_holds(HypParams(1.0, 2.0, 2.0), x)


@pytest.mark.parametrize("a,b", [(1e-200, 1e-200), (1e-170, 1e-160),
                                 (1e-300, 1e-30), (1e-10, 1e-10)])
def test_shifted_log_series_at_tiny_parameters(a, b):
    # shifted, c = a+b+1 rounds to 1, and a*b underflows in the prefactor
    # (a+b)/(ab B(a,b)), whose true value is near 1; either way B(a, b)
    # comes from log-gammas of several hundred, whose rounding the
    # estimate counts.  mpmath takes ~6 s for F(1e-170,1e-160;a+b;0.9),
    # so that pair runs shifted only.
    cs = [a + b + 1.0] if b == 1e-160 else [a + b + 1.0, a + b]
    for c in cs:
        p = HypParams(a, b, c)
        xs = [0.9, 0.999]
        many = f21_many(p, xs)
        for x, value in zip(xs, many.value.tolist()):
            r, _ = _assert_estimate_holds(p, x)
            assert r.method == "zb_log_series"
            assert value == r.value
            assert r.abs_err_estimate <= 1e-12


def test_large_parameters_give_a_value_or_a_typed_error():
    # log-gamma prefactors near 1e3 in size, and their rounding
    _assert_estimate_holds(HypParams(300.3, 200.7, 520.1), 0.9999)
    # F ~ (1-x)^(-170.75) ~ 1e512: B u^s overflows, and so does the
    # direct series it falls back to
    with pytest.raises(RangeError):
        f21(HypParams(150.5, 120.25, 100.0), 0.999)
    # c-(a+b) rounds to 0 and B(a, b) overflows: no untyped OverflowError
    with pytest.raises(RangeError):
        f21(HypParams(1e306, 1.5, 1e306), 0.9)
    with pytest.raises(RangeError):
        f21_at_one(HypParams(1e306, 1.5, 3e306))
    # zero balanced: the log series' coefficients overflow near a = 400,
    # where the direct series serves in their place, and B(a, b)
    # underflows to 0 near a = 1e4, where the direct series overflows
    # too; neither may come back as +-inf with estimate inf, or as an
    # untyped ZeroDivisionError
    for c in (800.0, 801.0):
        r, _ = _assert_estimate_holds(HypParams(400.0, 400.0, c), 0.9)
        assert r.method == "direct_series"
    for c in (2e4, 2e4 + 1.0):
        with pytest.raises(RangeError):
            f21(HypParams(1e4, 1e4, c), 0.9)


# (a, b, relative tolerance): past x = 1/2 the log series of
# F(a,b;a+b+1) cancels as a and b grow, 6e-11 at (3, 5) and x just above
# 1/2, where it hands over to the direct series
@pytest.mark.parametrize("a,b,rtol", [(0.5, 0.5, 1e-13), (1.2, 0.8, 1e-13),
                                      (3.0, 5.0, 1e-13)])
def test_zero_balanced_derivative_against_mpmath(a, b, rtol):
    # at c = a+b the derivative is (ab/(a+b)) F(a,b;a+b+1;x)/(1-x), the
    # m = 1 log series past 1/2, up to x = 1 - 1e-10
    mpmath = pytest.importorskip("mpmath")
    p = HypParams(a, b, a + b)
    xs = [0.0, 0.3, 0.5, math.nextafter(0.5, 1.0), 0.9, 0.999, 0.99999,
          1.0 - 1e-10]
    many = f21_derivative_many(p, xs)
    for x, d_many in zip(xs, many.tolist()):
        d = f21_derivative(p, x)
        assert d == d_many
        with mpmath.workdps(60):
            ref = (mpmath.mpf(a) * b / p.c
                   * mpmath.hyp2f1(a + 1, b + 1, p.c + 1, mpmath.mpf(x)))
        assert abs(d - ref) <= rtol * abs(ref)


@pytest.mark.parametrize("a,b", [(math.nan, 1.0), (0.0, 0.0), (1.0, -2.0),
                                 (math.inf, 1.0)])
def test_zb_derivative_rejects_bad_parameters(a, b):
    with pytest.raises(DomainError):
        f21_derivative(HypParams(a, b, a + b), 0.3)


def _sweep_cases(route, rng, count):
    """(a, b, c, x) with a, b log-uniform in [0.05, 200] on one route."""
    cases = []
    while len(cases) < count:
        a, b = (math.exp(rng.uniform(math.log(0.05), math.log(200.0)))
                for _ in range(2))
        s = {"direct": rng.uniform(-3.0, 3.0), "zb": 0.0, "shifted": 1.0,
             "connection": rng.choice([-2.5, -1.5, -0.5, 0.5, 1.5, 2.5])
             + rng.uniform(-0.45, 0.45),
             "near_integer": rng.choice([-1.0, 1.0, 2.0])
             + rng.choice([-1e-9, 1e-7, 1e-4]),
             "integer": rng.choice([-2.0, 2.0, 3.0])}[route]
        c = a + b + s
        if c <= 0.0:
            continue
        if route == "direct":
            x = rng.uniform(0.0, 0.5)
        elif route in ("near_integer", "integer"):
            # the direct series needs ~35/(1-x) terms there
            x = 1.0 - 10.0 ** rng.uniform(-1.3, math.log10(0.5))
        else:
            x = 1.0 - 10.0 ** rng.uniform(-10.0, math.log10(0.5))
        cases.append((a, b, c, x))
    return cases


@pytest.mark.parametrize("route", ["direct", "zb", "shifted", "connection",
                                   "near_integer", "integer"])
def test_estimate_bounds_the_error_on_every_route(route):
    # mpmath at 60 digits; past x = 1/2 the large a, b hand the log series
    # and the connection formula over to the direct series
    rng = random.Random(f"sweep-{route}")
    methods = set()
    for a, b, c, x in _sweep_cases(route, rng, 25):
        r, _ = _assert_estimate_holds(HypParams(a, b, c), x)
        methods.add(r.method)
    if route in ("zb", "shifted", "connection"):
        assert "direct_series" in methods and len(methods) == 2


def test_estimate_bounds_the_error_from_a_complement():
    # u = e^-t/(1+e^-t) is not formed from x, so the direct series that
    # the log series hands over to runs at a rounded x = 1-u
    mpmath = pytest.importorskip("mpmath")
    rng = random.Random(20081005)
    methods = set()
    for a, b, c, _ in _sweep_cases("zb", rng, 25) + _sweep_cases(
            "connection", rng, 10):
        t = rng.uniform(0.0, 30.0)
        e = math.exp(-t)
        r = f21_from_complement(HypParams(a, b, c), e / (1.0 + e),
                                t + math.log1p(e))
        with mpmath.workdps(60):
            ref = mpmath.hyp2f1(a, b, c, 1 / (1 + mpmath.exp(-t)))
        assert abs(r.value - ref) <= r.abs_err_estimate
        methods.add(r.method)
    assert methods == {"direct_series", "zb_log_series", "connection_series"}


@pytest.mark.parametrize("a,b,c,x", [
    (10.0, 10.0, 20.0, 0.7), (5.0, 5.0, 10.0, 0.55),
    (3.0, 5.0, 9.0, math.nextafter(0.5, 1.0)), (65.46, 64.60, 129.07, 0.985),
    (20.0, 20.0, 40.0, 0.6), (50.0, 50.0, 100.0, math.nextafter(0.5, 1.0)),
])
def test_cancelling_series_hand_over(a, b, c, x):
    # the log series (zero balanced or shifted) and the connection formula
    # cancel here by far more than MAX_CANCEL; the direct series serves,
    # within its estimate, and F(50,50;100) no longer runs out of terms
    r, ref = _assert_estimate_holds(HypParams(a, b, c), x)
    assert r.method == "direct_series"
    assert abs(r.value - ref) <= 1e-13 * abs(ref)


def _integer_s_cases(m):
    """(a, b, c, x) with c = a+b+m, a and b in (0.1, 5) (c > a and c > b
    for m < 0) and 1-x from 1e-12 to 1/2."""
    rng = random.Random(f"integer-s-{m}")
    cases = []
    while len(cases) < 18:
        a, b = rng.uniform(0.1, 5.0), rng.uniform(0.1, 5.0)
        c = a + b + m
        if c > max(a, b):
            cases += [(a, b, c, 1.0 - u)
                      for u in (1e-12, 1e-9, 1e-6, 1e-3, 0.1, 0.5)]
    return cases


@pytest.mark.parametrize("m", range(-3, 5))
def test_integer_s_against_mpmath(m):
    # one log series for every integer c-a-b = m, Euler's transformation
    # for m < 0; each call within its estimate and quick
    for a, b, c, x in _integer_s_cases(m):
        p = HypParams(a, b, c)
        r = f21(p, x)
        # the best of three calls, so that a loaded host alone cannot
        # fail it
        assert min(_seconds(lambda: f21(p, x)) for _ in range(3)) < 0.01
        assert abs(r.value - _mp_f21(a, b, c, x)) <= r.abs_err_estimate
        if x > 0.5:
            assert r.method == "zb_log_series"


def _seconds(call):
    start = time.perf_counter()
    call()
    return time.perf_counter() - start


@pytest.mark.parametrize("a,b,c,x", [
    (1.0, 1.0, 4.0, 0.99999), (1.5, 1.5, 2.0, 0.9999),
    (0.5, 0.5, 3.0, 0.999999), (2.5, 1.5, 3.0, 0.99999),
])
def test_integer_s_near_one_is_quick(a, b, c, x):
    # the direct series would need 10^5 terms or more here
    r, _ = _assert_estimate_holds(HypParams(a, b, c), x)
    assert r.method == "zb_log_series"
    best = min(_seconds(lambda: f21(HypParams(a, b, c), x))
               for _ in range(5))
    assert best < 1e-3


@pytest.mark.parametrize("k", range(1, 13))
def test_c_equal_to_a_or_b_in_closed_form(k):
    # integer c-a-b with c = b (or a), which the log series cannot serve:
    # F(a,b;b;x) = (1-x)^-a, where the direct series took 34,524 terms at
    # x = 0.999 and ran out of them at 0.99999
    x = 1.0 - 10.0 ** -k
    for p in (HypParams(1.0, 2.0, 2.0), HypParams(2.0, 3.0, 2.0)):
        r, _ = _assert_estimate_holds(p, x)
        assert r.method == "direct_series"
        assert min(_seconds(lambda: f21(p, x)) for _ in range(5)) < 1e-3
        many = f21_many(p, [0.3, x])
        assert many.value[1] == r.value
        assert many.abs_err_estimate[1] == r.abs_err_estimate
    # u^-400 overflows at once
    for call in (lambda: f21(HypParams(400.0, 2.0, 2.0), x),
                 lambda: f21_many(HypParams(400.0, 2.0, 2.0), [0.2, x])):
        if k > 4:
            with pytest.raises(RangeError):
                call()


def test_overflowing_terms_fail_fast():
    # (1-x)^-a overflows: the first infinite term ends the sum, where
    # summing on would run to MAX_TERMS_DIRECT
    p = HypParams(1e306, 1e306, 1e306)
    for call, limit in ((lambda: f21(p, 0.3), 1e-3),
                        (lambda: f21_many(p, [0.1, 0.3] * 4), 1e-2)):
        def once():
            with pytest.raises(RangeError):
                call()
        assert min(_seconds(once) for _ in range(3)) < limit
    with pytest.raises(RangeError):
        f21_minus_one(200.0, 200.0, 1.0, 0.75)
    with pytest.raises(RangeError):
        f21_minus_one_many(200.0, 200.0, 1.0, [0.1] * 5 + [0.75])


@pytest.mark.parametrize("m", [100, 150, 200])
def test_large_integer_s_within_its_estimate(m):
    # (a)_m (b)_m overflows in the log series' factor: the series hands
    # over to the direct series, and never returns its factor's 0
    r, _ = _assert_estimate_holds(HypParams(1.0, 1.0, 2.0 + m), 0.9999)
    assert r.value > 1.0
