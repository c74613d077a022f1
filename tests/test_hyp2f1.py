"""Gaussian hypergeometric evaluation: closed forms, frozen references,
and the hypergeometric ODE as a three-way consistency check.

Frozen literals are 17-digit truncations of 50-digit evaluations.
"""

import fractions
import functools
import math
import random
import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from punctmetric import _hyp2f1_arrays, hyp2f1, pqfun, specfun
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
        logexp, _, serves, _ = hyp2f1._zb_log(p, 1.0 - x, -math.log1p(-x), 0)
        assert serves
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


@pytest.mark.parametrize("name", ["a", "b"])
@pytest.mark.parametrize("bad", [0.0, -1.0, math.inf, math.nan])
def test_complement_sums_refuse_a_bad_a_or_b_by_its_name(name, bad):
    # digamma would refuse a bad a or b too, but under its own name x
    args = {"a": 0.5, "b": 0.7, name: bad}
    match = rf"^{name} must be a positive finite real, got {bad!r}$"
    with pytest.raises(DomainError, match=match):
        hyp2f1.zb_complement_sums(args["a"], args["b"], 0.3)
    for us in ([0.3, 0.1], []):
        with pytest.raises(DomainError, match=match):
            hyp2f1.zb_complement_sums_many(args["a"], args["b"], us)


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
            # a+b rounds to b = c at (1e-300, 1e-30): F = (1-x)^-a there
            assert r.method == ("direct_series" if c == b
                                else "zb_log_series")
            assert value == r.value
            assert r.abs_err_estimate <= 1e-12


@pytest.mark.parametrize("abc", [(1e-310, 1e-310, 2e-310),
                                 (1e-310, 1e-310, 1.0 + 2e-310),
                                 (1e-310, 2e-310, 1.0 + 3e-310)])
def test_log_route_hands_over_where_beta_overflows(abc):
    # B(a, b) ~ 1/a + 1/b overflows, and the log route raised that where
    # F - 1 is below 1e-300: F reads 1 within its estimate, and every
    # form that sums it has a value
    p = HypParams(*abc)
    xs = [0.6, 0.9, 1.0 - 1e-12]
    many = f21_many(p, xs)
    derivatives = f21_derivative_many(p, xs)
    for i, x in enumerate(xs):
        r = f21(p, x)
        assert abs(r.value - 1.0) <= r.abs_err_estimate, x
        assert _bits(tuple(float(f[i]) for f in many[:2])) == _bits(r[:2])
        assert (many.terms_used[i], many.method[i]) == r[2:]
        assert _bits(float(derivatives[i])) == _bits(f21_derivative(p, x))
    pr = pqfun.ZeroBalancedPair(1e-310, 1e-310)
    for fn in (pqfun.p_func, pqfun.q_func, pqfun.p_prime):
        for t in (0.0, 1.0, -3.0, 30.0):
            assert math.isfinite(fn(pr, t)), (fn, t)


def test_large_parameters_give_a_value_or_a_typed_error():
    # log-gamma prefactors near 1e3 in size, and their rounding
    _assert_estimate_holds(HypParams(300.3, 200.7, 520.1), 0.9999)
    # F ~ (1-x)^(-170.75) ~ 1e512: B u^s overflows, and so does the
    # direct series it falls back to
    with pytest.raises(RangeError):
        f21(HypParams(150.5, 120.25, 100.0), 0.999)
    # c-(a+b) = 0 and B(a, b) overflows: the log route hands over, and
    # the direct series overflows, as F does
    with pytest.raises(RangeError, match="direct series"):
        f21(HypParams(1e306, 1e306, 2e306), 0.9)
    # a+b rounds to a = c: not the log series, but F(a,b;a;x) = (1-x)^-b
    r, _ = _assert_estimate_holds(HypParams(1e306, 1.5, 1e306), 0.9)
    assert r.value == pytest.approx(0.1 ** -1.5, rel=1e-15)
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


def test_direct_series_stops_on_subnormal_and_zero_terms():
    # F - 1 at a = 1e-310 is subnormal: its terms stick at the smallest
    # subnormal (a step ratio above 1/2 rounds an ulp back to an ulp)
    # and pass the stop test there, instead of running to
    # MAX_TERMS_DIRECT
    got = []
    assert min(_seconds(lambda: got.append(f21_minus_one(
        1e-310, 2.0, 4.0, 0.75))) for _ in range(3)) < 1e-2
    assert min(_seconds(lambda: got.append(f21_minus_one_many(
        1e-310, 2.0, 4.0, [0.75, 0.5])[0])) for _ in range(3)) < 1e-2
    assert len(set(got)) == 1
    # c = b, s = -1/2: the connection formula's F(c-a, 0; 1/2; u) has no
    # term past T_0, while its step-ratio bound stays above 1 up to n ~ 1e6
    p = HypParams(0.5, 1e8, 1e8)
    r = []
    assert min(_seconds(lambda: r.append(f21(p, 0.99))) for _ in range(3)) \
        < 1e-2
    assert min(_seconds(lambda: f21_many(p, [0.99, 0.3]))
               for _ in range(3)) < 1e-2
    assert r[0].method == "connection_series"
    assert abs(r[0].value - 10.0) <= r[0].abs_err_estimate  # (1-x)^-1/2
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(400):
        want = mpmath.hyp2f1(mpmath.mpf(1e-310), 2, 4, mpmath.mpf(0.75)) - 1
        assert abs(mpmath.mpf(got[0]) - want) <= 8 * 2.0 ** -1074


def _fraction_f21(a, b, c, x):
    """F(a,b;c;x) for positive a, b, c and 0 <= x <= 1/2, summed in
    exact rationals until the tail is below 1e-20 of the sum.

    Past term n every step ratio is at most (1 + g) x: f(m) = (a+m)(b+m)
    / ((c+m)(m+1)) is 1 + L(m)/D(m), L(m) = alpha m + beta with alpha =
    a+b-c-1 and beta = ab-c, D(m) = (c+m)(m+1) rising.  At alpha < 0,
    L(m) <= L(n); else L(m)/D(m) = alpha/(c+m) + (beta-alpha)/D(m), each
    part at most its value at n or 0."""
    a, b, c, x = map(fractions.Fraction, (a, b, c, x))
    alpha, beta = a + b - c - 1, a * b - c
    term = total = fractions.Fraction(1)
    n = 0
    while True:
        term *= (a + n) * (b + n) / ((c + n) * (n + 1)) * x
        total += term
        n += 1
        d = (c + n) * (n + 1)
        g = (max(alpha * n + beta, 0) / d if alpha < 0
             else alpha / (c + n) + max(beta - alpha, 0) / d)
        r = (1 + g) * x
        if r < 1 and term * r / (1 - r) <= total / 10 ** 20:
            return total


# the step ratio's products past the float range: (c+n)(n+1) overflowed
# to a ratio of 0, and (a+n)(b+n) to inf, where F is finite
_OVERFLOW_EXAMPLES = [(1e154, 1e154, 9e307, 0.5), (1e154, 1e154, 9e307, 0.25),
                      (1e200, 1e200, 1e300, 1e-300)]


def _overflow_draws(count):
    """The examples, then seeded (a, b, c, x) with a, b from 1e100 to
    1e200, c from 1e250 to 1.7e308 and x in (0, 1/2] where a b x / c is
    0.05 to 30, so that F is finite and its terms matter."""
    rng = random.Random("ratio-products-past-the-float-range")

    def log_u(lo, hi):
        return rng.uniform(math.log(lo), math.log(hi))

    draws = list(_OVERFLOW_EXAMPLES)
    while len(draws) < count:
        la, lb, lc = log_u(1e100, 1e200), log_u(1e100, 1e200), log_u(
            1e250 if rng.random() < 0.5 else 2e302, 1.7e308)
        x = math.exp(log_u(0.05, 30.0) + lc - la - lb)
        if 0.0 < x <= 0.5:
            draws.append((math.exp(la), math.exp(lb), math.exp(lc), x))
    return draws


def test_direct_series_past_an_overflowing_product_within_its_estimate():
    # the standard library's reference, so that it runs without mpmath
    draws = _overflow_draws(16)
    end = float(hyp2f1.MAX_TERMS_DIRECT)
    assert sum(hyp2f1._unit(a, b, c, end) < 1.0
               for a, b, c, _ in draws) >= 12
    for a, b, c, x in draws:
        p = HypParams(a, b, c)
        want = _fraction_f21(a, b, c, x)
        got = f21(p, x)
        assert got.method == "direct_series"
        assert abs(fractions.Fraction(got.value) - want) \
            <= got.abs_err_estimate, (p, x)
        minus_one = f21_minus_one(a, b, c, x)
        assert abs(fractions.Fraction(minus_one) - (want - 1)) \
            <= got.abs_err_estimate, (p, x)
        many = f21_many(p, [x, x])
        assert [tuple(f[i] for f in many) for i in range(2)] \
            == [tuple(got)] * 2
        assert f21_minus_one_many(a, b, c, [x]).tolist() == [minus_one]
    # where no product overflows, the unit is 1.0: the loop is unchanged
    assert hyp2f1._unit(0.5, 0.5, 1.0, end) == 1.0
    assert hyp2f1._unit(1e150, 1e150, 1e300, end) == 1.0


def test_direct_series_past_an_overflowing_product_against_mpmath():
    mpmath = pytest.importorskip("mpmath")
    for a, b, c, x in _overflow_draws(16):
        got = f21(HypParams(a, b, c), x)
        # 50 digits past those of x: below them mpmath reads a tiny x as
        # 0 whatever a b / c (at 50 digits F(3e191, 1e184; 7e307; 3e-67)
        # reads 1.0, where F is 5.6e6)
        with mpmath.workdps(50 - math.floor(math.log10(x))):
            want = mpmath.hyp2f1(a, b, c, x)
        assert abs(got.value - want) <= got.abs_err_estimate, (a, b, c, x)


def test_unit_keeps_every_value_normal_or_stays_one():
    end = float(hyp2f1.MAX_TERMS_DIRECT)
    # (9e307 + n)(n + 1) < 2^1024 2^20 = 2^1044 by the factors' exponents,
    # below 2^1023 once scaled by 2^-2k, k = 11
    one = hyp2f1._unit(1e154, 1e154, 9e307, end)
    assert one == 2.0 ** -11
    assert (9e307 * one + end * one) * (end * one + one) < 2.0 ** 1023
    # a scaled c, or c*1 at n = 0, would lose bits: the loop keeps its
    # unit, and its overflowing products, as before
    for c in (5e-324, 1e-310, 1e-300):
        assert hyp2f1._unit(1e306, 1e306, c, end) == 1.0
    with pytest.raises(RangeError, match="direct series"):
        f21(HypParams(1e306, 1e306, 5e-324), 0.3)


def test_c_equal_to_b_is_read_as_given():
    # a + b rounds to b = c: c - (a+b) = 0 chose the m = 0 log series,
    # whose terms overflow, and its hand-over ran 1e6 direct terms for
    # ~1.2 s and raised ConvergenceError; c = b takes the power route,
    # F(a,b;b;x) = (1-x)^-a
    p = HypParams(0.5, 1e300, 1e300)
    x = 1.0 - 1e-16
    r = []
    assert min(_seconds(lambda: r.append(f21(p, x))) for _ in range(3)) \
        < 1e-2
    assert (r[0].method, r[0].terms_used) == ("direct_series", 0)
    assert abs(r[0].value - (1.0 - x) ** -0.5) <= r[0].abs_err_estimate
    many = f21_many(p, [0.3, x])
    assert many.value[1] == r[0].value
    assert many.abs_err_estimate[1] == r[0].abs_err_estimate
    assert many.method[1] == r[0].method


# Past x = 1/2 at large s = c - a - b, DLMF 15.8.4's first series
# F(a, b; 1 - s; u) has a negative lower parameter.  Its terms dip below
# the tolerance and grow again near n = s - 1, so a tail test taken
# while c + n <= 0 stopped it early: F read -114.9, N -70.4 and M
# -0.0152.  The references are mpmath at 50 digits, frozen here as
# decimal strings, so that these run without mpmath too.
_LARGE_S = [
    ("f21", (2.8429075925991145, 0.007422901648868693, 71.69053935343895,
             0.5028980254197531), "1.00015005925412849330494165066"),
    ("n_func", (2.843, 0.00742, 71.69, 0.4971),
     "0.000151151885757714238204099797912"),
    ("m_func", (0.5, 0.5, 40.3, 0.45), "0.00316757484689900327580185194089"),
]


def _large_s_call(name, a, b, c, x):
    if name == "f21":
        return f21(HypParams(a, b, c), x).value
    return getattr(pqfun, name)(a, b, c, x)


@pytest.mark.parametrize("name, args, ref", _LARGE_S)
def test_large_s_past_one_half_against_frozen_references(name, args, ref):
    assert _large_s_call(name, *args) == pytest.approx(float(ref), rel=1e-10)
    if name == "f21":
        r = f21(HypParams(*args[:3]), args[3])
        assert r.method == "connection_series"
        assert abs(r.value - float(ref)) <= r.abs_err_estimate


@pytest.mark.parametrize("name, args, ref", _LARGE_S)
def test_large_s_array_forms_keep_the_scalar_bits(name, args, ref):
    # the lockstep sums both connection series in one run, each lane with
    # its own lower parameter (1 - s or 1 + s)
    a, b, c, x = args
    xs = [x, 1.0 - x, 0.6, 0.9, 0.999]
    if name == "f21":
        many = f21_many(HypParams(a, b, c), xs)
        for k, x in enumerate(xs):
            r = f21(HypParams(a, b, c), x)
            assert (many.value[k], many.abs_err_estimate[k],
                    many.terms_used[k]) == (r.value, r.abs_err_estimate,
                                            r.terms_used)
    else:
        many = getattr(pqfun, name + "_many")(a, b, c, xs)
        assert many.tolist() == [_large_s_call(name, a, b, c, x) for x in xs]


@pytest.mark.parametrize("name, args, ref", _LARGE_S)
def test_large_s_frozen_references_against_mpmath(name, args, ref):
    mpmath = pytest.importorskip("mpmath")
    a, b, c, x = map(mpmath.mpf, args)  # exact: mpf holds every float
    with mpmath.workdps(50):
        v = [mpmath.hyp2f1(a, b, c, y) for y in (x, 1 - x)]
        dv = [a * b / c * mpmath.hyp2f1(a + 1, b + 1, c + 1, y)
              for y in (x, 1 - x)]
        want = {"f21": v[0],
                "n_func": x * (1 - x) * (dv[0] / v[0] + dv[1] / v[1]),
                "m_func": x * (1 - x) * (dv[0] * v[1] + v[0] * dv[1])}[name]
        assert abs(mpmath.mpf(ref) / want - 1) < mpmath.mpf(10) ** -25


def test_connection_series_out_of_terms_hands_over():
    # with no tail test while c + n <= 0, the first connection series
    # at s - 1 past MAX_TERMS_DIRECT runs out of terms: the call hands
    # over to the direct series, which serves a large c in a few terms,
    # as it does where the connection formula's two parts cancel
    p = HypParams(0.5, 0.5, 2000.3)
    want = f21(p, 0.6)
    assert want.method == "direct_series"
    with mock.patch.object(hyp2f1, "MAX_TERMS_DIRECT", 1000):
        assert f21(p, 0.6) == want
        assert f21_many(p, [0.6]).value.tolist() == [want.value]


def _loop_ratio_sum(a, b, c, x, total, zero_x_as_given=False):
    """The ratio loop with an int counter and abs() and max() calls, as
    it was before the float counter: the reference that _ratio_sum must
    match to the bit.  At x = +-0 it sums (0, 0; c), as _ratio_sum does,
    or with zero_x_as_given the a and b given, as both did before: there
    a step ratio forms inf*0 where (a+n)(b+n) overflows."""
    if not x and not zero_x_as_given:
        a = b = 0.0
    term = 1.0
    comp = weighted = 0.0
    n = small_count = 0
    ratio = (a + n) * (b + n) / ((c + n) * (n + 1.0)) * x
    inf = math.inf
    while n < hyp2f1.MAX_TERMS_DIRECT:
        term *= ratio
        t = total + term
        back = t - total
        comp += (total - (t - back)) + (term - back)
        total = t
        size = abs(term)
        n += 1
        weighted += n * size
        ratio = (a + n) * (b + n) / ((c + n) * (n + 1.0)) * x
        r = max(abs(ratio), x) if size else 0.0
        if r < 1.0 and c + n > 0.0 and size * r <= (
                hyp2f1.SERIES_RTOL * abs(total) * (1.0 - r) or hyp2f1._TINY):
            small_count += 1
            # an overflowed term on an overflowed total passes the test:
            # the sum stops there too
            if small_count == 3 or not size < inf:
                return total + comp, term, r, weighted, n
        else:
            if not size < inf:
                return total + comp, term, r, weighted, n
            small_count = 0
    return None


def _bits(v):
    """A result as comparable bits: the sign of a zero counts, and every
    NaN is one NaN."""
    if isinstance(v, tuple):
        return tuple(map(_bits, v))
    if isinstance(v, float):
        return "nan" if math.isnan(v) else v.hex()
    return (type(v), v)


def _ratio_sum_cases(rng, count):
    """(a, b, c, x, total): positive triples, lower parameters in the pole
    region (c + n <= 0 for the first terms), signed zeros of x and of
    the parameters, and triples whose terms overflow."""
    def lu(lo, hi):
        return math.exp(rng.uniform(math.log(lo), math.log(hi)))
    for _ in range(count):
        a, b = lu(1e-3, 50.0), lu(1e-3, 50.0)
        c = rng.choice([lu(1e-3, 100.0), -lu(1e-3, 80.0),
                        -rng.randint(0, 60) - rng.choice([0.5, 1e-9, 0.9]),
                        1.0 + rng.uniform(-1.0, 1.0) * lu(1e-3, 1e3)])
        x = rng.choice([rng.uniform(0.0, 0.5), rng.uniform(0.0, 0.75), 0.0,
                        -0.0, 0.5, lu(1e-300, 1e-3)])
        if rng.random() < 0.1:
            a, b = rng.choice([(1e306, 1e306), (1e200, 3.0), (-0.0, 2.0),
                               (0.0, 5.0), (a, -rng.randint(0, 9) + 0.0)])
        yield a, b, c, x, rng.choice([0.0, 1.0])


def test_ratio_sum_matches_the_int_counter_loop_to_the_bit():
    rng = random.Random("ratio-sum-bits")
    cases = list(_ratio_sum_cases(rng, 3000))
    assert any(c < 0.0 for _, _, c, _, _ in cases)
    overflowed = 0
    for case in cases:
        want = _loop_ratio_sum(*case)
        assert _bits(hyp2f1._ratio_sum(*case)) == _bits(want), case
        overflowed += want is not None and not math.isfinite(want[0])
    assert overflowed
    # a run out of terms, in and past the pole region, and a term that
    # overflows on the last step allowed
    short = [(0.5, 0.5, -20.5, 0.4, 1.0), (2.0, 3.0, 4.0, 0.49, 1.0),
             (1e200, 1e200, 1.0, 0.3, 0.0), (0.5, 0.5, 1.0, 0.0, 1.0)]
    with mock.patch.object(hyp2f1, "MAX_TERMS_DIRECT", 7):
        for case in short + cases[:300]:
            want = _loop_ratio_sum(*case)
            assert _bits(hyp2f1._ratio_sum(*case)) == _bits(want), case
        assert hyp2f1._ratio_sum(0.5, 0.5, -20.5, 0.4, 1.0) is None


def test_ratio_sum_stops_at_the_first_term_that_overflows():
    # inf <= inf passed the tail test, so the scalar loop summed past an
    # overflowed term (n = 3, r = 0.408 here) where the lockstep stops the
    # lane (n = 1, r = 0.45); both totals are NaN either way
    assert _bits(hyp2f1._ratio_sum(0.5, 0.5, 5e-324, 0.4, 1.0)) == _bits(
        (math.nan, math.inf, 0.45, math.inf, 1))
    rng = random.Random("ratio-sum-overflow")
    triples = [(0.5, 0.5, 5e-324), (2.0, 3.0, 1e-310), (1e200, 1e200, 1.0),
               (1e306, 2.0, 0.5), (40.0, 0.1, 5e-324)]
    xs = [0.4, 0.1, 0.3, 1e-3] + [rng.uniform(0.0, 0.7) for _ in range(8)]
    lanes = np.array(xs)
    total = np.tile([1.0, 0.0], lanes.size // 2)
    overflowed = 0
    for triple in triples:  # a run per triple
        got = _hyp2f1_arrays._ratio_many(*triple, lanes, total)
        for i, (x, t) in enumerate(zip(lanes.tolist(), total.tolist())):
            want = hyp2f1._ratio_sum(*triple, x, t)
            if math.isfinite(want[0]):
                continue
            overflowed += 1
            # (term, r, n) of the lane against the scalar loop's
            assert _bits((float(got[1][i]), float(got[2][i]),
                          int(got[4][i]))) \
                == _bits((want[1], want[2], want[4])), (triple, x, t)
    assert overflowed >= len(xs)


def _zero_x_triples():
    """Positive triples at x = +-0: ordinary ones, ones whose a b
    overflows, and a c small enough that a b / c does."""
    for a, b in ((0.5, 0.5), (2.0, 3.0), (40.0, 0.1), (1e200, 1e200),
                 (1e306, 2.0), (1e160, 1e160)):
        for c in (1.0, 0.01, 5e-324, 1e-310, 7.5, 1e300):
            yield a, b, c


def test_f21_at_zero_x_keeps_every_result_and_serves_an_overflowing_product():
    # F(a,b;c;0) = 1: every call that returned before the fix returns the
    # same bits, and each that overflowed now returns 1 as the ordinary
    # triples do, in as many terms
    eps = 2.0 ** -53
    parent = functools.partial(_loop_ratio_sum, zero_x_as_given=True)
    served = 0
    for a, b, c in _zero_x_triples():
        p = HypParams(a, b, c)
        for x in (0.0, -0.0):
            got = f21(p, x)
            assert _bits(tuple(got)) == _bits((1.0, eps, 4, "direct_series"))
            assert f21_minus_one(a, b, c, x) == 0.0
            with mock.patch.object(hyp2f1, "_ratio_sum", parent):
                try:
                    want = f21(p, x)
                except RangeError:
                    served += 1
                    continue
            assert _bits(tuple(got)) == _bits(tuple(want)), (p, x)
    assert served
    assert tuple(f21(HALF, 0.0)) == (1.0, 1.1102230246251565e-16, 4,
                                     "direct_series")


def test_f21_many_at_zero_x_matches_its_scalar_calls():
    # one parameter triple: a lane at x = +-0 that the lockstep cannot
    # sum takes its scalar call
    for a, b, c in _zero_x_triples():
        p = HypParams(a, b, c)
        xs = [0.0, -0.0, 0.3, 0.0, 1e-3]
        try:
            got = f21_many(p, xs)
        except RangeError:  # a point past zero overflows in earnest
            xs = xs[:2]
            got = f21_many(p, xs)
        for i, x in enumerate(xs):
            want = f21(p, x)
            assert (got.value[i], got.abs_err_estimate[i],
                    got.terms_used[i], got.method[i]) == tuple(want), (p, x)


def test_ratio_run_at_zero_x_leaves_only_overflowing_lanes_unsummed():
    # a lockstep run per triple, which sums the a and b given at x = +-0
    # too: a lane whose step ratio overflows forms inf * 0 and comes back
    # not finite, so its scalar call serves it; every other lane has the
    # bits of its scalar loop, which sums (0, 0, c) there
    xs = np.array([0.0, -0.0, 0.0, 0.4])
    total = np.array([1.0, 0.0, 0.0, 1.0])
    overflowed = summed = 0
    for triple in _zero_x_triples():
        got = _hyp2f1_arrays._ratio_many(*triple, xs, total)
        assert (got[-1] > 0).all()  # no lane ran out of terms
        for i, (x, t) in enumerate(zip(xs.tolist(), total.tolist())):
            case = (*triple, x, t)
            lane = tuple(float(f[i]) for f in got[:-1]) + (int(got[-1][i]),)
            as_given = _loop_ratio_sum(*case, zero_x_as_given=True)
            want = hyp2f1._ratio_sum(*case)
            if x == 0.0 and not math.isfinite(as_given[0]):
                assert not math.isfinite(lane[0]), case
                overflowed += 1
            elif math.isfinite(want[0]):
                assert _bits(lane) == _bits(want), case
                summed += x == 0.0
            else:  # a sum past zero that overflows in earnest serves neither
                assert not math.isfinite(lane[0]), case
    assert overflowed and summed


_REAL_CONNECTION = hyp2f1._connection


def _connection_f1_first(a, b, c, u, log_u):
    """hyp2f1._connection as it was before F2 came first: F1, where the
    body sums it (A has no pole), is summed in full, and its error
    raised, before F2 can hand the route over."""
    a, b = min(a, b), max(a, b)
    s = c - (a + b)

    def f1_first(*args):  # the body's direct series, F2 (c = 1+s) first
        if args[2] == 1.0 + s and all(
                specfun._log_abs_gamma(v)[1] for v in (c - a, c - b)):
            hyp2f1._direct_series(a, b, 1.0 - s, u)
        return hyp2f1._direct_series(*args)

    return _REAL_CONNECTION(a, b, c, u, log_u, f1_first)


def _outcome(p, x):
    try:
        return _bits(tuple(f21(p, x)))
    except (RangeError, ConvergenceError) as e:
        return type(e), str(e)


def _hand_over_cases(rng):
    """Log-route triples, m from -3 to 3 and a, b log-uniform on [1e-3,
    300], and connection-route triples with s up to 2e5, each at x = 1-u
    with u in (0, 1/2)."""
    def lu(lo, hi):
        return math.exp(rng.uniform(math.log(lo), math.log(hi)))
    cases = []
    while len(cases) < 700:
        a, b = lu(1e-3, 300.0), lu(1e-3, 300.0)
        c = a + b + rng.randint(-3, 3)
        if c > max(a, b) and hyp2f1._route(HypParams(a, b, c))[0] == "log":
            cases.append((HypParams(a, b, c), 1.0 - rng.uniform(0.0, 0.5)))
    while len(cases) < 800:
        a, b = lu(1e-3, 30.0), lu(1e-3, 30.0)
        p = HypParams(a, b, a + b + lu(1e-3, 2e5))
        if hyp2f1._route(p)[0] == "connection":
            cases.append((p, 1.0 - rng.uniform(0.0, 0.5)))
    return cases


def test_certain_hand_overs_change_no_result():
    # with the log series' cap lifted and F1 summed before F2, every call
    # returns the same bits, or raises the same error
    real_zb_sum = hyp2f1._zb_sum

    def uncapped(a, b, u, ell, m, from_one=False, cap=math.inf):
        return real_zb_sum(a, b, u, ell, m, from_one)

    cases = _hand_over_cases(random.Random("certain-hand-overs"))
    got = [_outcome(p, x) for p, x in cases]
    with mock.patch.object(hyp2f1, "_zb_sum", uncapped), \
            mock.patch.object(hyp2f1, "_connection", _connection_f1_first):
        want = [_outcome(p, x) for p, x in cases]
    for case, g, w in zip(cases, got, want):
        assert g == w, case
    methods = {g[-1][1] for g in got if isinstance(g[-1], tuple)}
    assert methods >= {"zb_log_series", "connection_series", "direct_series"}


def test_log_series_leaves_at_its_cap():
    # F(20,20;40;0.6) cancels by ~1e15 in the log series, which summed
    # 166 terms before the direct series served
    rows_read = []
    real_falling = hyp2f1._falling

    def counting(m):
        f, fp, rows = real_falling(m)
        return f, fp, (rows_read.append(row) or row for row in rows)

    p = HypParams(20.0, 20.0, 40.0)
    with mock.patch.object(hyp2f1, "_falling", counting):
        r = f21(p, 0.6)
    assert r.method == "direct_series"
    assert 0 < len(rows_read) <= 10


@pytest.mark.parametrize("c", [2000.3, 20000.3, 200000.3])
def test_connection_series_leaves_before_its_first_series(c):
    # F2 = F(c-1/2, c-1/2; c; 0.4) overflows within a few hundred terms,
    # so F1 = F(1/2, 1/2; 2-c; 0.4) and its ~c terms are never summed
    lower = []
    real_ratio_sum = hyp2f1._ratio_sum

    def recording(a, b, cc, x, total):
        lower.append(cc)
        return real_ratio_sum(a, b, cc, x, total)

    p = HypParams(0.5, 0.5, c)
    with mock.patch.object(hyp2f1, "_ratio_sum", recording):
        r = f21(p, 0.6)
    assert r.method == "direct_series"
    s = c - 1.0
    assert 1.0 - s not in lower and 1.0 + s in lower


def _connection_sign_cases():
    """The known case, then seeded draws with a, b log-uniform on [0.01,
    300], s = c-a-b uniform on (-400, -20) and x uniform on (0.5, 0.8),
    where DLMF 15.8.4's F2 can cancel within itself."""
    rng = random.Random("connection-sign")
    cases = [(HypParams(200.25, 150.5, 50.3), 0.6)]
    while len(cases) < 300:
        a = math.exp(rng.uniform(math.log(0.01), math.log(300.0)))
        b = math.exp(rng.uniform(math.log(0.01), math.log(300.0)))
        c = a + b + rng.uniform(-400.0, -20.0)
        x = rng.uniform(0.5, 0.8)
        if c > 0.0:
            cases.append((HypParams(a, b, c), x))
    return cases


def test_positive_parameters_give_f_at_least_one():
    # for a, b, c > 0 every Maclaurin coefficient is positive, so F >= 1
    # on [0, 1): DLMF 15.8.4 served F(200.25, 150.5; 50.3; 0.6) as
    # -1.48e152 where F2 cancelled within itself, with an estimate above
    # |F|, where the direct series gives 8.927e150
    served = 0
    for p, x in _connection_sign_cases():
        r = f21(p, x)
        assert r.value > 0.0 and r.value + r.abs_err_estimate >= 1.0, (p, x)
        many = tuple(f.tolist()[0] for f in f21_many(p, [x]))
        assert _bits(many) == _bits(tuple(r)), (p, x)
        served += r.method == "connection_series"
    assert served > 100


def test_route_bodies_run_at_a_float_and_at_an_array():
    # hyp2f1._zb_log and hyp2f1._connection are the one body of their
    # routes: f21 runs them at a float u, the array forms at an array
    seen = {"_zb_log": [], "_connection": []}

    def recording(name):
        real = getattr(hyp2f1, name)

        def body(*args):
            # u: _zb_log(p, u, ell, m, ...), _connection(a, b, c, u, ...)
            seen[name].append(type(args[1 if name == "_zb_log" else 3]))
            return real(*args)
        return body

    log_p, conn_p = HypParams(0.5, 0.5, 1.0), HypParams(0.3, 0.7, 1.1)
    with mock.patch.object(hyp2f1, "_zb_log", recording("_zb_log")), \
            mock.patch.object(hyp2f1, "_connection",
                              recording("_connection")):
        for p in (log_p, conn_p):
            f21(p, 0.7)
        assert seen == {"_zb_log": [float], "_connection": [float]}
        for p in (log_p, conn_p):
            f21_many(p, [0.6, 0.7])
        pqfun.p_func_many(pqfun.ZeroBalancedPair(0.5, 0.5), [1.0, 2.0])
        pqfun.m_func_many(0.3, 0.7, 1.1, [0.2, 0.3])
    assert seen["_zb_log"][1:] == [np.ndarray] * 2
    assert seen["_connection"][1:] == [np.ndarray] * 3
