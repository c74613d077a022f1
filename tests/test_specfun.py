"""Gamma-family scalar kernels against frozen high-precision references.

Reference literals are 17-digit truncations of 50-digit evaluations of
the defining formulas; they were computed once and must not be
regenerated from the implementation under test.
"""

import math
import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from punctmetric import (bounds, elliptic, hyp2f1, metric, pqfun, specfun,
                         verify)
from punctmetric.errors import DomainError, RangeError


@pytest.mark.parametrize("x,want", [
    (0.25, 3.6256099082219083),
    (1.5, 0.88622692545275801),
    (10.3, 716430.68906237524),
])
def test_gamma_reference(x, want):
    assert specfun.gamma(x) == pytest.approx(want, rel=1e-14)


@pytest.mark.parametrize("x", [0.3, 2.5, 171.2, -0.5, -1.5, -2.5, -7.25])
def test_log_abs_gamma_matches_gamma(x):
    log_abs, sign = specfun.log_abs_gamma(x)
    assert sign * math.exp(log_abs) == pytest.approx(math.gamma(x), rel=1e-13)


@pytest.mark.parametrize("x", [0.0, -1.0, -4.0, -1e300])
def test_log_abs_gamma_poles(x):
    # sign 0: the reciprocal gamma vanishes at the poles
    assert specfun.log_abs_gamma(x) == (math.inf, 0)


@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
def test_log_abs_gamma_rejects_non_finite(x):
    with pytest.raises(DomainError):
        specfun.log_abs_gamma(x)


def test_gamma_half():
    assert specfun.gamma(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-15)


def test_log_gamma_reference():
    assert specfun.log_gamma(17.25) == pytest.approx(31.374622313677686,
                                                     rel=1e-14)


def test_log_gamma_consistent_with_gamma():
    for x in (0.1, 0.75, 3.0, 20.0):
        assert math.exp(specfun.log_gamma(x)) == pytest.approx(
            specfun.gamma(x), rel=1e-13)


@given(st.floats(0.05, 40.0))
def test_gamma_recurrence(x):
    assert specfun.gamma(x + 1.0) == pytest.approx(x * specfun.gamma(x),
                                                   rel=1e-12)


def test_digamma_reference():
    assert specfun.digamma(0.3) == pytest.approx(-3.502524222200133, rel=1e-14)
    assert specfun.digamma(7.7) == pytest.approx(1.9748820949131018, rel=1e-14)


def test_digamma_special_points():
    assert specfun.digamma(1.0) == pytest.approx(-specfun.EULER_GAMMA,
                                                 rel=1e-14)
    # psi(1/2) = -gamma_E - 2 log 2
    assert specfun.digamma(0.5) == pytest.approx(
        -specfun.EULER_GAMMA - 2.0 * math.log(2.0), rel=1e-14)


@given(st.floats(0.05, 60.0))
def test_digamma_recurrence(x):
    # abs fallback: psi has a zero near 1.46 where rel comparison is moot
    assert specfun.digamma(x + 1.0) == pytest.approx(
        specfun.digamma(x) + 1.0 / x, rel=1e-12, abs=1e-13)


def test_beta_reference():
    assert specfun.beta(0.3, 2.4) == pytest.approx(2.4056899973916949,
                                                   rel=1e-14)
    assert specfun.beta(0.5, 0.5) == pytest.approx(math.pi, rel=1e-14)


@given(st.floats(0.1, 20.0), st.floats(0.1, 20.0))
def test_beta_symmetry(a, b):
    assert specfun.beta(a, b) == specfun.beta(b, a)


def test_ramanujan_reference():
    assert specfun.ramanujan_r(0.3, 0.7) == pytest.approx(3.5681164460950019,
                                                          rel=1e-14)


def test_ramanujan_half_pair_is_log16():
    assert specfun.ramanujan_r(0.5, 0.5) == pytest.approx(math.log(16.0),
                                                          rel=1e-15)


@pytest.mark.parametrize("bad", [0.0, -1.0, math.inf, math.nan])
def test_positive_domain_enforced(bad):
    for fn in (specfun.gamma, specfun.log_gamma, specfun.digamma):
        with pytest.raises(DomainError):
            fn(bad)
    with pytest.raises(DomainError):
        specfun.beta(bad, 1.0)
    with pytest.raises(DomainError):
        specfun.ramanujan_r(1.0, bad)


@pytest.mark.parametrize("call", [
    lambda: specfun.gamma(172.0),
    lambda: specfun.log_gamma(1e307),
    lambda: specfun.beta(1e306, 1.5),    # lgamma(1e306) overflows
    lambda: specfun.beta(1e-310, 1.0),   # B ~ 1e310
    lambda: specfun.digamma(5.5e-309),   # psi ~ -1/x
    lambda: specfun.digamma(1e-310),
    lambda: specfun.ramanujan_r(1e-310, 1.0),
])
def test_overflow_is_a_range_error(call):
    with pytest.raises(RangeError):
        call()


BIG = 10 ** 400  # an int that float() refuses with OverflowError


def _big_calls():
    p, pr = hyp2f1.HypParams(0.5, 0.5, 1.0), pqfun.ZeroBalancedPair(0.5, 0.7)
    return [
        ("a", lambda: hyp2f1.HypParams(BIG, 1.0, 2.0)),
        ("c", lambda: hyp2f1.HypParams(1.0, 1.0, BIG)),
        ("b", lambda: pqfun.ZeroBalancedPair(1.0, BIG)),
        ("lo", lambda: verify.GridSpec(BIG, 1.0, 5)),
        ("hi", lambda: verify.GridSpec(0.0, BIG, 5)),
        ("x", lambda: hyp2f1.f21(p, BIG)),
        ("x", lambda: hyp2f1.f21_derivative(p, BIG)),
        ("x", lambda: hyp2f1.f21_minus_one(0.5, 0.5, 1.0, BIG)),
        ("u", lambda: hyp2f1.f21_from_complement(p, BIG, 1.0)),
        ("minus_log_u", lambda: hyp2f1.f21_from_complement(p, 0.25, BIG)),
        ("u", lambda: hyp2f1.zb_complement_sums(0.5, 0.5, BIG)),
        ("a", lambda: hyp2f1.zb_complement_sums(BIG, 0.5, 0.3)),
        ("b", lambda: hyp2f1.zb_complement_sums_many(0.5, BIG, [0.3])),
        ("t", lambda: metric.h(BIG)),
        ("t", lambda: metric.big_h(BIG)),
        ("t", lambda: metric.big_h_prime(BIG)),
        ("t", lambda: metric.varphi(BIG)),
        ("value", lambda: metric.varphi_error(BIG)),
        ("x", lambda: metric.lambda01_neg(BIG)),
        ("x", lambda: metric.phi_func(BIG)),
        ("x", lambda: metric.d01_neg(1.0, BIG)),
        ("x", lambda: elliptic.agm(BIG, 1.0)),
        ("y", lambda: elliptic.agm(1.0, BIG)),
        ("r", lambda: elliptic.ellip_k(BIG)),
        ("r", lambda: elliptic.mu(BIG)),
        ("c", lambda: bounds.ring_coefficients(BIG)),
        ("c", lambda: bounds.baseline_bounds(BIG)),
        ("c", lambda: bounds.ring_lower_bound(BIG, 1.0, 2.0)),
        ("r1", lambda: bounds.ring_lower_bound(0.5, BIG, 2.0)),
        ("r2", lambda: bounds.ring_lower_bound(0.5, 1.0, BIG)),
        ("r1", lambda: bounds.ring_gap([0, 1, 2], BIG)),
        ("t", lambda: pqfun.p_func(pr, BIG)),
        ("t", lambda: pqfun.p_prime(pr, BIG)),
        ("t", lambda: pqfun.q_func(pr, BIG)),
        ("t", lambda: pqfun.q_log(pr, BIG)),
        ("t", lambda: pqfun.q_log_prime(pr, BIG)),
        ("t", lambda: pqfun.slope_g(pr, BIG)),
        ("t", lambda: pqfun.p_excess(pr, BIG)),
        ("t", lambda: pqfun.q_excess(pr, BIG)),
        ("x", lambda: pqfun.n_func(0.5, 0.5, 1.0, BIG)),
        ("a", lambda: pqfun.n_func(BIG, 0.5, 1.0, 0.5)),
        ("x", lambda: pqfun.m_func(0.5, 0.5, 1.0, BIG)),
        ("x", lambda: specfun.log_gamma(BIG)),
        ("x", lambda: specfun.gamma(BIG)),
        ("x", lambda: specfun.digamma(BIG)),
        ("b", lambda: specfun.beta(1.0, BIG)),
        ("x", lambda: specfun.log_abs_gamma(BIG)),
        (r"points\[1\]", lambda: metric.h_many([1.0, BIG])),
        (r"points\[0\]", lambda: metric.varphi_many([BIG])),
        (r"points\[2\]", lambda: hyp2f1.f21_many(p, [0.5, 0.25, BIG])),
        (r"points\[0\]", lambda: pqfun.p_func_many(pr, [BIG])),
        ("tol", lambda: verify.run_check("lem_vaman_1", tol=BIG)),
        ("s_hi", lambda: verify.run_check("thm_main2_subadd",
                                          params={"s_hi": BIG})),
    ]


@pytest.mark.parametrize("name, call", _big_calls())
def test_ints_past_the_float_range_raise_domain_errors(name, call):
    with pytest.raises(DomainError,
                       match=rf"^{name} must be a real number in the float "
                             r"range, got 1000"):
        call()


def test_ints_too_long_for_a_decimal_string_are_domain_errors():
    huge = 10 ** 5000  # past the default 4300-digit limit of repr(int)
    with pytest.raises(DomainError, match="got an int of 16610 bits$"):
        specfun.to_float(huge, "x")
    with pytest.raises(DomainError, match="got an int of 16610 bits$"):
        bounds.PuncturedDomain([0, huge])


def test_to_float_names_what_it_refuses():
    assert specfun.to_float(3, "x") == 3.0
    assert math.isnan(specfun.to_float("nan", "x"))
    for bad, label in ((None, "y"), ("abc", "y"), (1j, "y"),
                       (BIG, "y[4]")):
        with pytest.raises(DomainError, match=rf"^{re.escape(label)} must "):
            specfun.to_float(bad, "y", 4 if label.endswith("]") else None)
