"""Gamma-family scalar kernels against frozen high-precision references.

Reference literals are 17-digit truncations of 50-digit evaluations of
the defining formulas; they were computed once and must not be
regenerated from the implementation under test.
"""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from punctmetric import specfun
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
])
def test_overflow_is_a_range_error(call):
    with pytest.raises(RangeError):
        call()
