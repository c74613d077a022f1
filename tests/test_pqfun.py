"""Logistic-scale products and quotients of zero-balanced hypergeometric
functions: frozen references, parity, derivative cross-checks, and the
cancellation-free asymptotic defects.
"""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from punctmetric import pqfun, specfun
from punctmetric.errors import DomainError, RangeError

HALF = pqfun.ZeroBalancedPair(0.5, 0.5)
B_HALF = math.pi          # B(1/2, 1/2)
R_HALF = math.log(16.0)   # R(1/2, 1/2)

ts = st.floats(-40.0, 40.0)


def test_frozen_references():
    assert pqfun.p_func(HALF, 0.0) == pytest.approx(1.3932039296856769,
                                                    rel=1e-14)
    assert pqfun.p_func(HALF, 0.7) == pytest.approx(1.4264486851343147,
                                                    rel=1e-14)
    assert pqfun.p_prime(HALF, 0.7) == pytest.approx(0.093555247342590285,
                                                     rel=1e-13)
    assert pqfun.q_func(HALF, 1.3) == pytest.approx(1.3355691881157589,
                                                    rel=1e-14)
    assert pqfun.q_log(HALF, 2.0) == pytest.approx(0.43152507489151827,
                                                   rel=1e-13)
    assert pqfun.q_log_prime(HALF, 1.1) == pytest.approx(
        0.21601624064748954, rel=1e-13)
    assert pqfun.p_excess(HALF, 5.0) == pytest.approx(0.0093907073131223205,
                                                      rel=1e-13)
    assert pqfun.q_excess(HALF, 5.0) == pytest.approx(0.0010694537722691297,
                                                      rel=1e-13)


@given(ts)
def test_p_even_p_prime_odd(t):
    assert pqfun.p_func(HALF, -t) == pqfun.p_func(HALF, t)
    assert pqfun.p_prime(HALF, -t) == -pqfun.p_prime(HALF, t)


@given(ts)
def test_q_inversion(t):
    # numerator and denominator literally swap: the product is 1 up to
    # the rounding of two divisions and one multiply
    assert pqfun.q_func(HALF, t) * pqfun.q_func(HALF, -t) == pytest.approx(
        1.0, abs=1e-15)
    assert pqfun.q_log(HALF, -t) == pytest.approx(-pqfun.q_log(HALF, t),
                                                  abs=5e-15)


@given(ts)
def test_q_log_prime_even_positive(t):
    d = pqfun.q_log_prime(HALF, t)
    assert d > 0.0
    assert pqfun.q_log_prime(HALF, -t) == d


def test_excess_matches_naive_difference_at_moderate_t():
    # the dedicated forms must agree with the direct subtraction where
    # the subtraction still has digits left
    for t in (0.0, 0.5, 2.0, 8.0):
        naive_p = pqfun.p_func(HALF, t) - (abs(t) + R_HALF) / B_HALF
        assert pqfun.p_excess(HALF, t) == pytest.approx(naive_p, rel=1e-10)
    for t in (0.0, 0.5, 2.0, 8.0):
        naive_q = pqfun.q_func(HALF, t) - (t + R_HALF) / B_HALF
        assert pqfun.q_excess(HALF, t) == pytest.approx(naive_q, rel=1e-9)


def test_excess_far_beyond_float_cancellation():
    # at t = 100 the defect is ~4e-43: the naive subtraction returns
    # garbage, the stable form keeps full relative accuracy
    pe = pqfun.p_excess(HALF, 100.0)
    assert 0.0 < pe < 1e-40
    qe = pqfun.q_excess(HALF, 100.0)
    assert 0.0 < qe < 1e-40
    assert pqfun.p_excess(HALF, 700.0) > 0.0


def test_excess_decreasing():
    grid = [0.0, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0]
    pes = [pqfun.p_excess(HALF, t) for t in grid]
    qes = [pqfun.q_excess(HALF, t) for t in grid]
    assert all(a > b > 0.0 for a, b in zip(pes, pes[1:]))
    assert all(a > b > 0.0 for a, b in zip(qes, qes[1:]))


def test_q_excess_requires_nonnegative_t():
    with pytest.raises(DomainError):
        pqfun.q_excess(HALF, -1.0)


def test_p_prime_matches_central_difference():
    for t in (-6.0, -1.1, 0.4, 2.5, 9.0):
        step = 1e-5
        num = (pqfun.p_func(HALF, t + step)
               - pqfun.p_func(HALF, t - step)) / (2.0 * step)
        assert pqfun.p_prime(HALF, t) == pytest.approx(num, abs=1e-9)


def test_q_log_prime_matches_central_difference():
    for t in (-3.0, 0.0, 1.7, 5.0):
        step = 1e-5
        num = (pqfun.q_log(HALF, t + step)
               - pqfun.q_log(HALF, t - step)) / (2.0 * step)
        assert pqfun.q_log_prime(HALF, t) == pytest.approx(num, abs=1e-9)


def test_p_prime_strictly_inside_slope_bound():
    # capped at t = 20: past that the analytic gap to 1/pi drops under
    # one ulp and strictness is no longer a float-decidable question
    for t in (0.0, 0.5, 3.0, 10.0, 20.0):
        assert abs(pqfun.p_prime(HALF, t)) < 1.0 / B_HALF


def test_slope_function():
    # G is odd, strictly increasing, and bounded by 1/B
    grid = [-20.0, -5.0, -1.0, -0.1, 0.1, 1.0, 5.0, 20.0]
    vals = [pqfun.slope_g(HALF, t) for t in grid]
    assert all(a < b for a, b in zip(vals, vals[1:]))
    assert all(abs(v) < 1.0 / B_HALF for v in vals)
    for t in (0.3, 2.0):
        assert pqfun.slope_g(HALF, -t) == pytest.approx(
            -pqfun.slope_g(HALF, t), rel=1e-13)
    with pytest.raises(DomainError):
        pqfun.slope_g(HALF, 0.0)


def test_asymptotic_slope():
    # P(t) ~ (|t| + R)/B: by t = 40 the true defect is ~1e-16, so what
    # remains after the naive subtraction is rounding of the ~43-sized
    # intermediates (a few e-15)
    t = 40.0
    assert B_HALF * pqfun.p_func(HALF, t) - t - R_HALF == pytest.approx(
        0.0, abs=5e-14)
    assert B_HALF * pqfun.p_prime(HALF, t) == pytest.approx(1.0, abs=5e-14)


def test_n_func_reference_and_symmetry():
    assert pqfun.n_func(0.5, 0.5, 1.0, 0.3) == pytest.approx(
        0.22080707171773114, rel=1e-13)
    for a, b, c, x in ((0.5, 0.5, 1.0, 0.23), (0.25, 0.5, 1.2, 0.4),
                       (1.0, 1.0, 2.5, 0.09)):
        assert pqfun.n_func(a, b, c, 1.0 - x) == pytest.approx(
            pqfun.n_func(a, b, c, x), rel=1e-13)


def test_n_func_is_q_log_derivative():
    # q'(t) = N(x(t)) with x = e^t/(1+e^t)
    for t in (0.0, 0.8, 2.2):
        x = 1.0 / (1.0 + math.exp(-t))
        assert pqfun.q_log_prime(HALF, t) == pytest.approx(
            pqfun.n_func(0.5, 0.5, 1.0, x), rel=1e-12)


def test_n_func_constant_degenerate_case():
    # max(a,b) = c collapses N to the constant min(a,b)
    for x in (0.1, 0.5, 0.9):
        assert pqfun.n_func(0.5, 1.0, 1.0, x) == pytest.approx(0.5, rel=1e-12)


def test_m_func_reference_and_constant_case():
    got = pqfun.m_func(0.5, 0.5, 1.0, 0.3)
    assert got == pytest.approx(0.31830988618379067, rel=1e-13)
    # for the (1/2, 1/2) pair M is identically 1/B = 1/pi
    for x in (0.02, 0.37, 0.5, 0.93):
        assert pqfun.m_func(0.5, 0.5, 1.0, x) == pytest.approx(
            1.0 / math.pi, rel=1e-12)


def test_m_func_symmetric_generic_params():
    for x in (0.15, 0.4):
        assert pqfun.m_func(0.7, 1.1, 2.0, 1.0 - x) == pytest.approx(
            pqfun.m_func(0.7, 1.1, 2.0, x), rel=1e-13)


def test_endpoint_stability():
    # the zero-balanced route has no 1/(1-x) blow-up: x within 1e-300 of
    # an endpoint is fine
    tiny = 1e-300
    assert pqfun.n_func(0.5, 0.5, 1.0, tiny) > 0.0
    assert pqfun.m_func(0.5, 0.5, 1.0, 1.0 - 1e-16) == pytest.approx(
        1.0 / math.pi, rel=1e-11)


def test_domain_validation():
    with pytest.raises(DomainError):
        pqfun.ZeroBalancedPair(0.0, 1.0)
    with pytest.raises(DomainError):
        pqfun.ZeroBalancedPair(0.5, -0.5)
    with pytest.raises(DomainError):
        pqfun.p_func(pqfun.ZeroBalancedPair(2.0, 3.0), 1.0)  # ab >= a+b
    with pytest.raises(DomainError):
        pqfun.n_func(1.5, 0.5, 1.0, 0.5)                     # a > c
    with pytest.raises(DomainError):
        pqfun.n_func(0.5, 0.5, 1.0, 0.0)
    with pytest.raises(DomainError):
        pqfun.p_func(HALF, math.inf)


def test_overflowing_beta_is_a_range_error():
    with pytest.raises(RangeError):
        pqfun.q_excess(pqfun.ZeroBalancedPair(1e306, 1.0), 1.0)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("fn, many, a, b, match", [
    # C - 1 and D1 overflow where v and P stay finite
    (pqfun.p_excess, pqfun.p_excess_many, 1e8, 1.0, "sums at u=.* overflow"),
    (pqfun.q_excess, pqfun.q_excess_many, 2.0, 1e8, "sums at u=.* overflow"),
    # B(a, b) underflows to 0, and q_excess divides by it
    (pqfun.q_excess, pqfun.q_excess_many, 50.0, 1e8,
     r"B\(50.0, 100000000.0\) underflows to 0"),
])
def test_excess_functions_raise_range_errors(fn, many, a, b, match):
    pr = pqfun.ZeroBalancedPair(a, b)
    with pytest.raises(RangeError, match=match):
        fn(pr, 0.5)
    with pytest.raises(RangeError, match=match):
        many(pr, [0.5, 0.25])


def _mp_n_and_m(a, b, c, x):
    """N(x) and M(x) from mpmath, with enough digits that 1 - x is exact."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40 + int(-math.log10(x))):
        x = mpmath.mpf(x)
        y = 1 - x

        def v(z):
            return mpmath.hyp2f1(a, b, c, z)

        def dv(z):
            return mpmath.mpf(a) * b / c * mpmath.hyp2f1(a + 1, b + 1, c + 1, z)

        return (x * y * (dv(x) / v(x) + dv(y) / v(y)),
                x * y * (dv(x) * v(y) + v(x) * dv(y)))


@pytest.mark.parametrize("abc,k_max", [((0.9, 1.1, 2.6), 300),
                                       ((1.0, 1.0, 1.5), 100),
                                       ((1.0, 1.0, 4.0), 300)])
def test_n_and_m_at_tiny_x_against_mpmath(abc, k_max):
    # c != a+b: v and v' at 1-x come from x itself through the complement
    # routes, never from 1-x (2e-9 relative error at x = 1e-8 when they
    # did, and a DomainError naming 1.0 once 1-x rounded to 1); at
    # (1, 1, 1.5) v' at 1-x overflows below x ~ 1e-205; at (1, 1, 4),
    # c-a-b = 2 and 1, both take the log series
    xs = [10.0 ** -k for k in (4, 8, 13, 16, 17, 30, 100, 300) if k <= k_max]
    ns, ms = pqfun.n_func_many(*abc, xs), pqfun.m_func_many(*abc, xs)
    for x, n_many, m_many in zip(xs, ns.tolist(), ms.tolist()):
        n, m = pqfun.n_func(*abc, x), pqfun.m_func(*abc, x)
        assert (n, m) == (n_many, m_many)
        n_ref, m_ref = _mp_n_and_m(*abc, x)
        assert abs(n - n_ref) <= 2e-13 * abs(n_ref)
        assert abs(m - m_ref) <= 2e-13 * abs(m_ref)


@pytest.mark.parametrize("x", [1e-17, 1e-300])
def test_n_and_m_name_the_callers_x_where_no_route_serves(x):
    # c-a-b = 201 is past the log series' MAX_TERMS_LOG: only the direct
    # series sums v(1-x), and 1-x rounds to 1
    for fn in (pqfun.n_func, pqfun.m_func, pqfun.n_func_many,
               pqfun.m_func_many):
        with pytest.raises(RangeError, match=f"u={x!r}"):
            fn(1.0, 1.0, 203.0, [x] if fn.__name__.endswith("many") else x)
    # at c = b, v(1-x) = 1/x in closed form: N = 1 and M = 1/x + 1/(1-x)
    if x == 1e-17:
        assert pqfun.n_func(1.0, 2.0, 2.0, x) == pytest.approx(1.0, rel=1e-15)
        assert pqfun.m_func(1.0, 2.0, 2.0, x) == pytest.approx(1e17,
                                                               rel=1e-15)


def test_q_func_at_large_parameters_against_mpmath():
    # the log series of v(1-x) cancels by ~1e24 at a = b = 50 and hands
    # over to the direct series; it returned -1.6e24 where Q ~ +1.37e21
    mpmath = pytest.importorskip("mpmath")
    got = pqfun.q_func(pqfun.ZeroBalancedPair(50.0, 50.0), 3.0)
    with mpmath.workdps(60):
        lo = 1 / (1 + mpmath.exp(3))
        want = mpmath.hyp2f1(50, 50, 100, 1 - lo) / mpmath.hyp2f1(
            50, 50, 100, lo)
    assert abs(got - want) <= 1e-12 * want


@pytest.mark.parametrize("a,b,t", [(0.5, 1e300, 15.0), (1e306, 0.5, 1.0)])
def test_pair_whose_sum_rounds_to_one_of_them(a, b, t):
    # a + b rounds to b (or a): v = F(a,b;b;.) = (1-y)^-a takes the power
    # route.  At (0.5, 1e300) the m = 0 log series overflowed and its
    # hand-over ran 1e6 direct terms and raised ConvergenceError; at
    # (1e306, 0.5) B(a, b) overflowed, a RangeError
    pr = pqfun.ZeroBalancedPair(a, b)
    # P = v(x) v(1-x) = (x (1-x))^-1/2 = e^{t/2} (1 + e^-t)
    want = math.exp(0.5 * t) * (1.0 + math.exp(-t))
    got = pqfun.p_func(pr, t)
    assert got == pytest.approx(want, rel=1e-14)
    assert pqfun.p_func_many(pr, [t, -t]).tolist() == [got, got]
