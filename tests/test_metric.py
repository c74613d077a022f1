"""Density and distance quantities of the twice-punctured plane.

Frozen literals are 17-digit truncations of 50-digit evaluations of
the elliptic-integral formulas.
"""

import math
import sys
from unittest import mock

import pytest
from hypothesis import given
from hypothesis import strategies as st

from punctmetric import elliptic, hyp2f1, metric, pqfun, specfun
from punctmetric.errors import DomainError, RangeError

HALF = pqfun.ZeroBalancedPair(0.5, 0.5)


def test_c0_value():
    assert metric.c0() == pytest.approx(4.3768792304529533, rel=1e-15)
    want = math.gamma(0.25) ** 4 / (4.0 * math.pi ** 2)
    assert metric.c0() == want


def test_lambda01_neg_references():
    assert metric.lambda01_neg(2.5) == pytest.approx(0.043917958608269372,
                                                     rel=1e-14)
    assert metric.lambda01_neg(1.0) == pytest.approx(0.11423664526111591,
                                                     rel=1e-14)
    # the value at -1 is 1/(2 C0)
    assert metric.lambda01_neg(1.0) == pytest.approx(
        1.0 / (2.0 * metric.c0()), rel=1e-14)


def test_lambda01_neg_against_mpmath(lambda01_ref):
    # these x put one modulus r within 1e-9 of 1 or 0, where K(r) from
    # floats loses digits; the density must keep full precision anyway
    for x in (1e-12, 1e9, 3.7e11, 1e12, 1e300):
        want = lambda01_ref(x)
        assert abs(metric.lambda01_neg(x) - want) <= 1e-14 * want


def test_lambda01_neg_decreasing():
    xs = [0.05 * k for k in range(1, 200)]
    vals = [metric.lambda01_neg(x) for x in xs]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_phi_references():
    assert metric.phi_func(0.35) == pytest.approx(-0.11785891114028277,
                                                  rel=1e-13)
    assert metric.phi_func(1.0) == 0.0


@given(st.floats(1e-6, 1e6))
def test_phi_inversion_antisymmetry(x):
    assert metric.phi_func(1.0 / x) == pytest.approx(-metric.phi_func(x),
                                                     rel=1e-12, abs=1e-13)


def test_phi_increasing():
    xs = [0.1, 0.3, 0.9, 1.0, 1.5, 4.0, 30.0]
    vals = [metric.phi_func(x) for x in xs]
    assert all(a < b for a, b in zip(vals, vals[1:]))


def test_d01_reference_and_metric_axioms():
    assert metric.d01_neg(0.8, 3.1) == pytest.approx(0.15214825971514327,
                                                     rel=1e-13)
    assert metric.d01_neg(2.0, 2.0) == 0.0
    assert metric.d01_neg(0.5, 3.0) == metric.d01_neg(3.0, 0.5)


@given(st.floats(0.01, 100.0), st.floats(0.01, 100.0),
       st.floats(0.01, 100.0))
def test_d01_triangle_on_the_axis(x, y, z):
    # on the negative axis the distance is |Phi(x) - Phi(y)|, so the
    # triangle inequality holds with float slack only
    dxz = metric.d01_neg(x, z)
    assert dxz <= metric.d01_neg(x, y) + metric.d01_neg(y, z) + 1e-14


def test_h_reference_and_shape():
    assert metric.h(1.7) == pytest.approx(0.10096302845288598, rel=1e-14)
    assert metric.h(0.0) == pytest.approx(1.0 / (2.0 * metric.c0()),
                                          rel=1e-14)
    ts = [0.0, 0.4, 1.0, 3.0, 10.0, 100.0, 650.0]
    vals = [metric.h(t) for t in ts]
    assert all(a > b > 0.0 for a, b in zip(vals, vals[1:]))


@given(st.floats(-700.0, 700.0))
def test_h_even(t):
    assert metric.h(-t) == metric.h(t)


def test_h_is_scaled_density():
    # h(t) = e^t lambda01(-e^t)
    for t in (-2.0, 0.3, 5.0):
        x = math.exp(t)
        assert metric.h(t) == pytest.approx(x * metric.lambda01_neg(x),
                                            rel=1e-13)


def test_t_h_product_bound():
    # t h(t) increases to 1/2 and never reaches it
    for t in (1.0, 10.0, 100.0, 700.0):
        assert 0.0 < t * metric.h(t) < 0.5


def test_big_h_reference():
    assert metric.big_h(2.2) == pytest.approx(10.589873116827565, rel=1e-14)
    assert metric.big_h(0.0) == pytest.approx(2.0 * metric.c0(), rel=1e-14)


def test_big_h_is_scaled_p():
    # H(t) = 2 pi P(t) for the (1/2, 1/2) pair: AGM route vs series route
    for t in (0.0, 0.9, 3.3, 20.0, 300.0):
        want = 2.0 * math.pi * pqfun.p_func(HALF, t)
        assert metric.big_h(t) == pytest.approx(want, rel=1e-11)


def test_big_h_prime():
    for t in (-5.0, -0.7, 0.0, 1.3, 8.0):
        step = 1e-5
        num = (metric.big_h(t + step) - metric.big_h(t - step)) / (2.0 * step)
        assert metric.big_h_prime(t) == pytest.approx(num, abs=1e-8)
    assert metric.big_h_prime(0.0) == 0.0
    for t in (0.5, 2.0, 30.0):
        assert 0.0 < metric.big_h_prime(t) < 2.0
        assert metric.big_h_prime(-t) == -metric.big_h_prime(t)


def test_varphi_reference_and_identity():
    assert metric.varphi(5.5) == pytest.approx(0.56974394137474444, rel=1e-13)
    # varphi(t) = 2 Phi(e^{t/2}): series route vs AGM route
    for t in (0.2, 1.0, 6.0, 40.0):
        want = 2.0 * metric.phi_func(math.exp(0.5 * t))
        assert metric.varphi(t) == pytest.approx(want, rel=1e-12)


def test_varphi_within_its_error_bound(varphi_ref):
    switch = 2.0 * metric.VARPHI_CLOSED_S
    ts = [10.0 ** (k / 8.0) for k in range(-13 * 8, 4 * 8 + 1)]
    ts += [math.nextafter(switch, 0.0), switch, math.nextafter(switch, 1e3),
           1488.5, 1489.0, 1489.5, 1e5, 1e300]
    worst = 0.0
    for t in ts:
        got = metric.varphi(t)
        err = abs(got - varphi_ref(t))
        assert err <= metric.varphi_error(got), t
        worst = max(worst, float(err) / metric.varphi_error(got))
    # the largest error seen was 1.6 eps (1 + |phi|): the bound keeps a
    # fourfold margin
    assert worst <= 0.25


def test_varphi_taylor_coefficients_against_mpmath():
    # below VARPHI_TAYLOR_T varphi is c1 t + c3 t^3 + c5 t^5 + c7 t^7,
    # c1 = h(0) = 2 pi^2 / Gamma(1/4)^4
    mpmath = pytest.importorskip("mpmath")

    def phi(t):
        w = mpmath.exp(-t / 4)
        root = mpmath.sqrt(1 + w * w)
        return mpmath.log(mpmath.agm(1, 1 / root) / mpmath.agm(1, w / root))

    with mpmath.workdps(50):
        coeffs = mpmath.taylor(phi, 0, 7)
        h0 = 2 * mpmath.pi ** 2 / mpmath.gamma(0.25) ** 4
    assert metric._VARPHI_TAYLOR == tuple(float(c) for c in coeffs[1::2])
    assert metric._VARPHI_TAYLOR[0] == float(h0)
    assert metric.VARPHI_TAYLOR_T < 0.05  # below the verify and figure1 grids


def test_varphi_relative_accuracy_at_small_t():
    # the log of an AGM quotient near 1 kept only ~eps absolute: varphi
    # had relative error 1e-3 at t = 1e-12 and was 0.0 at t = 1e-300
    mpmath = pytest.importorskip("mpmath")
    ts = [10.0 ** (-k / 4.0) for k in range(6, 1201, 7)] + [1e-300, 5e-324]
    ts += [math.nextafter(metric.VARPHI_TAYLOR_T, 0.0),
           metric.VARPHI_TAYLOR_T]
    many = metric.varphi_many(ts)
    for t, got_many in zip(ts, many.tolist()):
        got = metric.varphi(t)
        assert got == got_many
        with mpmath.workdps(40 + int(-math.log10(t))):
            w = mpmath.exp(-mpmath.mpf(t) / 4)
            root = mpmath.sqrt(1 + w * w)
            ref = mpmath.log(mpmath.agm(1, 1 / root) / mpmath.agm(1, w / root))
        assert abs(got - ref) <= metric.varphi_error(got), t
        if t < metric.VARPHI_TAYLOR_T and got > 1e-300:
            assert abs(got - ref) <= 4.0 * sys.float_info.epsilon * ref, t


def test_varphi_asymptote():
    # varphi(t) - log t -> -log(2 pi)
    t = 1e6
    assert metric.varphi(t) - math.log(t) == pytest.approx(
        -math.log(2.0 * math.pi), abs=1e-4)


def test_varphi_increasing_slope_decreasing():
    ts = [0.05, 0.2, 1.0, 4.0, 20.0, 200.0]
    vals = [metric.varphi(t) for t in ts]
    assert all(a < b for a, b in zip(vals, vals[1:]))
    ratios = [v / t for v, t in zip(vals, ts)]
    assert all(a > b for a, b in zip(ratios, ratios[1:]))


def test_hempel_sandwich_direct():
    # 1/(t + C0) < 2 h(t) < 1/(t + log 16) at moderate t, direct floats
    c0 = metric.c0()
    for t in (0.5, 2.0, 10.0, 30.0):
        two_h = 2.0 * metric.h(t)
        assert 1.0 / (t + c0) < two_h < 1.0 / (t + math.log(16.0))


def test_lower_bound_wrappers():
    assert metric.lambda01_lower(-1.0 + 0.0j) == pytest.approx(
        metric.lambda01_neg(1.0), rel=1e-15)
    assert metric.lambda01_lower(1j) == metric.lambda01_neg(1.0)
    assert metric.d01_lower(2j, -5.0) == metric.d01_neg(2.0, 5.0)
    with pytest.raises(DomainError):
        metric.lambda01_lower(0.0j)
    with pytest.raises(DomainError):
        metric.lambda01_lower(1.0 + 0.0j)
    with pytest.raises(DomainError):
        metric.d01_lower(0.5, 1.0 + 0.0j)
    # finite parts whose modulus overflows: abs() raises OverflowError
    big = complex(1.5e308, 1.5e308)
    with pytest.raises(RangeError, match=r"\|z\| overflows"):
        metric.lambda01_lower(big)
    with pytest.raises(RangeError, match=r"\|z\| overflows"):
        metric.d01_lower(big, 2.0)
    with pytest.raises(RangeError, match=r"\|w\| overflows"):
        metric.d01_lower(2.0, big)
    # what complex() refuses is no point of the plane
    for bad in (None, "x", [1]):
        with pytest.raises(DomainError, match="z must be a finite complex"):
            metric.lambda01_lower(bad)
        with pytest.raises(DomainError, match="w must be a finite complex"):
            metric.d01_lower(2.0, bad)


@pytest.mark.parametrize("call, args", (
    (metric.h, (0.3,)), (metric.h, (-40.0,)), (metric.big_h, (2.5,)),
    (metric.varphi, (3.0,)), (metric.varphi, (0.01,)),
    (metric.phi_func, (3.0,)), (metric.lambda01_neg, (2.0,)),
    (metric.lambda01_neg, (1e-300,)), (elliptic.ellip_k, (0.5,)),
    (elliptic.mu, (0.3,)), (elliptic.agm, (1.0, 0.3)),
))
def test_kernels_convert_their_own_arguments_only(call, args):
    # the AGMs inside run on elliptic's unchecked core, so a public call
    # converts and checks its arguments and nothing it made itself
    with mock.patch.object(specfun, "to_float",
                           wraps=specfun.to_float) as to_float:
        call(*args)
    assert to_float.call_count == len(args)


@pytest.mark.parametrize("p, x", (
    (hyp2f1.HypParams(0.5, 0.5, 1.0), 0.3),     # direct series
    (hyp2f1.HypParams(0.5, 0.5, 1.0), 0.9),     # log series, m = 0
    (hyp2f1.HypParams(1.5, 1.5, 2.0), 0.9),     # log series, m = -1
    (hyp2f1.HypParams(20.0, 20.0, 40.0), 0.6),  # log series handed over
    (hyp2f1.HypParams(0.3, 0.7, 1.1), 0.9),     # connection formula
    (hyp2f1.HypParams(1.0, 2.0, 2.0), 0.9),     # power route
))
def test_f21_converts_its_x_only(p, x):
    # past 1/2 f21 runs the unchecked core of f21_from_complement, and
    # the log and connection routes the cores of specfun's kernels
    with mock.patch.object(specfun, "to_float",
                           wraps=specfun.to_float) as to_float:
        hyp2f1.f21(p, x)
    assert to_float.call_count == 1


def test_varphi_error_refuses_what_varphi_never_returns():
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(DomainError, match="^value must be finite"):
            metric.varphi_error(bad)
    # 10**400 is in test_specfun's list of ints past the float range
    assert metric.varphi_error(3) == metric.varphi_error(3.0) > 0.0
    assert metric.varphi_error(-1e308) < math.inf


def test_domain_and_range_guards():
    with pytest.raises(DomainError):
        metric.lambda01_neg(0.0)
    with pytest.raises(DomainError):
        metric.lambda01_neg(-2.0)
    with pytest.raises(DomainError):
        metric.phi_func(math.nan)
    with pytest.raises(RangeError):
        metric.h(700.5)
    with pytest.raises(RangeError):
        metric.big_h(-701.0)
    with pytest.raises(DomainError):
        metric.h(math.inf)
    for t in (math.nan, math.inf, -math.inf):
        with pytest.raises(DomainError, match=f"^t must be finite, got {t!r}$"):
            metric.big_h_prime(t)


def test_phi_against_mpmath():
    # Phi(x) = (1/2) log(agm(1, r)/agm(1, r')), both moduli formed from x;
    # near x = 1 the AGM quotient is 1 + O(x-1), where the float AGM route
    # kept only an absolute ~eps (75% off at x = 1 + 1e-15)
    mpmath = pytest.importorskip("mpmath")
    xs = [10.0 ** (k / 4.0) for k in range(-48, 49)]
    xs += [1.0 + d for d in (1e-15, -1e-15, 1e-9, -1e-9, 1e-4, -1e-4)]
    xs += [math.nextafter(1.0, 0.0), math.nextafter(1.0, 2.0), 1e-300, 1e300]
    for x in xs:
        with mpmath.workdps(60):
            xm = mpmath.mpf(x)
            want = mpmath.log(mpmath.agm(1, mpmath.sqrt(xm / (1 + xm)))
                              / mpmath.agm(1, mpmath.sqrt(1 / (1 + xm)))) / 2
        assert abs(metric.phi_func(x) - want) <= 1e-14 * abs(want), x
    assert metric.phi_func(1.0) == 0.0
