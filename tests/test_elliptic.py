"""AGM iteration and the complete elliptic integral K.

Frozen references come from 50-digit evaluations of the defining
formulas (K with modulus r, not the parameter m = r^2).
"""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from punctmetric import elliptic, metric
from punctmetric.errors import DomainError


def test_agm_fixed_points():
    assert elliptic.agm(1.0, 1.0) == 1.0
    assert elliptic.agm(5.0, 5.0) == 5.0


def test_agm_reference():
    assert elliptic.agm(1.0, 1.0 / math.sqrt(2.0)) == pytest.approx(
        0.84721308479397909, rel=1e-15)
    assert elliptic.agm(3.0, 7.0) == pytest.approx(4.7890135831409518,
                                                   rel=1e-15)


@given(st.floats(1e-6, 1e6), st.floats(1e-6, 1e6))
def test_agm_between_means_and_symmetric(x, y):
    m = elliptic.agm(x, y)
    assert math.sqrt(x) * math.sqrt(y) <= m * (1.0 + 1e-14)
    assert m <= 0.5 * (x + y) * (1.0 + 1e-14)
    assert elliptic.agm(y, x) == m


@given(st.floats(1e-3, 1e3), st.floats(1e-3, 1e3), st.floats(1e-3, 1e3))
def test_agm_homogeneous(s, x, y):
    assert elliptic.agm(s * x, s * y) == pytest.approx(s * elliptic.agm(x, y),
                                                       rel=1e-13)


@pytest.mark.parametrize("r,want", [
    (0.1, 1.574745561517356),
    (0.5, 1.685750354812596),
    (0.9, 2.2805491384227702),
])
def test_ellip_k_reference(r, want):
    assert elliptic.ellip_k(r) == pytest.approx(want, rel=1e-14)


def test_ellip_k_at_zero():
    assert elliptic.ellip_k(0.0) == pytest.approx(0.5 * math.pi, rel=1e-15)


def test_ellip_k_increasing():
    rs = [0.01 * k for k in range(100)]
    vals = [elliptic.ellip_k(r) for r in rs]
    assert all(a < b for a, b in zip(vals, vals[1:]))


def test_mu_reference():
    assert elliptic.mu(0.6) == pytest.approx(1.7902084626516912, rel=1e-14)


def test_mu_self_complementary_point():
    # r = r' = 1/sqrt(2) forces mu = pi/2
    assert elliptic.mu(1.0 / math.sqrt(2.0)) == pytest.approx(0.5 * math.pi,
                                                              rel=1e-15)


@given(st.floats(0.05, 0.95))
def test_mu_functional_equation(r):
    r_comp = math.sqrt((1.0 - r) * (1.0 + r))
    prod = elliptic.mu(r) * elliptic.mu(r_comp)
    assert prod == pytest.approx(0.25 * math.pi * math.pi, rel=1e-13)


def test_mu_matches_k_ratio():
    for r in (0.2, 0.5, 0.8):
        r_comp = math.sqrt((1.0 - r) * (1.0 + r))
        want = 0.5 * math.pi * elliptic.ellip_k(r_comp) / elliptic.ellip_k(r)
        assert elliptic.mu(r) == pytest.approx(want, rel=1e-14)


def test_groetzsch_log_is_phi():
    # 2 Phi(x) = -log(2 mu(r) / pi) at x = r^2/(1-r^2)
    r = 0.6
    x = r * r / (1.0 - r * r)
    lhs = 2.0 * metric.phi_func(x)
    rhs = -math.log(2.0 * elliptic.mu(r) / math.pi)
    assert lhs == pytest.approx(rhs, rel=1e-13, abs=1e-14)
    assert lhs == pytest.approx(2.0 * -0.065374683682134238, rel=1e-13)


@pytest.mark.parametrize("bad", [-0.1, 1.0, 1.5, math.nan])
def test_ellip_k_domain(bad):
    with pytest.raises(DomainError):
        elliptic.ellip_k(bad)


def test_ellip_k_near_one_against_mpmath():
    # r' = sqrt((1-r)(1+r)) keeps its digits: 1 - r is exact for r >= 1/2;
    # nextafter(1, 0) is 1 - 2^-53
    mpmath = pytest.importorskip("mpmath")
    for r in [1.0 - 2.0 ** -k for k in (20, 30, 40, 45, 50, 52)] + [
            math.nextafter(1.0, 0.0)]:
        with mpmath.workdps(50):
            want = mpmath.ellipk(mpmath.mpf(r) ** 2)
            assert abs(elliptic.ellip_k(r) - want) <= 1e-15 * want, r


@pytest.mark.parametrize("x,y", [(0.0, 1.0), (-1.0, 2.0), (1.0, math.inf)])
def test_agm_domain(x, y):
    with pytest.raises(DomainError):
        elliptic.agm(x, y)
