"""Certified distance and density bounds on punctured domains.

Reference values in this file were frozen from a 50-digit mpmath
evaluation of the underlying closed forms; the implementation
regression values were recorded once and guard against silent drift,
not against the oracle.
"""

import cmath
import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from punctmetric import bounds, metric
from punctmetric.errors import DomainError

LN2 = math.log(2.0)


# -- ring coefficients -------------------------------------------------------

def test_ring_coefficients_ln2():
    rc = bounds.ring_coefficients(LN2)
    # oracle: varphi(ln2)/ln2 and varphi(ln2) - varphi(ln2/2)
    assert rc.c == LN2
    assert rc.A == pytest.approx(0.11401178672314575, rel=1e-12)
    assert rc.B == pytest.approx(0.039455112008163652, rel=1e-12)


def test_ring_lower_bound_dyadic_annulus():
    # gap ln2, radii spanning ten octaves
    got = bounds.ring_lower_bound(LN2, 1.0, 1024.0)
    assert got == pytest.approx(0.75081437316933915, rel=1e-12)
    # degenerate annulus: the max(0, .) clamp engages since B > 0
    assert bounds.ring_lower_bound(LN2, 2.0, 2.0) == 0.0
    with pytest.raises(DomainError):
        bounds.ring_lower_bound(LN2, 2.0, 1.0)
    with pytest.raises(DomainError):
        bounds.ring_lower_bound(LN2, 0.0, 1.0)


def test_baseline_bounds():
    bl = bounds.baseline_bounds(1.0)
    assert bl.sv512_A == pytest.approx(metric.h(0.5), rel=1e-15)
    assert bl.bp_A == pytest.approx(0.10816954736647949, rel=1e-12)
    assert bl.bp_B == pytest.approx(1.0 / (4.0 * math.pi), rel=1e-15)


def test_ring_gap_constant_ratio():
    dom = (0.0, 1.0, 2.0, 4.0, 8.0)
    assert bounds.ring_gap(dom) == pytest.approx(LN2, rel=1e-15)
    # complex punctures count through their moduli
    dom = (0.0, 1.0, 2.0j, -4.0)
    assert bounds.ring_gap(dom) == pytest.approx(LN2, rel=1e-15)


def test_ring_gap_validation():
    with pytest.raises(DomainError):
        bounds.ring_gap((1.0, 2.0))            # no puncture at 0
    with pytest.raises(DomainError):
        bounds.ring_gap((0.0, 0.5, 0.25))      # moduli decrease
    with pytest.raises(DomainError):
        bounds.ring_gap((0.0, 1.0, 1.0))       # duplicate puncture
    with pytest.raises(DomainError):
        bounds.ring_gap((0.0,))                # needs a nonzero puncture
    # the theorem floor: points below exp(-c/2)|a_1| are out of scope
    with pytest.raises(DomainError):
        bounds.ring_gap((0.0, 1.0, 2.0), r1=0.5)
    assert bounds.ring_gap((0.0, 1.0, 2.0), r1=0.8) == pytest.approx(LN2)


@given(st.floats(min_value=1e-3, max_value=20.0))
def test_ring_coefficient_relation(c):
    # A*c - B = varphi(c/2) by construction; check the assembled pieces
    rc = bounds.ring_coefficients(c)
    assert rc.A * c - rc.B == pytest.approx(metric.varphi(0.5 * c),
                                            rel=1e-12, abs=1e-15)
    assert rc.A > 0.0 and rc.B > 0.0


def test_coefficient_a_decreases_with_gap():
    cs = [0.05, 0.2, 0.8, 2.0, 6.0, 20.0]
    avals = [bounds.ring_coefficients(c).A for c in cs]
    assert all(x > y for x, y in zip(avals, avals[1:]))


def test_coefficient_b_vanishes_for_small_gaps():
    assert bounds.ring_coefficients(1e-6).B < 1e-6


@given(st.floats(min_value=0.01, max_value=10.0),
       st.floats(min_value=0.1, max_value=1e4),
       st.floats(min_value=1.0, max_value=1e4))
def test_ring_lower_bound_monotone_in_outer_radius(c, r1, factor):
    inner = bounds.ring_lower_bound(c, r1, r1 * factor)
    outer = bounds.ring_lower_bound(c, r1, r1 * factor * 2.0)
    assert 0.0 <= inner <= outer


# -- punctured domains -------------------------------------------------------

def test_domain_validation():
    with pytest.raises(DomainError):
        bounds.PuncturedDomain((0.0,))
    with pytest.raises(DomainError, match="index 1 and 2"):
        bounds.PuncturedDomain((0.0, 1.0, 1.0))
    # NaN != NaN, so distinctness alone would let these through
    for bad in (math.nan, complex(1.0, math.nan), complex(math.inf, 0.0)):
        with pytest.raises(DomainError):
            bounds.PuncturedDomain((0.0, bad))
    dom = bounds.PuncturedDomain((0.0, 1.0))
    assert dom.punctures == (0.0 + 0.0j, 1.0 + 0.0j)


def test_rho_bounds_at_minus_one():
    dom = bounds.PuncturedDomain((0.0, 1.0))
    rb = bounds.rho_bounds(dom, -1.0)
    exact = metric.lambda01_neg(1.0)
    # both punctures sit at distance 1, log-distance 0, so the lower
    # bound h(m)/d collapses onto the exact twice-punctured density
    assert rb.lower == pytest.approx(exact, rel=1e-12)
    assert rb.upper == pytest.approx(0.5665450177283993, rel=1e-12)
    assert rb.lower <= exact <= rb.upper


def test_rho_bounds_three_punctures():
    dom = bounds.PuncturedDomain((0.0, 1.0, 1.0j))
    rb = bounds.rho_bounds(dom, 10.0)
    assert rb.lower == pytest.approx(0.011002324257769053, rel=1e-12)
    assert rb.upper == pytest.approx(0.034109408846046026, rel=1e-12)
    assert rb.lower < rb.upper


def test_rho_upper_infinite_on_the_unit_circle_median():
    # equidistant from both punctures at distance exactly 1: every
    # log-gap is 0, the upper bound degenerates
    z = complex(0.5, math.sqrt(3.0) / 2.0)
    dom = bounds.PuncturedDomain((0.0, 1.0))
    rb = bounds.rho_bounds(dom, z)
    assert rb.upper == math.inf
    assert 0.0 < rb.lower < math.inf


def test_rho_rejects_punctures():
    dom = bounds.PuncturedDomain((0.0, 1.0))
    with pytest.raises(DomainError):
        bounds.rho_bounds(dom, 1.0)
    with pytest.raises(DomainError):
        bounds.sigma_lower(dom, 0.0)
    with pytest.raises(DomainError):
        bounds.rho_bounds(dom, complex(math.nan, 0.0))


def test_sigma_lower_two_punctures_is_exact():
    dom = bounds.PuncturedDomain((0.0, 1.0))
    for x in (0.3, 1.0, 2.0, 7.5):
        got = bounds.sigma_lower(dom, -x)
        assert got == pytest.approx(metric.lambda01_neg(x), rel=1e-12)
    # reflection through the midpoint: sigma(-1) = sigma(2)
    assert bounds.sigma_lower(dom, 2.0) == pytest.approx(
        bounds.sigma_lower(dom, -1.0), rel=1e-12)


def test_sigma_invariant_under_relabeling():
    pts = (0.0, 1.0, 1.0j, -2.0 + 0.5j)
    z = 3.0 + 3.0j
    ref = bounds.sigma_lower(bounds.PuncturedDomain(pts), z)
    perm = (pts[2], pts[0], pts[3], pts[1])
    got = bounds.sigma_lower(bounds.PuncturedDomain(perm), z)
    assert got == pytest.approx(ref, rel=1e-13)


@settings(max_examples=40)
@given(st.floats(min_value=-4.0, max_value=-0.05),
       st.floats(min_value=-3.0, max_value=3.0))
def test_rho_sandwich_brackets_the_exact_density(x, y):
    # on the twice-punctured plane the exact density is known on the
    # negative axis; shift off-axis points back via the exact formula
    z = complex(x, y)
    dom = bounds.PuncturedDomain((0.0, 1.0))
    rb = bounds.rho_bounds(dom, z)
    assert 0.0 < rb.lower
    assert rb.lower <= rb.upper
    if y == 0.0:
        exact = metric.lambda01_neg(-x)
        assert rb.lower <= exact * (1.0 + 1e-12)
        assert exact <= rb.upper * (1.0 + 1e-12)


def test_sigma_is_a_valid_lower_bound_on_axis():
    dom = bounds.PuncturedDomain((0.0, 1.0, 3.0))
    for x in (0.25, 0.8, 2.0, 11.0):
        sig = bounds.sigma_lower(dom, -x)
        # removing the extra puncture only shrinks the density
        assert sig >= metric.lambda01_neg(x) * (1.0 - 1e-12)


def test_sigma_lower_far_out_on_the_axis(lambda01_ref):
    # at |w| = 1e9 a K(r) evaluation in floats loses ~9 digits, which
    # is enough to push a certified floor above the density
    dom = bounds.PuncturedDomain((0.0, 1.0))
    assert bounds.sigma_lower(dom, -1e9) <= lambda01_ref(1e9)


def test_rho_bounds_past_the_range_of_h(lambda01_ref):
    # the log-gap m = log(1e10/1e-300) exceeds metric.T_CAP, where h
    # itself raises; the lower bound h(m)/d must stay finite and valid
    mpmath = pytest.importorskip("mpmath")
    dom = bounds.PuncturedDomain((0.0, 1e-300))
    rb = bounds.rho_bounds(dom, 1e10)
    with mpmath.workdps(400):
        # h(m)/d = lambda01(-|w|)/|b-a| with |w| = d/|b-a|
        exact = lambda01_ref(mpmath.mpf(1e10) / 1e-300) / 1e-300
        assert 0.0 < rb.lower <= exact
        assert rb.lower >= exact * (1 - 1e-14)
    assert math.isfinite(rb.upper)


@settings(max_examples=60)
@given(st.lists(st.complex_numbers(max_magnitude=100.0, allow_nan=False,
                                   allow_infinity=False),
                min_size=2, max_size=6, unique=True),
       st.complex_numbers(max_magnitude=200.0, allow_nan=False,
                          allow_infinity=False))
def test_sigma_lower_is_the_rho_lower_bound(pts, z):
    dom = bounds.PuncturedDomain(pts)
    assume(complex(z) not in dom.punctures)
    assert bounds.sigma_lower(dom, z) == bounds.rho_bounds(dom, z).lower


def test_rho_lower_regression_matches_oracle_route():
    # independent assembly of the same bound straight from the formula
    dom = bounds.PuncturedDomain((0.0, 1.0, 1.0j))
    z = 10.0 + 0.0j
    best = 0.0
    for a in dom.punctures:
        d = abs(z - a)
        gaps = [abs(math.log(d) - math.log(abs(b - a)))
                for b in dom.punctures if b != a]
        best = max(best, metric.h(min(gaps)) / d)
    assert bounds.rho_bounds(dom, z).lower == pytest.approx(best, rel=1e-14)
