"""Certified distance and density bounds on punctured domains.

Reference values in this file were frozen from a 50-digit mpmath
evaluation of the underlying closed forms; the implementation
regression values were recorded once and guard against silent drift,
not against the oracle.
"""

import cmath
import math
import sys
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
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


def test_ring_lower_bound_is_certified(varphi_ref):
    # A L - B from mpmath's varphi at the float inputs: the bound may not
    # exceed it, and for c >= 0.05 it is within 1e-12 of it
    mpmath = pytest.importorskip("mpmath")
    cs = [10.0 ** (k / 2.0) for k in range(-18, 3)]
    for c in cs:
        phi, phi_half = varphi_ref(c), varphi_ref(0.5 * c)
        for r1 in (1e-3, 0.7, 1.0, 5e4):
            for ratio in (1.0, 1.0 + 1e-12, 1.5, 10.0, 1e3, 1e8):
                r2 = r1 * ratio
                got = bounds.ring_lower_bound(c, r1, r2)
                with mpmath.workdps(50):
                    gap = mpmath.log(r2) - mpmath.log(r1)
                    exact = max(0, phi / c * gap - (phi - phi_half))
                assert got <= exact, (c, r1, r2)
                if c >= 0.05:
                    assert exact - got <= 1e-12 * exact, (c, r1, r2)


def test_ring_lower_bound_slack_is_relative_at_small_c(varphi_ref):
    # below metric.VARPHI_TAYLOR_T varphi's error bound is relative, so
    # the certified slack is a few eps of the bound, not varphi_error/c
    # (1.6e-5 of it at c = 1e-9 when the bound was absolute)
    mpmath = pytest.importorskip("mpmath")
    for c in [10.0 ** (k / 2.0) for k in range(-18, -2)]:
        phi, phi_half = varphi_ref(c), varphi_ref(0.5 * c)
        for r1 in (1e-3, 0.7, 1.0, 5e4):
            for ratio in (1.5, 10.0, 1e3, 1e8):
                got = bounds.ring_lower_bound(c, r1, r1 * ratio)
                with mpmath.workdps(60):
                    gap = mpmath.log(r1 * ratio) - mpmath.log(r1)
                    exact = phi / c * gap - (phi - phi_half)
                assert exact - 1e-12 * exact <= got <= exact, (c, r1, ratio)


def test_ring_params_lower_bound_is_ring_lower_bound():
    for c, r1, r2 in ((LN2, 1.0, 1024.0), (1e-3, 0.5, 1e7), (7.0, 2.0, 2.0)):
        params = bounds.ring_coefficients(c)
        assert params.lower_bound(r1, r2) == bounds.ring_lower_bound(c, r1, r2)
    with pytest.raises(DomainError):
        bounds.ring_coefficients(LN2).lower_bound(2.0, 1.0)


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
    with pytest.raises(DomainError, match="index 1 and 2"):
        bounds.ring_gap((0.0, 1.0, 1.0))       # duplicate puncture
    with pytest.raises(DomainError):
        bounds.ring_gap((0.0,))                # needs a nonzero puncture
    # the theorem floor: points below exp(-c/2)|a_1| are out of scope
    with pytest.raises(DomainError):
        bounds.ring_gap((0.0, 1.0, 2.0), r1=0.5)
    assert bounds.ring_gap((0.0, 1.0, 2.0), r1=0.8) == pytest.approx(LN2)
    # NaN compares false, so without a finiteness check these slipped
    # through the ordering and floor checks
    # the last one is finite, but its modulus overflows
    for bad in (math.nan, math.inf, complex(2.0, math.nan),
                complex(1.5e308, 1.5e308)):
        with pytest.raises(DomainError):
            bounds.ring_gap((0.0, 1.0, bad))
    for r1 in (math.nan, math.inf):
        with pytest.raises(DomainError):
            bounds.ring_gap((0.0, 1.0, 2.0), r1=r1)
    with pytest.raises(DomainError, match=r"punctures\[1\] must be a finite"):
        bounds.ring_gap([0.0, None])
    with pytest.raises(DomainError):
        bounds.ring_lower_bound(1.0, 1.0, math.inf)


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
        with pytest.raises(DomainError,
                           match=r"punctures\[1\] must be finite"):
            bounds.PuncturedDomain((0.0, bad))
    # what complex() refuses is no point of the plane
    for bad in (None, "a", [1.0], 10 ** 400):
        with pytest.raises(DomainError,
                           match=r"punctures\[0\] must be a finite complex"):
            bounds.PuncturedDomain((bad, 1.0))
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


def test_rho_upper_survives_overflowing_distances():
    # |z-a| = inf makes pi/(4 m d) = 0, which no density is below
    dom = bounds.PuncturedDomain((0.0, 1e308))
    rb = bounds.rho_bounds(dom, -1.7e308)
    assert 0.0 < rb.lower <= rb.upper
    rb = bounds.rho_bounds(bounds.PuncturedDomain((-1e308, 1e308)), 0.0)
    assert rb.upper > 0.0
    # finite components whose modulus overflows: abs() raises on these
    big = complex(1.5e308, 1.5e308)
    rb = bounds.rho_bounds(bounds.PuncturedDomain((0.0, big)), 1.0)
    assert rb.lower <= rb.upper
    # |b-a| overflows for b = -0.9e308 only: the finite m = log(d/|c-a|)
    # then overstates a's true log-gap log(|b-a|/d).  Scaling by 2^-10
    # is exact and scales the density by 2^10, so the small domain's
    # lower bound certifies a floor the big domain's upper bound must
    # clear.
    a, b, c = 0.9e308, -0.9e308, 0.9e308 + 6.7e301
    z = a - 4e306
    k = 2.0 ** 10
    big = bounds.rho_bounds(bounds.PuncturedDomain((a, b, c)), z)
    small = bounds.rho_bounds(
        bounds.PuncturedDomain((a / k, b / k, c / k)), z / k)
    assert big.upper >= small.lower / k


def test_rho_lower_stays_finite_next_to_a_puncture(lambda01_ref):
    # within ~1e-309 of a puncture h(m)/d overflows, yet the density
    # (~1.3e320 here) is finite, so an infinite lower bound exceeds it
    dom = bounds.PuncturedDomain((0.0, 1.0))
    for z in (5e-324, -5e-324, complex(0.0, 1e-320)):
        rb = bounds.rho_bounds(dom, z)
        assert 1e308 < rb.lower < math.inf
        assert rb.lower <= rb.upper
    assert bounds.rho_bounds(dom, -5e-324).lower <= lambda01_ref(5e-324)


def test_rho_rejects_punctures():
    dom = bounds.PuncturedDomain((0.0, 1.0))
    with pytest.raises(DomainError):
        bounds.rho_bounds(dom, 1.0)
    with pytest.raises(DomainError):
        bounds.sigma_lower(dom, 0.0)
    with pytest.raises(DomainError):
        bounds.rho_bounds(dom, complex(math.nan, 0.0))


@pytest.mark.parametrize("n", (3, 100))
def test_rho_and_sigma_reject_exactly_the_punctures(n):
    # a distance is 0 exactly where z is a puncture: -0.0 parts compare
    # equal to 0.0, and a subnormal ulp away is a point of the domain
    dom = bounds.PuncturedDomain([0.0, 1.0, 1e-300j]
                                 + [complex(k, 2.0) for k in range(n - 3)])
    for query in (bounds.rho_bounds, bounds.sigma_lower):
        for z in (complex(-0.0, -0.0), complex(1.0, -0.0),
                  complex(-0.0, 1e-300)):
            with pytest.raises(DomainError, match="is a puncture"):
                query(dom, z)
        with pytest.raises(DomainError, match="must be finite"):
            query(dom, complex(math.inf, 0.0))
        for z in (None, "x", [1]):
            with pytest.raises(DomainError,
                               match="z must be a finite complex number"):
                query(dom, z)
    for z in (5e-324, complex(5e-324, 1e-300), complex(-0.0, 2e-300)):
        assert 0.0 < bounds.sigma_lower(dom, z) == bounds.rho_bounds(
            dom, z).lower


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


# -- both routes against the pair loop they replaced ------------------------

def _pair_loop_rho_bounds(dom, z):
    """rho_bounds as the O(N^2) scalar loop over ordered pairs: the
    reference the list route and the block search must reproduce bit
    for bit."""
    lower, upper = 0.0, math.inf
    for a in dom.punctures:
        d = abs(z - a)
        s = math.log(d)
        m = math.inf
        for b in dom.punctures:
            if b != a:
                m = min(m, abs(s - math.log(abs(b - a))))
        hm = metric.h(m) if m <= metric.T_CAP else 0.5 / (m + math.log(16.0))
        lower = max(lower, hm / d)
        if m > 0.0:
            upper = min(upper, math.pi / (4.0 * m * d))
    # rho_bounds clamps an overflowing h(m)/d to the largest float
    lower = min(lower, sys.float_info.max) * (1.0 - bounds._EVAL_SLACK)
    if math.isfinite(upper):
        upper *= 1.0 + bounds._EVAL_SLACK
    return bounds.RhoBounds(lower, upper)


# Both routes of the queries: 0 sends every domain to the arrays, the
# default sends the small ones to the lists.
_ROUTES = (0, bounds._LISTS_BELOW)


def _assert_matches_pair_loop(pts, z, block=bounds._BLOCK):
    dom = bounds.PuncturedDomain(pts)
    want = _pair_loop_rho_bounds(dom, complex(z))
    for lists_below in _ROUTES:
        with mock.patch.object(bounds, "_BLOCK", block), \
                mock.patch.object(bounds, "_LISTS_BELOW", lists_below):
            got = bounds.rho_bounds(dom, z)
            assert got == want
            assert bounds.sigma_lower(dom, z) == want.lower
    return got


_coords = st.floats(min_value=-100.0, max_value=100.0, allow_subnormal=False)
_points = st.builds(complex, _coords, _coords)
_quarter_turns = st.sampled_from((1.0, 1j, -1.0, -1j))


@given(st.lists(_points, min_size=2, max_size=2, unique=True), _points)
def test_rho_two_punctures_match_the_pair_loop(pts, z):
    assume(z not in pts)
    _assert_matches_pair_loop(pts, z)


@given(_points, _points, _quarter_turns,
       st.lists(st.tuples(st.integers(-4, 4), _quarter_turns),
                min_size=1, max_size=8, unique=True),
       st.lists(_points, max_size=3))
# z one ulp from a puncture: h(m)/d overflows and the lower end clamps
@example(0j, 1e-300j, 1.0, [(1, 1.0)], [])
def test_rho_near_ties_match_the_pair_loop(a, w, turn, offsets, extra):
    # punctures on or a few ulps off the circle |b-a| = |z-a|, turned by
    # quarter turns, so the two neighbours of log|z-a| are near-ties
    assume(w != 0.0)
    ring = [a + w * turn * rot * (1.0 + k * 2.0 ** -52)
            for k, rot in offsets]
    pts = list(dict.fromkeys([a] + ring + extra))
    assume(len(pts) >= 2 and a + w not in pts)
    _assert_matches_pair_loop(pts, a + w)


@given(st.integers(-40, 40), _quarter_turns, st.booleans(),
       st.lists(st.builds(complex, st.floats(1e3, 1e4), st.floats(1e3, 1e4)),
                max_size=3, unique=True))
def test_rho_critical_circle_matches_the_pair_loop(k, turn, flip, far):
    # z at distance exactly |b-a| from both punctures: every log-gap of
    # the pair is 0; far punctures keep m = 0 on those two rows only
    w = complex(0.5, math.sqrt(3.0) / 2.0)
    scale = 2.0 ** k * turn
    z = (w.conjugate() if flip else w) * scale
    got = _assert_matches_pair_loop([0.0, scale] + [f * 2.0 ** k for f in far],
                                    z)
    if not far:
        assert got.upper == math.inf


@given(st.floats(1.0, 10.0), st.floats(1.0, 10.0), _quarter_turns,
       st.lists(_points, max_size=3))
def test_rho_past_t_cap_matches_the_pair_loop(t, u, turn, extra):
    # log-gap log(1e10 u / 1e-300 t) > T_CAP takes the H(m) branch
    pts = list(dict.fromkeys([0.0, 1e-300 * t * turn] + extra))
    _assert_matches_pair_loop(pts, 1e10 * u)


@settings(max_examples=50)
@given(st.lists(_points, min_size=2, max_size=30, unique=True), _points,
       st.sampled_from((1, 2, 7, 64)))
def test_rho_blocks_match_the_pair_loop(pts, z, block):
    # small blocks split the rows unevenly, down to one row at a time
    assume(z not in pts)
    _assert_matches_pair_loop(pts, z, block)


_SPREAD = [complex(math.cos(j) * j, math.sin(1.7 * j) * 0.5 * j)
           for j in range(1, 351)]
_SPREAD_Z = (0.0, 3.0 + 4.0j, 1e3 - 20.0j, 1e-6j)


def test_rho_default_blocks_match_the_pair_loop():
    # N = 350 at the default block: chunks of 23 columns or more over the
    # rows still live, pruned and completed between them; and N = 32, 64
    # and 90, whose first chunk takes 16 columns, the next ones at most
    # twice the columns visited.  Each case checks sigma_lower against
    # the pair loop's lower end too.
    for pts in (_SPREAD[:32], _SPREAD[:64], _SPREAD[:90], _SPREAD):
        for z in _SPREAD_Z:
            _assert_matches_pair_loop(pts, z)


# -- the pruned search on the hard cases ------------------------------------
#
# _neighbours drops the rows whose bracket so far bounds their 4 m d
# below the best, and completes one row by a full scan after each
# chunk.  Chunks of one and seven distances spread even two- and
# three-puncture domains over many chunks, on the array route that
# _assert_matches_pair_loop runs next to the list route.

_small_blocks = st.sampled_from((1, 7))


@given(_points, _points, _quarter_turns,
       st.lists(st.tuples(st.integers(-4, 4), _quarter_turns),
                min_size=1, max_size=8, unique=True),
       st.lists(_points, max_size=3), _small_blocks)
@example(0j, 1e-300j, 1.0, [(1, 1.0)], [], 1)
# near-tied neighbours whose log-gaps differ in the last bits
@example(-53.31 - 73.79j, -91.74 + 80.53j, 1.0, [(-3, 1j), (4, -1j)], [], 1)
@example(-12.68 + 38j, 89.34 + 32.69j, 1j,
         [(1, -1.0), (-2, -1.0), (4, -1j), (-4, -1j)], [], 1)
# two punctures whose 4 m d differ in the last bits: a prune test
# without its slack drops the larger
@example(0j, 1j, 1j, [(0, 1.0), (-1, 1.0)], [], 1)
def test_rho_near_ties_in_small_blocks(a, w, turn, offsets, extra, block):
    assume(w != 0.0)
    ring = [a + w * turn * rot * (1.0 + k * 2.0 ** -52)
            for k, rot in offsets]
    pts = list(dict.fromkeys([a] + ring + extra))
    assume(len(pts) >= 2 and a + w not in pts)
    _assert_matches_pair_loop(pts, a + w, block)


@given(st.integers(-40, 40), _quarter_turns, st.booleans(),
       st.lists(st.builds(complex, st.floats(1e3, 1e4), st.floats(1e3, 1e4)),
                max_size=3, unique=True), _small_blocks)
def test_rho_critical_circle_in_small_blocks(k, turn, flip, far, block):
    w = complex(0.5, math.sqrt(3.0) / 2.0)
    scale = 2.0 ** k * turn
    z = (w.conjugate() if flip else w) * scale
    got = _assert_matches_pair_loop([0.0, scale] + [f * 2.0 ** k for f in far],
                                    z, block)
    if not far:
        assert got.upper == math.inf


@given(st.floats(1.0, 10.0), st.floats(1.0, 10.0), _quarter_turns,
       st.lists(_points, max_size=3), _small_blocks)
def test_rho_past_t_cap_in_small_blocks(t, u, turn, extra, block):
    pts = list(dict.fromkeys([0.0, 1e-300 * t * turn] + extra))
    _assert_matches_pair_loop(pts, 1e10 * u, block)


_OVERFLOWING = (
    ((0.0, 1e308), -1.7e308),
    ((-1e308, 1e308), 0.0),
    ((0.0, complex(1.5e308, 1.5e308)), 1.0),
    ((0.9e308, -0.9e308, 0.9e308 + 6.7e301), 0.9e308 - 4e306),
    ((0.9e308, -0.9e308, 1.0, 2.0j), 3.0),
    # the puncture nearest z has no upper bound, as |b-a| overflows for
    # b = -0.9e308, yet the 4 m d that its other side leaves is finite
    # and beats those of the punctures that have one
    ((0.9e308, 0.9e308 - 1e300, -0.9e308, 0.0, 1.0), 0.9e308 - 1e306),
)


@pytest.mark.parametrize("block", (1, 7))
@pytest.mark.parametrize("pts, z", _OVERFLOWING)
def test_rho_overflowing_distances_in_small_blocks(pts, z, block):
    # the pair loop has no rule for an overflowed |b-a| (its upper end
    # takes pi/(4 m d) from it) and abs() raises where a modulus of
    # finite components overflows, so the reference is the array
    # search at the default block, which the list route and the small
    # blocks must match, and the pair loop's lower end where it runs
    dom = bounds.PuncturedDomain(pts)
    with mock.patch.object(bounds, "_LISTS_BELOW", 0):
        want = bounds.rho_bounds(dom, z)
    for lists_below in _ROUTES:
        with mock.patch.object(bounds, "_BLOCK", block), \
                mock.patch.object(bounds, "_LISTS_BELOW", lists_below):
            assert bounds.rho_bounds(dom, z) == want
            assert bounds.sigma_lower(dom, z) == want.lower
    try:
        assert want.lower == _pair_loop_rho_bounds(dom, complex(z)).lower
    except OverflowError:
        pass


def _exact_neighbours(x, y, d, block=8192):
    """The exact search, in the form of bounds._neighbours: hypot on
    every pair, bracketed by where/reduce, a block of rows at a time,
    and every row exact."""
    n = len(x)

    def bracket(r, dd, axis):
        return (np.fmax.reduce(np.where(r <= dd, r, np.nan), axis=axis),
                np.fmin.reduce(np.where(r >= dd, r, np.nan), axis=axis))

    below = np.full(n, np.nan)
    above = np.full(n, np.nan)
    i = 0
    while i < n:
        j = min(n, i + max(1, block // (n - i)))
        r = np.hypot(x[i:] - x[i:j, None], y[i:] - y[i:j, None])
        r.flat[::n - i + 1] = np.nan
        lo, hi = bracket(r, d[i:j, None], 1)
        np.fmax(below[i:j], lo, out=below[i:j])
        np.fmin(above[i:j], hi, out=above[i:j])
        lo, hi = bracket(r[:, j - i:], d[j:], 0)
        np.fmax(below[j:], lo, out=below[j:])
        np.fmin(above[j:], hi, out=above[j:])
        i = j
    return below, above, np.arange(n)


def _layout(name, n, rng):
    """n punctures: the unit disk, Gaussian clusters of about 50 with
    spread 0.01, or moduli from 1 to 1e6 growing geometrically."""
    if name == "uniform":
        pts = np.sqrt(rng.random(n)) * np.exp(2j * np.pi * rng.random(n))
    elif name == "clustered":
        centres = (np.sqrt(rng.random(n // 50))
                   * np.exp(2j * np.pi * rng.random(n // 50)))
        pts = (centres[np.arange(n) % len(centres)]
               + 0.01 * (rng.standard_normal(n)
                         + 1j * rng.standard_normal(n)))
    else:
        c = math.log(1e6) / n
        pts = np.exp(c * (np.arange(n) + 0.5 * rng.random(n))
                     + 2j * np.pi * rng.random(n))
        pts[0] = 0.0
    return pts.tolist()


def _assert_matches_the_exact_search(pts, zs):
    """The log-gap of every puncture the search returns as exact, and
    rho_bounds, to the bit against _exact_neighbours."""
    dom = bounds.PuncturedDomain(pts)
    for z in zs:
        x, y, d = bounds._nearest_first(dom, z)
        lo, hi, exact = bounds._neighbours(x, y, d)
        lo_x, hi_x, _ = _exact_neighbours(x, y, d)
        assert exact.size
        for row in zip(d[exact].tolist(), lo[exact].tolist(),
                       hi[exact].tolist(), lo_x[exact].tolist(),
                       hi_x[exact].tolist()):
            assert (bounds._log_gap(*row[:3])
                    == bounds._log_gap(row[0], *row[3:])), row
            assert (row[2] == math.inf) == (row[4] == math.inf), row
        got = bounds.rho_bounds(dom, z)
        with mock.patch.object(bounds, "_neighbours", _exact_neighbours):
            assert got == bounds.rho_bounds(dom, z)


@pytest.mark.parametrize("layout", ("uniform", "clustered", "geometric"))
def test_rho_large_domains_match_the_exact_search(layout):
    rng = np.random.default_rng(20261018)
    pts = _layout(layout, 1000, rng)
    zs = [pts[7] + 1e-3, 0.3 - 0.2j, pts[500] * (1.0 + 1e-9j),
          pts[-1] * 1.5]
    _assert_matches_the_exact_search(pts, zs)


def test_rho_filter_needs_no_fallback_on_an_ordinary_domain():
    rng = np.random.default_rng(400)
    pts = _layout("uniform", 400, rng)
    _assert_matches_the_exact_search(pts, [0.1 + 0.1j, 2.0, pts[3] * 1.1])


def _polygon(n, centre, radius):
    return [centre + radius * cmath.exp(2j * math.pi * k / n)
            for k in range(n)]


@pytest.mark.parametrize("pts, z", (
    # every puncture has the same m and d up to rounding: no row drops
    # out, and the largest 4 m d is decided by the last bits
    (_polygon(1000, 0.25 + 0.5j, 3.0), 0.25 + 0.5j),
    (_polygon(1000, 0.25 + 0.5j, 3.0), 1.0 + 0.5j),
    # ties by symmetry on a lattice, z at its centre
    ([complex(i, j) for i in range(32) for j in range(32)], 15.5 + 15.5j),
    # collinear, z on the line between two punctures
    ([0.37 * k for k in range(1000)], 100.0),
))
def test_rho_adversarial_domains_match_the_exact_search(pts, z):
    _assert_matches_the_exact_search(pts, [z])


def test_rho_visits_a_fraction_of_the_pairs():
    # every distance rho_bounds computes goes through np.hypot: those to
    # z, the search's chunks and row scans, and the lower end's row scans
    rng = np.random.default_rng(20261018)
    pts = _layout("uniform", 1000, rng)
    dom = bounds.PuncturedDomain(pts)
    hypot = np.hypot
    for z in (0.3 - 0.2j, pts[7] + 1e-3, 0.9 + 0.1j):
        cells = []

        def counted(*args):
            r = hypot(*args)
            cells.append(r.size)
            return r

        with mock.patch.object(np, "hypot", counted):
            bounds.rho_bounds(dom, z)
        assert sum(cells) < 0.25 * len(pts) * (len(pts) - 1)


_GRID = [complex(k % 10 + 0.01 * k, k // 10) for k in range(100)]


@pytest.mark.parametrize("pts, z", (
    # every squared distance underflows
    ([p * 1e-200 for p in _GRID], 3.3e-200 + 4.4e-201j),
    # half of them do: the blocks of the tiny cluster's rows fall back
    ([p * 1e-200 for p in _GRID[:50]] + [p + 20.0 for p in _GRID[50:]],
     0.25 + 0.5j),
    # every squared distance overflows
    ([p * 1e200 for p in _GRID], 3.3e200 + 4.4e199j),
))
def test_rho_falls_back_where_squares_leave_the_normal_floats(pts, z):
    # no search may square a distance here
    _assert_matches_pair_loop(pts, z)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(("uniform", "clustered", "geometric")),
       st.integers(91, 110), st.integers(470, 560), st.booleans(),
       st.integers(0, 40), st.integers(0, 2 ** 32 - 1),
       st.sampled_from((7, 256, 2048)))
def test_rho_extreme_scales_match_the_pair_loop(layout, n, k, up, spread,
                                                seed, block):
    # N > 90 domains at 2^+-(470..560), where the squares of the
    # distances are subnormal, underflow or overflow, some of them or
    # all; a third of the punctures moved 2^spread outward mixes scales
    rng = np.random.default_rng(seed)
    e = k if up else -k
    pts = [p * 2.0 ** (e + spread * int(f))
           for p, f in zip(_layout(layout, n, rng), rng.random(n) < 0.3)]
    j = int(rng.integers(n))
    w = complex(*rng.standard_normal(2)) * 10.0 ** -int(rng.integers(0, 4))
    z = pts[j] + w * abs(pts[j] or 2.0 ** e)
    pts = list(dict.fromkeys(pts))
    assume(z not in pts)
    _assert_matches_pair_loop(pts, z, block)


_TINY_CLUSTERS = (
    ([complex(3.3265127476199437e-163, 6.260469968897056e-162),
      complex(3.740064285372495e-163, 9.880217334236311e-163),
      complex(4.517342522721827e-162, 3.1677726331158717e-162)],
     complex(4.9899786255300355e-143, -5.152682050705037e-144), 7),
    ([complex(2.2227587494850775e-162, 0.0),
      complex(5.902702263412236e-163, 5.9767529775013485e-164),
      complex(2.5042255301510005e-163, 9.793899142114798e-163),
      complex(3.265965580689502e-163, 4.428566931190387e-163)],
     complex(-2.5337634698202107e-142, 1.9183035095004775e-142), 1),
)


@pytest.mark.parametrize("pts, z, block", _TINY_CLUSTERS)
def test_rho_tiny_clusters_in_small_blocks(pts, z, block):
    # punctures within ~2^-535 of each other, so the squares of their
    # distances are subnormal and round by up to half their size, and z
    # ~2^-470 away, where d^2 is normal: a search that took those
    # squares at face value drops the row that holds the largest 4 m d
    _assert_matches_pair_loop(pts, z, block)


@settings(max_examples=50)
@given(st.lists(st.builds(complex, st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
                min_size=2, max_size=6, unique=True),
       st.floats(470.0, 480.0), st.floats(0.0, 2.0 * math.pi),
       _small_blocks)
def test_rho_tiny_clusters_match_the_pair_loop(units, depth, turn, block):
    pts = list(dict.fromkeys(u * 2.0 ** -536 for u in units))
    assume(len(pts) >= 2)
    _assert_matches_pair_loop(pts, cmath.rect(2.0 ** -depth, turn), block)


@pytest.mark.parametrize("layout", ("uniform", "clustered", "geometric"))
def test_rho_takes_hypot_of_the_rows_it_completes_only(layout):
    # the search prunes on squares: besides the N distances to z, every
    # np.hypot it takes is of a row it returns as exact
    rng = np.random.default_rng(20261018)
    pts = _layout(layout, 1000, rng)
    dom = bounds.PuncturedDomain(pts)
    hypot = np.hypot
    for z in (pts[7] + 1e-3, 0.3 - 0.2j, pts[500] * (1.0 + 1e-9j)):
        cells = []

        def counted(*args):
            r = hypot(*args)
            cells.append(r.size)
            return r

        with mock.patch.object(np, "hypot", counted), \
                np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            x, y, d = bounds._nearest_first(dom, z)
            exact = bounds._neighbours(x, y, d)[2]
        assert sum(cells) <= len(pts) * (1 + exact.size)


def test_rho_search_without_a_drop_stays_in_its_chunks():
    # on 1000 punctures on a circle about z no row drops out, so every
    # row gets an exact scan: those come _BLOCK distances at a time, and
    # the search's scratch memory stays within a few chunks
    dom = bounds.PuncturedDomain(_polygon(1000, 0.25 + 0.5j, 3.0))
    hypot = np.hypot
    sizes = []

    def recorded(*args):
        r = hypot(*args)
        sizes.append(r.size)
        return r

    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        x, y, d = bounds._nearest_first(dom, 0.25 + 0.5j)
        tracemalloc.start()
        try:
            with mock.patch.object(np, "hypot", recorded):
                exact = bounds._neighbours(x, y, d)[2]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert exact.size == 1000
    assert max(sizes) <= bounds._BLOCK
    assert peak < 8 * (10 * bounds._BLOCK + 32 * len(d))


def test_h_stays_below_the_walk_ceiling():
    # the lower end's walk stops on h(m) <= _H_CEILING for every m
    ts = np.concatenate((np.linspace(0.0, 2.0, 20001),
                         np.geomspace(1e-300, metric.T_CAP, 20001)))
    assert np.all(metric.h_many(ts) <= bounds._H_CEILING)
    assert metric.h(0.0) <= bounds._H_CEILING
    assert max(metric.h(t) for t in ts[::97].tolist()) <= bounds._H_CEILING


def test_sigma_visits_only_the_punctures_it_needs():
    # sigma never searches all N^2 distances, and calls h on the few
    # punctures whose ceiling h(0)/d can still beat the best so far
    dom = bounds.PuncturedDomain(_SPREAD)
    for z in _SPREAD_Z:
        want = _pair_loop_rho_bounds(dom, complex(z)).lower
        with mock.patch.object(bounds, "_neighbours",
                               side_effect=AssertionError), \
                mock.patch.object(metric, "h", wraps=metric.h) as h:
            assert bounds.sigma_lower(dom, z) == want
        assert 1 <= h.call_count < len(_SPREAD)


# -- the list route ---------------------------------------------------------

def _mixed_scales(rng, n):
    """n floats of both signs, their exponents drawn from the whole range,
    the subnormals, the top of the range, the squares' edges and near 1,
    with some zeros."""
    ranges = np.array([[-1074, 1023], [-1074, -1000], [1010, 1023],
                       [-540, -500], [500, 530], [-30, 30]])
    pick = ranges[rng.integers(0, len(ranges), n)]
    v = np.ldexp(rng.uniform(1.0, 2.0, n) * rng.choice((-1.0, 1.0), n),
                 rng.integers(pick[:, 0], pick[:, 1] + 1))
    v[rng.random(n) < 0.02] = 0.0
    return v


def test_abs_is_numpys_hypot_to_the_bit():
    # both routes rest on abs(complex) calling the libm hypot that
    # np.hypot calls; bounds._abs turns its OverflowError into inf
    rng = np.random.default_rng(20261018)
    x, y = _mixed_scales(rng, 20000), _mixed_scales(rng, 20000)
    with np.errstate(over="ignore"):
        want = np.hypot(x, y)
    got = np.array([bounds._abs(complex(a, b))
                    for a, b in zip(x.tolist(), y.tolist())])
    assert np.isinf(want).any() and (want < sys.float_info.min).any()
    np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))
    # and the route's distances |b - a|, where a difference or its
    # modulus overflows
    pts = list(map(complex, x.tolist(), y.tolist()))
    for a in pts[:20]:
        with np.errstate(over="ignore"):
            want = np.hypot(x - a.real, y - a.imag)
        got = np.array(bounds._distances(a, pts))
        np.testing.assert_array_equal(got.view(np.uint64),
                                      want.view(np.uint64))


# -- the lower walk's batched row scans -------------------------------------

def _hypot_sizes():
    """A stand-in for np.hypot, and the list of its results' sizes."""
    hypot = np.hypot
    sizes = []

    def recorded(*args):
        r = hypot(*args)
        sizes.append(r.size)
        return r

    return recorded, sizes


def test_sigma_scans_a_long_walk_in_batches():
    # on 1000 punctures on a circle about z the walk visits every one:
    # their rows come in batches of up to _BLOCK distances, each row
    # once, and the lower end keeps the bits it has where rho_bounds'
    # search returns every row exact
    dom = bounds.PuncturedDomain(_polygon(1000, 0.25 + 0.5j, 3.0))
    z = 0.25 + 0.5j
    recorded, sizes = _hypot_sizes()
    with mock.patch.object(np, "hypot", recorded):
        got = bounds.sigma_lower(dom, z)
    assert got == bounds.rho_bounds(dom, z).lower
    assert max(sizes) <= bounds._BLOCK
    assert sum(sizes) == 1000 + 1000 * 1000
    assert len(sizes) < 1000 // (bounds._BLOCK // 1000) + 10


@pytest.mark.parametrize("query", (bounds.rho_bounds, bounds.sigma_lower))
def test_lower_walk_scans_at_most_twice_the_rows_it_visits(query):
    # z a little outside a cluster of 50 punctures, whose distances to
    # it are near-equal: the walk visits many of them, and a query whose
    # walk scans rows scans no more than twice those it visits, in fewer
    # numpy calls where the walk is long
    rng = np.random.default_rng(20261018)
    pts = _layout("clustered", 100, rng)
    dom = bounds.PuncturedDomain(pts)
    long_walks = 0
    for k in range(0, 100, 7):
        z = pts[k] + 0.2 * cmath.exp(1j * k)
        _assert_matches_pair_loop(pts, z)
        recorded, sizes = _hypot_sizes()
        with mock.patch.object(bounds, "_rows_bracket",
                               wraps=bounds._rows_bracket) as batches, \
                mock.patch.object(bounds, "_row_bracket",
                                  wraps=bounds._row_bracket) as singles, \
                mock.patch.object(metric, "h", wraps=metric.h) as h:
            query(dom, z)
        if query is bounds.sigma_lower:
            rows = (singles.call_count
                    + sum(c.args[3].size for c in batches.call_args_list))
            assert rows <= 2 * h.call_count
        if h.call_count >= 8:
            long_walks += 1
            assert singles.call_count + batches.call_count < h.call_count
    assert long_walks
