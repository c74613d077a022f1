"""Hyperbolic-metric quantities of the twice-punctured plane C \\ {0, 1}.

On the negative real axis the density of the hyperbolic metric (curvature
-4) has the closed form

    lambda01(-x) = pi / (8 x K(r) K(r')),   r = sqrt(x/(1+x)),

and the distance between negative-axis points is driven by

    Phi(x) = (1/2) log(K(r)/K(r')),
    d01(-x, -y) = |Phi(x) - Phi(y)|.

The whole-axis behaviour is captured by h(t) = e^t lambda01(-e^t), its
reciprocal H = 1/h, and phi(t) = 2 Phi(e^{t/2}).  h is the one density
kernel (lambda01_neg is h(log x)/x): its AGMs run on complement-stable
moduli, accurate for |t| up to 700 where the K(r) route loses r'.
varphi is the one distance kernel (phi_func(x) is sign(log x)
varphi(2|log x|)/2).
phi(t) = q(t/2) for the pair a = b = 1/2, where F(1/2,1/2;1;x) =
1/agm(1, sqrt(1-x)), so varphi is the log of a quotient of two AGMs on
the same moduli as h, both formed from e^{-t/4} so that neither
underflows, with a closed form once the small modulus is below the
rounding; it costs two AGMs, not two hypergeometric series, and
varphi_error bounds its absolute error.
For complex arguments only one-sided bounds are available: the density
and distance on the negative axis minorize their values anywhere on the
circle of the same modulus, which is what lambda01_lower and d01_lower
return.

h, H, H' and varphi have array forms (``*_many``) that give every point
of a 1-d array the bits of its float call: both forms run one formula,
and only the AGM loop is per form, a masked numpy loop at an array.
They run through the one array-form driver, ``_arrays._array_form``,
so a point out of range, or whose array result is not finite, takes its
float call, and a batch raises what a loop of float calls raises first.  They live in ``_arrays`` and load it, and numpy,
on first use.
"""

from __future__ import annotations

import math
import sys

from . import pqfun, specfun
from .elliptic import _agm
from .errors import DomainError, RangeError

# Largest |t| accepted by h / big_h; e^700 is still finite and the
# complement modulus e^{-350} is a healthy normal float.
T_CAP = 700.0

_HALF = pqfun.ZeroBalancedPair(0.5, 0.5)

# varphi switches to a closed form at s = t/2 >= VARPHI_CLOSED_S.  There
# m_S < e^{-s/2} < 6e-17 and agm(1, m_S) = pi/(2 (log 4 + s/2 +
# log1p(e^{-s})/2)) up to a relative O(m_S^2) < 1e-32 (K(k) = log(4/k') +
# O(k'^2 log k'), DLMF 19.12.1), the log1p term is below half an ulp of
# log 4 + s/2, and m_L rounds to 1, so agm(1, m_L) = 1.  Together:
# phi(t) = log(2 (log 4 + s/2)/pi) = log((t + log 256)/(2 pi)).
VARPHI_CLOSED_S = 75.0
_LOG256 = math.log(256.0)
_TWO_PI = 2.0 * math.pi
_TINY = math.ulp(0.0)

# Below t = VARPHI_TAYLOR_T varphi is its odd Taylor polynomial
# c1 t + c3 t^3 + c5 t^5 + c7 t^7 (coefficients from mpmath; c1 = h(0)):
# there the AGM quotient is 1 + O(t) and its log would keep only an
# absolute ~eps.  The next term, c9 t^9 with c9 = 1.66e-9, is below 1e-19
# of phi there.  The switch stays under 0.05, the smallest t of the
# verify grids and of figure1's default rows.
VARPHI_TAYLOR_T = 0.04
_VARPHI_TAYLOR = (0.1142366452611159, -4.7075006981599705e-4,
                  5.7393346856980370e-6, -9.1749818561049076e-8)

# varphi's error is below VARPHI_ERR_K eps (1 + |phi|), and below
# VARPHI_ERR_K eps |phi| (plus the smallest subnormal) for values under
# _VARPHI_RELATIVE_BELOW, which only the Taylor polynomial gives: the
# AGM route's values start near phi(VARPHI_TAYLOR_T), ~5e-6 higher.
VARPHI_ERR_K = 8.0
_VARPHI_RELATIVE_BELOW = 0.999 * _VARPHI_TAYLOR[0] * VARPHI_TAYLOR_T

# Gamma(1/4)^4 / (4 pi^2), evaluated once.
_C0 = math.gamma(0.25) ** 4 / (4.0 * math.pi * math.pi)


def _check_positive_x(x: float) -> float:
    x = specfun.to_float(x, "x")
    if not math.isfinite(x) or x <= 0.0:
        raise DomainError(f"x must be positive finite, got {x!r}")
    return x


def c0() -> float:
    """The constant C0 = Gamma(1/4)^4 / (4 pi^2) = 1/(2 lambda01(-1))."""
    return _C0


def lambda01_neg(x: float) -> float:
    """Density of the hyperbolic metric of C \\ {0,1} at the point -x, x > 0.

    lambda01(-x) = pi / (8 x K(r) K(r')) with r = sqrt(x/(1+x)), evaluated
    as h(log x)/x so that both moduli stay exact at extreme x.  The only
    range limit is that of h: |log x| must not exceed T_CAP.
    """
    x = _check_positive_x(x)
    return _h(_check_range(math.log(x))) / x


def phi_func(x: float) -> float:
    """Phi(x) = (1/2) log(K(r)/K(r')), r = sqrt(x/(1+x)); Phi(1) = 0.

    Strictly increasing, odd under inversion: Phi(1/x) = -Phi(x).
    Evaluated as sign(log x) varphi(2|log x|)/2, varphi(t) = 2
    Phi(e^{t/2}), on varphi's Taylor, AGM and closed-form pieces, so that
    it keeps its relative accuracy near x = 1, where the K-ratio is
    1 + O(x-1) and its log would keep only an absolute ~eps.
    """
    t = math.log(_check_positive_x(x))
    return math.copysign(0.5 * _varphi(2.0 * abs(t)), t)


def d01_neg(x: float, y: float) -> float:
    """Hyperbolic distance d01(-x, -y) = |Phi(x) - Phi(y)| for x, y > 0."""
    return abs(phi_func(x) - phi_func(y))


def _check_t(t: float) -> float:
    t = specfun.to_float(t, "t")
    if not math.isfinite(t):
        raise DomainError(f"t must be finite, got {t!r}")
    return _check_range(t)


def _check_range(t: float) -> float:
    """A finite float t, checked against h's range T_CAP."""
    if abs(t) > T_CAP:
        raise RangeError(
            f"|t| must not exceed {T_CAP} (asymptotics are not silently "
            f"substituted), got {t!r}"
        )
    return t


def h(t: float) -> float:
    """h(t) = e^t lambda01(-e^t) = pi / (8 K(m) K(m')), even in t.

    The moduli m = 1/sqrt(1+e^t) and m' = 1/sqrt(1+e^{-t}) are
    complementary, so both AGMs run on arguments derived from e^{-|t|}
    without cancellation:

        h(t) = agm(1, m) agm(1, m') / (2 pi).

    Strictly decreasing in |t| from h(0) = 1/(2 C0) to 0;  t h(t) < 1/2.
    """
    return _h(_check_t(t))


def _h(t, sqrt=math.sqrt, agm=_agm):
    """h at a checked float t by math.sqrt and elliptic's AGM core, or at
    every point of a checked array by np.sqrt and _arrays._agm_many (the
    square roots of both round correctly)."""
    w = specfun.pointwise(math.exp, -abs(t))
    root = sqrt(1.0 + w)
    # the moduli 1/sqrt(1+e^{|t|}) and 1/sqrt(1+e^{-|t|})
    return agm(1.0, sqrt(w) / root) * agm(1.0, 1.0 / root) / (2.0 * math.pi)


def big_h(t: float) -> float:
    """H(t) = 1/h(t); even, strictly convex, H(0) = 2 C0.

    Cross-module identity: H(t) = 2 pi P(t) for the pair a = b = 1/2.
    """
    return 1.0 / h(t)


def big_h_prime(t: float) -> float:
    """H'(t) = 2 pi P'(t) at a = b = 1/2; odd, range (-2, 2).

    Evaluated through the analytic P' formula, not differenced, so it is
    exactly 0 at t = 0 and exactly odd.
    """
    return 2.0 * math.pi * pqfun.p_prime(_HALF, t)


def varphi(t: float) -> float:
    """phi(t) = 2 Phi(e^{t/2}) for t > 0.

    phi(t) = q(t/2) for the pair a = b = 1/2, and for that pair both
    factors of Q = v(x)/v(1-x) are complete elliptic integrals,
    F(1/2,1/2;1;x) = 1/agm(1, sqrt(1-x)) (DLMF 19.5, 19.8).  With
    s = t/2 and x = e^s/(1+e^s),

        phi(t) = log(agm(1, m_L) / agm(1, m_S)),
        m_L = 1/sqrt(1+e^{-s}),  m_S = e^{-s/2}/sqrt(1+e^{-s}),

    the complement-stable moduli of h.  m_S is formed from e^{-s/2}
    itself: its root taken from e^{-s} would read a subnormal e^{-s}
    once s passes ~708 (t ~ 1416) and lose most of its digits.  From
    s = VARPHI_CLOSED_S on, both AGMs have closed forms exact to far
    below the rounding, and phi(t) = log((t + log 256)/(2 pi)) (see the
    note at VARPHI_CLOSED_S), so every finite t > 0 is served and no
    modulus near underflow reaches agm.  Below VARPHI_TAYLOR_T, the odd
    Taylor polynomial keeps full relative accuracy.  The error is below
    varphi_error(value).

    Strictly increasing and concave, phi(t) ~ log(t + log 256) - log(2 pi)
    as t -> infinity.
    """
    t = specfun.to_float(t, "t")
    if not (math.isfinite(t) and t > 0.0):
        raise DomainError(f"varphi requires t > 0, got {t!r}")
    return _varphi(t)


def _varphi(t: float) -> float:
    """varphi at a checked float t >= 0 (0 at t = 0)."""
    if t < VARPHI_TAYLOR_T:
        return _varphi_taylor(t)
    s = 0.5 * t
    if s >= VARPHI_CLOSED_S:
        return _varphi_closed(t)
    return _varphi_agm(s, math.sqrt, _agm)


def _varphi_taylor(t):
    """varphi below VARPHI_TAYLOR_T, at a float t or an array."""
    c1, c3, c5, c7 = _VARPHI_TAYLOR
    t2 = t * t
    return t * (c1 + t2 * (c3 + t2 * (c5 + t2 * c7)))


def _varphi_over_t(t: float, phi: float) -> float:
    """varphi(t)/t, given phi = varphi(t) at a float t > 0: phi/t where
    phi is normal.  Below t ~ 1.9e-307 phi is subnormal, with digits
    lost or 0, and the Taylor polynomial divided through by t gives the
    quotient instead: c1 + c3 t^2 + ..., where t^2 underflows, is c1 =
    h(0), its limit as t -> 0."""
    return phi / t if phi >= sys.float_info.min else _VARPHI_TAYLOR[0]


def _bp_log(c: float) -> float:
    """log1p(c/(2 C0))/c, the bp baseline's A, at a float c > 0: where
    c/(2 C0) is subnormal, with digits lost or 0, its limit as c -> 0,
    1/(2 C0), instead; the next term, -c/(8 C0^2), is below its ulp."""
    q = c / (2.0 * _C0)
    return math.log1p(q) / c if q >= sys.float_info.min else 0.5 / _C0


def _varphi_closed(t):
    """varphi at a float t or an array, from s = VARPHI_CLOSED_S on."""
    return specfun.pointwise(math.log, (t + _LOG256) / _TWO_PI)


def _varphi_agm(s, sqrt, agm):
    """varphi at s = t/2 below VARPHI_CLOSED_S, a float or an array (with
    the sqrt and agm of _h)."""
    w = specfun.pointwise(math.exp, -0.5 * s)
    root = sqrt(1.0 + w * w)
    return specfun.pointwise(math.log,
                             agm(1.0, 1.0 / root) / agm(1.0, w / root))


def varphi_error(value: float) -> float:
    """Bound on the absolute error of varphi's result ``value``:
    VARPHI_ERR_K eps (1 + |value|), or for a value of the Taylor
    polynomial (t below VARPHI_TAYLOR_T) the relative VARPHI_ERR_K eps
    |value|, plus the smallest subnormal for values that underflow.

    Each AGM, their quotient and the closing log add a few roundings
    relative to the size of their results, and the quotient is near 1
    for small t, so the error is absolute there and relative to phi at
    large t.  The polynomial's Horner steps add under 2 eps relative.
    Against mpmath the largest error seen was 1.6 eps (1 + |phi|), for
    t from 1e-13 to 1e4 and at 1e300; the factor VARPHI_ERR_K leaves a
    fivefold margin.  A value that is not a finite float is no result
    of varphi: DomainError.
    """
    value = specfun.to_float(value, "value")
    if not math.isfinite(value):
        raise DomainError(f"value must be finite, got {value!r}")
    return _varphi_error(value)


def _varphi_error(value: float) -> float:
    """varphi_error at a float value that varphi returned."""
    size = abs(value)
    if size >= _VARPHI_RELATIVE_BELOW:
        size += 1.0
    return VARPHI_ERR_K * sys.float_info.epsilon * size + _TINY


def _check_not_puncture(z: complex, name: str) -> float:
    """|z| of a finite complex z other than 0 and 1; DomainError where z
    is not one, RangeError where its modulus overflows."""
    z = specfun.finite_complex(z, name)
    if z == 0 or z == 1:
        raise DomainError(f"{name} must avoid the punctures 0 and 1, got {z!r}")
    try:
        return abs(z)
    except OverflowError:
        raise RangeError(f"|{name}| overflows a float, got {z!r}") from None


def lambda01_lower(z: complex) -> float:
    """Certified lower bound lambda01(-|z|) <= lambda01(z) for z not 0, 1.

    Tight exactly on the negative real axis; elsewhere it is the minimum
    of the density over the circle |w| = |z|.
    """
    return lambda01_neg(_check_not_puncture(z, "z"))


def d01_lower(z: complex, w: complex) -> float:
    """Certified lower bound d01(-|z|, -|w|) <= d01(z, w) for z, w not 0, 1.

    Vanishes whenever |z| = |w| (the bound carries no angular
    information); tight when both points sit on the negative real axis.
    """
    return d01_neg(_check_not_puncture(z, "z"), _check_not_puncture(w, "w"))


# the array forms, which load numpy
__getattr__ = specfun.lazy_names(
    globals(), "._arrays",
    ("h_many", "big_h_many", "big_h_prime_many", "varphi_many"))
