"""Arithmetic-geometric mean and the complete elliptic integral K.

K(r) = (pi/2) F(1/2,1/2;1;r^2) = pi / (2 agm(1, r')) with r' = sqrt(1-r^2).
mu(r) is the modulus of the Groetzsch ring, mu(r) = (pi/2) K(r')/K(r);
it satisfies mu(r) mu(r') = pi^2/4.
"""

from __future__ import annotations

import math
import sys

from . import specfun
from .errors import ConvergenceError, DomainError

# Stop once the gap is a few ulp; the rounding plateau of the iteration
# sits at ~1 ulp, so anything tighter may never trigger.
AGM_RTOL = 4.0 * sys.float_info.epsilon
AGM_MAX_ITER = 60


def agm(x: float, y: float) -> float:
    """Common limit of a_{n+1} = (a_n+b_n)/2, b_{n+1} = sqrt(a_n b_n),
    at any positive finite floats x and y."""
    x = specfun.to_float(x, "x")
    y = specfun.to_float(y, "y")
    if not (math.isfinite(x) and math.isfinite(y)) or x <= 0.0 or y <= 0.0:
        raise DomainError(f"agm requires positive finite arguments, got {x!r}, {y!r}")
    a, b = (x, y) if x >= y else (y, x)
    # _agm's a b and a + b leave the float range where a/b is past
    # ~2^1000 or the pair sits near an end of it.  Steps that cannot
    # overflow halve log(a/b) until it fits, at most twice; then _agm runs
    # on the pair scaled by the power of two that brings a b near 1.  Its
    # steps commute with that scaling, so where both arguments lie in
    # [2^-500, 2^500] the result has _agm's bits
    while a / b > 2.0 ** 1000:
        a, b = 0.5 * a + 0.5 * b, math.sqrt(a) * math.sqrt(b)
    k = (math.frexp(a)[1] + math.frexp(b)[1]) // 2
    return math.ldexp(_agm(math.ldexp(a, -k), math.ldexp(b, -k)), k)


def _agm(x: float, y: float) -> float:
    """agm at positive finite floats, unchecked: the core of ``agm`` for
    callers that made x and y themselves."""
    a, b = (x, y) if x >= y else (y, x)
    for _ in range(AGM_MAX_ITER):
        if a - b <= AGM_RTOL * a:
            return 0.5 * (a + b)
        a, b = 0.5 * (a + b), math.sqrt(a * b)
    raise ConvergenceError(
        f"agm({x}, {y}) did not converge within {AGM_MAX_ITER} iterations"
    )


def ellip_k(r: float) -> float:
    """Complete elliptic integral of the first kind, K(r), 0 <= r < 1."""
    r = specfun.to_float(r, "r")
    if not (0.0 <= r < 1.0):
        raise DomainError(f"K(r) requires 0 <= r < 1, got {r!r}")
    # 1 - r is exact for r >= 1/2, so r' keeps its digits up to r < 1
    r_comp = math.sqrt((1.0 - r) * (1.0 + r))
    return math.pi / (2.0 * _agm(1.0, r_comp))


def mu(r: float) -> float:
    """Groetzsch ring modulus mu(r) = (pi/2) K(r')/K(r) for 0 < r < 1.

    Computed as (pi/2) agm(1, r)/agm(1, r'), which stays accurate at both
    endpoints of (0, 1).
    """
    r = specfun.to_float(r, "r")
    if not (0.0 < r < 1.0):
        raise DomainError(f"mu(r) requires 0 < r < 1, got {r!r}")
    r_comp = math.sqrt((1.0 - r) * (1.0 + r))
    return 0.5 * math.pi * _agm(1.0, r_comp) / _agm(1.0, r)


# bind this module's names into the package, however it was imported
from . import _bind  # noqa: E402

_bind(__name__)
