"""Gamma-family scalar special functions.

Everything here is a plain float -> float kernel: log-gamma, gamma, digamma,
the beta function, and the Ramanujan constant

    R(a, b) = -2*gamma_E - psi(a) - psi(b),

which is the additive constant in the logarithmic expansion of zero-balanced
hypergeometric functions near x = 1.  R(1/2, 1/2) = log 16.  Digamma, R,
the beta function with its log-gammas and log|Gamma| each check their
arguments, then call an unchecked core of the same name with a leading
underscore, which the library's own callers call on floats they made.
The checked digamma and R raise RangeError where the value overflows;
their cores return it as +-inf.

It also holds the helpers the other modules share: ``finite_complex``
checks a point of the plane and ``to_float`` converts a real argument,
each raising a DomainError that names what it refuses; ``is_array``
tells a batch of points from a float, and ``where`` and ``pointwise``
serve both, ``pointwise`` taking log, exp and log1p from ``math`` point
by point, because numpy's vectorised versions may round differently by
an ulp, and an array form must match its scalar form to the bit.  None
of them loads numpy, and ``lazy_names`` lets a module hand out its array
half, which does, on first use.  This module's array half, in
``_arrays``, holds ``as_points`` and ``_array_form``, the one driver of
every array form, which runs its array code once per call.
"""

from __future__ import annotations

import cmath
import math
import sys
from typing import Callable

from .errors import DomainError, RangeError

# Euler-Mascheroni constant, -psi(1).
EULER_GAMMA = 0.57721566490153286

# psi(y) ~ log y - 1/(2y) - sum B_{2k} / (2k y^{2k}); coefficients below are
# -B_{2k}/(2k) for k = 1..7, applied in y^{-2} powers.
_DIGAMMA_ASYMP = (
    -1.0 / 12.0,
    1.0 / 120.0,
    -1.0 / 252.0,
    1.0 / 240.0,
    -1.0 / 132.0,
    691.0 / 32760.0,
    -1.0 / 12.0,
)

_DIGAMMA_SHIFT = 10.0


def _require_positive(x: float, name: str) -> float:
    x = to_float(x, name)
    if not math.isfinite(x) or x <= 0.0:
        raise DomainError(f"{name} must be a positive finite real, got {x!r}")
    return x


def _overflow(what: str) -> RangeError:
    return RangeError(f"{what} overflows a float")


def _finite(value: float, what: str) -> float:
    """value, or a RangeError where it overflowed to +-inf."""
    if math.isinf(value):
        raise _overflow(what)
    return value


def log_gamma(x: float) -> float:
    """Natural log of Gamma(x) for x > 0; RangeError past x ~ 2.5e305."""
    x = _require_positive(x, "x")
    try:
        return math.lgamma(x)
    except OverflowError:
        raise _overflow(f"log Gamma({x!r})") from None


def log_abs_gamma(x: float) -> tuple[float, int]:
    """(log|Gamma(x)|, sign of Gamma(x)) for any finite real x.

    At the poles x = 0, -1, -2, ... the pair is (inf, 0), so that
    sign * exp(-log) reads 1/Gamma(x) = 0 there.  Like math.lgamma this
    raises OverflowError past x ~ 2.5e305.
    """
    x = to_float(x, "x")
    if not math.isfinite(x):
        raise DomainError(f"x must be finite, got {x!r}")
    return _log_abs_gamma(x)


def _log_abs_gamma(x: float) -> tuple[float, int]:
    """log_abs_gamma at a finite float x, unchecked."""
    if x <= 0.0 and x.is_integer():
        return math.inf, 0
    # Gamma alternates in sign between the poles: negative on (-1, 0)
    sign = 1 if x > 0.0 or math.floor(x) % 2 == 0 else -1
    return math.lgamma(x), sign


def gamma(x: float) -> float:
    """Gamma(x) for x > 0; RangeError where it overflows (x > ~171.6)."""
    x = _require_positive(x, "x")
    try:
        return math.gamma(x)
    except OverflowError:
        raise _overflow(f"Gamma({x!r})") from None


def digamma(x: float) -> float:
    """psi(x) = Gamma'(x)/Gamma(x) for x > 0.

    Upward recurrence psi(x) = psi(x+1) - 1/x lifts the argument to
    y >= 10, where the truncated Bernoulli series is good to ~4e-17.
    RangeError where psi(x) overflows (x below ~5.6e-309).
    """
    return _finite(_digamma(_require_positive(x, "x")), f"psi({x!r})")


def _digamma(x: float) -> float:
    """digamma at a positive finite float x, unchecked."""
    acc = 0.0
    y = x
    while y < _DIGAMMA_SHIFT:
        acc -= 1.0 / y
        y += 1.0
    inv2 = 1.0 / (y * y)
    tail = 0.0
    power = inv2
    for coeff in _DIGAMMA_ASYMP:
        tail += coeff * power
        power *= inv2
    return acc + math.log(y) - 0.5 / y + tail


def beta(a: float, b: float) -> float:
    """Euler beta B(a, b) = Gamma(a) Gamma(b) / Gamma(a+b) for a, b > 0.

    RangeError where B or one of its log-gammas overflows.
    """
    return beta_with_log_gammas(a, b)[0]


def beta_with_log_gammas(
        a: float, b: float) -> tuple[float, tuple[float, float, float]]:
    """(B(a, b), (log Gamma(a), log Gamma(b), log Gamma(a+b))): ``beta``
    and the three log-gammas it is formed from, each evaluated once, for
    callers that also need them."""
    return _beta_with_log_gammas(_require_positive(a, "a"),
                                 _require_positive(b, "b"))


def _beta_with_log_gammas(
        a: float, b: float) -> tuple[float, tuple[float, float, float]]:
    """beta_with_log_gammas at positive finite floats a, b, unchecked."""
    try:
        lg = (math.lgamma(a), math.lgamma(b), math.lgamma(a + b))
        return math.exp(lg[0] + lg[1] - lg[2]), lg
    except OverflowError:
        raise _overflow(f"B({a!r}, {b!r})") from None


def ramanujan_r(a: float, b: float) -> float:
    """R(a, b) = -2*gamma_E - psi(a) - psi(b) for a, b > 0; RangeError
    where it overflows."""
    return _finite(_ramanujan_r(_require_positive(a, "a"),
                                _require_positive(b, "b")),
                   f"R({a!r}, {b!r})")


def _ramanujan_r(a: float, b: float) -> float:
    """ramanujan_r at positive finite floats a, b, unchecked."""
    return -2.0 * EULER_GAMMA - _digamma(a) - _digamma(b)


def is_array(x) -> bool:
    """Whether x is a numpy array.  Only a loaded numpy makes one, so the
    test loads nothing."""
    np = sys.modules.get("numpy")
    return np is not None and isinstance(x, np.ndarray)


def pointwise(fn: Callable[[float], float], x):
    """fn, a ``math`` function, at the float x, or at every point of the
    float array x (then an array comes back)."""
    if is_array(x):
        import numpy as np
        return np.fromiter(map(fn, x.tolist()), float, x.size)
    return fn(x)


def where(cond, yes, no):
    """yes where cond holds, else no: for a bool, or pointwise where cond
    is an array."""
    if is_array(cond):
        import numpy as np
        return np.where(cond, yes, no)
    return yes if cond else no


def finite_complex(p, name: str, index: int | None = None) -> complex:
    """p as a complex number, checked finite; where it is not one, a
    DomainError that names it (name[index] where an index is given)."""
    try:
        w = complex(p)
        if cmath.isfinite(w):
            return w
        problem = f"must be finite, got {w!r}"
    except (TypeError, ValueError, OverflowError):
        problem = f"must be a finite complex number, got {_shown(p)}"
    raise DomainError(f"{_label(name, index)} {problem}")


def to_float(x, name: str, index: int | None = None) -> float:
    """x as a float, infinities and NaN included, for the caller to
    check; where float(x) fails, as it does for an int past the float
    range, a DomainError that names x (name[index] where an index is
    given)."""
    try:
        return float(x)
    except (TypeError, ValueError, OverflowError):
        raise DomainError(f"{_label(name, index)} must be a real number in "
                          f"the float range, got {_shown(x)}") from None


def _label(name: str, index: int | None) -> str:
    return name if index is None else f"{name}[{index}]"


def _shown(x) -> str:
    """repr(x), or the size of an int too long for its decimal string."""
    try:
        return repr(x)
    except ValueError:  # past sys.get_int_max_str_digits() digits
        return f"an int of {x.bit_length()} bits"


def lazy_names(namespace: dict, module: str, names):
    """A module ``__getattr__`` (PEP 562) for the module whose globals are
    ``namespace``: the first lookup of one of ``names`` imports the
    sibling ``module`` and binds the name from it in ``namespace``, so
    that later lookups, and patches, meet an ordinary attribute."""
    names = frozenset(names)
    owner = namespace["__name__"]

    def __getattr__(name: str):
        if name not in names:
            raise AttributeError(
                f"module {owner!r} has no attribute {name!r}")
        # the import statement's path, which -X importtime reports
        __import__(__package__ + module)
        source = sys.modules[__package__ + module]
        value = namespace[name] = getattr(source, name)
        return value

    return __getattr__


# the array half of this module, which loads numpy
__getattr__ = lazy_names(globals(), "._arrays", ("as_points",))

# bind this module's names into the package, however it was imported
from . import _bind  # noqa: E402

_bind(__name__)
