"""Numerics for the hyperbolic metric of punctured plane domains.

The package is organized bottom-up: gamma-family scalars (specfun),
the AGM-based complete elliptic integral (elliptic), the Gaussian
hypergeometric function with zero-balanced log expansions (hyp2f1),
the distance and slope functions P, Q, q built on it (pqfun), the
density quantities of the twice-punctured plane (metric), certified
bounds for general punctured domains (bounds), and a registry of
named property checks mirroring the analytic claims these rest on
(verify).  ``python -m punctmetric.cli`` or the ``punctmetric``
script front all of it.

The package and its scalar calls run without numpy.  numpy loads with
the first array form, the first domain of ``bounds._LISTS_BELOW``
punctures or more, and ``verify``, which this package hands out on
first use.
"""

import importlib

from . import bounds, elliptic, hyp2f1, metric, pqfun, specfun
from .bounds import (
    BaselineBounds,
    PuncturedDomain,
    RhoBounds,
    RingBoundParams,
    baseline_bounds,
    rho_bounds,
    ring_coefficients,
    ring_gap,
    ring_lower_bound,
    sigma_lower,
)
from .elliptic import agm, ellip_k, mu
from .errors import (
    BracketError,
    ConvergenceError,
    DomainError,
    HypothesisError,
    PunctMetricError,
    RangeError,
    UnknownCheckError,
)
from .hyp2f1 import EvalResult, HypParams, f21, f21_at_one
from .metric import (
    big_h,
    big_h_prime,
    c0,
    d01_lower,
    d01_neg,
    h,
    lambda01_lower,
    lambda01_neg,
    phi_func,
    varphi,
)
from .pqfun import ZeroBalancedPair, p_func, p_prime, q_func, q_log

_FROM_VERIFY = ("GridSpec", "PropertyReport", "check_names", "find_t0",
                "max_weighted_h", "run_check", "run_suite")

__version__ = "0.1.0"

__all__ = [
    "BaselineBounds",
    "BracketError",
    "ConvergenceError",
    "DomainError",
    "EvalResult",
    "GridSpec",
    "HypParams",
    "HypothesisError",
    "PropertyReport",
    "PuncturedDomain",
    "PunctMetricError",
    "RangeError",
    "RhoBounds",
    "RingBoundParams",
    "UnknownCheckError",
    "ZeroBalancedPair",
    "agm",
    "baseline_bounds",
    "big_h",
    "big_h_prime",
    "bounds",
    "c0",
    "check_names",
    "d01_lower",
    "d01_neg",
    "ellip_k",
    "elliptic",
    "f21",
    "f21_at_one",
    "find_t0",
    "h",
    "hyp2f1",
    "lambda01_lower",
    "lambda01_neg",
    "max_weighted_h",
    "metric",
    "mu",
    "p_func",
    "p_prime",
    "phi_func",
    "pqfun",
    "q_func",
    "q_log",
    "rho_bounds",
    "ring_coefficients",
    "ring_gap",
    "ring_lower_bound",
    "run_check",
    "run_suite",
    "sigma_lower",
    "specfun",
    "varphi",
    "verify",
    "__version__",
]


def __getattr__(name: str):
    """verify and its names, which load numpy, on first use (PEP 562)."""
    if name != "verify" and name not in _FROM_VERIFY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    verify = importlib.import_module(".verify", __name__)  # binds verify
    if name == "verify":
        return verify
    value = globals()[name] = getattr(verify, name)
    return value
