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
punctures or more, and ``verify``.  One rule loads the package's
modules: ``import punctmetric`` imports only ``errors``, and hands out
every other module, and the names it takes from each, on first use
(see ``__getattr__``).  So a process compiles only what it runs: one
that makes domains and bounds loads ``bounds``, ``metric``,
``elliptic`` and ``specfun``, never the hypergeometric code
(``hyp2f1``, ``pqfun``).

No module imports ``dataclasses``, which would load ``inspect``,
``ast`` and ``dis`` at import: the records are
``typing.NamedTuple`` tuples (``HypParams``, ``EvalResult``,
``ZeroBalancedPair``, ``GridSpec``, ``PropertyReport``), the validated
ones checking their fields in ``__new__``, and ``PuncturedDomain`` is a
class with ``__slots__``.
"""

import sys

from .errors import (
    BracketError,
    ConvergenceError,
    DomainError,
    HypothesisError,
    PunctMetricError,
    RangeError,
    UnknownCheckError,
)

# the modules this package hands out on first use, with the names it
# takes from each
_LAZY = {
    "elliptic": ("agm", "ellip_k", "mu"),
    "hyp2f1": ("EvalResult", "HypParams", "f21", "f21_at_one"),
    "metric": ("big_h", "big_h_prime", "c0", "d01_lower", "d01_neg", "h",
               "lambda01_lower", "lambda01_neg", "phi_func", "varphi"),
    "pqfun": ("ZeroBalancedPair", "p_func", "p_prime", "q_func", "q_log"),
    "specfun": (),
    "bounds": ("BaselineBounds", "PuncturedDomain", "RhoBounds",
               "RingBoundParams", "baseline_bounds", "rho_bounds",
               "ring_coefficients", "ring_gap", "ring_lower_bound",
               "sigma_lower"),
    "verify": ("GridSpec", "PropertyReport", "check_names", "find_t0",
               "max_weighted_h", "run_check", "run_suite"),
}
_MODULE_OF = {name: module for module, names in _LAZY.items()
              for name in (module, *names)}

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


def _bind(name: str) -> None:
    """Bind the module ``name`` (one of ``_LAZY``), and the names this
    package takes from it, here.  Each calls this at the end of its own
    import, however it is imported (``import punctmetric.bounds``, a
    first lookup here, another module's import, unpickling a record or a
    domain), so anything that reads this module's namespace finds all
    of them."""
    module = name.rpartition(".")[2]
    loaded = sys.modules[name]
    names = globals()
    names[module] = loaded
    for taken in _LAZY[module]:
        names[taken] = getattr(loaded, taken)


def __getattr__(name: str):
    """The modules of ``_LAZY``, and the names taken from them, on first
    use (PEP 562): the first lookup of any of a module's names imports it,
    and its import binds all of them here (see ``_bind``)."""
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # through the import statement's path, which -X importtime reports
    # (importlib.import_module's is not)
    __import__(f"{__name__}.{module}")
    return globals()[name]
