"""Command line front end.

Five subcommands: ``eval`` (single function values), ``verify`` (the
named-property suite, one JSON line per report), ``bounds`` (ring,
rho, sigma queries), ``constants``, and ``figure1`` (CSV comparison
series of the three ring-bound slopes).

Output is JSON except for figure1's CSV.  Exit codes: 0 success or
all checks passed, 1 computation or check failure, 2 usage.  JSON has
no infinity, so an infinite upper bound is emitted as the string
"inf".  eval, constants, bounds ring, and rho and sigma on fewer than
``bounds._LISTS_BELOW`` punctures run without numpy; verify, figure1 and
larger domains load it.  This module imports nothing of the package
but ``errors``: each handler imports the modules it calls when it
runs, and ``eval NAME`` only NAME's.  So only the bounds subcommand
loads ``bounds``, and it, ``constants`` and ``eval h`` never compile
the hypergeometric code (``hyp2f1``, ``pqfun``).

Both readers of a command line take ``_GRAMMAR``, the one table of
subcommand paths, each with its arguments and its handler.  A plain
command line (see ``_parse``) is read in one pass over the table.
A value word may be a negative number, as argparse reads it
(``_NEGATIVE_NUMBER``), so ``eval H --t -2`` is plain.  Anything else,
help, abbreviations, repeated options, ``--``, other values that start
with "-" (``-1e-3``, ``-inf``, ``--z -1,0``) and every usage error, goes
to the argparse parser that ``_build_parser`` makes from the same table,
so help text, usage messages and exit code 2 are argparse's.  A plain
request neither imports argparse nor compiles the module (``_usage``)
that builds the parser.
"""

from __future__ import annotations

import functools
import json
import math
import os
import re
import sys
from types import SimpleNamespace
from typing import TYPE_CHECKING, NoReturn

from .errors import PunctMetricError, UnknownCheckError

if TYPE_CHECKING:
    import argparse

    # what either reader of a command line returns
    Args = argparse.Namespace | SimpleNamespace

_ENV_TOL = "PUNCTURED_METRIC_TOL"


def _emit(obj: object) -> None:
    sys.stdout.write(json.dumps(obj) + "\n")


def _real(v: float) -> object:
    return v if math.isfinite(v) else "inf" if v > 0 else "-inf"


def _parse_complex(text: str) -> complex:
    parts = text.split(",")
    try:
        if len(parts) == 1:
            return complex(float(parts[0]), 0.0)
        if len(parts) == 2:
            return complex(float(parts[0]), float(parts[1]))
    except ValueError:
        pass
    import argparse

    raise argparse.ArgumentTypeError(
        f"expected RE or RE,IM, got {text!r}")


# evaluator table: name -> (required flags, optional flags with defaults,
# the package's module and its function that gives the value).  The
# function takes the required flags' values in order, after the pair
# (a, b) where the defaults give one; f21 takes HypParams(a, b, c) and
# x, and its whole result goes out.
_PAIR = {"a": 0.5, "b": 0.5}
_EVALUATORS: dict[str, tuple[str, dict[str, float], str, str]] = {
    "f21": ("abcx", {}, "hyp2f1", "f21"),
    "K": ("r", {}, "elliptic", "ellip_k"),
    "mu": ("r", {}, "elliptic", "mu"),
    "lambda": ("x", {}, "metric", "lambda01_neg"),
    "phi": ("x", {}, "metric", "phi_func"),
    "h": ("t", {}, "metric", "h"),
    "H": ("t", {}, "metric", "big_h"),
    "varphi": ("t", {}, "metric", "varphi"),
    "P": ("t", _PAIR, "pqfun", "p_func"),
    "Q": ("t", _PAIR, "pqfun", "q_func"),
    "q": ("t", _PAIR, "pqfun", "q_log"),
    "N": ("abcx", {}, "pqfun", "n_func"),
    "M": ("abcx", {}, "pqfun", "m_func"),
}


def _cmd_eval(args: Args) -> int:
    spec = _EVALUATORS.get(args.function)
    if spec is None:
        _usage_error(f"unknown function {args.function!r}; "
                     f"known: {', '.join(sorted(_EVALUATORS))}")
    required, defaults, module, function = spec
    values = dict(defaults)
    for name in "abcxtr":
        given = getattr(args, name)
        if given is not None:
            values[name] = given
    missing = [n for n in required if n not in values]
    if missing:
        _usage_error(f"eval {args.function} needs --" + " --".join(missing))
    # the function's module alone, through the package's lazy rule
    mod = getattr(sys.modules[__package__], module)
    inputs = [values[n] for n in required]
    if function == "f21":
        r = mod.f21(mod.HypParams(*inputs[:3]), inputs[3])
        _emit({"value": r.value, "abs_err_estimate": r.abs_err_estimate,
               "terms_used": r.terms_used, "method": r.method})
        return 0
    if defaults:
        inputs.insert(0, mod.ZeroBalancedPair(values["a"], values["b"]))
    _emit({"value": getattr(mod, function)(*inputs)})
    return 0


def _tol_profile(args: Args) -> str:
    if args.suite is not None:
        return args.suite
    env = os.environ.get(_ENV_TOL)
    if env is None:
        return "default"
    if env not in ("default", "strict"):
        _usage_error(f"{_ENV_TOL} must be 'default' or 'strict', got {env!r}")
    return env


# The reply line of each report verify gave, by check name and profile,
# beside that report: a line is written again only while verify returns
# the very report it was made from, so verify's kept reports
# (``verify._reports``) alone decide what is kept, and a report made
# afresh gets a fresh line.  A command line passes no params, grid or
# tol, so every report verify gives it is one that verify keeps, and a
# repeated request formats nothing.
_replies: dict = {}


def _cmd_verify(args: Args) -> int:
    from . import verify

    profile = _tol_profile(args)
    try:
        if args.check is not None:
            reports = [verify.run_check(args.check, tol_profile=profile)]
        else:
            reports = verify.run_suite(tol_profile=profile)
    except UnknownCheckError as exc:
        _usage_error(str(exc))
    write = sys.stdout.write
    for r in reports:
        kept = _replies.get((r.name, profile))
        if kept is None or kept[0] is not r:
            kept = _replies[r.name, profile] = (
                r, json.dumps(r.to_dict()) + "\n")
        write(kept[1])
    return 0 if all(r.passed for r in reports) else 1


def _ring_payload(c: float, r1: float, r2: float, compare: bool) -> dict:
    from . import bounds

    params = bounds.ring_coefficients(c)
    out: dict = {"c": params.c, "A": params.A, "B": params.B,
                 "lower_bound": params.lower_bound(r1, r2)}
    if compare:
        bl = bounds.baseline_bounds(c)
        gap = math.log(r2) - math.log(r1)
        out["baselines"] = {
            "sv512": {"A": bl.sv512_A, "B": 0.0,
                      "lower_bound": max(0.0, bl.sv512_A * gap)},
            "bp": {"A": bl.bp_A, "B": bl.bp_B,
                   "lower_bound": max(0.0, bl.bp_A * gap - bl.bp_B)},
        }
    return out


def _cmd_bounds(args: Args) -> int:
    from . import bounds

    if args.query == "ring":
        _emit(_ring_payload(args.c, args.r1, args.r2, args.compare))
    elif args.query == "rho":
        rb = bounds.rho_bounds(bounds._read_domain(args.domain), args.z)
        _emit({"lower": rb.lower, "upper": _real(rb.upper)})
    else:
        val = bounds.sigma_lower(bounds._read_domain(args.domain), args.z)
        _emit({"value": val})
    return 0


def _cmd_constants(args: Args) -> int:
    from . import metric, specfun

    c0 = metric.c0()
    _emit({
        "C0": c0,
        "log16": math.log(16.0),
        "pi": math.pi,
        "euler_gamma": specfun.EULER_GAMMA,
        "references": {
            "two_C0_plus_half_pi": 2.0 * c0 + 0.5 * math.pi,
            "H_at_quarter_pi": metric.big_h(0.25 * math.pi),
            "R_half_half_minus_C0": specfun.ramanujan_r(0.5, 0.5) - c0,
        },
    })
    return 0


# figure1 evaluates its rows this many at a time: whole arrays for the
# kernels, a bounded amount of memory for any --count
_FIGURE1_ROWS = 4096


def _cmd_figure1(args: Args) -> int:
    from . import metric

    lo, hi, count = args.lo, args.hi, args.count
    if not (0.0 < lo < hi < math.inf) or count < 2:
        _usage_error("need 0 < --lo < --hi < inf and --count >= 2")
    # the last row's c, as the loop computes it: h(c/2) has no value past
    # T_CAP, so the whole grid is refused before the header is written
    if 0.5 * (lo + (hi - lo) * (count - 1) / (count - 1)) > metric.T_CAP:
        _usage_error(f"need rows with c <= {2.0 * metric.T_CAP:g} "
                     f"(h(c/2) has no value past t = {metric.T_CAP:g})")
    w = sys.stdout
    w.write("c,phi_over_c,h_half,bp_log\n")
    for start in range(0, count, _FIGURE1_ROWS):
        cs = [lo + (hi - lo) * i / (count - 1)
              for i in range(start, min(count, start + _FIGURE1_ROWS))]
        # ring_coefficients(c).A and baseline_bounds(c)'s sv512_A and bp_A,
        # to the bit, without the columns that are not printed
        phis = metric.varphi_many(cs).tolist()
        h_half = metric.h_many([0.5 * c for c in cs]).tolist()
        for c, phi, sv in zip(cs, phis, h_half):
            w.write(f"{c:.17g},{metric._varphi_over_t(c, phi):.17g},"
                    f"{sv:.17g},{metric._bp_log(c):.17g}\n")
    return 0


# The grammar, the one table that both readers of a command line take:
# subcommand path -> (help, handler, arguments), the arguments a dict
# from name ("--" before an option's) to add_argument keywords.  A path
# without a handler only groups the paths below it.
_POINT = {"--domain": {"required": True, "metavar": "FILE",
                       "help": "JSON list of [re, im] puncture pairs"},
          "--z": {"type": _parse_complex, "required": True,
                  "metavar": "RE,IM",
                  "help": "evaluation point (write --z=-1,0 for "
                          "negative re)"}}
_GRAMMAR = {
    ("eval",): ("evaluate one function, JSON result on stdout", _cmd_eval, {
        "function": {"help": "one of: " + ", ".join(sorted(_EVALUATORS))},
        **{f"--{flag}": {"type": float, "help": doc} for flag, doc in (
            ("a", "first parameter (P/Q/q default 0.5)"),
            ("b", "second parameter (P/Q/q default 0.5)"),
            ("c", "third parameter"),
            ("x", "argument in [0, 1) (f21, N, M), or > 0 (lambda, phi)"),
            ("t", "real argument (h, H, varphi, P, Q, q)"),
            ("r", "elliptic modulus in (0, 1)"))}}),
    ("verify",): ("run named property checks, one JSON line each",
                  _cmd_verify, {
        "--suite": {"choices": ("default", "strict"),
                    "help": f"tolerance profile (else ${_ENV_TOL}, "
                            "else default)"},
        "--check": {"metavar": "NAME", "help": "run a single check by name"},
        "--json": {"action": "store_true", "default": False,
                   "help": "no-op; output is always JSON lines"}}),
    ("bounds",): ("certified distance and density bounds", None, {}),
    ("bounds", "ring"): ("log-modulus distance lower bound", _cmd_bounds, {
        "--c": {"type": float, "required": True,
                "help": "log-ratio gap of the omitted sequence"},
        "--r1": {"type": float, "required": True},
        "--r2": {"type": float, "required": True},
        "--compare": {"action": "store_true", "default": False,
                      "help": "include the two classical baselines"}}),
    ("bounds", "rho"): ("two-sided density bounds at a point", _cmd_bounds,
                        _POINT),
    ("bounds", "sigma"): ("pairwise two-puncture density lower bound",
                          _cmd_bounds, _POINT),
    ("constants",): ("key constants as JSON", _cmd_constants, {}),
    ("figure1",): ("CSV of the three ring-bound slope functions",
                   _cmd_figure1, {
        "--lo": {"type": float, "default": 0.05},
        "--hi": {"type": float, "default": 10.0},
        "--count": {"type": int, "default": 200}}),
}


# argparse's pattern of a negative number (Python 3.10-3.12): a parser
# with no option that looks like one, as none of _GRAMMAR's has, reads a
# word it matches as a value, never as an option.  tests/test_cli.py
# checks the copy against the running argparse
_NEGATIVE_NUMBER = re.compile(r"^-\d+$|^-\d*\.\d+$")


def _is_value(word: str) -> bool:
    """Whether argparse reads word as a value, not an option or "--"."""
    return word[:1] != "-" or _NEGATIVE_NUMBER.match(word) is not None


def _parse(argv: list[str]) -> SimpleNamespace | None:
    """What _build_parser().parse_args(argv) returns, read in one pass
    over _GRAMMAR, where argv is plain; else None.

    A plain argv is the subcommand words, its positionals, then its
    options under their full names, each at most once: a flag bare, any
    other option with its value joined by "=" or as the next word, which
    does not start with "-" or is a negative number (``_is_value``).
    Every required option is there, and every value converts by its
    option's type to one of its choices.  Any other argv (help,
    abbreviations, repeats, "--", other values that start with "-",
    unknown words, bad values) is argparse's to read or refuse."""
    path = tuple(argv[:2])
    if path not in _GRAMMAR:
        path = path[:1]
    _, func, arguments = _GRAMMAR.get(path, (0, None, 0))
    if func is None:
        return None
    values = dict(zip(("command", "query"), path), func=func)
    words = iter(argv[len(path):])
    options = {}
    for name, kw in arguments.items():
        if name[0] == "-":
            options[name] = kw
            values[name[2:]] = kw.get("default")
        else:
            values[name] = next(words, "-")
            if not _is_value(values[name]):
                return None
    for word in words:
        name, eq, value = word.partition("=")
        kw = options.pop(name, None)
        if kw is None or eq and "action" in kw:
            return None
        if "action" in kw:  # a flag
            value = True
        else:
            if not eq:
                value = next(words, "-")
                if not _is_value(value):
                    return None
            try:
                value = kw.get("type", str)(value)
            except Exception:  # argparse converts it again and reports
                return None
            if value not in kw.get("choices", (value,)):
                return None
        values[name[2:]] = value
    if any(kw.get("required") for kw in options.values()):
        return None
    return SimpleNamespace(**values)


# Built on the first call that needs it and kept: a build costs more than
# many subcommands, and a parse leaves the parser as it found it.  Its
# module, and argparse, load only for help and usage errors.
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    from ._usage import build_parser

    return build_parser(_GRAMMAR)


def _usage_error(message: str) -> NoReturn:
    """Exit 2 with argparse's usage line and message, as argparse does
    for an error of its own."""
    _build_parser().error(message)


def _run(args: Args) -> int:
    """The subcommand's exit code; a typed or I/O error goes to stdout as
    a JSON error line with exit code 1."""
    try:
        return args.func(args)
    except PunctMetricError as exc:
        _emit({"error": {"type": type(exc).__name__, "message": str(exc)}})
    except BrokenPipeError:
        raise
    except OSError as exc:
        _emit({"error": {"type": "OSError", "message": str(exc)}})
    return 1


def _silence_stdout() -> None:
    """Point stdout at the null device, so that the interpreter's flush
    at exit does not meet a closed pipe again."""
    try:
        devnull = os.open(os.devnull, os.O_WRONLY)
    except OSError:
        return
    try:
        os.dup2(devnull, sys.stdout.fileno())
    except (OSError, ValueError):
        pass
    finally:
        os.close(devnull)


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _parse(argv)
    if args is None:
        args = _build_parser().parse_args(argv)
    try:
        rc = _run(args)
        sys.stdout.flush()
        return rc
    except BrokenPipeError:
        # the reader closed stdout (``| head``): nothing more can go there,
        # not even an error line
        _silence_stdout()
        return 1


if __name__ == "__main__":
    sys.exit(main())
