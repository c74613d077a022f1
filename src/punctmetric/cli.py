"""Command line front end.

Five subcommands: ``eval`` (single function values), ``verify`` (the
named-property suite, one JSON line per report), ``bounds`` (ring,
rho, sigma queries), ``constants``, and ``figure1`` (CSV comparison
series of the three ring-bound slopes).

Output is JSON except for figure1's CSV.  Exit codes: 0 success or
all checks passed, 1 computation or check failure, 2 usage.  JSON has
no infinity, so an infinite upper bound is emitted as the string
"inf".
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

import numpy as np

from . import bounds, elliptic, metric, pqfun, specfun, verify
from .errors import PunctMetricError, UnknownCheckError
from .hyp2f1 import HypParams, f21

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
    raise argparse.ArgumentTypeError(
        f"expected RE or RE,IM, got {text!r}")


def _load_domain(path: str) -> bounds.PuncturedDomain:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except ValueError as exc:
            raise PunctMetricError(
                f"domain file {path!r} is not valid JSON: {exc}") from None
    if not isinstance(data, list):
        raise PunctMetricError(
            f"domain file {path!r} must hold a JSON list of [re, im] pairs")
    pts = []
    for entry in data:
        if isinstance(entry, (int, float)):
            pts.append(complex(entry, 0.0))
        elif (isinstance(entry, list) and len(entry) == 2
              and all(isinstance(v, (int, float)) for v in entry)):
            pts.append(complex(entry[0], entry[1]))
        else:
            raise PunctMetricError(
                f"bad domain entry {entry!r}: expected [re, im] or a real")
    return bounds.PuncturedDomain(pts)


# evaluator table: name -> (required flags, optional flags with defaults,
# callable on the collected values)

def _ev_f21(v: dict) -> dict:
    r = f21(HypParams(v["a"], v["b"], v["c"]), v["x"])
    return {"value": r.value, "abs_err_estimate": r.abs_err_estimate,
            "terms_used": r.terms_used, "method": r.method}


def _pair(v: dict) -> pqfun.ZeroBalancedPair:
    return pqfun.ZeroBalancedPair(v["a"], v["b"])


_EVALUATORS: dict[str, tuple[tuple[str, ...], dict[str, float], object]] = {
    "f21": (("a", "b", "c", "x"), {}, _ev_f21),
    "K": (("r",), {}, lambda v: {"value": elliptic.ellip_k(v["r"])}),
    "mu": (("r",), {}, lambda v: {"value": elliptic.mu(v["r"])}),
    "lambda": (("x",), {}, lambda v: {"value": metric.lambda01_neg(v["x"])}),
    "phi": (("x",), {}, lambda v: {"value": metric.phi_func(v["x"])}),
    "h": (("t",), {}, lambda v: {"value": metric.h(v["t"])}),
    "H": (("t",), {}, lambda v: {"value": metric.big_h(v["t"])}),
    "varphi": (("t",), {}, lambda v: {"value": metric.varphi(v["t"])}),
    "P": (("t",), {"a": 0.5, "b": 0.5},
          lambda v: {"value": pqfun.p_func(_pair(v), v["t"])}),
    "Q": (("t",), {"a": 0.5, "b": 0.5},
          lambda v: {"value": pqfun.q_func(_pair(v), v["t"])}),
    "q": (("t",), {"a": 0.5, "b": 0.5},
          lambda v: {"value": pqfun.q_log(_pair(v), v["t"])}),
    "N": (("a", "b", "c", "x"), {},
          lambda v: {"value": pqfun.n_func(v["a"], v["b"], v["c"], v["x"])}),
    "M": (("a", "b", "c", "x"), {},
          lambda v: {"value": pqfun.m_func(v["a"], v["b"], v["c"], v["x"])}),
}


def _cmd_eval(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    spec = _EVALUATORS.get(args.function)
    if spec is None:
        parser.error(f"unknown function {args.function!r}; "
                     f"known: {', '.join(sorted(_EVALUATORS))}")
    required, defaults, fn = spec
    values = dict(defaults)
    for name in ("a", "b", "c", "x", "t", "r"):
        given = getattr(args, name)
        if given is not None:
            values[name] = given
    missing = [n for n in required if n not in values]
    if missing:
        parser.error(f"eval {args.function} needs --"
                     + " --".join(missing))
    _emit(fn(values))
    return 0


def _tol_profile(parser: argparse.ArgumentParser,
                 args: argparse.Namespace) -> str:
    if args.suite is not None:
        return args.suite
    env = os.environ.get(_ENV_TOL)
    if env is None:
        return "default"
    if env not in ("default", "strict"):
        parser.error(f"{_ENV_TOL} must be 'default' or 'strict', got {env!r}")
    return env


def _cmd_verify(parser: argparse.ArgumentParser,
                args: argparse.Namespace) -> int:
    profile = _tol_profile(parser, args)
    try:
        if args.check is not None:
            reports = [verify.run_check(args.check, tol_profile=profile)]
        else:
            reports = verify.run_suite(tol_profile=profile)
    except UnknownCheckError as exc:
        parser.error(str(exc))
    for r in reports:
        _emit(r.to_dict())
    return 0 if all(r.passed for r in reports) else 1


def _ring_payload(c: float, r1: float, r2: float, compare: bool) -> dict:
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


def _cmd_bounds(parser: argparse.ArgumentParser,
                args: argparse.Namespace) -> int:
    if args.query == "ring":
        _emit(_ring_payload(args.c, args.r1, args.r2, args.compare))
    elif args.query == "rho":
        rb = bounds.rho_bounds(_load_domain(args.domain), args.z)
        _emit({"lower": rb.lower, "upper": _real(rb.upper)})
    else:
        val = bounds.sigma_lower(_load_domain(args.domain), args.z)
        _emit({"value": val})
    return 0


def _cmd_constants(parser: argparse.ArgumentParser,
                   args: argparse.Namespace) -> int:
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


def _cmd_figure1(parser: argparse.ArgumentParser,
                 args: argparse.Namespace) -> int:
    lo, hi, count = args.lo, args.hi, args.count
    if not (0.0 < lo < hi < math.inf) or count < 2:
        parser.error("need 0 < --lo < --hi < inf and --count >= 2")
    two_c0 = 2.0 * metric.c0()
    w = sys.stdout
    w.write("c,phi_over_c,h_half,bp_log\n")
    for start in range(0, count, _FIGURE1_ROWS):
        i = np.arange(start, min(count, start + _FIGURE1_ROWS))
        cs = lo + (hi - lo) * i / (count - 1)
        # ring_coefficients(c).A and baseline_bounds(c)'s sv512_A and bp_A,
        # to the bit, without the columns that are not printed
        phi_over_c = metric.varphi_many(cs) / cs
        h_half = metric.h_many(0.5 * cs)
        for c, a, sv in zip(cs.tolist(), phi_over_c.tolist(),
                            h_half.tolist()):
            w.write(f"{c:.17g},{a:.17g},{sv:.17g},"
                    f"{math.log1p(c / two_c0) / c:.17g}\n")
    return 0


# Built on the first main() call and kept: a build costs more than many
# subcommands, and a parse leaves the parser as it found it.
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="punctmetric",
        description="Hyperbolic-metric numerics for punctured plane domains.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser(
        "eval", help="evaluate one function, JSON result on stdout")
    p_eval.add_argument("function",
                        help="one of: " + ", ".join(sorted(_EVALUATORS)))
    for flag, doc in (
            ("a", "first parameter (P/Q/q default 0.5)"),
            ("b", "second parameter (P/Q/q default 0.5)"),
            ("c", "third parameter"),
            ("x", "argument in [0, 1) (f21, N, M), or > 0 (lambda, phi)"),
            ("t", "real argument (h, H, varphi, P, Q, q)"),
            ("r", "elliptic modulus in (0, 1)")):
        p_eval.add_argument(f"--{flag}", type=float, help=doc)
    p_eval.set_defaults(func=_cmd_eval)

    p_verify = sub.add_parser(
        "verify", help="run named property checks, one JSON line each")
    p_verify.add_argument("--suite", choices=("default", "strict"),
                          help=f"tolerance profile (else ${_ENV_TOL}, "
                               "else default)")
    p_verify.add_argument("--check", metavar="NAME",
                          help="run a single check by name")
    p_verify.add_argument("--json", action="store_true",
                          help="no-op; output is always JSON lines")
    p_verify.set_defaults(func=_cmd_verify)

    p_bounds = sub.add_parser(
        "bounds", help="certified distance and density bounds")
    bsub = p_bounds.add_subparsers(dest="query", required=True)
    p_ring = bsub.add_parser("ring", help="log-modulus distance lower bound")
    p_ring.add_argument("--c", type=float, required=True,
                        help="log-ratio gap of the omitted sequence")
    p_ring.add_argument("--r1", type=float, required=True)
    p_ring.add_argument("--r2", type=float, required=True)
    p_ring.add_argument("--compare", action="store_true",
                        help="include the two classical baselines")
    p_ring.set_defaults(func=_cmd_bounds)
    for name, doc in (("rho", "two-sided density bounds at a point"),
                      ("sigma", "pairwise two-puncture density lower bound")):
        pq = bsub.add_parser(name, help=doc)
        pq.add_argument("--domain", required=True, metavar="FILE",
                        help="JSON list of [re, im] puncture pairs")
        pq.add_argument("--z", type=_parse_complex, required=True,
                        metavar="RE,IM",
                        help="evaluation point (write --z=-1,0 for "
                             "negative re)")
        pq.set_defaults(func=_cmd_bounds)

    p_const = sub.add_parser("constants", help="key constants as JSON")
    p_const.set_defaults(func=_cmd_constants)

    p_fig = sub.add_parser(
        "figure1", help="CSV of the three ring-bound slope functions")
    p_fig.add_argument("--lo", type=float, default=0.05)
    p_fig.add_argument("--hi", type=float, default=10.0)
    p_fig.add_argument("--count", type=int, default=200)
    p_fig.set_defaults(func=_cmd_figure1)

    return parser


def _run(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    """The subcommand's exit code; a typed or I/O error goes to stdout as
    a JSON error line with exit code 1."""
    try:
        return args.func(parser, args)
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
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        rc = _run(parser, args)
        sys.stdout.flush()
        return rc
    except BrokenPipeError:
        # the reader closed stdout (``| head``): nothing more can go there,
        # not even an error line
        _silence_stdout()
        return 1


if __name__ == "__main__":
    sys.exit(main())
