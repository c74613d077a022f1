"""Output checks: each operation's result against its reference.

An operation fails when it raises, when a CLI request exits non-zero,
when its output misses the reference by more than its error budget,
or when a certified bound lies on the wrong side of the reference.
The budget of ``f21`` is its own ``abs_err_estimate``; every other
value must be within a relative ``RTOL`` of the reference, the
tolerance the repository's acceptance tests use.  Comparisons are made
in decimal arithmetic at 60 digits, so rounding the reference to a
double never decides an outcome.
"""

from __future__ import annotations

import csv
import io
import json
import math
from decimal import Decimal, localcontext
from typing import NamedTuple, Optional

RTOL = Decimal("1e-12")


class Outcome(NamedTuple):
    ok: bool
    rel_err: Optional[float]  # largest relative error over components
    reasons: tuple = ()       # why it failed; empty when ok
    regime: str = ""          # f21 dispatch regime, f21 operations only
    est_violated: bool = False


def _dec(v) -> Decimal:
    if isinstance(v, str) and v in ("inf", "-inf"):
        return Decimal(v.replace("inf", "Infinity"))
    return Decimal(v)


class _Cmp:
    """Accumulates component comparisons for one operation."""

    def __init__(self) -> None:
        self.rel = 0.0
        self.reasons: set = set()

    def fail(self, reason: str) -> None:
        self.reasons.add(reason)

    def close(self, got, ref: str, label: str, side: int = 0) -> None:
        """got within RTOL of ref; side -1 means got <= ref, +1 got >= ref.

        Failure reasons read "budget:<label>" or "side:<label>".
        """
        g, r = _dec(got), _dec(ref)
        if r.is_infinite() or g.is_infinite():
            if g != r:
                self.fail("budget:" + label)
            return
        with localcontext() as ctx:
            ctx.prec = 60
            diff = g - r
            rel = abs(diff) / abs(r) if r else abs(diff)
        self.rel = max(self.rel, float(rel))
        if side and diff * side < 0:
            self.fail("side:" + label)
        if rel > RTOL:
            self.fail("budget:" + label)

    def outcome(self) -> Outcome:
        return Outcome(not self.reasons, self.rel, tuple(sorted(self.reasons)))


def f21_regime(a: float, b: float, c: float, x: float,
               method: Optional[str]) -> str:
    """Which evaluation route served (or, if it raised, should serve)
    F(a,b;c;x): direct, zb_log, shifted_log or nzb_near1."""
    if x <= 0.5:
        return "direct"
    if method == "direct_series":
        return "nzb_near1"
    if c == a + b:
        return "zb_log"
    if c == (a + b) + 1.0:
        return "shifted_log"
    return "nzb_near1"


def _check_f21(op: dict, res, ref: list) -> Outcome:
    regime = f21_regime(op["a"], op["b"], op["c"], op["x"], res.method)
    r = _dec(ref[0])
    with localcontext() as ctx:
        ctx.prec = 60
        err = abs(_dec(res.value) - r)
        rel = float(err / abs(r))
        violated = err > _dec(res.abs_err_estimate)
    return Outcome(not violated, rel, ("estimate",) if violated else (),
                   regime, violated)


def _check_rho(cmp: _Cmp, lower, upper, ref: list) -> None:
    cmp.close(lower, ref[0], "lower", side=-1)
    cmp.close(upper, ref[1], "upper", side=+1)


def _check_cli(op: dict, res, ref: Optional[list]) -> Outcome:
    code, text = res
    cmp = _Cmp()
    if code != 0:
        cmp.fail("exit")
        return cmp.outcome()._replace(rel_err=None)
    argv = op["argv"]
    try:
        if argv[0] == "verify":
            reports = [json.loads(line) for line in text.splitlines()]
            if (len(reports) != 1 or reports[0].get("name") != argv[2]
                    or reports[0].get("passed") is not True):
                cmp.fail("verify")
            return cmp.outcome()._replace(rel_err=None)
        if argv[0] == "figure1":
            rows = list(csv.reader(io.StringIO(text)))
            if rows[0] != ["c", "phi_over_c", "h_half", "bp_log"] \
                    or len(rows) != op["count"] + 1:
                cmp.fail("format")
                return cmp.outcome()
            vals = [v for row in rows[1:] for v in row]
            for got, want in zip(vals, ref):
                cmp.close(got, want, "row")
            return cmp.outcome()
        out = json.loads(text)
        if argv[1] == "rho":
            _check_rho(cmp, out["lower"], out["upper"], ref)
        elif argv[1] == "sigma":
            cmp.close(out["value"], ref[0], "value", side=-1)
        else:
            sv, bp = out["baselines"]["sv512"], out["baselines"]["bp"]
            got = [out["A"], out["B"], out["lower_bound"], sv["A"],
                   sv["lower_bound"], bp["A"], bp["B"], bp["lower_bound"]]
            labels = ["A", "B", "value", "sv512", "sv512", "bp", "bp", "bp"]
            for i, (g, want) in enumerate(zip(got, ref)):
                cmp.close(g, want, labels[i], side=-1 if i == 2 else 0)
    except (ValueError, KeyError, IndexError, TypeError):
        cmp.fail("format")
    return cmp.outcome()


def check(op: dict, res, ref: Optional[list]) -> Outcome:
    """Judge one completed (non-raising) operation."""
    call = op["call"]
    if call == "cli":
        return _check_cli(op, res, ref)
    if call == "f21":
        return _check_f21(op, res, ref)
    cmp = _Cmp()
    if call == "rho":
        _check_rho(cmp, res.lower, res.upper, ref)
    elif call == "sigma":
        cmp.close(res, ref[0], "value", side=-1)
    elif call == "ring_coefficients":
        if res.c != op["c"]:
            cmp.fail("budget:c")
        cmp.close(res.A, ref[0], "A")
        cmp.close(res.B, ref[1], "B")
    elif call == "ring_lower_bound":
        cmp.close(res, ref[0], "value", side=-1)
    elif call == "baseline_bounds":
        for got, want, label in zip(res, ref, ("sv512", "bp", "bp")):
            cmp.close(got, want, label)
    else:
        cmp.close(res, ref[0], "value")
    return cmp.outcome()


def raised(op: dict, exc: BaseException) -> Outcome:
    regime = ""
    if op["call"] == "f21":
        regime = f21_regime(op["a"], op["b"], op["c"], op["x"], None)
    return Outcome(False, None, ("raised:" + type(exc).__name__,), regime)


def percentile(sorted_vals: list, q: float) -> float:
    """Linear-interpolation percentile (q in [0, 1]) of sorted values."""
    pos = q * (len(sorted_vals) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(sorted_vals) - 1)
    return sorted_vals[lo] + (sorted_vals[hi] - sorted_vals[lo]) * (pos - lo)
