"""The scalar kernels of hyp2f1, metric and pqfun against a golden file.

``tests/data/f21_scalar.jsonl`` holds one call a line: the function, its
arguments, and what it returned (every field of an EvalResult) or the
type and message of the typed error it raised.  Each result must match
bit for bit, and each returned field must be a Python float, int or
str, never a numpy scalar.  The cases cover every route of f21 (direct,
the log series at c-a-b = 0 and 1 and by Euler's transformation at -1,
connection and its hand-over to the direct series, the integer c-a-b
that stay direct), the points x = 0, 1/2 and just above 1/2,
tiny and large parameters, and the complement kernels at u = 0 and
subnormal u.

Regenerate the file with ``python tests/test_scalar_golden.py``, which
writes it from the library on the import path, after printing how many
rows change per (function, field) against the file it replaces.
"""

import json
import math
import random
import struct
from collections import Counter
from pathlib import Path

from punctmetric import hyp2f1, metric, pqfun
from punctmetric.errors import PunctMetricError
from punctmetric.hyp2f1 import EvalResult, HypParams

GOLDEN = Path(__file__).parent / "data" / "f21_scalar.jsonl"
ABOVE_HALF = math.nextafter(0.5, 1.0)


def _pair(a, b):
    return pqfun.ZeroBalancedPair(a, b)


FUNCTIONS = {
    "f21": lambda a, b, c, x: hyp2f1.f21(HypParams(a, b, c), x),
    "f21_derivative":
        lambda a, b, c, x: hyp2f1.f21_derivative(HypParams(a, b, c), x),
    "f21_from_complement": lambda a, b, c, u, ell:
        hyp2f1.f21_from_complement(HypParams(a, b, c), u, ell),
    "zb_complement_sums": hyp2f1.zb_complement_sums,
    "f21_minus_one": hyp2f1.f21_minus_one,
    "h": metric.h,
    "varphi": metric.varphi,
    "p_func": lambda a, b, t: pqfun.p_func(_pair(a, b), t),
    "p_prime": lambda a, b, t: pqfun.p_prime(_pair(a, b), t),
    "q_func": lambda a, b, t: pqfun.q_func(_pair(a, b), t),
    "q_log_prime": lambda a, b, t: pqfun.q_log_prime(_pair(a, b), t),
    "n_func": pqfun.n_func,
    "m_func": pqfun.m_func,
}


def _cases():
    """(function name, arguments) of every line of the golden file."""
    xs = [0.0, 0.3, 0.5, ABOVE_HALF, 0.9, 0.999, 1.0 - 1e-10]
    params = [
        (0.5, 0.5, 1.0), (1.2, 0.8, 2.0), (3.0, 5.0, 8.0),     # c = a+b
        (50.0, 50.0, 100.0),
        (0.5, 0.5, 2.0), (2.5, 1.5, 5.0), (0.3, 0.7, 2.0),    # c = a+b+1
        (0.3, 0.7, 1.1), (0.5, 0.7, 1.3), (2.5, 1.5, 3.2),    # connection
        (0.7, 1.3, 1.3),                                      # Gamma pole
        (0.3, 0.7, 2.0 + 5e-10), (1.5, 0.6, 3.102),           # hand-over
        (300.3, 200.7, 520.1),
        (2.0, 2.0, 1.0), (1.0, 2.0, 2.0), (1.5, 1.5, 2.0),    # integer s
        (1.0, 1.0, 4.0), (2.5, 1.5, 3.0), (2.5, 2.5, 3.0),
        (1e-200, 1e-200, 2e-200), (1e-10, 1e-10, 2e-10),      # tiny a, b
        (1e-200, 1e-200, 1.0 + 2e-200), (1e-170, 1e-160, 1.0),
        (1e-300, 1e-30, 1.0 + 1e-30),
    ]
    # the integer s that stay on the direct series run long tails near 1
    direct = ((2.0, 2.0, 1.0), (1.0, 2.0, 2.0))
    cases = [("f21", (*p, x)) for p in params for x in xs
             if p not in direct or x < 0.99]
    cases += [("f21", (150.5, 120.25, 100.0, 0.999)),    # RangeError
              ("f21", (1e306, 1.5, 1e306, 0.9)),
              ("f21", (0.5, 0.5, 1.0, 1.0))]             # DomainError
    cases += [("f21", (a, a, c, 0.9)) for a in (400.0, 1e4)
              for c in (2.0 * a, 2.0 * a + 1.0)]
    rng = random.Random(20081005)
    for _ in range(150):
        a, b = rng.uniform(0.05, 6.0), rng.uniform(0.05, 6.0)
        s = rng.choice([0.0, 1.0, rng.uniform(-2.5, 3.5)])
        c = a + b + s
        x = rng.choice([rng.uniform(0.0, 0.5), rng.uniform(0.5, 0.999),
                        1.0 - 10.0 ** rng.uniform(-12.0, -3.0)])
        if c > 0.0:
            cases.append(("f21", (a, b, c, x)))
    for a, b, c in ((0.7, 1.3, 1.9), (0.9, 1.1, 0.8), (0.5, 0.5, 1.5)):
        cases += [("f21_derivative", (a, b, c, x)) for x in xs[:6]]
    for s in (0.0, 1.0):
        for a, b in ((0.5, 0.5), (1.2, 0.8), (1e-200, 1e-200), (30.0, 2.0)):
            cases += [("f21_from_complement",
                       (a, b, a + b + s, u, -math.log(u) if u else 745.0))
                      for u in (0.0, 5e-324, 1e-301, 1e-8, 0.25, 0.5)]
    for a, b in ((0.5, 0.5), (1.0, 2.0), (0.3, 1.7)):
        for u in (0.0, 1e-300, 1e-20, 1e-3, 0.3, 0.75):
            cases.append(("zb_complement_sums", (a, b, u)))
            cases.append(("f21_minus_one", (a, b, a + b, u)))
        cases += [case for case in (("f21", (a, b, a + b, x))
                                    for x in (0.3, 0.5, 0.9))
                  if case not in cases]
        cases += [("f21_derivative", (a, b, a + b, x)) for x in xs]
    cases += [("h", (t,)) for t in (0.0, -0.0, 1e-300, 0.5, -3.0, 37.0,
                                    700.0, -700.0)]
    cases += [("varphi", (t,)) for t in (1e-300, 1e-12, 0.25, 3.0, 149.0,
                                         151.0, 1489.0, 1e300)]
    for a, b in ((0.5, 0.5), (1.0, 2.0), (0.3, 1.7)):
        for name in ("p_func", "p_prime", "q_func", "q_log_prime"):
            cases += [(name, (a, b, t)) for t in (0.0, -0.0, 1e-300, 0.5,
                                                  -2.0, 40.0, -800.0)]
    for abc in ((0.5, 0.5, 1.0), (0.3, 0.7, 1.0), (0.9, 1.1, 2.6),
                (1.0, 1.0, 1.5)):
        for name in ("n_func", "m_func"):
            cases += [(name, (*abc, x)) for x in (1e-300, 0.25, 0.5,
                                                  ABOVE_HALF, 1.0 - 1e-16)]
    return cases


def _record(name, args):
    """What FUNCTIONS[name](*args) returns, as a JSON-ready dict."""
    try:
        out = FUNCTIONS[name](*args)
    except PunctMetricError as exc:
        return {"error": type(exc).__name__, "message": str(exc)}
    if isinstance(out, EvalResult):
        return {"value": out.value, "abs_err_estimate": out.abs_err_estimate,
                "terms_used": out.terms_used, "method": out.method}
    if isinstance(out, tuple):
        return {"value": list(out)}
    return {"value": out}


def _same(got, want) -> bool:
    """Equal, floats by bit pattern, and every field a plain Python type."""
    if isinstance(want, list):
        return (isinstance(got, list) and len(got) == len(want)
                and all(_same(g, w) for g, w in zip(got, want)))
    if isinstance(want, float):
        return type(got) is float and (struct.pack("<d", got)
                                       == struct.pack("<d", want))
    return type(got) is type(want) and got == want


def test_scalar_output_is_golden():
    with GOLDEN.open() as f:
        lines = [json.loads(line) for line in f]
    assert len(lines) == len(_cases())
    wrong = []
    for line in lines:
        got = _record(line["fn"], line["args"])
        if got.keys() != line["out"].keys() or not all(
                _same(got[k], want) for k, want in line["out"].items()):
            wrong.append((line["fn"], line["args"], got, line["out"]))
    assert not wrong, f"{len(wrong)} calls differ, first: {wrong[0]}"


def _changes(old_lines, new_lines) -> Counter:
    """Rows that differ per (function, field), new rows and gone rows
    counted under the field "(row)"."""
    old = {(line["fn"], json.dumps(line["args"])): line["out"]
           for line in old_lines}
    counts = Counter()
    for line in new_lines:
        want = old.pop((line["fn"], json.dumps(line["args"])), None)
        got = line["out"]
        if want is None:
            counts[line["fn"], "(row)"] += 1
            continue
        for field in sorted(got.keys() | want.keys()):
            if not (field in got and field in want
                    and _same(got[field], want[field])):
                counts[line["fn"], field] += 1
    for fn, _ in old:
        counts[fn, "(row)"] += 1
    return counts


if __name__ == "__main__":
    new_lines = [{"fn": name, "args": list(args), "out": _record(name, args)}
                 for name, args in _cases()]
    old_lines = []
    if GOLDEN.exists():
        with GOLDEN.open() as f:
            old_lines = [json.loads(line) for line in f]
    counts = _changes(old_lines, new_lines)
    print(f"rows changed against {GOLDEN.name} ({len(new_lines)} rows):")
    for (fn, field), count in sorted(counts.items()):
        print(f"  {fn:28} {field:18} {count}")
    with GOLDEN.open("w") as f:
        for line in new_lines:
            f.write(json.dumps(line, allow_nan=False) + "\n")
