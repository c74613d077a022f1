"""Per-layer tracing from outside the library.

``Tracer.install`` replaces every public function of the library's
modules with a timing wrapper, under every name it is bound to: the
defining module, the package namespace and import sites such as
``metric.agm``, ``metric.ellip_k`` or ``cli.f21``.  ``uninstall``
puts the originals back, so untraced passes run the library as
shipped.

Each wrapped name aggregates call count, inclusive time, self time
(inclusive minus time in wrapped callees) and failures.  Hot leaves
such as ``h`` and ``agm`` run about a million times a pass, so spans
are aggregated, not stored; only each operation's outermost library
calls are kept as spans, linked to the operation that caused them.
"""

from __future__ import annotations

import functools
import inspect
import time
from collections import Counter

from check import f21_regime

MODULES = ("specfun", "elliptic", "hyp2f1", "pqfun", "metric", "bounds",
           "verify", "cli")
REGIMES = ("direct", "zb_log", "shifted_log", "nzb_near1")
METHODS = ("direct_series", "zb_log_series")
_EVAL_FUNCS = {"hyp2f1.f21", "hyp2f1.zb_from_complement",
               "hyp2f1.zb_shifted_from_complement", "hyp2f1.zb_near_one"}
_QUERIES = {"bounds.rho_bounds", "bounds.sigma_lower"}
_DOMAIN_INIT = "bounds.PuncturedDomain.__init__"
SPAN_CAP = 50_000


def _eval_regime(key: str, args: tuple, method: str) -> str:
    if key == "hyp2f1.f21":
        p, x = args[0], args[1]
        return f21_regime(p.a, p.b, p.c, x, method)
    if key == "hyp2f1.zb_shifted_from_complement":
        return "shifted_log"
    return "zb_log"


class Tracer:
    def __init__(self, pkg) -> None:
        self.stack: list[list] = []  # [key, time in wrapped callees]
        self.eval_depth = 0
        self.op_id = None
        self.spans: list[tuple] = []
        self.dropped_spans = 0
        self._patches: list[tuple] = []
        self._conv_error = pkg.errors.ConvergenceError
        self.reset()
        originals = {}
        for mod_name in MODULES:
            mod = getattr(pkg, mod_name)
            for name, fn in vars(mod).items():
                if (inspect.isfunction(fn) and not name.startswith("_")
                        and fn.__module__ == mod.__name__):
                    originals[id(fn)] = (f"{mod_name}.{name}", fn)
        for mod in [pkg] + [getattr(pkg, m) for m in MODULES]:
            for name, obj in vars(mod).items():
                if id(obj) in originals and originals[id(obj)][1] is obj:
                    key, fn = originals[id(obj)]
                    self._patches.append((mod, name, fn, key))
        cls = pkg.bounds.PuncturedDomain
        self._patches.append((cls, "__init__", cls.__init__, _DOMAIN_INIT))
        self._wrappers = {}
        for _, _, fn, key in self._patches:
            if key not in self._wrappers:
                self._wrappers[key] = self._wrap(key, fn)

    def reset(self) -> None:
        """Start a fresh aggregation window (one pass)."""
        self.stats: dict[str, list] = {}
        self.entries: Counter = Counter()  # module -> calls from outside it
        self.methods: Counter = Counter()
        self.terms: Counter = Counter()
        self.conv_errors = 0
        self.kernel_calls = 0
        self.check_times: list[float] = []

    def install(self) -> None:
        for owner, name, _, key in self._patches:
            setattr(owner, name, self._wrappers[key])

    def uninstall(self) -> None:
        for owner, name, fn, _ in self._patches:
            setattr(owner, name, fn)

    def _wrap(self, key: str, fn):
        module = key.split(".")[0]
        is_eval = key in _EVAL_FUNCS
        is_check = key == "verify.run_check"
        clock = time.perf_counter
        stack = self.stack
        tracer = self

        def wrapper(*args, **kwargs):
            st = tracer.stats.get(key)
            if st is None:
                st = tracer.stats[key] = [0, 0.0, 0.0, 0]
            parent = stack[-1][0] if stack else None
            frame = [key, 0.0]
            stack.append(frame)
            if is_eval:
                tracer.eval_depth += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                st[3] += 1
                if (module == "hyp2f1" and isinstance(exc, tracer._conv_error)
                        and not (parent and parent.startswith("hyp2f1."))):
                    tracer.conv_errors += 1
                raise
            finally:
                dt = clock() - t0
                stack.pop()
                if is_eval:
                    tracer.eval_depth -= 1
                if stack:
                    stack[-1][1] += dt
                st[0] += 1
                st[1] += dt
                st[2] += dt - frame[1]
                if parent is None or not parent.startswith(module + "."):
                    tracer.entries[module] += 1
                if parent in _QUERIES and module == "metric":
                    tracer.kernel_calls += 1
                if parent is None and tracer.op_id is not None:
                    if len(tracer.spans) < SPAN_CAP:
                        tracer.spans.append((tracer.op_id, key, t0, t0 + dt))
                    else:
                        tracer.dropped_spans += 1
                if is_check:
                    tracer.check_times.append(dt)
            if is_eval and tracer.eval_depth == 0:
                tracer.methods[result.method] += 1
                tracer.terms[_eval_regime(key, args, result.method)] += \
                    result.terms_used
            return result

        functools.update_wrapper(wrapper, fn)
        return wrapper

    def layer_metrics(self) -> dict:
        """Per-layer numbers for the current window."""
        self_s = Counter()
        for key, st in self.stats.items():
            self_s[key.split(".")[0]] += st[2]

        def count(key: str) -> int:
            return self.stats.get(key, [0])[0]

        queries = count("bounds.rho_bounds") + count("bounds.sigma_lower")
        out = {f"hyp2f1.calls.{m}": self.methods[m] for m in METHODS}
        out.update({f"hyp2f1.terms.{r}": self.terms[r] for r in REGIMES})
        out.update({
            "hyp2f1.self_s": self_s["hyp2f1"],
            "hyp2f1.convergence_errors": self.conv_errors,
            "pqfun.calls": self.entries["pqfun"],
            "pqfun.self_s": self_s["pqfun"],
            "specfun.calls": self.entries["specfun"],
            "specfun.self_s": self_s["specfun"],
            "elliptic.agm.calls": count("elliptic.agm"),
            "elliptic.self_s": self_s["elliptic"],
            "metric.h.calls": count("metric.h"),
            "metric.lambda01.calls": count("metric.lambda01_neg"),
            "metric.self_s": self_s["metric"],
            "bounds.rho.calls": count("bounds.rho_bounds"),
            "bounds.sigma.calls": count("bounds.sigma_lower"),
            "bounds.self_s": self_s["bounds"],
            "bounds.kernel_calls_per_query":
                self.kernel_calls / queries if queries else 0.0,
            "bounds.domain_build_s": self.stats.get(_DOMAIN_INIT,
                                                    [0, 0.0])[1],
            "verify.self_s": self_s["verify"],
            "verify.slowest_check_s": max(self.check_times, default=0.0),
            "cli.self_s": self_s["cli"],
        })
        return out

    def summary(self) -> dict:
        """Per-name aggregates, for the trace file."""
        return {key: {"count": st[0], "incl_s": st[1], "self_s": st[2],
                      "failures": st[3]}
                for key, st in sorted(self.stats.items())}
