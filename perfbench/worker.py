"""One workload in one fresh interpreter: set up, run passes, check.

Started by run.py; not meant to be run by hand.  The interpreter
imports nothing of the library before the set-up clock starts, and
never imports mpmath: references arrive precomputed in a JSON file.

Closed loop, one caller: each operation is issued only after the
previous one returned.  A pass is the workload's list of operations;
the run makes the number of passes run.py asks for, so every run of a
seed issues the same operations.  With tracing on, passes alternate
between untraced and traced, so the overhead ratio compares like with
like.

Times are scaled to a reference speed.  Every CALIB_EVERY_S of a pass,
a timer signal makes the worker time a fixed piece of pure-Python work
(``calibration_chunk``); the time it takes is left out of every
operation and pass timer.  Each operation's time is multiplied by
REF_CHUNK_S over the median time of the chunks timed while it ran (for
a short one, of the LOCAL_CHUNKS chunks nearest to it), and the pass's
own loop time by REF_CHUNK_S over the median chunk time of the pass.
So a time reads as seconds on a machine that runs the chunk in
REF_CHUNK_S.  On a shared host whose speed drifts by tens of percent
within minutes, this keeps the drift out of the comparison between two
runs; the report prints raw wall times beside the scaled ones.  Traced
runs are not scaled: their figures are per-layer, and chunks would
land inside traced spans.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import gc
import io
import json
import math
import os
import resource
import signal
import statistics
import sys
import time

import check

MIN_PASSES = 3
# By definition, the reference machine runs calibration_chunk in 1 ms.  On
# the 2-vCPU x86-64 VM where the benchmark was defined, the median chunk
# of a run took 1.0-1.4 ms, so scaled times read 0-30% below raw ones.
REF_CHUNK_S = 1e-3
CALIB_EVERY_S = 0.025
CALIB_BURST = 10  # chunks timed just before and just after set-up
LOCAL_CHUNKS = 5  # chunks around an operation that scale its latency
# op_tail_s is the highest of these percentiles that leaves at least ten
# operations beyond it in a run of MIN_PASSES passes; it is fixed per
# workload by its pass size, so a faster program never shifts it.
TAIL_LADDER = (0.5, 0.75, 0.9, 0.95, 0.975, 0.99, 0.995, 0.999)


def tail_quantile(ops_per_pass: int) -> float:
    n = ops_per_pass * MIN_PASSES
    return max(q for q in TAIL_LADDER if n * (1.0 - q) >= 10.0 - 1e-9)


def _mean(a: float, b: float) -> tuple:
    return 0.5 * (a + b), math.sqrt(a * b)


def calibration_chunk() -> float:
    """About 1 ms of pure-Python work of the kinds the library does: a
    float series, an AGM-like loop through a call, complex arithmetic,
    and list, dict and JSON handling.  It runs no library code.  A mix
    tracks the library's speed better than one loop: how fast one
    piece of code runs relative to another differs from process to
    process on a shared host."""
    s, t = 0.0, 1.0
    for k in range(1, 1900):
        t *= 0.9999
        s += math.sqrt(k) * t / (k + 0.5)
    a, b = 1.0, 0.3
    for _ in range(480):
        a, b = _mean(a, b + 1e-3)
    z = complex(0.3, 0.4)
    for k in range(480):
        w = z * (1.0 + k * 1e-3) - 0.1j
        s += math.log(abs(w) + 1.0)
    xs = [(k * 7919) % 1009 * 0.5 for k in range(480)]
    d: dict = {}
    for k, x in enumerate(xs):
        d[k % 37] = d.get(k % 37, 0.0) + x
    xs.sort()
    s += len(json.dumps(xs[:160])) + json.loads("[1.5, 2.5]")[0]
    return s + a + d[3]


class Speed:
    """Chunk times measured while a run goes on.

    Between ``start`` and ``stop`` a wall-clock timer interrupts the run
    every CALIB_EVERY_S and times one chunk, inside whatever operation
    is running: so the chunks sample the whole pass evenly, long
    operations included.  ``spent`` adds up the time they took, for the
    timers of passes and operations to leave out."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.times: list[float] = []  # when each chunk started
        self.ops: list[tuple] = []  # (start, end) of each operation
        self.spent = 0.0

    def sample(self, count: int = 1) -> None:
        clock = time.perf_counter
        for _ in range(count):
            t0 = clock()
            calibration_chunk()
            dt = clock() - t0
            self.samples.append(dt)
            self.times.append(t0)
            self.spent += dt

    def _tick(self, signum, frame) -> None:
        self.sample()

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, CALIB_EVERY_S, CALIB_EVERY_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)

    def scale(self, since: int = 0) -> float:
        """Factor from raw seconds to reference seconds, from the chunks
        timed since sample number ``since``."""
        return REF_CHUNK_S / statistics.median(self.samples[since:])

    def local_scale(self, t0: float, t1: float, since: int = 0) -> float:
        """The factor for an operation that ran from t0 to t1: from the
        chunks timed while it ran if there are LOCAL_CHUNKS of them, else
        from the LOCAL_CHUNKS nearest to it; only chunks timed since
        sample number ``since`` count."""
        n = len(self.samples)
        i = bisect.bisect_left(self.times, t0, since)
        j = bisect.bisect_left(self.times, t1, since)
        if j - i < LOCAL_CHUNKS:
            i = max(since, min(i - LOCAL_CHUNKS // 2, n - LOCAL_CHUNKS))
            j = i + LOCAL_CHUNKS
        return REF_CHUNK_S / statistics.median(self.samples[i:j])


def _run_cli(main, argv: list) -> tuple:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code if isinstance(exc.code, int) else 2
    return code, buf.getvalue()


def build(pm, inputs: dict) -> list:
    """Construct the inputs through public constructors; return, per
    pass, a list of (op, zero-argument call).  Calls look library
    functions up at call time so that the tracer's wrappers apply."""
    domains = {name: pm.PuncturedDomain([complex(*p) for p in pts])
               for name, pts in inputs["domains"].items()}
    passes = []
    for ops in inputs["passes"]:
        calls = []
        for op in ops:
            call = op["call"]
            if call == "cli":
                fn = (lambda argv=op["argv"]: _run_cli(pm.cli.main, argv))
            elif call in ("rho", "sigma"):
                dom, z = domains[op["domain"]], complex(*op["z"])
                if call == "rho":
                    fn = (lambda d=dom, z=z: pm.rho_bounds(d, z))
                else:
                    fn = (lambda d=dom, z=z: pm.sigma_lower(d, z))
            elif call == "f21":
                p = pm.HypParams(op["a"], op["b"], op["c"])
                fn = (lambda p=p, x=op["x"]: pm.f21(p, x))
            elif call in ("p_func", "p_prime", "q_log"):
                pr = pm.ZeroBalancedPair(op["a"], op["b"])
                fn = (lambda pr=pr, t=op["t"], name=call:
                      getattr(pm, name)(pr, t))
            else:
                args = [op[k] for k in ("t", "x", "r", "c", "r1", "r2")
                        if k in op]
                fn = (lambda args=args, name=call: getattr(pm, name)(*args))
            calls.append((op, fn))
        passes.append(calls)
    return passes


def run_pass(calls: list, tracer=None, speed: Speed | None = None) -> tuple:
    """Issue every call in order; return (wall seconds, [(dt, res, exc)]).

    With ``speed``, chunks are timed all through the pass; the wall time
    and each call's time leave out the time spent on them."""
    clock = time.perf_counter
    out = []
    if speed is not None:
        spent0 = speed.spent
        speed.start()
    try:
        t_pass = clock()
        for op, fn in calls:
            if tracer is not None:
                tracer.op_id = op["id"]
            spent = speed.spent if speed is not None else 0.0
            t0 = clock()
            try:
                res, exc = fn(), None
            except Exception as e:  # judged by check.raised, never fatal
                res, exc = None, e
            t1 = clock()
            dt = t1 - t0
            if speed is not None:
                dt -= speed.spent - spent
                speed.ops.append((t0, t1))
            out.append((dt, res, exc))
        wall = clock() - t_pass
    finally:
        if speed is not None:
            speed.stop()
    if speed is not None:
        wall -= speed.spent - spent0
    return wall, out


class Tally:
    """Outcomes of checked operations, for the end-to-end report."""

    def __init__(self, lib_error: type) -> None:
        self.lib_error = lib_error
        self.latencies: list[float] = []
        self.rel_errs: list[float] = []
        # kind -> {"attempted": n, "failed": n, "reasons": {reason: n}}
        self.by_kind: dict[str, dict] = {}
        self.foreign_errors: list[str] = []

    def add(self, calls: list, results: list, refs: dict,
            keep_latency: bool, f21_stats: dict,
            scales: list | None = None) -> None:
        """Judge one pass; latencies are multiplied by ``scales``."""
        scales = scales or [1.0] * len(results)
        for (op, _), (dt, res, exc), sc in zip(calls, results, scales):
            if exc is not None:
                out = check.raised(op, exc)
                if not isinstance(exc, self.lib_error):
                    self.foreign_errors.append(f"{op['id']}: {exc!r}")
            else:
                out = check.check(op, res, refs.get(op["id"]))
            if keep_latency:
                self.latencies.append(dt * sc)
            if out.rel_err is not None:
                self.rel_errs.append(out.rel_err)
            kind = self.by_kind.setdefault(
                op["kind"], {"attempted": 0, "failed": 0, "reasons": {}})
            kind["attempted"] += 1
            if not out.ok:
                kind["failed"] += 1
                for r in out.reasons:
                    kind["reasons"][r] = kind["reasons"].get(r, 0) + 1
            if out.regime:
                f21_stats["violations"] += out.est_violated
                if out.rel_err is not None:
                    key = out.regime
                    f21_stats["max_rel"][key] = max(
                        f21_stats["max_rel"].get(key, 0.0), out.rel_err)

    def attempted(self) -> int:
        return sum(v["attempted"] for v in self.by_kind.values())

    def failed(self) -> int:
        return sum(v["failed"] for v in self.by_kind.values())


def peak_rss_mb() -> float:
    """High-water resident set of this interpreter.

    VmHWM belongs to the process image, so it starts afresh at exec;
    ru_maxrss would also count the parent's memory at the time it
    started this process.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--inputs", required=True)
    ap.add_argument("--refs")
    ap.add_argument("--out", required=True)
    ap.add_argument("--passes", type=int, default=MIN_PASSES)
    ap.add_argument("--first-pass", type=int, default=0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--trace-file")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    with open(args.inputs, encoding="utf-8") as fh:
        inputs = json.load(fh)
    refs = {}
    if args.refs:
        with open(args.refs, encoding="utf-8") as fh:
            refs = json.load(fh)
    src = os.path.join(os.getcwd(), "src")

    speed = Speed()
    speed.sample(CALIB_BURST)
    t0 = time.perf_counter()
    sys.path.insert(0, src)
    import punctmetric as pm
    import punctmetric.cli  # noqa: F401  (the CLI is a public entry point)
    tracer = None
    if args.trace:
        from tracing import REGIMES, Tracer
        tracer = Tracer(pm)
        tracer.install()
    passes = build(pm, inputs)
    setup_raw_s = time.perf_counter() - t0
    speed.sample(CALIB_BURST)
    setup_scale = speed.scale()

    if not os.path.abspath(pm.__file__).startswith(src + os.sep):
        raise SystemExit(f"imported punctmetric from {pm.__file__}, "
                         f"not from {src}")
    result = {"setup_s": setup_raw_s * setup_scale,
              "setup_raw_s": setup_raw_s}
    if args.setup_only:
        _write(args.out, result)
        return 0

    setup_build_s = 0.0
    if tracer is not None:
        tracer.uninstall()
        setup_build_s = tracer.layer_metrics()["bounds.domain_build_s"]
        setup_summary = tracer.summary()
        tracer.reset()

    ops_per_pass = len(passes[0])
    tally = Tally(pm.errors.PunctMetricError)
    untraced_walls: list[float] = []
    raw_walls: list[float] = []
    traced_walls: list[float] = []
    windows: list[dict] = []
    first = args.first_pass
    n_passes = (args.passes if inputs["repeat"]
                else min(args.passes, len(passes) - first))
    for k in range(first, first + n_passes):
        calls = passes[0] if inputs["repeat"] else passes[k]
        traced = tracer is not None and (k - first) % 2 == 1
        gc.collect()
        since, ops_since = len(speed.samples), len(speed.ops)
        scale, scales = 1.0, None
        if tracer is not None:  # chunks would land in traced spans
            if traced:
                tracer.reset()
                tracer.install()
            wall, results = run_pass(calls, tracer if traced else None)
            if traced:
                tracer.uninstall()
                tracer.op_id = None
        else:
            wall, results = run_pass(calls, speed=speed)
            if len(speed.samples) == since:
                speed.sample()
            scales = [speed.local_scale(t0, t1, since)
                      for t0, t1 in speed.ops[ops_since:]]
            # each operation at its own factor, the loop around them at
            # the pass's
            in_ops = [r[0] for r in results]
            scale = (sum(dt * sc for dt, sc in zip(in_ops, scales))
                     + (wall - sum(in_ops)) * speed.scale(since)) / wall
        if traced:
            traced_walls.append(wall * scale)
        else:
            untraced_walls.append(wall * scale)
            raw_walls.append(wall)
        f21_stats = {"violations": 0, "max_rel": {}}
        tally.add(calls, results, refs, keep_latency=not traced,
                  f21_stats=f21_stats, scales=scales)
        if traced:
            window = tracer.layer_metrics()
            window["bounds.domain_build_s"] += setup_build_s
            window["hyp2f1.err_est_violations"] = f21_stats["violations"]
            for regime in REGIMES:
                window[f"hyp2f1.max_rel_err.{regime}"] = \
                    f21_stats["max_rel"].get(regime, 0.0)
            windows.append(window)

    result.update({
        "passes": n_passes,
        "ops_per_pass": ops_per_pass,
        "pass_walls": untraced_walls,
        "raw_walls": raw_walls,
        "latencies": tally.latencies,
        "rel_errs": tally.rel_errs,
        "attempted": tally.attempted(),
        "failed": tally.failed(),
        "by_kind": tally.by_kind,
        "foreign_errors": tally.foreign_errors[:20],
        "chunk_s": statistics.median(speed.samples),
        "peak_rss_mb": peak_rss_mb(),
    })
    if tracer is not None:
        layers = {k: statistics.median(w[k] for w in windows)
                  for k in windows[0]}
        layers["trace.overhead_ratio"] = (statistics.median(traced_walls)
                                          / statistics.median(raw_walls))
        result["layers"] = layers
        result["traced_passes"] = len(traced_walls)
        if args.trace_file:
            _write(args.trace_file, {
                "setup": setup_summary, "last_pass": tracer.summary(),
                "spans": [{"op": s[0], "name": s[1], "start": s[2],
                           "end": s[3]} for s in tracer.spans],
                "dropped_spans": tracer.dropped_spans})
    _write(args.out, result)
    return 0


def _write(path: str, obj: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)


if __name__ == "__main__":
    sys.exit(main())
