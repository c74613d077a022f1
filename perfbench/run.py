"""Benchmark entry point: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload {verify,bounds,oneshot} \\
        --seed N --seconds S --trace {0,1}

Run from the repository root; the library is imported from ./src.
The parent process generates the seeded inputs, computes (or loads
from perfbench/.cache) the mpmath references, then starts the workload
in fresh interpreters: a warm-up, SETUP_RUNS set-up-only runs, and
MEASURED_WORKERS measured ones, one after another.  Together the
measured workers make a fixed number of passes, ``passes_for(workload,
seconds)``: about --seconds of work at the reference speed (see
worker.py), and the same operations on every run of a seed whatever the
machine's speed.  Their results are pooled; splitting the passes over
several interpreters keeps one interpreter's luck with the host from
setting a run's figures.  It prints a human-readable report
followed, as the last line of standard output, by

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with every end-to-end metric of BENCHMARK.json (--trace 0) or every
per-layer metric (--trace 1).  ``correct`` is false when an operation
fails outside the known-defect kinds listed in baseline.json, or raises
an exception that is not one of the library's typed errors.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import check
import gen
import worker

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_RUNS = 6  # plus the measured workers' own set-ups: nine samples
MEASURED_WORKERS = 3  # one when tracing: per-layer figures need no pooling
TIME_LIMIT_S = 170.0
# Wall time of one pass in reference seconds, measured when the
# benchmark was defined.  Fixed here, so the work a run does depends on
# --seconds alone: a faster program finishes its passes sooner.
PASS_S = {"verify": 2.5, "bounds": 10.3, "oneshot": 1.85}


def passes_for(workload: str, seconds: float) -> int:
    return max(worker.MIN_PASSES, round(seconds / PASS_S[workload]))


class BenchError(Exception):
    pass


def _spawn(root: str, work: str, argv: list, deadline: float) -> dict:
    out = os.path.join(work, "result.json")
    if os.path.exists(out):
        os.remove(out)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--inputs", os.path.join(work, "inputs.json"), "--out", out] + argv
    try:
        proc = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError("worker exceeded the time limit") from None
    if proc.returncode != 0:
        raise BenchError(f"worker failed ({proc.returncode}):\n"
                         + proc.stderr[-2000:])
    with open(out, encoding="utf-8") as fh:
        return json.load(fh)


def known_failures(workload: str) -> set:
    """(kind, reason) pairs of the known defects listed in baseline.json."""
    with open(os.path.join(HERE, "baseline.json"), encoding="utf-8") as fh:
        baseline = json.load(fh)
    return {(kind, reason) for d in baseline["known_defects"]
            if workload in d["workloads"]
            for kind in d["kinds"] for reason in d["reasons"]}


def judge(workload: str, res: dict) -> tuple[bool, list]:
    """(correct, unexpected failures) for one worker result."""
    known = known_failures(workload)
    unexpected = [f"{kind} {reason}: {n} of {v['attempted']}"
                  for kind, v in sorted(res["by_kind"].items())
                  for reason, n in sorted(v["reasons"].items())
                  if (kind, reason) not in known]
    unexpected += res["foreign_errors"]
    return not unexpected, unexpected


def merge(parts: list) -> dict:
    """Pool the results of the measured workers."""
    lat = sorted(x for p in parts for x in p["latencies"])
    rel = sorted(x for p in parts for x in p["rel_errs"])
    walls = [w for p in parts for w in p["pass_walls"]]
    by_kind: dict = {}
    for p in parts:
        for kind, v in p["by_kind"].items():
            m = by_kind.setdefault(kind, {"attempted": 0, "failed": 0,
                                          "reasons": {}})
            m["attempted"] += v["attempted"]
            m["failed"] += v["failed"]
            for r, n in v["reasons"].items():
                m["reasons"][r] = m["reasons"].get(r, 0) + n
    q = worker.tail_quantile(parts[0]["ops_per_pass"])
    return {
        "workers": len(parts),
        "passes": sum(p["passes"] for p in parts),
        "ops_per_pass": parts[0]["ops_per_pass"],
        "untraced_passes": len(walls),
        "run_s": statistics.median(walls),
        "run_raw_s": statistics.median(w for p in parts
                                       for w in p["raw_walls"]),
        "op_p50_s": check.percentile(lat, 0.5),
        "op_tail_s": check.percentile(lat, q),
        "tail_quantile": q,
        "latency_samples": len(lat),
        "attempted": sum(p["attempted"] for p in parts),
        "failed": sum(p["failed"] for p in parts),
        "by_kind": by_kind,
        "foreign_errors": [e for p in parts for e in p["foreign_errors"]],
        "rel_err_samples": len(rel),
        "rel_err_p90": check.percentile(rel, 0.9) if rel else None,
        "chunk_s": statistics.median(p["chunk_s"] for p in parts),
        "peak_rss_mb": max(p["peak_rss_mb"] for p in parts),
    }


def end_to_end(res: dict, setups: list) -> tuple[dict, list]:
    """Metric values and the report lines that go with them."""
    n_lat = res["latency_samples"]
    q = res["tail_quantile"]
    fail_ratio = res["failed"] / res["attempted"]
    values = {
        "setup_s": statistics.median(setups),
        "run_s": res["run_s"],
        "op_p50_s": res["op_p50_s"],
        "op_tail_s": res["op_tail_s"],
        "peak_rss_mb": res["peak_rss_mb"],
        "ok_ratio": 1.0 - fail_ratio,
    }
    notes = {
        "setup_s": f"median of {len(setups)} set-ups, each in a fresh "
                   "interpreter",
        "run_s": f"median of {res['untraced_passes']} passes in "
                 f"{res['workers']} interpreters, {res['ops_per_pass']} "
                 f"operations each; raw wall "
                 f"{res['run_raw_s']:.6g} s",
        "op_p50_s": f"p50 of {n_lat} operations",
        "op_tail_s": f"p{100 * q:g} of {n_lat} operations, "
                     f"{round(n_lat * (1 - q))} beyond it",
        "peak_rss_mb": f"highest of {res['workers']} measured interpreters",
        "ok_ratio": f"1 - fail_ratio over {res['attempted']} operations",
    }
    lines = [f"  times in reference seconds: calibration chunk "
             f"{1e3 * res['chunk_s']:.4g} ms here, "
             f"{1e3 * worker.REF_CHUNK_S:g} ms on the reference"]
    lines += [f"  {k:<13}{v:<14.6g}{notes[k]}" for k, v in values.items()]
    lines.append(f"  {'fail_ratio':<13}{fail_ratio:<14.6g}"
                 f"{res['failed']} of {res['attempted']} operations failed")
    if res["rel_err_p90"] is not None:
        lines.append(f"  {'rel_err_p90':<13}{res['rel_err_p90']:<14.6g}"
                     f"over {res['rel_err_samples']} operations with an "
                     "mpmath reference")
    for kind, v in sorted(res["by_kind"].items()):
        if v["failed"]:
            why = ", ".join(f"{r} {n}" for r, n in sorted(v["reasons"].items()))
            lines.append(f"    {kind}: {v['failed']} of {v['attempted']} "
                         f"failed ({why})")
    return values, lines


def main(argv: list | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + TIME_LIMIT_S

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "punctmetric",
                                       "__init__.py")):
        print("run from the repository root: src/punctmetric not found",
              file=sys.stderr)
        return 2
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)

    work = os.path.join(HERE, ".work", f"{args.workload}-{args.seed}")
    shutil.rmtree(work, ignore_errors=True)
    inputs = gen.generate(args.workload, args.seed)
    refs = {}
    if args.workload != "verify":
        import refs as refs_mod  # mpmath stays out of the verify parent
        refs = refs_mod.cached(inputs, os.path.join(HERE, ".cache"))
    gen.write_inputs(inputs, work)
    refs_path = os.path.join(work, "refs.json")
    with open(refs_path, "w", encoding="utf-8") as fh:
        json.dump(refs, fh)

    setups = []
    try:
        if not args.trace:
            _spawn(root, work, ["--setup-only"], deadline)  # warm-up
            setups = [_spawn(root, work, ["--setup-only"], deadline)["setup_s"]
                      for _ in range(SETUP_RUNS)]
        trace_file = os.path.join(HERE, ".work",
                                  f"trace-{args.workload}-{args.seed}.json")
        n = passes_for(args.workload, args.seconds)
        n_workers = 1 if args.trace else min(MEASURED_WORKERS, n)
        parts = []
        for k in range(n_workers):
            first = k * n // n_workers
            count = (k + 1) * n // n_workers - first
            parts.append(_spawn(root, work, [
                "--refs", refs_path, "--first-pass", str(first),
                "--passes", str(count), "--trace", str(args.trace),
                "--trace-file", trace_file], deadline))
    except BenchError as exc:
        print(exc, file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    res = merge(parts)
    correct, unexpected = judge(args.workload, res)
    print(f"workload {args.workload}, seed {args.seed}: {res['passes']} "
          f"passes, trace {'on' if args.trace else 'off'}, "
          f"correct {correct}")
    if args.trace:
        values = parts[0]["layers"]
        names = spec["per_layer"]
        print("  per-layer values are medians over "
              f"{parts[0]['traced_passes']} "
              f"traced passes; trace file {os.path.relpath(trace_file)}")
        for m in names:
            print(f"  {m['name']:<32}{values[m['name']]:<14.6g}{m['unit']}")
    else:
        values, lines = end_to_end(res, setups + [p["setup_s"]
                                                  for p in parts])
        names = spec["end_to_end"]
        print("\n".join(lines))
    for line in unexpected:
        print(f"  unexpected failure: {line}")
    print(json.dumps({
        "correct": correct,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in names},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
