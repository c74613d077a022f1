"""Tests of the benchmark itself: inputs, checks, metric names.

Run from the repository root:  python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import check  # noqa: E402
import gen  # noqa: E402
import refs  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402

import punctmetric as pm  # noqa: E402
import punctmetric.cli  # noqa: E402,F401


def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _dump(obj) -> str:
    return json.dumps(obj, sort_keys=True)


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_same_seed_gives_identical_inputs(workload):
    assert _dump(gen.generate(workload, 11)) == _dump(gen.generate(workload, 11))
    assert _dump(gen.generate(workload, 11)) != _dump(gen.generate(workload, 12))


def test_written_inputs_are_identical_for_a_seed(tmp_path):
    texts = []
    for sub in ("a", "b"):
        gen.write_inputs(gen.generate("oneshot", 5), str(tmp_path / sub))
        with open(tmp_path / sub / "inputs.json", encoding="utf-8") as fh:
            texts.append(fh.read().replace(str(tmp_path / sub), "DIR"))
        with open(tmp_path / sub / "p0_rho1000.json", encoding="utf-8") as fh:
            texts.append(fh.read())
    assert texts[0] == texts[2] and texts[1] == texts[3]


def test_oneshot_requests_share_no_inputs():
    # the two fixed defect probes repeat in every pass by design
    fixed = {(20.0, 20.0, 40.0, 0.6), (0.5, 0.7, 1.3, 0.99999)}
    seen = set()
    for ops in gen.generate("oneshot", 3)["passes"]:
        for op in ops:
            key = _dump({k: v for k, v in op.items() if k != "id"})
            if op["call"] == "f21" and (op["a"], op["b"], op["c"],
                                        op["x"]) in fixed:
                continue
            assert key not in seen
            seen.add(key)


def _ops(inputs: dict, *kinds: str) -> list:
    """The first operation of each kind, with its domains."""
    picked = []
    for kind in kinds:
        picked.append(next(op for ops in inputs["passes"] for op in ops
                           if op["kind"] == kind))
    return picked


def _run_ops(inputs: dict, ops: list, ref: dict) -> worker.Tally:
    mini = {"domains": inputs["domains"], "passes": [ops], "repeat": True}
    calls = worker.build(pm, mini)[0]
    _, results = worker.run_pass(calls)
    tally = worker.Tally(pm.errors.PunctMetricError)
    tally.add(calls, results, ref, keep_latency=True,
              f21_stats={"violations": 0, "max_rel": {}})
    return tally


def test_corrupted_reference_counts_as_failed_operation():
    inputs = gen.generate("oneshot", 4)
    ops = _ops(inputs, "h", "f21.direct", "ellip_k")
    good = refs.compute({"domains": {}, "passes": [ops]})
    tally = _run_ops(inputs, ops, good)
    assert tally.failed() == 0
    assert run.judge("oneshot", {"by_kind": tally.by_kind,
                                 "foreign_errors": []})[0]

    bad = dict(good)
    for op in ops:
        bad[op["id"]] = [repr(float(good[op["id"]][0]) * (1 + 1e-9))]
    tally = _run_ops(inputs, ops, bad)
    assert tally.attempted() == 3 and tally.failed() == 3
    assert tally.by_kind["h"]["reasons"] == {"budget:value": 1}
    assert tally.by_kind["f21.direct"]["reasons"] == {"estimate": 1}
    correct, unexpected = run.judge("oneshot", {"by_kind": tally.by_kind,
                                                "foreign_errors": []})
    # f21 estimate misses are a known defect kind: counted, not unexpected
    assert not correct and sorted(unexpected) == [
        "ellip_k budget:value: 1 of 1", "h budget:value: 1 of 1"]


def test_certified_bound_on_wrong_side_fails():
    op = {"call": "rho", "kind": "rho.N10"}
    res = pm.RhoBounds(lower=1.0, upper=2.0)
    assert check.check(op, res, ["1.0000000000001", "2"]).ok
    out = check.check(op, res, ["0.9999999999999", "2"])
    assert out.reasons == ("side:lower",)
    out = check.check(op, res, ["1.0000000000001", "2.0000000000001"])
    assert out.reasons == ("side:upper",)


def test_seed_defects_are_counted_not_fatal():
    inputs = gen.generate("bounds", 2)
    probes = [op for op in inputs["passes"][0]
              if op["domain"] in ("unit_pair", "tiny_pair")]
    tally = _run_ops(inputs, probes, refs.compute(
        {"domains": inputs["domains"], "passes": [probes]}))
    assert tally.failed() == 2
    assert tally.by_kind["rho.loggap"]["reasons"] == {"raised:RangeError": 1}
    assert "side:value" in tally.by_kind["sigma.pair"]["reasons"]
    assert run.judge("bounds", {"by_kind": tally.by_kind,
                                "foreign_errors": []})[0]

    oneshot = gen.generate("oneshot", 2)
    fixed = [op for op in oneshot["passes"][0] if op["call"] == "f21"
             and (op["a"], op["b"]) in ((20.0, 20.0), (0.5, 0.7))]
    tally = _run_ops(oneshot, fixed, refs.compute(
        {"domains": {}, "passes": [fixed]}))
    assert tally.failed() == 2
    assert tally.by_kind["f21.large"]["reasons"] == {"estimate": 1}
    assert tally.by_kind["f21.nzb_near1"]["reasons"] == \
        {"raised:ConvergenceError": 1}


def _bench(cwd: str, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=170)


@pytest.mark.parametrize("trace,key", [("0", "end_to_end"),
                                       ("1", "per_layer")])
def test_every_named_metric_is_present_with_its_unit(trace, key):
    proc = _bench(ROOT, "--workload", "verify", "--seed", "1",
                  "--seconds", "1", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    want = {m["name"]: m["unit"] for m in _spec()[key]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    for name in want:
        assert name in proc.stdout.split("\n{")[0]


def test_runs_of_a_seed_attempt_and_fail_the_same_operations():
    # the pass count follows --seconds alone, never the machine's speed
    results = []
    for _ in range(2):
        proc = _bench(ROOT, "--workload", "oneshot", "--seed", "7",
                      "--seconds", "1", "--trace", "0")
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        results.append((result["attempted"], result["failed"]))
    ops_per_pass = len(gen.generate("oneshot", 7)["passes"][0])
    assert results[0] == results[1]
    assert results[0][0] == ops_per_pass * run.passes_for("oneshot", 1)


def test_speed_scales_an_operation_by_the_chunks_around_it():
    speed = worker.Speed()
    speed.times = [float(t) for t in range(20)]
    speed.samples = [2e-3] * 10 + [4e-3] * 10
    # a long operation: the chunks timed while it ran
    assert speed.local_scale(10.5, 19.5) == pytest.approx(0.25)
    # a short one: the five nearest, here one fast and four slow
    assert speed.local_scale(10.2, 10.3) == pytest.approx(0.25)
    assert speed.local_scale(2.1, 2.2) == pytest.approx(0.5)
    # chunks before ``since`` belong to another pass
    assert speed.local_scale(0.1, 0.2, since=10) == pytest.approx(0.25)
    assert speed.scale(since=15) == pytest.approx(0.25)


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".cache", ".work",
                                                  "__pycache__"))
    proc = _bench(str(tmp_path), "--workload", "bounds", "--seed", "1",
                  "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
