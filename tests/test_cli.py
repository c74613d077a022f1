"""Command-line surface, exercised in-process through cli.main(argv).

Exit-code contract: 0 success / all checks pass, 1 computation or check
failure, 2 usage errors (argparse exits via SystemExit).
"""

import argparse
import contextlib
import importlib.util
import io
import json
import math
import os
import pickle
import runpy
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from punctmetric import bounds, cli, elliptic, metric, verify
from punctmetric.hyp2f1 import HypParams
from punctmetric.pqfun import ZeroBalancedPair

SRC = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")


def run_cli(capsys, *argv):
    rc = cli.main(list(argv))
    out = capsys.readouterr().out
    return rc, out


def run_json(capsys, *argv):
    rc, out = run_cli(capsys, *argv)
    return rc, json.loads(out)


# -- eval --------------------------------------------------------------------

def test_eval_h_at_zero(capsys):
    rc, doc = run_json(capsys, "eval", "h", "--t", "0")
    assert rc == 0
    assert doc["value"] == pytest.approx(0.11423664526111591, rel=1e-13)


def test_eval_phi_at_one_is_exactly_zero(capsys):
    rc, doc = run_json(capsys, "eval", "phi", "--x", "1")
    assert rc == 0
    assert doc["value"] == 0.0


def test_eval_f21_carries_the_result_fields(capsys):
    rc, doc = run_json(capsys, "eval", "f21", "--a", "0.5", "--b", "0.5",
                       "--c", "1", "--x", "0")
    assert rc == 0
    assert doc["value"] == 1.0
    assert doc["method"] == "direct_series"
    assert doc["abs_err_estimate"] >= 0.0
    assert doc["terms_used"] >= 1


def test_eval_f21_near_one_off_balance(capsys):
    # c - a - b = 0.1: the direct series needs over a million terms here
    rc, doc = run_json(capsys, "eval", "f21", "--a", "0.5", "--b", "0.7",
                       "--c", "1.3", "--x", "0.99999")
    assert rc == 0
    assert doc["method"] == "connection_series"
    assert doc["value"] == pytest.approx(3.6064266633194704, rel=1e-13)


def test_eval_matches_library(capsys):
    rc, doc = run_json(capsys, "eval", "K", "--r", "0.5")
    assert rc == 0
    assert doc["value"] == elliptic.ellip_k(0.5)
    rc, doc = run_json(capsys, "eval", "varphi", "--t", "2")
    assert doc["value"] == metric.varphi(2.0)


def test_eval_pq_defaults_to_the_metric_pair(capsys):
    rc, doc = run_json(capsys, "eval", "P", "--t", "3")
    assert rc == 0
    assert doc["value"] == pytest.approx(1.890477348584973, rel=1e-13)
    rc, doc2 = run_json(capsys, "eval", "P", "--t", "3",
                        "--a", "0.5", "--b", "0.5")
    assert doc2["value"] == doc["value"]


def test_eval_domain_error_is_json_and_rc1(capsys):
    rc, doc = run_json(capsys, "eval", "h", "--t", "nan")
    assert rc == 1
    assert "error" in doc


def test_eval_range_error_rc1(capsys):
    rc, doc = run_json(capsys, "eval", "h", "--t", "701")
    assert rc == 1
    assert "error" in doc


def test_eval_overflow_is_a_json_error(capsys):
    rc, doc = run_json(capsys, "eval", "f21", "--a", "1e306", "--b", "1e306",
                       "--c", "2e306", "--x", "0.9")
    assert rc == 1
    assert doc["error"]["type"] == "RangeError"


def test_closed_reader_gets_no_traceback():
    # the reader goes away after a few bytes, as with ``| head -c 10``;
    # the CSV is long enough that later writes meet the closed pipe
    proc = subprocess.Popen(
        [sys.executable, "-m", "punctmetric.cli", "figure1", "--count",
         "20000"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": SRC})
    try:
        proc.stdout.read(10)
        proc.stdout.close()
        err = proc.stderr.read().decode()
        rc = proc.wait(timeout=60)
    finally:
        proc.kill()
        proc.stderr.close()
    assert "Traceback" not in err and "Error" not in err, err
    assert rc == 1


@pytest.mark.parametrize("argv", [
    ["constants"],                                        # success
    ["eval", "f21", "--a", "1e306", "--b", "1.5", "--c", "1e306",
     "--x", "0.9"],                                       # typed error
    ["bounds", "rho", "--domain", "no-such-file.json", "--z", "0,0"],
])                                                        # OSError
def test_reader_gone_before_any_output(argv, tmp_path):
    # stdout is a pipe whose read end is closed before the CLI starts, so
    # its first write or flush fails, on the success and the error paths
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "punctmetric.cli", *argv],
            stdout=write_end, stderr=subprocess.PIPE, cwd=tmp_path,
            env={**os.environ, "PYTHONPATH": SRC}, timeout=60)
    finally:
        os.close(write_end)
    err = proc.stderr.decode()
    assert "Traceback" not in err and "Error" not in err, err
    assert proc.returncode == 1


def test_eval_unknown_function_rc2(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["eval", "frobnicate", "--t", "1"])
    assert exc.value.code == 2


def test_eval_missing_argument_rc2(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["eval", "h"])
    assert exc.value.code == 2


# -- verify ------------------------------------------------------------------

def test_verify_single_check(capsys):
    rc, out = run_cli(capsys, "verify", "--check", "thm_c212_4")
    assert rc == 0
    doc = json.loads(out)
    assert doc["name"] == "thm_c212_4"
    assert doc["passed"] is True
    assert "t0" in doc["notes"]


def test_verify_full_suite(capsys):
    rc, out = run_cli(capsys, "verify")
    assert rc == 0
    lines = [json.loads(s) for s in out.splitlines() if s.strip()]
    assert len(lines) == len(verify.check_names())
    assert all(d["passed"] for d in lines)
    assert [d["name"] for d in lines] == sorted(verify.check_names())


@pytest.mark.parametrize("suite", ["default", "strict"])
def test_verify_output_is_golden(capsys, suite):
    """``punctmetric verify --suite SUITE`` prints tests/data/verify_SUITE.jsonl
    byte for byte, so every worst margin is pinned to its last bit.

    A change that moves a margin on purpose regenerates the file from the
    repository root,

        PYTHONPATH=src python -m punctmetric.cli verify --suite default \
            > tests/data/verify_default.jsonl
        PYTHONPATH=src python -m punctmetric.cli verify --suite strict \
            > tests/data/verify_strict.jsonl

    and the diff shows what moved.
    """
    rc, out = run_cli(capsys, "verify", "--suite", suite)
    assert rc == 0
    with open(os.path.join(DATA, f"verify_{suite}.jsonl"), "rb") as fh:
        assert out.encode() == fh.read()


@pytest.mark.parametrize("suite", ["default", "strict"])
def test_verify_never_loads_numpy_random(suite):
    # in a fresh interpreter: the test modules themselves load numpy.random
    script = ("import io, sys, contextlib\n"
              "from punctmetric import cli\n"
              "with contextlib.redirect_stdout(io.StringIO()):\n"
              f"    rc = cli.main(['verify', '--suite', {suite!r}])\n"
              "assert rc == 0, rc\n"
              "assert 'numpy.random' not in sys.modules\n")
    proc = subprocess.run([sys.executable, "-c", script],
                          stderr=subprocess.PIPE, text=True,
                          env={**os.environ, "PYTHONPATH": SRC}, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_figure1_leaves_the_lockstep_unloaded():
    # in a fresh interpreter: figure1 runs metric's array forms, which
    # live in _arrays, apart from the lockstep
    script = ("import io, sys, contextlib\n"
              "from punctmetric import cli\n"
              "with contextlib.redirect_stdout(io.StringIO()):\n"
              "    rc = cli.main(['figure1', '--count', '40'])\n"
              "assert rc == 0, rc\n"
              "assert 'punctmetric._hyp2f1_arrays' not in sys.modules\n")
    proc = subprocess.run([sys.executable, "-c", script],
                          stderr=subprocess.PIPE, text=True,
                          env={**os.environ, "PYTHONPATH": SRC}, timeout=60)
    assert proc.returncode == 0, proc.stderr


# what ``import punctmetric, punctmetric.cli`` loads of the package:
# every other module loads on first use
BARE = {"punctmetric", "punctmetric.cli", "punctmetric.errors"}


def _fresh(script):
    """Run script in a fresh interpreter that imports punctmetric from
    this checkout, after checking that nothing but BARE has loaded:
    ``package()`` is the set of the package's modules loaded so far."""
    script = ("import io, sys, contextlib, pickle\n"
              "import punctmetric, punctmetric.cli\n"
              "from punctmetric.cli import main\n"
              "package = lambda: {name for name in sys.modules\n"
              "                   if name.partition('.')[0] == 'punctmetric'}\n"
              "loaded = lambda: 'punctmetric.bounds' in sys.modules\n"
              f"assert package() == {BARE!r}, package()\n" + script)
    proc = subprocess.run([sys.executable, "-c", script],
                          stderr=subprocess.PIPE, text=True,
                          env={**os.environ, "PYTHONPATH": SRC}, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_subcommands_without_domains_leave_bounds_unloaded():
    _fresh("for argv in (['verify', '--check', 'thm_c212_1'],\n"
           "             ['eval', 'f21', '--a', '0.5', '--b', '0.5',\n"
           "              '--c', '1', '--x', '0.3'],\n"
           "             ['eval', 'h', '--t', '1.5'], ['constants'],\n"
           "             ['figure1', '--count', '9']):\n"
           "    with contextlib.redirect_stdout(io.StringIO()):\n"
           "        assert main(argv) == 0, argv\n"
           "    assert not loaded(), argv\n")


@pytest.mark.parametrize("use", [
    "main(['bounds', 'ring', '--c', '0.5', '--r1', '1', '--r2', '8'])",
    f"main(['bounds', 'rho', '--domain', "
    f"{os.path.join(DATA, 'domain_ten.json')!r}, '--z=3,2'])",
    "punctmetric.PuncturedDomain",
    "punctmetric.bounds",
])
def test_bounds_loads_where_it_is_used(use):
    _fresh("with contextlib.redirect_stdout(io.StringIO()):\n"
           f"    {use}\n"
           "assert loaded()\n")


def test_the_package_and_the_cli_load_only_errors():
    # _fresh checks what its import loads, BARE, before any script: the
    # hypergeometric code, the largest, compiles only where it runs
    _fresh("")


def test_a_bounds_process_never_loads_the_hypergeometric_code():
    # domains on the list rows (10) and on the table (40), their density
    # queries and a ring bound, through the package and the CLI
    _fresh("ten = [complex(k, k * k % 7) for k in range(10)]\n"
           "forty = [complex(k, k * k % 11) for k in range(40)]\n"
           "for pts in (ten, forty):\n"
           "    dom = punctmetric.PuncturedDomain(pts)\n"
           "    punctmetric.rho_bounds(dom, 0.5 + 0.25j)\n"
           "    punctmetric.sigma_lower(dom, 3 - 1j)\n"
           "punctmetric.ring_lower_bound(0.5, 1.0, 8.0)\n"
           f"for domain in ({os.path.join(DATA, 'domain_ten.json')!r},\n"
           f"               {os.path.join(DATA, 'domain_forty.json')!r}):\n"
           "    for query in ('rho', 'sigma'):\n"
           "        argv = ['bounds', query, '--domain', domain, '--z=3,2']\n"
           "        with contextlib.redirect_stdout(io.StringIO()):\n"
           "            assert main(argv) == 0, argv\n"
           "with contextlib.redirect_stdout(io.StringIO()):\n"
           "    assert main(['bounds', 'ring', '--c', '0.5', '--r1', '1',\n"
           "                 '--r2', '8', '--compare']) == 0\n"
           "assert package() == {'punctmetric', 'punctmetric.cli',\n"
           "                     'punctmetric.errors', 'punctmetric.specfun',\n"
           "                     'punctmetric.elliptic', 'punctmetric.metric',\n"
           "                     'punctmetric.bounds'}, package()\n")


@pytest.mark.parametrize("function, modules", [
    ("K", {"elliptic", "specfun"}),
    ("h", {"metric", "elliptic", "specfun"}),
    ("f21", {"hyp2f1", "specfun"}),
    ("P", {"pqfun", "hyp2f1", "specfun"}),
])
def test_eval_loads_only_its_functions_module(function, modules):
    argv = ["eval", function, "--t", "1.5", "--r", "0.5", "--x", "0.3",
            "--a", "0.5", "--b", "0.5", "--c", "1"]
    want = BARE | {f"punctmetric.{name}" for name in modules}
    _fresh("with contextlib.redirect_stdout(io.StringIO()):\n"
           f"    assert main({argv!r}) == 0\n"
           f"assert package() == {want!r}, package()\n")


@pytest.mark.parametrize("first", [
    "rho_bounds", "bounds", "RhoBounds", "f21", "hyp2f1", "ZeroBalancedPair",
    "pqfun", "h", "metric", "ellip_k", "elliptic", "specfun", "run_suite"])
def test_the_first_lookup_binds_all_of_its_modules_names(first):
    # a namespace scan after any one lookup, as of a tracer that wraps
    # what it finds there, meets every name of every module loaded,
    # and none of a module not loaded
    _fresh(f"getattr(punctmetric, {first!r})\n"
           "for module, names in punctmetric._LAZY.items():\n"
           "    loaded = sys.modules.get(f'punctmetric.{module}')\n"
           "    assert vars(punctmetric).get(module) is loaded, module\n"
           "    for name in names:\n"
           "        want = None if loaded is None else getattr(loaded, name)\n"
           "        assert vars(punctmetric).get(name) is want, name\n"
           "assert ('punctmetric.hyp2f1' in sys.modules) == \\\n"
           f"    ({first!r} in ('f21', 'hyp2f1', 'ZeroBalancedPair', 'pqfun',\n"
           "                   'run_suite'))\n")


def test_star_import_binds_every_public_name():
    _fresh("names = {}\n"
           "exec('from punctmetric import *', names)\n"
           "assert set(punctmetric.__all__) <= set(names)\n"
           "for name in punctmetric.__all__:\n"
           "    assert names[name] is getattr(punctmetric, name), name\n"
           "assert names['PuncturedDomain'] is punctmetric.bounds."
           "PuncturedDomain\n")


def test_a_pickled_domain_loads_before_bounds_is_imported():
    dom = bounds.PuncturedDomain((0.0, 1.0, 2.0 + 1.0j))
    _fresh(f"dom = pickle.loads({pickle.dumps(dom)!r})\n"
           "assert dom.punctures == (0j, 1 + 0j, 2 + 1j)\n"
           "assert type(dom) is punctmetric.PuncturedDomain\n")


@pytest.mark.parametrize("record", [
    HypParams(0.5, 0.25, 1.5), ZeroBalancedPair(0.5, 0.7)],
    ids=lambda record: type(record).__name__)
def test_a_pickled_record_loads_where_only_the_package_is(record):
    # unpickling imports the record's module, which binds its names, as
    # a domain's does (above)
    module = type(record).__module__
    _fresh(f"record = pickle.loads({pickle.dumps(record)!r})\n"
           f"assert repr(record) == {repr(record)!r}\n"
           f"assert {module!r} in package()\n"
           "assert vars(punctmetric)[type(record).__name__] is type(record)\n")


def test_verify_unknown_check_rc2(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "--check", "no_such_thing"])
    assert exc.value.code == 2


def test_verify_strict_flag(capsys):
    rc, out = run_cli(capsys, "verify", "--check", "thm_main_parity",
                      "--suite", "strict")
    assert rc == 0
    doc = json.loads(out)
    assert doc["grid"]["count"] == 4 * 81


def test_verify_env_profile(capsys, monkeypatch):
    monkeypatch.setenv("PUNCTURED_METRIC_TOL", "strict")
    rc, out = run_cli(capsys, "verify", "--check", "thm_main_parity")
    assert rc == 0
    assert json.loads(out)["grid"]["count"] == 4 * 81
    # explicit flag outranks the environment
    rc, out = run_cli(capsys, "verify", "--check", "thm_main_parity",
                      "--suite", "default")
    assert json.loads(out)["grid"]["count"] == 81


def test_verify_bad_env_profile_rc2(capsys, monkeypatch):
    monkeypatch.setenv("PUNCTURED_METRIC_TOL", "sloppy")
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "--check", "thm_main_parity"])
    assert exc.value.code == 2


# -- verify's kept replies ---------------------------------------------------

def _golden(suite):
    with open(os.path.join(DATA, f"verify_{suite}.jsonl")) as fh:
        return fh.read()


def _both_passes(capsys):
    """Each suite whole, then each of its checks alone: every output."""
    outs = []
    for suite in ("default", "strict"):
        rc, out = run_cli(capsys, "verify", "--suite", suite)
        assert rc == 0
        outs.append(out)
        for name in verify.check_names():
            rc, out = run_cli(capsys, "verify", "--check", name,
                              "--suite", suite)
            assert rc == 0
            outs.append(out)
    return outs


def test_a_warm_verify_request_formats_nothing(capsys, monkeypatch):
    # the second pass writes the lines kept beside verify's kept
    # reports, the pinned files byte for byte, without formatting one
    cold = _both_passes(capsys)
    dumps = []
    real = json.dumps
    monkeypatch.setattr(json, "dumps",
                        lambda *args, **kw: dumps.append(args) or real(
                            *args, **kw))
    warm = _both_passes(capsys)
    assert dumps == []
    assert warm == cold
    n = len(verify.check_names())
    for i, suite in enumerate(("default", "strict")):
        assert warm[i * (n + 1)] == _golden(suite)
        assert "".join(warm[i * (n + 1) + 1:(i + 1) * (n + 1)]) == _golden(
            suite)
    assert set(cli._replies) == {(name, suite) for name in verify.check_names()
                                 for suite in ("default", "strict")}
    assert len(cli._replies) == 44


def test_a_report_made_afresh_gets_a_fresh_reply(capsys, monkeypatch):
    name = "thm_main_parity"
    rc, first = run_cli(capsys, "verify", "--check", name)
    verify._reports.clear()
    cd = verify._REGISTRY[name]

    def other(params, grid):
        point, margin, notes = cd.runner(params, grid)
        return point, margin, notes + " (run again)"

    monkeypatch.setitem(verify._REGISTRY, name, cd._replace(runner=other))
    rc, again = run_cli(capsys, "verify", "--check", name)
    assert rc == 0
    assert json.loads(again) == dict(json.loads(first), notes=json.loads(
        first)["notes"] + " (run again)")
    assert cli._replies[name, "default"][0] is verify._reports[
        name, "default"]


def test_the_environments_profile_gets_its_own_reply(capsys, monkeypatch):
    name = "thm_main_parity"
    rc, default = run_cli(capsys, "verify", "--check", name)
    monkeypatch.setenv("PUNCTURED_METRIC_TOL", "strict")
    rc, strict = run_cli(capsys, "verify", "--check", name)
    assert rc == 0
    want = [line + "\n" for line in _golden("strict").splitlines()
            if json.loads(line)["name"] == name]
    assert [strict] == want and strict != default


# -- bounds ------------------------------------------------------------------

def _write_domain(tmp_path, pts, name="dom.json"):
    path = tmp_path / name
    path.write_text(json.dumps(pts))
    return str(path)


def test_bounds_ring(capsys):
    rc, doc = run_json(capsys, "bounds", "ring", "--c", repr(math.log(2.0)),
                       "--r1", "1", "--r2", "1024")
    assert rc == 0
    assert doc["c"] == pytest.approx(math.log(2.0), rel=1e-15)
    assert doc["A"] == pytest.approx(0.11401178672314575, rel=1e-12)
    assert doc["lower_bound"] == pytest.approx(0.75081437316933915, rel=1e-12)


def test_bounds_ring_compare_includes_baselines(capsys):
    rc, doc = run_json(capsys, "bounds", "ring", "--c", "0.5",
                       "--r1", "1", "--r2", "8", "--compare")
    assert rc == 0
    assert set(doc["baselines"]) == {"sv512", "bp"}
    c = doc["c"]
    assert doc["baselines"]["sv512"]["A"] == pytest.approx(
        metric.h(0.5 * c), rel=1e-13)
    assert doc["baselines"]["bp"]["B"] == pytest.approx(
        c / (4.0 * math.pi), rel=1e-13)
    for side in ("sv512", "bp"):
        assert doc["baselines"][side]["lower_bound"] >= 0.0


def test_bounds_ring_nonpositive_gap_rc1(capsys):
    rc, doc = run_json(capsys, "bounds", "ring", "--c", "0",
                       "--r1", "1", "--r2", "2")
    assert rc == 1
    assert "error" in doc


def test_bounds_ring_evaluates_varphi_once_per_argument(capsys,
                                                        monkeypatch):
    calls = []
    varphi = metric.varphi
    monkeypatch.setattr(metric, "varphi",
                        lambda t: calls.append(t) or varphi(t))
    rc, doc = run_json(capsys, "bounds", "ring", "--c", "0.5",
                       "--r1", "1", "--r2", "8", "--compare")
    assert rc == 0
    assert calls == [0.5, 0.25]
    assert doc["lower_bound"] == bounds.ring_lower_bound(0.5, 1.0, 8.0)
    # a bad gap is reported before bad radii, as before
    for argv, word in ((["--c", "0", "--r1", "2", "--r2", "1"], "gap"),
                       (["--c", "1", "--r1", "2", "--r2", "1"], "r1")):
        rc, doc = run_json(capsys, "bounds", "ring", *argv)
        assert rc == 1
        assert doc["error"]["type"] == "DomainError"
        assert word in doc["error"]["message"]


def test_bounds_rho(capsys, tmp_path):
    path = _write_domain(tmp_path, [0.0, 1.0])
    rc, doc = run_json(capsys, "bounds", "rho", "--domain", path,
                       "--z=-1,0")
    assert rc == 0
    assert doc["lower"] == pytest.approx(metric.lambda01_neg(1.0), rel=1e-12)
    assert doc["upper"] == pytest.approx(0.5665450177283993, rel=1e-12)


def test_bounds_rho_infinite_upper_serializes_as_string(capsys, tmp_path):
    path = _write_domain(tmp_path, [0.0, 1.0])
    rc, doc = run_json(capsys, "bounds", "rho", "--domain", path,
                       "--z", "0.5,0.8660254037844386")
    assert rc == 0
    assert doc["upper"] == "inf"
    assert doc["lower"] == pytest.approx(metric.h(0.0), rel=1e-13)


def test_bounds_sigma(capsys, tmp_path):
    path = _write_domain(tmp_path, [0.0, 1.0, [1.0, 1.0]])
    rc, doc = run_json(capsys, "bounds", "sigma", "--domain", path,
                       "--z", "10,0")
    assert rc == 0
    dom = bounds.PuncturedDomain((0.0, 1.0, 1.0 + 1.0j))
    assert doc["value"] == pytest.approx(
        bounds.sigma_lower(dom, 10.0), rel=1e-13)


# The domains and points of the CI step that diffs the installed console
# script's output against the pinned files, in its order: the two- and
# ten-puncture domains take the list route of the queries, the
# forty-puncture one (the ten and 30 more) the array route, and so does
# the 400 punctures in eight clusters of tests/make_domain_clusters.py,
# where most points lie outside the clusters; the 400 on a circle about
# 3,2 of tests/make_domain_edges.py make the search complete every row
# and the walk visit every puncture at that point.
PINNED_BOUNDS = (("bounds_cli.jsonl", ("pair", "ten")),
                 ("bounds_cli_forty.jsonl", ("forty",)),
                 ("bounds_cli_clusters.jsonl", ("clusters",)),
                 ("bounds_cli_edge.jsonl", ("edge128", "edge129")),
                 ("bounds_cli_ring.jsonl", ("ring400",)))
PINNED_BOUNDS_Z = ("-1,0", "0.5,0.8660254037844386", "3,2", "1e-300,0",
                   "-1e9,0", "0.1,0.2",
                   "-0.016218728184858068,-0.26770582777249746")


def test_bounds_output_is_pinned(capsys):
    """``punctmetric bounds rho|sigma`` on the committed domains print
    their pinned files in tests/data byte for byte.

    Regenerate one from the repository root with the loop of the CI step
    "Console script reproduces the pinned bounds output", with
    ``python -m punctmetric.cli`` for ``punctmetric``.
    """
    for pinned, domains in PINNED_BOUNDS:
        out = []
        for domain in domains:
            path = os.path.join(DATA, f"domain_{domain}.json")
            for z in PINNED_BOUNDS_Z:
                for query in ("rho", "sigma"):
                    rc, text = run_cli(capsys, "bounds", query, "--domain",
                                       path, f"--z={z}")
                    assert rc == 0
                    out.append(text)
        with open(os.path.join(DATA, pinned), "rb") as fh:
            assert "".join(out).encode() == fh.read(), pinned


def test_clusters_domain_is_its_script():
    script = runpy.run_path(os.path.join(os.path.dirname(DATA),
                                         "make_domain_clusters.py"))
    with open(script["PATH"]) as fh:
        assert fh.read() == script["text"]()


def test_edge_domains_are_their_script():
    script = runpy.run_path(os.path.join(os.path.dirname(DATA),
                                         "make_domain_edges.py"))
    texts = script["texts"]()
    assert sorted(texts) == ["edge128", "edge129", "ring400"]
    for name, text in texts.items():
        with open(script["path"](name)) as fh:
            assert fh.read() == text
    # the largest domain that keeps a table of its distances, and the
    # smallest that does not
    assert [n * (n - 1) <= bounds._TABLE_CELLS for n in script["SIZES"]] == [
        True, False]


def test_bounds_z_at_puncture_rc1(capsys, tmp_path):
    path = _write_domain(tmp_path, [0.0, 1.0])
    rc, doc = run_json(capsys, "bounds", "rho", "--domain", path,
                       "--z", "1,0")
    assert rc == 1
    assert "error" in doc


def test_bounds_malformed_domain_file_rc1(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("[0.0, 1.0")
    rc, doc = run_json(capsys, "bounds", "rho", "--domain", str(path),
                       "--z", "5,0")
    assert rc == 1
    assert "error" in doc


@pytest.mark.parametrize("entry", [
    True, False, [0.0, True], [False, 1.0],    # JSON true/false are no reals
    10 ** 400, [0, -10 ** 400],                # integers past the float range
    2 ** 1024 - 2 ** 970,                      # the first to round to inf
], ids=["true", "false", "im-true", "re-false", "big-int", "big-im",
        "rounds-to-inf"])
def test_bounds_bad_domain_entry_rc1(capsys, tmp_path, entry):
    path = _write_domain(tmp_path, [[0, 0], [2, 0], entry])
    rc, doc = run_json(capsys, "bounds", "rho", "--domain", path,
                       "--z", "5,0")
    assert rc == 1
    assert "bad domain entry" in doc["error"]["message"]


def test_bounds_domain_entries_at_the_float_range(capsys, tmp_path):
    # the largest integer that rounds to a finite float is a puncture
    big = 2 ** 1024 - 2 ** 970 - 1
    path = _write_domain(tmp_path, [[0, 0], [2, 0], [0, big], -big])
    rc, doc = run_json(capsys, "bounds", "rho", "--domain", path,
                       "--z", "5,0")
    assert rc == 0 and "lower" in doc


def test_bounds_missing_domain_file_rc1(capsys, tmp_path):
    rc, doc = run_json(capsys, "bounds", "rho",
                       "--domain", str(tmp_path / "absent.json"),
                       "--z", "5,0")
    assert rc == 1
    assert "error" in doc


def test_bounds_bad_complex_syntax_rc2(capsys, tmp_path):
    path = _write_domain(tmp_path, [0.0, 1.0])
    with pytest.raises(SystemExit) as exc:
        cli.main(["bounds", "rho", "--domain", path, "--z", "1+2j"])
    assert exc.value.code == 2


# -- constants and the comparison table --------------------------------------

def test_constants(capsys):
    rc, doc = run_json(capsys, "constants")
    assert rc == 0
    assert doc["C0"] == pytest.approx(4.3768792304529533, rel=1e-14)
    assert doc["references"]["two_C0_plus_half_pi"] == pytest.approx(
        10.324554787700803, rel=1e-13)
    assert doc["references"]["H_at_quarter_pi"] == pytest.approx(
        9.0156985147503273, rel=1e-12)


def test_figure1_table(capsys):
    rc, out = run_cli(capsys, "figure1", "--lo", "0.1", "--hi", "4.0",
                      "--count", "40")
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == "c,phi_over_c,h_half,bp_log"
    assert len(lines) == 41
    rows = [[float(v) for v in s.split(",")] for s in lines[1:]]
    for col in (1, 2, 3):
        vals = [r[col] for r in rows]
        assert all(v > 0.0 for v in vals)
        assert all(x > y for x, y in zip(vals, vals[1:]))
    # each row reproduces the library at the printed c
    for r in rows[::13]:
        c = r[0]
        assert r[1] == pytest.approx(bounds.ring_coefficients(c).A,
                                     rel=1e-12)
        bl = bounds.baseline_bounds(c)
        assert r[2] == pytest.approx(bl.sv512_A, rel=1e-12)
        assert r[3] == pytest.approx(bl.bp_A, rel=1e-12)


@pytest.mark.parametrize("lo,hi,count", [(0.05, 10.0, 200),
                                          (0.3, 7.1, 40),
                                          (1e-9, 1399.0, 5000)])
def test_figure1_is_the_scalar_formulas_to_the_byte(capsys, lo, hi, count):
    # the array kernels give every row the bits of the scalar calls,
    # across more than one block of rows
    want = ["c,phi_over_c,h_half,bp_log\n"]
    for i in range(count):
        c = lo + (hi - lo) * i / (count - 1)
        bl = bounds.baseline_bounds(c)
        want.append(f"{c:.17g},{bounds.ring_coefficients(c).A:.17g},"
                    f"{bl.sv512_A:.17g},{bl.bp_A:.17g}\n")
    rc, out = run_cli(capsys, "figure1", "--lo", repr(lo), "--hi", repr(hi),
                      "--count", str(count))
    assert rc == 0
    assert out == "".join(want)


def test_figure1_and_ring_keep_their_digits_where_varphi_is_subnormal(
        capsys):
    # phi/c from a subnormal phi read 0.114295... and 0.114130... here;
    # each row's phi_over_c is ring_coefficients(c).A, near h(0), and its
    # bp_log, log1p(c/(2 C0))/c from a subnormal quotient, read 0.11413...
    # and 0.11429..., is baseline_bounds(c).bp_A, near 1/(2 C0)
    c1 = metric._VARPHI_TAYLOR[0]
    bp_limit = 1.0 / (2.0 * metric.c0())
    rc, out = run_cli(capsys, "figure1", "--lo", "1e-320", "--hi", "2e-320",
                      "--count", "3")
    assert rc == 0
    for line in out.splitlines()[1:]:
        c, phi_over_c, _, bp_log = map(float, line.split(","))
        assert phi_over_c == bounds.ring_coefficients(c).A
        assert abs(phi_over_c - c1) <= 2.0 * math.ulp(c1), line
        assert bp_log == bounds.baseline_bounds(c).bp_A
        assert abs(bp_log - bp_limit) <= 2.0 * math.ulp(bp_limit), line
    for c in ("1e-320", "5e-324"):
        rc, doc = run_json(capsys, "bounds", "ring", "--c", c, "--r1", "1",
                           "--r2", "2", "--compare")
        assert rc == 0, doc
        assert abs(doc["A"] - c1) <= 2.0 * math.ulp(c1), doc
        bp = doc["baselines"]["bp"]["A"]
        assert abs(bp - bp_limit) <= 2.0 * math.ulp(bp_limit), doc


def test_figure1_two_point_grid(capsys):
    rc, out = run_cli(capsys, "figure1", "--lo", "0.5", "--hi", "1.0",
                      "--count", "2")
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == "c,phi_over_c,h_half,bp_log"
    assert len(lines) == 3
    assert float(lines[1].split(",")[0]) == 0.5
    assert float(lines[2].split(",")[0]) == 1.0


def test_figure1_bad_grid_rc2(capsys):
    for argv in (["figure1", "--lo", "0", "--hi", "1"],
                 ["figure1", "--lo", "2", "--hi", "1"],
                 ["figure1", "--count", "1"],
                 ["figure1", "--lo", "1", "--hi", "inf"],
                 # h(c/2) has no value past c = 2 T_CAP = 1400
                 ["figure1", "--lo", "1", "--hi", "2000", "--count", "3"]):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""


def test_no_arguments_prints_usage_rc2(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main([])
    assert exc.value.code == 2


def test_one_parser_serves_a_run_of_commands(capsys, tmp_path):
    # main() keeps its parser across calls; each command, usage errors
    # included, must print what a freshly built parser prints
    dom = tmp_path / "dom.json"
    dom.write_text("[[0, 0], [1, 0], [0, 1]]")
    runs = (["eval", "h", "--t", "0.5"],
            ["eval", "frobnicate", "--t", "1"],
            ["bounds", "rho", "--domain", str(dom), "--z=-1,0"],
            ["eval", "f21", "--a", "1"],
            ["figure1", "--count", "1"],
            ["bounds", "sigma", "--domain", str(dom), "--z", "3,2"],
            ["bounds", "rho", "--domain", str(dom), "--z", "x"],
            [],
            ["figure1", "--count", "3"],
            ["verify", "--check", "thm_c212_4"],
            ["eval", "--help"],
            ["constants"])

    def outcome(argv):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code
        out = capsys.readouterr()
        return rc, out.out, out.err

    cli._build_parser.cache_clear()
    kept = [outcome(argv) for argv in runs]
    assert cli._build_parser.cache_info().misses == 1
    fresh = []
    for argv in runs:
        cli._build_parser.cache_clear()
        fresh.append(outcome(argv))
    assert kept == fresh
    assert [rc for rc, _, _ in kept] == [0, 2, 0, 2, 2, 0, 2, 2, 0, 0, 0, 0]


# -- the two readers of a command line ---------------------------------------
#
# cli._parse reads a plain argv in one pass over cli._GRAMMAR; anything
# else goes to the argparse parser built from the same table.  Wherever
# _parse returns, it returns what argparse would; wherever argparse
# refuses or prints help, _parse hands over.

def _argparse_outcome(argv):
    """vars(parse_args(argv)), or None where argparse exits (help or a
    usage error)."""
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(cli._build_parser().parse_args(argv))
        except SystemExit:
            return None


def _same_values(got, want):
    """Namespace values compared by repr for floats and complexes, so
    that a NaN is itself and -0.0 is not 0.0."""
    def canon(values):
        return {k: repr(v) if isinstance(v, (float, complex)) else v
                for k, v in values.items()}
    return canon(got) == canon(want)


def _assert_twins(argv):
    got = cli._parse(argv)
    want = _argparse_outcome(argv)
    if want is None:
        assert got is None, argv
    elif got is not None:
        assert _same_values(vars(got), want), argv
    return got


_SUBCOMMANDS = [["eval"], ["verify"], ["bounds"], ["bounds", "ring"],
                ["bounds", "rho"], ["bounds", "sigma"], ["constants"],
                ["figure1"], ["frob"], ["bounds", "dist"], ["ring"], []]
_NAMES = ["--a", "--b", "--c", "--x", "--t", "--r", "--suite", "--check",
          "--json", "--r1", "--r2", "--compare", "--domain", "--z", "--lo",
          "--hi", "--count",
          # abbreviated, unknown, help, the end of options
          "--su", "--ch", "--js", "--comp", "--co", "--do", "--l", "--q",
          "--zz", "-t", "-h", "--help", "--", "-"]
_VALUES = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.integers(-10 ** 6, 10 ** 6).map(str),
    st.sampled_from(["-1.5", "-.5", "-1e5", "-x", "", "a,b", "1,2", "-1,0",
                     "0.5,-2", "1e-320", "x", "3.5", "default", "strict",
                     "lax", "h", "f21", "P", "thm_c212_1", "=", "a=b",
                     "ring", "eval"]))
_WORDS = st.one_of(
    st.sampled_from(_NAMES), _VALUES,
    st.tuples(st.sampled_from(_NAMES), _VALUES).map("=".join))


@settings(deadline=None)
@given(st.sampled_from(_SUBCOMMANDS), st.lists(_WORDS, max_size=8))
def test_the_one_pass_reader_is_argparse_twin(path, words):
    _assert_twins(path + words)


@settings(deadline=None)
@given(st.sampled_from(_SUBCOMMANDS[:8]), st.data())
def test_a_plain_argv_is_read_in_one_pass(path, data):
    # well-formed command lines in any order of their options: each
    # takes the one-pass path, with argparse's values
    entry = cli._GRAMMAR[tuple(path)]
    if entry[1] is None:
        return
    argv = list(path)
    for name, kw in entry[2].items():
        if name[0] != "-":
            argv.append(data.draw(st.sampled_from(["h", "f21", "", "x"])))
    options = list(entry[2].items())
    for name, kw in data.draw(st.permutations(options)):
        if name[0] != "-" or not (kw.get("required")
                                  or data.draw(st.booleans())):
            continue
        if kw.get("action"):
            argv.append(name)
            continue
        value = data.draw(
            st.sampled_from(kw["choices"]) if "choices" in kw
            else st.floats(0.0, 1e9).map(repr) if kw.get("type") is float
            else st.integers(0, 10 ** 6).map(str) if kw.get("type") is int
            else st.sampled_from(["3,2", "0.5", "1e-300,0"])
            if name == "--z" else st.sampled_from(["dom.json", "x", ""]))
        argv += data.draw(st.sampled_from([[name, value],
                                           [f"{name}={value}"]]))
    assert _assert_twins(argv) is not None, argv


@pytest.mark.parametrize("argv", [
    ["verify"], ["verify", "--check", "thm_c212_1", "--suite", "strict"],
    ["verify", "--json", "--suite=default"], ["verify", "--check", ""],
    ["eval", "h", "--t", "1.5"], ["eval", "f21", "--a=0.5", "--b", "0.5",
                                  "--c", "1", "--x", "0.3"],
    # negative numbers, as argparse's pattern reads them, are values
    ["eval", "h", "--t", "-1.5"], ["eval", "H", "--t", "-2"],
    ["eval", "H", "--t", "-.5"], ["eval", "-2", "--t", "1"],
    ["bounds", "rho", "--domain", "dom.json", "--z", "-1"],
    ["eval", "frobnicate", "--t", "1"], ["eval", "h"],
    ["bounds", "ring", "--c", "0.5", "--r1", "1", "--r2", "8",
     "--compare"],
    ["bounds", "rho", "--domain", "dom.json", "--z=-1,0"],
    ["bounds", "sigma", "--z", "3,2", "--domain", "dom.json"],
    ["constants"], ["figure1"], ["figure1", "--count", "9", "--lo=0.5"],
])
def test_plain_argv_forms_take_the_one_pass_path(argv):
    # usage errors that a handler finds (an unknown function or check, a
    # missing eval flag) are plain argv too
    assert _assert_twins(argv) is not None


@pytest.mark.parametrize("argv", [
    [], ["-h"], ["eval", "-h"], ["bounds"], ["bounds", "ring", "--help"],
    ["verify", "--suit", "strict"], ["eval", "H", "--t", "-1e-3"],
    ["eval", "H", "--t", "-inf"],
    ["bounds", "rho", "--domain", "d.json", "--z", "-1,0"],
    ["eval", "h", "--t", "1", "--t", "2"], ["eval", "--", "h"],
    ["eval", "--t", "1", "h"], ["verify", "--json=1"],
    ["bounds", "ring", "--c", "0.5", "--r1", "1"], ["frob"],
    ["figure1", "--count", "3.5"], ["verify", "--suite", "lax"],
    ["bounds", "rho", "--domain", "d.json", "--z", "x"],
    ["constants", "extra"], ["eval"],
])
def test_other_argv_go_to_argparse(argv):
    assert cli._parse(argv) is None
    _assert_twins(argv)


def test_the_negative_number_pattern_is_argparses():
    # the one-pass reader takes a word as a value where argparse does
    assert (cli._NEGATIVE_NUMBER.pattern
            == argparse.ArgumentParser()._negative_number_matcher.pattern)


def _perfbench_cli_argv():
    spec = importlib.util.spec_from_file_location(
        "perfbench_gen", os.path.join(SRC, os.pardir, "perfbench", "gen.py"))
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    for workload in ("verify", "oneshot"):
        for seed in (1, 2, 901):
            for ops in gen.generate(workload, seed)["passes"]:
                yield from (op["argv"] for op in ops if op["call"] == "cli")


def test_every_perfbench_command_line_takes_the_one_pass_path():
    forms = set()
    for argv in _perfbench_cli_argv():
        got = cli._parse(argv)
        assert got is not None, argv
        assert _same_values(vars(got), _argparse_outcome(argv)), argv
        forms.add((got.command, getattr(got, "query", None)))
    assert forms == {("verify", None), ("bounds", "ring"), ("bounds", "rho"),
                     ("bounds", "sigma"), ("figure1", None)}


def test_a_plain_command_builds_no_parser(capsys):
    cli._build_parser.cache_clear()
    try:
        assert cli.main(["eval", "h", "--t", "0.5"]) == 0
        assert cli.main(["constants"]) == 0
        assert cli._build_parser.cache_info().misses == 0
    finally:
        cli._build_parser.cache_clear()


def test_main_without_argv_reads_sys_argv(capsys, monkeypatch):
    rc, want = run_cli(capsys, "eval", "h", "--t", "0.5")
    monkeypatch.setattr(sys, "argv", ["punctmetric", "eval", "h", "--t",
                                      "0.5"])
    assert cli.main() == rc == 0
    assert capsys.readouterr().out == want


def test_a_plain_command_line_leaves_argparse_unloaded():
    # in a fresh interpreter: neither argparse, nor gettext (which argparse
    # loads), nor the module that builds the parser is imported by a plain
    # argv of any subcommand, and all three are by help and by a usage
    # error
    domain = os.path.join(DATA, "domain_ten.json")
    _fresh("names = {'argparse', 'gettext', 'punctmetric._usage'}\n"
           "parsing = lambda: names & set(sys.modules)\n"
           "assert not parsing()\n"
           "for argv in (['eval', 'f21', '--a', '0.5', '--b', '0.5',\n"
           "              '--c', '1', '--x', '0.3'],\n"
           "             ['eval', 'h', '--t', '1.5'], ['constants'],\n"
           "             ['verify', '--check', 'thm_c212_1'],\n"
           "             ['figure1', '--count', '9'],\n"
           "             ['bounds', 'ring', '--c', '0.5', '--r1', '1',\n"
           "              '--r2', '8', '--compare'],\n"
           f"             ['bounds', 'rho', '--domain', {domain!r},\n"
           "              '--z=3,2'],\n"
           f"             ['bounds', 'sigma', '--domain', {domain!r},\n"
           "              '--z', '3,2']):\n"
           "    with contextlib.redirect_stdout(io.StringIO()):\n"
           "        assert main(argv) == 0, argv\n"
           "    assert not parsing(), argv\n"
           "for argv in (['eval', '--help'], ['eval', 'h'], ['frob']):\n"
           "    with contextlib.redirect_stdout(io.StringIO()), \\\n"
           "            contextlib.redirect_stderr(io.StringIO()):\n"
           "        try:\n"
           "            main(argv)\n"
           "        except SystemExit:\n"
           "            pass\n"
           "    assert parsing() == names, argv\n"
           "    punctmetric.cli._build_parser.cache_clear()\n"
           "    for name in names:\n"
           "        del sys.modules[name]\n")


# -- lazily loaded modules bind their names however they are imported -------

@pytest.mark.parametrize("load,module", [
    ("import punctmetric.bounds", "bounds"),
    ("from punctmetric.bounds import rho_bounds", "bounds"),
    ("import punctmetric.verify", "verify"),
    ("pickle.loads(DOMAIN)", "bounds"),
    ("import punctmetric.specfun", "specfun"),
    ("from punctmetric.elliptic import agm", "elliptic"),
    ("import punctmetric.hyp2f1", "hyp2f1"),
    ("import punctmetric.pqfun", "pqfun"),
    ("from punctmetric import metric", "metric"),
    ("import punctmetric.bounds", "metric"),
    ("import punctmetric.pqfun", "hyp2f1"),
])
def test_a_lazy_module_binds_its_names_on_import(load, module):
    # a namespace scan right after the import, as of perfbench's tracer,
    # meets every name, with no lookup through the package first
    dom = pickle.dumps(bounds.PuncturedDomain((0.0, 1.0, 2.0 + 1.0j)))
    _fresh(f"DOMAIN = {dom!r}\n"
           f"{load}\n"
           f"loaded = sys.modules['punctmetric.{module}']\n"
           f"for name in punctmetric._LAZY[{module!r}]:\n"
           "    assert vars(punctmetric)[name] is getattr(loaded, name), name\n"
           f"assert vars(punctmetric)[{module!r}] is loaded\n")
