"""Command-line surface, exercised in-process through cli.main(argv).

Exit-code contract: 0 success / all checks pass, 1 computation or check
failure, 2 usage errors (argparse exits via SystemExit).
"""

import json
import math
import os
import subprocess
import sys

import pytest

from punctmetric import bounds, cli, elliptic, metric, verify

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
    rc, doc = run_json(capsys, "eval", "f21", "--a", "1e306", "--b", "1.5",
                       "--c", "1e306", "--x", "0.9")
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
# forty-puncture one (the ten and 30 more) the array route.
PINNED_BOUNDS = (("bounds_cli.jsonl", ("pair", "ten")),
                 ("bounds_cli_forty.jsonl", ("forty",)))
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
                 ["figure1", "--lo", "1", "--hi", "inf"]):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2


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
