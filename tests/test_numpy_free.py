"""The package and its scalar calls run without numpy.

Each case runs in a fresh interpreter, since this one has numpy loaded:
once checking that the calls leave numpy out of ``sys.modules``, and
once with numpy blocked (``sys.modules["numpy"] = None``), where the
same calls must succeed and an array form must fail to import it.
"""

import os
import pathlib
import subprocess
import sys
import textwrap

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent

SCALAR_CALLS = textwrap.dedent("""
    import contextlib
    import io
    import sys

    if sys.argv[1] == "blocked":
        sys.modules["numpy"] = None

    import punctmetric, punctmetric.cli
    from punctmetric import bounds, cli, hyp2f1, metric, pqfun, specfun
    from punctmetric.hyp2f1 import HypParams, f21

    assert sys.modules.get("numpy") is None, "import"
    routes = set()
    for abc, x in [((0.5, 0.5, 1.0), 0.3), ((0.5, 0.5, 1.0), 0.9),
                   ((1.5, 1.5, 2.0), 0.9), ((0.9, 1.1, 2.6), 0.9),
                   ((2.0, 3.0, 3.0), 0.9), ((2.0, 2.0, 1.0), 0.9),
                   ((0.3, 0.7, 2.0 + 5e-10), 0.999)]:
        p = HypParams(*abc)
        routes.add((hyp2f1._route(p)[0], f21(p, x).method))
    assert {route for route, _ in routes} == {
        "direct", "log", "connection", "power"}, routes
    hyp2f1.f21_derivative(HypParams(0.5, 0.5, 1.0), 0.9)
    hyp2f1.f21_minus_one(0.5, 0.5, 1.0, 0.5)
    hyp2f1.zb_complement_sums(0.5, 0.5, 0.25)
    for t in (0.0, 1.0, -30.0):
        metric.h(t), metric.big_h(t), metric.big_h_prime(t)
    for t in (0.01, 2.0, 200.0):
        metric.varphi(t)
    metric.lambda01_neg(2.0), metric.phi_func(3.0)
    metric.lambda01_lower(1 + 1j), metric.d01_lower(2j, -3.0)
    pair = pqfun.ZeroBalancedPair(0.5, 0.7)
    for t in (-2.0, 0.5, 25.0):
        pqfun.p_func(pair, t), pqfun.p_prime(pair, t), pqfun.q_func(pair, t)
        pqfun.q_log(pair, t), pqfun.slope_g(pair, t)
        pqfun.q_log_prime(pair, t), pqfun.p_excess(pair, t)
    pqfun.q_excess(pair, 3.0)
    pqfun.n_func(0.5, 0.5, 1.0, 0.2), pqfun.m_func(1.0, 2.0, 3.5, 0.7)
    bounds.ring_coefficients(0.5), bounds.baseline_bounds(0.5)
    bounds.ring_lower_bound(0.5, 1.0, 8.0), bounds.ring_gap([0, 1, 2j])
    ten = [complex(k, k * k % 7) for k in range(bounds._LISTS_BELOW - 1)]
    dom = bounds.PuncturedDomain(ten)
    bounds.rho_bounds(dom, 0.5 + 0.25j), bounds.sigma_lower(dom, 3 - 1j)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        for argv in (["eval", "f21", "--a", "0.5", "--b", "0.5", "--c", "1",
                      "--x", "0.99"],
                     ["eval", "M", "--a", "1", "--b", "2", "--c", "3.5",
                      "--x", "0.7"],
                     ["constants"],
                     ["bounds", "ring", "--c", "0.5", "--r1", "1", "--r2",
                      "8", "--compare"],
                     ["bounds", "rho", "--domain",
                      "tests/data/domain_ten.json", "--z=3,2"],
                     ["bounds", "sigma", "--domain",
                      "tests/data/domain_ten.json", "--z=3,2"]):
            assert cli.main(argv) == 0, argv
    assert "error" not in out.getvalue()
    assert sys.modules.get("numpy") is None, "calls"
    if sys.argv[1] == "blocked":
        for array_call in (lambda: hyp2f1.f21_many, lambda: metric.h_many,
                           lambda: specfun.as_points,
                           lambda: punctmetric.run_check,
                           lambda: bounds.PuncturedDomain(ten + [99j])):
            try:
                array_call()
            except ImportError:
                pass
            else:
                raise AssertionError("an array path ran without numpy")
    print("ok")
""")


@pytest.mark.parametrize("numpy", ["absent", "blocked"])
def test_scalar_calls_run_without_numpy(numpy):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", SCALAR_CALLS, numpy],
                          env=env, cwd=ROOT, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "ok\n"
