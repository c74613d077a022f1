"""verify's one cache: each check's outcome (worst point, margin and
notes), kept per process under its name and the reprs of its parameters
and grid.

A repeat of a check must return the report a cold run returns, judged
against its own tolerance, and run neither the check's runner nor any
array form; a run that raises keeps nothing.  conftest.py empties the
cache after each test.
"""

import math

import pytest

from punctmetric import _arrays, _hyp2f1_arrays, verify
from punctmetric.errors import HypothesisError


@pytest.fixture
def runs(monkeypatch):
    """The name of each check whose runner runs from here on."""
    names = []
    for name, cd in verify._REGISTRY.items():
        def counted(params, grid, name=name, runner=cd.runner):
            names.append(name)
            return runner(params, grid)

        monkeypatch.setitem(verify._REGISTRY, name,
                            cd._replace(runner=counted))
    return names


@pytest.fixture
def array_forms(monkeypatch):
    """One entry per array-form call from here on."""
    calls = []
    array_form = _arrays._array_form

    def counted(*args, **kwargs):
        calls.append(None)
        return array_form(*args, **kwargs)

    for module in (_arrays, _hyp2f1_arrays):
        monkeypatch.setattr(module, "_array_form", counted)
    return calls


def _both_suites():
    return [r.to_dict() for suite in ("default", "strict")
            for r in verify.run_suite(suite)]


def test_a_second_pass_of_both_suites_runs_no_runner_and_no_array_form(
        runs, array_forms):
    cold = _both_suites()
    assert len(runs) == 2 * len(verify.check_names()) == 44
    assert array_forms
    del runs[:], array_forms[:]
    assert _both_suites() == cold
    assert runs == [] and array_forms == []
    assert len(verify._outcomes) == 44


def test_a_kept_outcome_is_judged_against_each_calls_tol(runs):
    cold = verify.run_check("thm_c212_3", tol=0.0)
    verify._outcomes.clear()
    default = verify.run_check("thm_c212_3")
    assert default.passed and default.tolerance == 1e-13
    warm = verify.run_check("thm_c212_3", tol=0.0)
    assert runs == ["thm_c212_3"] * 2
    assert warm == cold and not warm.passed
    assert warm.worst_margin == 0.0
    assert math.copysign(1.0, warm.worst_margin) == -1.0


def test_default_strict_and_a_params_override_are_three_entries(runs):
    name = "thm_main_parity"
    for _ in range(2):
        reports = [verify.run_check(name),
                   verify.run_check(name, tol_profile="strict"),
                   verify.run_check(name, params={"a": 0.75})]
        assert len(verify._outcomes) == 3
    assert runs == [name] * 3
    assert [r.grid.count for r in reports] == [81, 324, 81]
    # a strict run on the default grid, given, shares the default's entry
    verify.run_check(name, grid=verify._REGISTRY[name].grid,
                     tol_profile="strict")
    assert len(verify._outcomes) == 3 and runs == [name] * 3


def test_plus_and_minus_zero_are_two_grids(runs):
    name = "thm_main_parity"
    minus = verify.GridSpec(-0.0, 20.0, 81)
    assert minus == verify._REGISTRY[name].grid  # equal as tuples
    cold = repr(verify.run_check(name, grid=minus))
    verify._outcomes.clear()
    verify.run_check(name)
    assert repr(verify.run_check(name, grid=minus)) == cold
    assert len(verify._outcomes) == 2 and len(runs) == 3


def test_a_run_that_raises_keeps_nothing(runs):
    for _ in range(2):
        with pytest.raises(HypothesisError):
            verify.run_check("lem_vaman_1", params={"c": 5.0})
    assert runs == ["lem_vaman_1"] * 2 and verify._outcomes == {}


def test_the_cache_starts_over_past_its_entries(monkeypatch, runs):
    monkeypatch.setattr(verify, "_HELD", 2)
    names = ["thm_main_parity", "thm_main2_qq", "thm_c212_3"]
    cold = [verify.run_check(name) for name in names]
    assert list(verify._outcomes) == [
        (names[2], "{}", repr(verify._REGISTRY[names[2]].grid))]
    assert [verify.run_check(name) for name in names] == cold
    assert runs == names * 2
