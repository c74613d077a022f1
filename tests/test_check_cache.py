"""verify's one cache: each check's outcome (worst point, margin and
notes), kept per process under its name and the reprs of its parameters
and grid; and the memo of what a request without overrides resolves to,
kept per process under its name and profile.

A repeat of a check must return the report a cold run returns, judged
against its own tolerance, and run neither the check's runner nor any
array form; a run that raises keeps nothing.  A repeat without overrides
must resolve nothing again.  conftest.py empties both after each test.
"""

import math

import pytest

from punctmetric import _arrays, _hyp2f1_arrays, verify
from punctmetric.errors import DomainError, HypothesisError, UnknownCheckError


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


@pytest.fixture
def resolving(monkeypatch):
    """One entry per repr that verify forms, and per GridSpec built, from
    here on."""
    calls = []
    new, make = verify.GridSpec.__new__, verify.GridSpec._make.__func__

    def spy_repr(value):
        calls.append("repr")
        return repr(value)

    def spy_new(cls, *args, **kwargs):
        calls.append("GridSpec")
        return new(cls, *args, **kwargs)

    def spy_make(cls, iterable):
        calls.append("GridSpec")
        return make(cls, iterable)

    monkeypatch.setattr(verify, "repr", spy_repr, raising=False)
    monkeypatch.setattr(verify.GridSpec, "__new__", staticmethod(spy_new))
    monkeypatch.setattr(verify.GridSpec, "_make", classmethod(spy_make))
    return calls


@pytest.mark.parametrize("profile", ["default", "strict"])
def test_a_warm_request_resolves_nothing_again(resolving, profile):
    for name in verify.check_names():
        cold = verify.run_check(name, tol_profile=profile)
        assert "repr" in resolving
        assert ("GridSpec" in resolving) == (profile == "strict")
        del resolving[:]
        for _ in range(2):
            assert verify.run_check(name, tol_profile=profile) == cold
        assert resolving == [], name
    assert len(verify._resolved) == len(verify.check_names())
    # the memo holds registry-derived values, never a runner
    assert not any(callable(v) for entry in verify._resolved.values()
                   for v in entry)


def test_a_request_with_overrides_resolves_on_every_call(resolving):
    name = "thm_main_parity"
    grid = verify._REGISTRY[name].grid
    for kwargs in ({"params": {"a": 0.5}}, {"grid": grid}, {"tol": 1e-13}):
        del resolving[:]
        report = verify.run_check(name, **kwargs)
        assert resolving and report == verify.run_check(name)
    assert list(verify._resolved) == [(name, "default")]


def test_a_filled_memo_keeps_the_typed_errors():
    for profile in ("default", "strict"):
        verify.run_suite(profile)
        with pytest.raises(UnknownCheckError, match="unknown check 'nope'"):
            verify.run_check("nope", tol_profile=profile)
    for profile in ("lax", None, ["default"]):
        with pytest.raises(DomainError, match="tol_profile must be") as err:
            verify.run_check("thm_main_parity", tol_profile=profile)
        assert err.value.__context__ is None  # no lookup shows through
    with pytest.raises(DomainError, match="has no parameter") as err:
        verify.run_check("thm_main_parity", params={"z": 1.0})
    assert err.value.__context__ is None
    with pytest.raises(TypeError, match="unhashable"):
        verify.run_check(["thm_main_parity"])
    assert len(verify._resolved) == 44


def test_a_replaced_runner_runs_on_a_cold_request_after_the_memo(request):
    name = "thm_main_parity"
    warm = verify.run_check(name)
    verify._outcomes.clear()
    runs = request.getfixturevalue("runs")
    assert verify.run_check(name) == warm and runs == [name]
    assert verify.run_check(name) == warm and runs == [name]
