"""verify's one cache: the report of each request without params, grid
or tol, kept per process under its name and profile (``_reports``).

A repeat of such a request must return the kept report and run neither
the check's runner nor any array form.  A request with overrides runs
every time and keeps nothing, and so does a run that raises.  The cache
holds at most one report per check and profile.  conftest.py empties it
after each test.
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
    return [r for suite in ("default", "strict")
            for r in verify.run_suite(suite)]


def test_a_second_pass_of_both_suites_runs_no_runner_and_no_array_form(
        runs, array_forms):
    cold = _both_suites()
    assert len(runs) == 2 * len(verify.check_names()) == 44
    assert array_forms
    del runs[:], array_forms[:]
    warm = _both_suites()
    assert all(w is c for w, c in zip(warm, cold)) and len(warm) == 44
    assert runs == [] and array_forms == []
    assert len(verify._reports) == 44


def test_a_tol_override_runs_and_is_judged_against_its_own_tol(runs):
    name = "thm_c212_3"
    default = verify.run_check(name)
    assert default.passed and default.tolerance == 1e-13
    for _ in range(2):
        strict = verify.run_check(name, tol=0.0)
        assert not strict.passed and strict.worst_margin == 0.0
        assert math.copysign(1.0, strict.worst_margin) == -1.0
    assert runs == [name] * 3
    assert verify._reports == {(name, "default"): default}


def test_default_and_strict_are_two_entries_and_an_override_none(runs):
    name = "thm_main_parity"
    for _ in range(2):
        reports = [verify.run_check(name),
                   verify.run_check(name, tol_profile="strict"),
                   verify.run_check(name, params={"a": 0.75})]
        assert list(verify._reports) == [(name, "default"),
                                         (name, "strict")]
    assert runs == [name] * 4
    assert [r.grid.count for r in reports] == [81, 324, 81]
    # a strict request with the default grid given is an override
    given = verify.run_check(name, grid=verify._REGISTRY[name].grid,
                             tol_profile="strict")
    assert given.grid.count == 81 and runs == [name] * 5
    assert len(verify._reports) == 2


def test_plus_and_minus_zero_are_two_grids(runs):
    name = "thm_main_parity"
    minus = verify.GridSpec(-0.0, 20.0, 81)
    assert minus == verify._REGISTRY[name].grid  # equal as tuples
    cold = repr(verify.run_check(name, grid=minus))
    assert "lo=-0.0" in cold
    plain = verify.run_check(name)
    assert repr(verify.run_check(name, grid=minus)) == cold != repr(plain)
    assert len(verify._reports) == 1 and len(runs) == 3


def test_a_run_that_raises_keeps_nothing(monkeypatch, runs):
    for _ in range(2):
        with pytest.raises(HypothesisError):
            verify.run_check("lem_vaman_1", params={"c": 5.0})
    assert runs == ["lem_vaman_1"] * 2 and verify._reports == {}
    # nor does a plain request whose runner raises
    cd = verify._REGISTRY["lem_vaman_1"]

    def failing(params, grid):
        raise HypothesisError("refused")

    monkeypatch.setitem(verify._REGISTRY, "lem_vaman_1",
                        cd._replace(runner=failing))
    for _ in range(2):
        with pytest.raises(HypothesisError, match="refused"):
            verify.run_check("lem_vaman_1")
    assert verify._reports == {}


@pytest.fixture
def resolving(monkeypatch):
    """One entry per GridSpec built from here on."""
    calls = []
    new, make = verify.GridSpec.__new__, verify.GridSpec._make.__func__

    def spy_new(cls, *args, **kwargs):
        calls.append("GridSpec")
        return new(cls, *args, **kwargs)

    def spy_make(cls, iterable):
        calls.append("GridSpec")
        return make(cls, iterable)

    monkeypatch.setattr(verify.GridSpec, "__new__", staticmethod(spy_new))
    monkeypatch.setattr(verify.GridSpec, "_make", classmethod(spy_make))
    return calls


@pytest.mark.parametrize("profile", ["default", "strict"])
def test_a_warm_request_resolves_nothing_again(resolving, runs, profile):
    for name in verify.check_names():
        cold = verify.run_check(name, tol_profile=profile)
        assert ("GridSpec" in resolving) == (profile == "strict")
        del resolving[:], runs[:]
        for _ in range(2):
            assert verify.run_check(name, tol_profile=profile) is cold
        assert resolving == [] and runs == [], name
    assert len(verify._reports) == len(verify.check_names())


def test_a_request_with_overrides_resolves_on_every_call(runs):
    name = "thm_main_parity"
    plain = verify.run_check(name)
    grid = verify._REGISTRY[name].grid
    for kwargs in ({"params": {"a": 0.5}}, {"grid": grid}, {"tol": 1e-13},
                   {"params": {}}):
        del runs[:]
        for _ in range(2):
            report = verify.run_check(name, **kwargs)
            assert report == plain and report is not plain
        assert runs == [name] * 2
    assert list(verify._reports) == [(name, "default")]


def test_a_filled_memo_keeps_the_typed_errors():
    for profile in ("default", "strict"):
        verify.run_suite(profile)
        with pytest.raises(UnknownCheckError, match="unknown check 'nope'") \
                as err:
            verify.run_check("nope", tol_profile=profile)
        assert err.value.__context__ is None
    for profile in ("lax", None, ["default"]):
        with pytest.raises(DomainError, match="tol_profile must be") as err:
            verify.run_check("thm_main_parity", tol_profile=profile)
        assert err.value.__context__ is None  # no lookup shows through
    for kwargs, match in (({"params": {"z": 1.0}}, "has no parameter"),
                          ({"params": [1]}, "params must be a dict"),
                          ({"grid": (0.0, 20.0, 81, "linear")},
                           "grid must be a GridSpec"),
                          ({"tol": -1.0}, "tol must be finite")):
        with pytest.raises(DomainError, match=match) as err:
            verify.run_check("thm_main_parity", **kwargs)
        assert err.value.__context__ is None
    with pytest.raises(TypeError, match="unhashable"):
        verify.run_check(["thm_main_parity"])
    # one report per check and profile, and none for a refused request
    assert len(verify._reports) == 44
    assert set(verify._reports) == {(name, profile)
                                    for name in verify.check_names()
                                    for profile in ("default", "strict")}


def test_a_replaced_runner_runs_on_a_cold_request_after_the_memo(request):
    name = "thm_main_parity"
    warm = verify.run_check(name)
    verify._reports.clear()
    runs = request.getfixturevalue("runs")
    assert verify.run_check(name) == warm and runs == [name]
    assert verify.run_check(name) == warm and runs == [name]
