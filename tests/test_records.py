"""The package's records: their repr, equality, hash, immutability,
validation messages and field order.

The array forms' memo keys a form by the repr of its parameters
(``_arrays._array_form``), so every repr is pinned byte for byte.
"""

import copy
import math
import pickle

import numpy as np
import pytest

from punctmetric import bounds, hyp2f1, verify
from punctmetric.bounds import PuncturedDomain
from punctmetric.errors import DomainError
from punctmetric.hyp2f1 import EvalResult, HypParams
from punctmetric.pqfun import ZeroBalancedPair


def _grid():
    return verify.GridSpec(0, 30, 31.0)


def _report():
    return verify.PropertyReport("lem_vaman_1", True, _grid(), (0.5, 2.0),
                                 1e-3, 0.0)


def _many_punctures():
    return [complex(k, k * k % 7) for k in range(bounds._LISTS_BELOW)]


# each record, as built by its constructor, and its repr
RECORDS = [
    (lambda: HypParams(1, 0.5, 2.5), "HypParams(a=1.0, b=0.5, c=2.5)"),
    (lambda: EvalResult(1.25, 2e-16, 3, "direct_series"),
     "EvalResult(value=1.25, abs_err_estimate=2e-16, terms_used=3, "
     "method='direct_series')"),
    (lambda: ZeroBalancedPair(0.5, 2), "ZeroBalancedPair(a=0.5, b=2.0)"),
    (lambda: PuncturedDomain([0, 1j, -0.5]),
     "PuncturedDomain(punctures=(0j, 1j, (-0.5+0j)))"),
    (_grid, "GridSpec(lo=0.0, hi=30.0, count=31, scale='linear')"),
    (_report,
     "PropertyReport(name='lem_vaman_1', passed=True, grid=GridSpec(lo=0.0, "
     "hi=30.0, count=31, scale='linear'), worst_point=(0.5, 2.0), "
     "worst_margin=0.001, tolerance=0.0, notes='')"),
]


NAMES = [text.split("(")[0] for _, text in RECORDS]


@pytest.mark.parametrize("build, text", RECORDS, ids=NAMES)
def test_repr_equality_and_hash(build, text):
    rec = build()
    assert repr(rec) == text
    twin = build()
    assert twin == rec and not twin != rec
    assert hash(twin) == hash(rec)


@pytest.mark.parametrize("build", [build for build, _ in RECORDS] + [
    lambda: PuncturedDomain(_many_punctures())],
    ids=NAMES + ["PuncturedDomain-arrays"])
def test_records_survive_pickle_and_copy(build):
    rec = build()
    for twin in (pickle.loads(pickle.dumps(rec)), copy.copy(rec),
                 copy.deepcopy(rec)):
        assert type(twin) is type(rec)
        assert twin == rec and repr(twin) == repr(rec)
    if isinstance(rec, PuncturedDomain) and rec._xy is not None:
        x, y = copy.deepcopy(rec)._xy
        assert not x.flags.writeable and x.tolist() == rec._xy[0].tolist()


def test_array_results_repr():
    got = hyp2f1.EvalResults(np.array([1.0]), np.array([0.0]), np.array([4]),
                             np.array(["direct_series"], dtype=object))
    assert repr(got) == (
        "EvalResults(value=array([1.]), abs_err_estimate=array([0.]), "
        "terms_used=array([4]), method=array(['direct_series'], "
        "dtype=object))")
    assert got.terms_used.tolist() == [4]
    with pytest.raises(AttributeError):
        got.value = np.array([2.0])


def test_records_differ_by_their_values():
    assert HypParams(1, 2, 3) != HypParams(1, 2, 4)
    assert ZeroBalancedPair(1, 2) != ZeroBalancedPair(2, 1)
    assert EvalResult(1.0, 0.0, 1, "m") != EvalResult(1.0, 0.0, 2, "m")
    assert verify.GridSpec(1, 2, 3) != verify.GridSpec(1, 2, 3, "log") != (
        verify.GridSpec(1, 2, 4, "log"))
    assert PuncturedDomain([0, 1]) != PuncturedDomain([0, 2])
    assert PuncturedDomain([0, 1]) != PuncturedDomain([1, 0])


def test_domain_equality_and_hash_are_on_punctures_alone():
    pts = _many_punctures()
    listed, paired = PuncturedDomain(pts), PuncturedDomain(tuple(pts))
    assert listed._xy is not None and listed._xy is not paired._xy
    assert listed == paired and hash(listed) == hash(paired)
    assert {listed: 1}[paired] == 1
    few = PuncturedDomain(pts[:3])
    assert few._xy is None
    assert few == PuncturedDomain(tuple(pts[:3]))
    assert few != listed
    assert few != pts[:3] and few != tuple(few.punctures)


FIELDS = [
    (lambda: HypParams(1, 2, 3), ("a", "b", "c")),
    (lambda: EvalResult(1.0, 0.0, 1, "m"),
     ("value", "abs_err_estimate", "terms_used", "method")),
    (lambda: ZeroBalancedPair(1, 2), ("a", "b")),
    (lambda: PuncturedDomain([0, 1]), ("punctures", "_xy")),
    (_grid, ("lo", "hi", "count", "scale")),
    (_report, ("name", "passed", "grid", "worst_point", "worst_margin",
               "tolerance", "notes")),
]


@pytest.mark.parametrize("build, fields", FIELDS, ids=NAMES)
def test_records_refuse_assignment(build, fields):
    rec = build()
    for name in fields + ("unknown",):
        with pytest.raises(AttributeError):
            setattr(rec, name, 1.0)
    assert repr(rec) == repr(build())


def test_fields_in_order():
    r = EvalResult(1.5, 2.5, 7, "zb_log_series")
    assert (r.value, r.abs_err_estimate, r.terms_used, r.method) == (
        1.5, 2.5, 7, "zb_log_series")
    p = HypParams(0.25, 0.5, 2)
    assert (p.a, p.b, p.c) == (0.25, 0.5, 2.0)
    assert all(type(v) is float for v in (p.a, p.b, p.c))
    assert p.balanced_sign == 1
    pr = ZeroBalancedPair(0.25, 1)
    assert (pr.a, pr.b, pr.c) == (0.25, 1.0, 1.25)
    assert pr.params(1.0) == HypParams(0.25, 1.0, 2.25)
    g = verify.GridSpec(-1, 2, 5.0)
    assert (g.lo, g.hi, g.count, g.scale) == (-1.0, 2.0, 5, "linear")
    assert type(g.count) is int


def test_property_report_to_dict_key_order():
    report = _report()
    d = report.to_dict()
    assert list(d) == ["name", "passed", "grid", "worst_point",
                       "worst_margin", "tolerance", "notes"]
    assert d["grid"] == {"lo": 0.0, "hi": 30.0, "count": 31,
                         "scale": "linear"}
    assert list(d["grid"]) == ["lo", "hi", "count", "scale"]
    assert d["worst_point"] == [0.5, 2.0]
    assert report.notes == ""
    low = verify.PropertyReport("x", False, _grid(), 1.0, -math.inf, 0.0,
                                "n").to_dict()
    assert (low["worst_margin"], low["notes"]) == ("-inf", "n")


@pytest.mark.parametrize("build, message", [
    (lambda: HypParams(0, 1, 1),
     "hypergeometric parameter a must be positive and finite, got 0.0"),
    (lambda: HypParams(1, math.nan, 1),
     "hypergeometric parameter b must be positive and finite, got nan"),
    (lambda: HypParams(1, 1, -math.inf),
     "hypergeometric parameter c must be positive and finite, got -inf"),
    (lambda: ZeroBalancedPair(-1, 1),
     "pair parameter a must be positive finite, got -1.0"),
    (lambda: ZeroBalancedPair(1, math.inf),
     "pair parameter b must be positive finite, got inf"),
    (lambda: verify.GridSpec(1, 0, 10),
     r"grid needs lo < hi with hi - lo finite, got [1.0, 0.0]"),
    (lambda: verify.GridSpec(0, 1, 2), "grid needs count >= 3, got 2"),
    (lambda: verify.GridSpec(0, 1, 3.5),
     "count must be a whole number >= 0, got 3.5"),
    (lambda: verify.GridSpec(0, 1, 3, "cubic"),
     "scale must be 'linear' or 'log', got 'cubic'"),
    (lambda: verify.GridSpec(0, 1, 3, "log"), "log scale requires lo > 0"),
    (lambda: PuncturedDomain([0]),
     "need at least two punctures for a hyperbolic domain, got 1"),
    (lambda: PuncturedDomain([0, 1, 0]),
     "punctures must be pairwise distinct; index 0 and 2 are both 0j"),
])
def test_validation_messages(build, message):
    with pytest.raises(DomainError) as info:
        build()
    assert str(info.value) == message


def test_grid_default_scale():
    assert verify.GridSpec(1, 2, 3).scale == "linear"
    assert verify.GridSpec(1, 2, 3) == verify.GridSpec(1, 2, 3, "linear")


def test_parameter_and_result_records_are_tuples():
    p = HypParams(1, 0.5, 2.5)
    a, b, c = p
    assert (a, b, c) == p == (1.0, 0.5, 2.5) and hash(p) == hash((a, b, c))
    assert ZeroBalancedPair(0.5, 2) == (0.5, 2.0)
    r = hyp2f1.f21(p, 0.25)
    value, err, terms, method = r
    assert r == (r.value, r.abs_err_estimate, r.terms_used, r.method)
    assert (value, err, terms, method) == tuple(r)
    g = verify.GridSpec(0, 30, 31)
    assert g == (0.0, 30.0, 31, "linear")
