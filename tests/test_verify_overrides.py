"""Every verify check under grid and parameter overrides, against a
golden file.

``tests/data/verify_overrides.jsonl`` holds one run_check call a line:
the check, the profile, which override it ran under, and the report
(``PropertyReport.to_dict``) or the type and message of the typed error
it raised.  Each check runs under both profiles at five grids derived
from its default one (log spaced, a narrow middle, near 0, twice as
wide, shifted by a quarter width) and, where it has parameters, at its
default grid with one parameter override; then once, under the default
profile, with parameters it refuses.  The file is compared byte for
byte, so every float of every report keeps its bits.  The two
default-grid suites are pinned by ``tests/data/verify_default.jsonl``
and ``verify_strict.jsonl``.

Regenerate the file with ``python tests/test_verify_overrides.py``,
which writes it from the library on the import path, after printing how
many lines change per check against the file it replaces.
"""

import json
import warnings
from collections import Counter
from pathlib import Path

from punctmetric import verify
from punctmetric.errors import PunctMetricError
from punctmetric.verify import GridSpec

GOLDEN = Path(__file__).parent / "data" / "verify_overrides.jsonl"

# one override per check that has parameters, inside its hypothesis
PARAMS = {
    "lem_vaman_1": {"a": 3.0, "b": 1.5, "c": 1.2},
    "lem_vaman_2": {"a": 0.25, "b": 0.5, "c": 1.0},
    "lem_vaman_3": {"a": 1.0, "b": 3.0, "c": 3.0},
    "lem_concave_coeffs": {"a": 0.3, "b": 0.7, "c": 1.5},
    "cor_concave_shape": {"a": 0.3, "b": 0.7, "c": 1.2},
    "lem_hlvv_sign": {"cases": [[0.5, 1.5, 2.0, "convex"],
                                [0.3, 0.7, 1.2, "constant"]]},
    "thm_genconv_logconvex": {"a": 1.5, "b": 0.5, "c": 1.0},
    "thm_genconv_limits": {"cases": [
        {"kind": "zb", "a": 1.0, "b": 2.0, "u": 1e-6, "tol": 1e-4},
        {"kind": "power", "a": 2.0, "b": 1.0, "c": 2.5,
         "x": 0.999, "tol": 1e-1}]},
    "thm_main_parity": {"a": 1.0, "b": 2.0},
    "thm_main_convex": {"a": 1.0, "b": 2.0, "seed": 7, "pairs": 200},
    "thm_main_pprime_bounds": {"pairs": [[0.3, 1.7]]},
    "thm_main_slopes": {"a": 1.0, "b": 2.0},
    "thm_main2_qq": {"a": 0.3, "b": 1.7},
    "thm_main2_subadd": {"a": 1.0, "b": 2.0, "seed": 3, "pairs": 100},
    "thm_main2_qbounds": {"a": 1.0, "b": 2.0},
    "kustner_total_monotone": {"a": -0.5, "b": 1.0, "c": 2.0, "k_max": 3},
    "cor_phi_decreasing": {"seed": 9, "pairs": 100, "s_lo": 0.5,
                           "s_hi": 10.0},
}

# parameters each check refuses, with the typed error of its boundary
REFUSED = {
    "lem_vaman_1": {"a": 0.5, "b": 0.5, "c": 1.0},
    "lem_vaman_2": {"a": 2.0, "b": 0.5, "c": 0.4},
    "lem_vaman_3": {"a": 2.0, "b": 2.0, "c": 1.0},
    "lem_concave_coeffs": {"a": 1.5, "b": 0.5, "c": 1.0},
    "cor_concave_shape": {"a": 1.0, "b": 0.5, "c": 1.0},
    "lem_hlvv_sign": {"cases": [[1.0, 1.0, 1.5, "concave"]]},
    "thm_genconv_logconvex": {"a": 3.0, "b": 3.0, "c": 1.0},
    "thm_genconv_limits": {"cases": [
        {"kind": "gauss", "a": 1.0, "b": 1.0, "c": 1.5, "x": 0.9,
         "tol": 1e-2}]},
    "thm_main_parity": {"a": -1.0, "b": 0.5},
    "thm_main_convex": {"min_gap": 40.0},
    "thm_main_pprime_bounds": {"pairs": [[0.0, 1.0]]},
    "thm_main_slopes": {"a": 0.5, "b": -0.5},
    "thm_main2_qq": {"a": 0.0, "b": 1.0},
    "thm_main2_subadd": {"s_lo": 5.0, "s_hi": 1.0},
    "thm_main2_qbounds": {"a": 0.25, "b": 0.25},
    "kustner_total_monotone": {"a": -2.0, "b": 0.5, "c": 1.0},
    "cor_phi_decreasing": {"s_lo": 1.0, "s_hi": 1e308},
}


def _grids(g: GridSpec) -> dict:
    """The overriding grids of a check whose default grid is g."""
    w = g.hi - g.lo
    return {
        "log": GridSpec(g.lo if g.lo > 0.0 else 1e-3 * w, g.hi, g.count,
                        "log"),
        "narrow": GridSpec(g.lo + 0.4 * w, g.hi - 0.4 * w, g.count),
        "near0": GridSpec(1e-9, 1e-3, g.count),
        "wide": GridSpec(g.lo - 0.5 * w, g.hi + 0.5 * w, g.count),
        "shifted": GridSpec(g.lo + 0.25 * w, g.hi + 0.25 * w, g.count),
    }


def _cases():
    """(check, profile, override label, keyword overrides) per line."""
    cases = []
    for name in verify.check_names():
        grids = _grids(verify._REGISTRY[name].grid)
        for profile in ("default", "strict"):
            cases += [(name, profile, label, {"grid": grid})
                      for label, grid in grids.items()]
            if name in PARAMS:
                cases.append((name, profile, "params",
                              {"params": PARAMS[name]}))
        if name in REFUSED:
            cases.append((name, "default", "refused",
                          {"params": REFUSED[name]}))
    return cases


def _record(name, profile, overrides) -> dict:
    """The report of one run, or the typed error it raised."""
    try:
        report = verify.run_check(name, tol_profile=profile, **overrides)
    except PunctMetricError as exc:
        return {"error": type(exc).__name__, "message": str(exc)}
    return {"report": report.to_dict()}


def _lines() -> list[str]:
    """The golden file's lines, from the library as it is; a numpy
    RuntimeWarning is an error, as pytest's filterwarnings makes it."""
    lines = []
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for name, profile, label, overrides in _cases():
            line = {"check": name, "profile": profile, "override": label,
                    "out": _record(name, profile, overrides)}
            lines.append(json.dumps(line, allow_nan=False) + "\n")
    return lines


def test_override_reports_are_golden():
    want = GOLDEN.read_text().splitlines(keepends=True)
    got = _lines()
    assert len(got) == len(want)
    wrong = [(g, w) for g, w in zip(got, want) if g != w]
    assert not wrong, f"{len(wrong)} lines differ, first: {wrong[0]}"


def test_override_cases_cover_every_check():
    cases = _cases()
    assert {name for name, *_ in cases} == set(verify.check_names())
    assert set(PARAMS) == {name for name in verify.check_names()
                           if verify._REGISTRY[name].params}
    labels = Counter(label for _, _, label, _ in cases)
    assert labels["params"] == 2 * len(PARAMS)
    assert set(REFUSED) == set(PARAMS)
    lines = map(json.loads, GOLDEN.read_text().splitlines())
    refused = [line["out"] for line in lines if line["override"] == "refused"]
    assert len(refused) == len(REFUSED)
    assert all("error" in out for out in refused)


if __name__ == "__main__":
    new_lines = _lines()
    old_lines = GOLDEN.read_text().splitlines(keepends=True) \
        if GOLDEN.exists() else []
    old = {tuple(json.loads(line)[k] for k in ("check", "profile",
                                               "override")): line
           for line in old_lines}
    counts = Counter()
    for line in new_lines:
        key = tuple(json.loads(line)[k] for k in ("check", "profile",
                                                  "override"))
        if old.pop(key, None) != line:
            counts[key[0]] += 1
    for key in old:
        counts[key[0]] += 1
    failing = sum('"passed": false' in line for line in new_lines)
    print(f"lines changed against {GOLDEN.name} ({len(new_lines)} lines, "
          f"{failing} failing reports):")
    for name, count in sorted(counts.items()):
        print(f"  {name:28} {count}")
    GOLDEN.write_text("".join(new_lines))
