"""rho_bounds and sigma_lower on small domains against a golden file.

``tests/data/bounds_small.jsonl`` holds one domain a line, with N = 2
to 24 punctures, and the queries made on it: the point z, and what
``rho_bounds`` and ``sigma_lower`` returned there, or the type and
message of the typed error each raised.  Every float, in the punctures,
z and the results, is written by ``float.hex``, so each result must
match bit for bit, and infinite upper ends and -0.0 parts keep theirs.

The domains are random (the unit disk, two tight clusters) and tied (a
lattice with z at its centre, a regular polygon about z) layouts at
scales from 1e-300 to 1e300, domains whose distances overflow, and
pairs whose log-gap at z passes ``metric.T_CAP``.  The points include z
within an ulp of a puncture, z equal to a puncture given with -0.0
parts, and z not finite.  Each query runs on both routes of the
module: the Python lists it takes below ``bounds._LISTS_BELOW``
punctures, and the numpy arrays it takes from there on.

Regenerate the file with ``python tests/test_bounds_golden.py``, which
writes it from the library on the import path, after printing how many
rows change against the file it replaces.
"""

import cmath
import json
import math
import random
from pathlib import Path
from unittest import mock

import pytest

from punctmetric import bounds
from punctmetric.errors import PunctMetricError

GOLDEN = Path(__file__).parent / "data" / "bounds_small.jsonl"
SIZES = (2, 3, 5, 10, 15, 16, 24)
SCALES = (1e-300, 1e-150, 1.0, 1e150, 1e300)


def _next_up(z):
    return complex(math.nextafter(z.real, math.inf), z.imag)


def _layout(rng, name, n):
    """n punctures and three query points, at unit scale."""
    if name == "uniform":
        pts = [cmath.rect(math.sqrt(rng.random()), 2 * math.pi * rng.random())
               for _ in range(n)]
        z = cmath.rect(1.5 * math.sqrt(rng.random()),
                       2 * math.pi * rng.random())
        return pts, [z, pts[0] * 0.5, _next_up(pts[-1])]
    if name == "clustered":
        centres = (0.3 + 0.1j, -0.5 - 0.4j)
        pts = [centres[k % 2] + complex(rng.gauss(0.0, 0.01),
                                        rng.gauss(0.0, 0.01))
               for k in range(n)]
        return pts, [pts[1] + 0.02j, centres[0] + 0.2, _next_up(pts[0])]
    if name == "lattice":
        side = math.ceil(math.sqrt(n))
        pts = [complex(k % side, k // side) for k in range(n)]
        centre = complex((side - 1) / 2, (side - 1) / 2)
        return pts, [centre, complex(0.5, 0.0), _next_up(pts[-1])]
    # a regular polygon about its centre, and a point on its diameter
    centre = 0.25 + 0.5j
    pts = [centre + cmath.rect(3.0, 2 * math.pi * k / n) for k in range(n)]
    return pts, [centre, centre + 1.0, _next_up(pts[0])]


def _domains():
    """(name, punctures, query points) of every line of the golden file."""
    rng = random.Random(20081005)
    out = []
    for name in ("uniform", "clustered", "lattice", "circle"):
        for n in SIZES:
            for scale in SCALES:
                pts, zs = _layout(rng, name, n)
                pts = list(dict.fromkeys(p * scale for p in pts))
                out.append((f"{name}{n}@{scale:g}", pts,
                            [z * scale for z in zs]))
    # distances that overflow: a difference of punctures, or the modulus
    # of finite parts
    for n in (2, 5, 12, 20):
        rng_pts = [complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))
                   * 1e308 for _ in range(n)]
        out.append((f"overflow{n}", rng_pts,
                    [0.0, rng_pts[0] * 0.9, _next_up(rng_pts[1])]))
    out.append(("overflow-mixed", [0.9e308, 0.9e308 - 1e300, -0.9e308,
                                   0.0, 1.0], [0.9e308 - 1e306, 3.0]))
    # the log-gap at z past T_CAP, where h is replaced by its asymptote
    for extra in ([], [2.0, 3.0j], [complex(k, 1.0) for k in range(20)]):
        out.append((f"tcap{2 + len(extra)}", [0.0, 1e-300, *extra],
                    [1e10, -1e10 + 1e9j]))
    # z a puncture given with -0.0 parts, next to one, and not finite
    for n in (3, 17):
        pts = [0.0, 1.0, 1e-300j] + [complex(k, 2.0) for k in range(n - 3)]
        out.append((f"signed-zero{n}", pts,
                    [complex(-0.0, -0.0), complex(1.0, -0.0),
                     complex(-0.0, 1e-300), complex(-0.0, 2e-300),
                     5e-324, complex(math.inf, 0.0),
                     complex(0.0, math.nan)]))
    return out


QUERIES = {"rho": bounds.rho_bounds, "sigma": bounds.sigma_lower}


def _record(call, dom, z):
    """What the query returns at z, floats as float.hex strings."""
    try:
        out = QUERIES[call](dom, z)
    except PunctMetricError as exc:
        return {"error": type(exc).__name__, "message": str(exc)}
    if call == "rho":
        return {"lower": out.lower.hex(), "upper": out.upper.hex()}
    return {"value": out.hex()}


def _hex_pair(z):
    z = complex(z)
    return [z.real.hex(), z.imag.hex()]


def _from_hex(pair):
    return complex(float.fromhex(pair[0]), float.fromhex(pair[1]))


def _lines():
    lines = []
    for name, pts, zs in _domains():
        dom = bounds.PuncturedDomain(pts)
        lines.append({
            "name": name, "punctures": [_hex_pair(p) for p in pts],
            "queries": [{"z": _hex_pair(z),
                         **{call: _record(call, dom, complex(z))
                            for call in QUERIES}} for z in zs]})
    return lines


def _golden():
    with GOLDEN.open() as f:
        return [json.loads(line) for line in f]


def test_golden_file_covers_the_cases():
    lines = _golden()
    want = [(name, [_hex_pair(p) for p in pts]) for name, pts, _ in
            _domains()]
    assert [(line["name"], line["punctures"]) for line in lines] == want
    sizes = {len(line["punctures"]) for line in lines}
    assert min(sizes) == 2 and max(sizes) == 24
    outs = [q[call] for line in lines for q in line["queries"]
            for call in QUERIES]
    assert any(o.get("upper") == "inf" for o in outs)
    assert {o.get("error") for o in outs} == {None, "DomainError"}


@pytest.mark.parametrize("lists_below", (0, None, 25),
                         ids=("arrays", "default", "lists"))
def test_small_domains_are_golden(lists_below):
    # 0 sends every domain to the arrays, 25 every one to the lists
    if lists_below is None:
        lists_below = bounds._LISTS_BELOW
    wrong = []
    with mock.patch.object(bounds, "_LISTS_BELOW", lists_below):
        for line in _golden():
            dom = bounds.PuncturedDomain(map(_from_hex, line["punctures"]))
            for q in line["queries"]:
                for call in QUERIES:
                    got = _record(call, dom, _from_hex(q["z"]))
                    if got != q[call]:
                        wrong.append((line["name"], call, q, got))
    assert not wrong, f"{len(wrong)} queries differ, first: {wrong[0]}"


if __name__ == "__main__":
    new_lines = _lines()
    def results(lines):
        return {(line["name"], call, tuple(q["z"])): q[call]
                for line in lines for q in line["queries"] for call in QUERIES}

    old = results(_golden()) if GOLDEN.exists() else {}
    rows = results(new_lines)
    changed = sum(old.get(key) != out for key, out in rows.items())
    print(f"{changed} of {len(rows)} queries change against {GOLDEN.name}")
    with GOLDEN.open("w") as f:
        for line in new_lines:
            f.write(json.dumps(line) + "\n")
