"""Seeded input generator for the three benchmark workloads.

Everything the program under test receives comes from here, as plain
JSON-able data: puncture lists, query points, parameter tuples and CLI
argument lists.  The same (workload, seed) always yields the same
inputs; nothing here imports the library or mpmath.

Each operation is a dict with an ``id``, a ``kind`` (the class it is
checked and reported under, see baseline.json) and a ``call`` naming
what the worker invokes, plus the call's arguments.

Inputs whose cost or accuracy depends strongly on a magnitude (x near
1 for the hypergeometric series, extreme moduli, t near 0) are drawn as
one jittered value per decade rather than log-uniformly, so every seed
puts the same number of operations in each decade.  Parameters drawn
from a range are stratified (``_strata``): n draws take one value from
each of n equal slices of the range.  That keeps run time, latency
percentiles and failure counts comparable across seeds.
"""

from __future__ import annotations

import cmath
import json
import math
import os
import random

WORKLOADS = ("verify", "bounds", "oneshot")

# The registry is fixed by the library; the generator needs the names to
# build argument lists and must not import the library to get them.
CHECK_NAMES = (
    "cor_concave_shape", "cor_phi_decreasing", "kustner_total_monotone",
    "lem_concave_coeffs", "lem_hlvv_sign", "lem_vaman_1", "lem_vaman_2",
    "lem_vaman_3", "thm_c212_1", "thm_c212_2", "thm_c212_3", "thm_c212_4",
    "thm_c212_5", "thm_genconv_limits", "thm_genconv_logconvex",
    "thm_main2_qbounds", "thm_main2_qq", "thm_main2_subadd",
    "thm_main_convex", "thm_main_parity", "thm_main_pprime_bounds",
    "thm_main_slopes",
)

LAYOUTS = ("uniform", "clustered", "geometric")

# oneshot draws fresh inputs for every pass; references exist for this
# many passes, and a run ends early if it uses them all.
ONESHOT_PASSES = 24


def _rng(seed: int, *tags: object) -> random.Random:
    return random.Random(":".join(str(t) for t in (seed,) + tags))


def _pt(z: complex) -> list[float]:
    return [z.real, z.imag]


def _decade(rng: random.Random, k: float, jitter: float = 0.05) -> float:
    """A value in [10^k, 10^k (1 + jitter))."""
    return 10.0 ** k * (1.0 + jitter * rng.random())


def _strata(rng: random.Random, lo: float, hi: float, n: int) -> list:
    """n values in [lo, hi), one from each of n equal slices, in a random
    order: a Latin-hypercube draw when several are zipped together."""
    vals = [lo + (hi - lo) * (i + rng.random()) / n for i in range(n)]
    rng.shuffle(vals)
    return vals


# ---------------------------------------------------------------------------
# domains


def _disk(rng: random.Random, radius: float) -> complex:
    return cmath.rect(radius * math.sqrt(rng.random()),
                      2.0 * math.pi * rng.random())


def make_domain(rng: random.Random, layout: str, n: int) -> list[complex]:
    """N distinct punctures in one of three layouts.

    uniform: the unit disk.  clustered: Gaussian clusters of about 50
    points with spread 0.01.  geometric: a0 = 0 and moduli growing by
    at most a factor e^(1.5 c) per step, the ring-bound hypothesis,
    with c chosen so the largest modulus is about 1e6.
    """
    if layout == "uniform":
        pts = [_disk(rng, 1.0) for _ in range(n)]
    elif layout == "clustered":
        centres = [_disk(rng, 1.0) for _ in range(max(2, n // 50))]
        pts = [centres[i % len(centres)]
               + complex(rng.gauss(0.0, 0.01), rng.gauss(0.0, 0.01))
               for i in range(n)]
    elif layout == "geometric":
        c = math.log(1e6) / n
        pts = [0j] + [cmath.rect(math.exp(c * (k + 0.5 * rng.random())),
                                 2.0 * math.pi * rng.random())
                      for k in range(n - 1)]
    else:
        raise ValueError(f"unknown layout {layout!r}")
    if len(set(pts)) != n:
        raise ValueError("generated punctures are not distinct")
    return pts


def query_points(rng: random.Random, layout: str, pts: list[complex],
                 count: int) -> list[complex]:
    """Points of the domain (never a puncture) where bounds are asked."""
    out = []
    while len(out) < count:
        if layout == "geometric":
            rmax = max(abs(p) for p in pts)
            z = cmath.rect(math.exp(rng.uniform(-1.0, math.log(rmax) + 1.0)),
                           2.0 * math.pi * rng.random())
        elif layout == "clustered" and len(out) % 2:
            z = rng.choice(pts) + complex(rng.gauss(0.0, 0.02),
                                          rng.gauss(0.0, 0.02))
        else:
            z = _disk(rng, 1.5)
        if z not in pts:
            out.append(z)
    return out


# ---------------------------------------------------------------------------
# verify


def gen_verify(seed: int) -> dict:
    """All 22 checks under both tolerance profiles, in a seeded order."""
    ops = [{"id": f"{suite}.{name}", "kind": f"verify.{suite}", "call": "cli",
            "argv": ["verify", "--check", name, "--suite", suite]}
           for suite in ("default", "strict") for name in CHECK_NAMES]
    _rng(seed, "verify").shuffle(ops)
    return {"workload": "verify", "seed": seed, "domains": {},
            "passes": [ops], "repeat": True}


# ---------------------------------------------------------------------------
# bounds

# (N, rho queries, sigma queries) per domain and layout.  sigma at
# N = 1000 costs N(N-1) kernel calls, so it runs once, on the uniform
# layout: its cost depends on the layout, and a seeded choice would make
# run time depend on the seed.
BOUNDS_PLAN = ((10, 36, 36), (100, 8, 4), (1000, 3, 0))
BOUNDS_SIGMA_1000 = 1
PAIR_MAPS = 2
PAIR_DECADES = range(-9, 12)  # query moduli 1e-9 .. 1e11


def gen_bounds(seed: int) -> dict:
    rng = _rng(seed, "bounds")
    domains: dict[str, list] = {}
    ops: list[dict] = []

    def add(kind: str, call: str, dom: str, z: complex) -> None:
        ops.append({"id": f"q{len(ops)}", "kind": kind, "call": call,
                    "domain": dom, "z": _pt(z)})

    for n, n_rho, n_sigma in BOUNDS_PLAN:
        for layout in LAYOUTS:
            name = f"{layout}{n}"
            pts = make_domain(rng, layout, n)
            domains[name] = [_pt(p) for p in pts]
            n_sig = n_sigma
            if n == 1000 and layout == "uniform":
                n_sig = BOUNDS_SIGMA_1000
            zs = query_points(rng, layout, pts, n_rho + n_sig)
            for z in zs[:n_rho]:
                add(f"rho.N{n}", "rho", name, z)
            for z in zs[n_rho:]:
                add(f"sigma.N{n}", "sigma", name, z)
    # affine images of {0, 1}: z = a + (b - a)(-x) sits on the image of
    # the negative axis, where the exact density is lambda01(-x)/|b - a|
    for m in range(PAIR_MAPS):
        a = _disk(rng, 10.0)
        b = a + cmath.rect(10.0 ** rng.uniform(-1.0, 1.0),
                           2.0 * math.pi * rng.random())
        name = f"pair{m}"
        domains[name] = [_pt(a), _pt(b)]
        for k in PAIR_DECADES:
            z = a + (b - a) * -_decade(rng, k)
            add("rho.pair", "rho", name, z)
            add("sigma.pair", "sigma", name, z)
    # the two known bound defects of the seed, probed as they are stated
    domains["unit_pair"] = [[0.0, 0.0], [1.0, 0.0]]
    domains["tiny_pair"] = [[0.0, 0.0], [1e-300, 0.0]]
    add("sigma.pair", "sigma", "unit_pair", complex(-1e9, 0.0))
    add("rho.loggap", "rho", "tiny_pair", complex(1e10, 0.0))
    rng.shuffle(ops)
    return {"workload": "bounds", "seed": seed, "domains": domains,
            "passes": [ops], "repeat": True}


# ---------------------------------------------------------------------------
# oneshot

F21_PER_REGIME = 10


def _f21_ops(rng: random.Random) -> list[dict]:
    ops = []

    def add(kind: str, a: float, b: float, c: float, x: float) -> None:
        ops.append({"kind": kind, "call": "f21", "a": a, "b": b, "c": c,
                    "x": x})

    n = F21_PER_REGIME
    for a, b, c, x in zip(_strata(rng, 0.1, 5.0, n), _strata(rng, 0.1, 5.0, n),
                          _strata(rng, 0.1, 8.0, n),
                          _strata(rng, 0.25, 0.5, n)):
        add("f21.direct", a, b, c, x)
    for regime, shift in (("f21.zb_log", 0.0), ("f21.shifted_log", 1.0)):
        for i, (a, b) in enumerate(zip(_strata(rng, 0.1, 5.0, n),
                                       _strata(rng, 0.1, 5.0, n))):
            u = _decade(rng, -1 - i, jitter=3.0)  # 1-x from 0.4 to 1e-10
            add(regime, a, b, a + b + shift, 1.0 - u)
    # not zero balanced, x > 1/2: the direct series with its long tail.
    # The decade of 1-x and c - a - b set the cost; at 1e-3 (about 22k
    # terms, the p95 latency of this workload) c - a - b is 0.5 to
    # within 1% so that every seed measures the same cost there.
    for k, a, b, s in zip((1, 1, 1, 2, 2), _strata(rng, 0.1, 3.0, 5),
                          _strata(rng, 0.1, 3.0, 5),
                          rng.sample((-0.7, -0.3, 0.3, 0.6, 1.5, 2.5), 5)):
        c = a + b + s if a + b + s > 0.0 else a + b + 0.3
        add("f21.nzb_near1", a, b, c, 1.0 - _decade(rng, -k))
    for a, b in zip(_strata(rng, 0.1, 3.0, 6), _strata(rng, 0.1, 3.0, 6)):
        add("f21.nzb_near1", a, b, a + b + rng.uniform(0.495, 0.505),
            1.0 - _decade(rng, -3, jitter=0.01))
    for a, b, x in zip(_strata(rng, 10.0, 30.0, 3),
                       _strata(rng, 10.0, 30.0, 3), _strata(rng, 0.5, 0.9, 3)):
        add("f21.large", a, b, a + b, x)
    # the two known f21 defects of the seed, probed as they are stated
    add("f21.large", 20.0, 20.0, 40.0, 0.6)
    add("f21.nzb_near1", 0.5, 0.7, 1.3, 0.99999)
    return ops


def _scalar_ops(rng: random.Random) -> list[dict]:
    ops = []

    def add(call: str, **args: float) -> None:
        ops.append({"kind": call, "call": call, **args})

    sign = lambda: rng.choice((-1.0, 1.0))
    for k in (-3, -2, -1, 0, 1, 1.5, 2, 2.4):  # |t| <= 700, h's range
        add("h", t=sign() * _decade(rng, k, jitter=1.5))
    for k in (-4, -3, -2, -1, 0, 1, 2, 3):
        add("lambda01_neg", x=_decade(rng, k, jitter=2.0))
    for k in (-8, -4, -1, 0, 1, 4, 8):
        add("phi_func", x=_decade(rng, k, jitter=2.0))
    for r, r2 in zip(_strata(rng, 0.0, 0.999999, 6),
                     _strata(rng, 1e-6, 1.0 - 1e-6, 6)):
        add("ellip_k", r=r)
        add("mu", r=r2)
    for call in ("p_func", "p_prime", "q_log"):
        for k, a, b in zip((-1, -0.5, 0, 0.5, 1, 1.4),
                           _strata(rng, 0.2, 1.8, 6),
                           _strata(rng, 0.2, 1.8, 6)):
            add(call, a=a, b=b, t=sign() * _decade(rng, k, jitter=2.0))
    for k in (-12, -9, -6, -3, -1, 0, 1, 2):  # t near 0 included
        add("varphi", t=_decade(rng, k, jitter=2.0))
    for k in (-9, -3, -1, 0.5):
        c = _decade(rng, k, jitter=2.0)
        add("ring_coefficients", c=c)
        r1 = rng.uniform(0.5, 2.0)
        add("ring_lower_bound", c=c, r1=r1, r2=r1 * 10.0 ** rng.uniform(3, 8))
        add("baseline_bounds", c=c)
    return ops


def _cli_ops(rng: random.Random, p: int, files: dict) -> list[dict]:
    ops = []
    # sigma_lower at N = 1000 costs about 5 s, N(N-1) kernel calls; one
    # a pass would leave room for only a few passes, and the bounds
    # workload measures it.  rho at N = 1000 still pays the set-up of a
    # large domain (file load, distinctness check) for a single query.
    for n, query in ((10, "rho"), (10, "sigma"), (100, "rho"),
                     (100, "sigma"), (1000, "rho")):
        layout = LAYOUTS[(p + n + len(query)) % len(LAYOUTS)]
        pts = make_domain(rng, layout, n)
        z = query_points(rng, layout, pts, 1)[0]
        path = f"p{p}_{query}{n}.json"
        files[path] = [_pt(q) for q in pts]
        ops.append({"kind": f"cli.{query}.N{n}", "call": "cli",
                    "domain_file": path, "z": _pt(z),
                    "argv": ["bounds", query, "--domain", path,
                             f"--z={z.real!r},{z.imag!r}"]})
    for _ in range(2):
        c = rng.uniform(0.05, 5.0)
        r1 = rng.uniform(0.5, 2.0)
        r2 = r1 * 10.0 ** rng.uniform(2, 8)
        ops.append({"kind": "cli.ring", "call": "cli", "c": c, "r1": r1,
                    "r2": r2,
                    "argv": ["bounds", "ring", "--c", repr(c), "--r1",
                             repr(r1), "--r2", repr(r2), "--compare"]})
    lo = rng.uniform(0.05, 1.0)
    hi = lo + rng.uniform(2.0, 10.0)
    ops.append({"kind": "cli.figure1", "call": "cli", "lo": lo, "hi": hi,
                "count": 40,
                "argv": ["figure1", "--lo", repr(lo), "--hi", repr(hi),
                         "--count", "40"]})
    return ops


def gen_oneshot(seed: int) -> dict:
    """Independent one-off requests; no two share an input.

    Domain files are returned under "files" (name -> punctures) for the
    caller to write; CLI argv name them relative to the directory they
    are written to.
    """
    files: dict[str, list] = {}
    passes = []
    for p in range(ONESHOT_PASSES):
        rng = _rng(seed, "oneshot", p)
        ops = _f21_ops(rng) + _scalar_ops(rng) + _cli_ops(rng, p, files)
        rng.shuffle(ops)
        for i, op in enumerate(ops):
            op["id"] = f"p{p}.{i}"
        passes.append(ops)
    return {"workload": "oneshot", "seed": seed, "domains": {},
            "passes": passes, "repeat": False, "files": files}


def generate(workload: str, seed: int) -> dict:
    if workload == "verify":
        return gen_verify(seed)
    if workload == "bounds":
        return gen_bounds(seed)
    if workload == "oneshot":
        return gen_oneshot(seed)
    raise ValueError(f"unknown workload {workload!r}")


def write_inputs(inputs: dict, workdir: str) -> str:
    """Write what the worker reads under workdir; return the inputs path.

    Domain files go next to inputs.json, and CLI arguments naming them
    are rewritten to paths relative to the current directory, where the
    worker runs.  The puncture lists themselves stay out of inputs.json:
    the program reads them through the CLI.
    """
    os.makedirs(workdir, exist_ok=True)
    for name, pts in inputs.get("files", {}).items():
        with open(os.path.join(workdir, name), "w", encoding="utf-8") as fh:
            json.dump(pts, fh)
    passes = json.loads(json.dumps(inputs["passes"]))
    for ops in passes:
        for op in ops:
            if "domain_file" in op:
                path = os.path.join(workdir, op.pop("domain_file"))
                op["argv"][3] = path
    out = {k: v for k, v in inputs.items() if k != "files"}
    out["passes"] = passes
    path = os.path.join(workdir, "inputs.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    return path
