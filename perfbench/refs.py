"""mpmath reference values for every operation that has one.

Runs in the benchmark's parent process, before any timed region and
outside the measured set-up, and writes a per-seed cache file so that
repeated runs with one seed compute nothing.  The timed worker never
imports mpmath.

References are independent of the library: they go through
``mpmath.ellipk`` and ``mpmath.hyp2f1`` from the defining formulas,
at 60 significant digits plus whatever a large argument costs in
cancellation.  Each reference is a list of decimal strings, one per
output component the checker compares.

Bounds on general domains (``rho_bounds``, ``sigma_lower``) have no
known exact density to compare with; their reference is the exact value
of the bound formula itself.  For a puncture a let d = |z - a| and
m = min over b != a of |log d - log |b - a||; then

    L = max_a h(m)/d,     U = min over a with m > 0 of pi/(4 m d),

and the certified outputs must satisfy lower <= L and upper >= U.
sigma_lower has the same exact value L (lambda01(-|w|)/|b-a| equals
h(log|z-a| - log|b-a|)/|z-a|, h is even and decreasing in |t|).  On a
two-puncture domain with z on the image of the negative axis L is the
true density, so there the check is against the exact metric.
"""

from __future__ import annotations

import hashlib
import json
import math
import os

import mpmath as mp
import numpy as np

DPS = 60
_DIGITS = 45


def _s(v) -> str:
    return mp.nstr(v, _DIGITS)


def _K(m):
    return mp.ellipk(m)


def _c0():
    return mp.gamma(mp.mpf(1) / 4) ** 4 / (4 * mp.pi ** 2)


def h_ref(t: float):
    """h(t) = e^t lambda01(-e^t) = pi / (8 K(r) K(r')), r^2 = x/(1+x)."""
    t = abs(mp.mpf(t))
    with mp.workdps(DPS + int(t / 2)):
        mc = 1 / (1 + mp.exp(t))  # r'^2 with x = e^|t|
        return +(mp.pi / (8 * _K(1 - mc) * _K(mc)))


def lambda_ref(x: float):
    x = mp.mpf(x)
    with mp.workdps(DPS + int(abs(mp.log10(x)))):
        return +(mp.pi / (8 * x * _K(x / (1 + x)) * _K(1 / (1 + x))))


def phi_ref(x):
    x = mp.mpf(x)
    with mp.workdps(DPS + int(abs(mp.log10(x)))):
        return +(mp.log(_K(x / (1 + x)) / _K(1 / (1 + x))) / 2)


def varphi_ref(t: float):
    with mp.workdps(DPS + 20):
        return +(2 * phi_ref(mp.exp(mp.mpf(t) / 2)))


def _v(a, b, y):
    return mp.hyp2f1(a, b, a + b, y)


def _logistic(t):
    """(x, 1-x) for x = e^t/(1+e^t), the complement formed directly."""
    t = mp.mpf(t)
    return 1 / (1 + mp.exp(-t)), 1 / (1 + mp.exp(t))


def p_ref(a: float, b: float, t: float):
    with mp.workdps(DPS):
        a, b = mp.mpf(a), mp.mpf(b)
        x, xc = _logistic(t)
        return +(_v(a, b, x) * _v(a, b, xc))


def p_prime_ref(a: float, b: float, t: float):
    with mp.workdps(DPS):
        a, b = mp.mpf(a), mp.mpf(b)
        x, xc = _logistic(t)

        def big_l(y, yc):
            return y * _v(a, b, yc) * mp.hyp2f1(a, b, a + b + 1, y)

        return +(a * b / (a + b) * (big_l(x, xc) - big_l(xc, x)))


def q_ref(a: float, b: float, t: float):
    with mp.workdps(DPS):
        a, b = mp.mpf(a), mp.mpf(b)
        x, xc = _logistic(t)
        return +mp.log(_v(a, b, x) / _v(a, b, xc))


def ring_ab(c: float):
    c = mp.mpf(c)
    phi_c = varphi_ref(c)
    return phi_c / c, phi_c - varphi_ref(c / 2)


def ring_lb(c: float, r1: float, r2: float):
    a, b = ring_ab(c)
    return max(mp.mpf(0), a * (mp.log(r2) - mp.log(r1)) - b)


def baseline_ref(c: float):
    c = mp.mpf(c)
    return [h_ref(c / 2), mp.log1p(c / (2 * _c0())) / c, c / (4 * mp.pi)]


# ---------------------------------------------------------------------------
# bound formulas on punctured domains


def _h_float(t: np.ndarray) -> np.ndarray:
    """h in double precision, used only to pick candidate punctures."""
    w = np.exp(-np.abs(t))
    root = np.sqrt(1.0 + w)
    out = np.ones_like(t)
    for m in (np.sqrt(w) / root, 1.0 / root):
        a, g = np.ones_like(t), m
        for _ in range(40):
            a, g = 0.5 * (a + g), np.sqrt(a * g)
        out = out * a
    return out / (2.0 * math.pi)


class DomainRef:
    """Exact rho/sigma bound formulas on one punctured domain."""

    def __init__(self, pts: list[complex]):
        self.pts = pts
        p = np.asarray(pts, dtype=complex)
        with np.errstate(divide="ignore"):
            logr = np.log(np.abs(p[None, :] - p[:, None]))
        np.fill_diagonal(logr, np.nan)
        self.logr = logr  # logr[a, b] = log|b - a|

    def _exact_m(self, z, a: int, gaps: np.ndarray) -> mp.mpf:
        order = np.argsort(gaps)
        near = set(order[:3].tolist())
        near.update(np.nonzero(gaps <= gaps[order[0]] + 1e-9)[0].tolist())
        za = mp.log(abs(z - mp.mpc(self.pts[a])))
        return min(abs(za - mp.log(abs(mp.mpc(self.pts[b])
                                       - mp.mpc(self.pts[a]))))
                   for b in near)

    def bounds(self, z: complex) -> tuple:
        """(L, U) as mpf; U is +inf when every m vanishes."""
        p = np.asarray(self.pts, dtype=complex)
        d = np.abs(z - p)
        gaps = np.abs(np.log(d)[:, None] - self.logr)
        np.fill_diagonal(gaps, np.inf)
        m = gaps.min(axis=1)
        low = _h_float(m) / d
        with np.errstate(divide="ignore"):
            up = np.where(m > 0.0, math.pi / (4.0 * m * d), np.inf)
        cand_low = set(np.argsort(-low)[:3].tolist())
        cand_low.update(np.nonzero(low >= low.max() * (1 - 1e-8))[0].tolist())
        cand_up = set(np.argsort(up)[:5].tolist())
        cand_up.update(np.nonzero(up <= up.min() * (1 + 1e-6))[0].tolist())
        cand_up.update(np.nonzero(m < 1e-6)[0].tolist())
        big = float(np.max(m[np.isfinite(m)]))
        with mp.workdps(DPS + int(big / 2) + 20):
            zz = mp.mpc(z)
            exact = {a: self._exact_m(zz, a, gaps[a])
                     for a in cand_low | cand_up}
            dist = {a: abs(zz - mp.mpc(self.pts[a])) for a in exact}
            lower = max(h_ref(exact[a]) / dist[a] for a in cand_low)
            uppers = [mp.pi / (4 * exact[a] * dist[a])
                      for a in cand_up if exact[a] > 0]
            upper = min(uppers) if uppers else mp.inf
            return +lower, +upper


# ---------------------------------------------------------------------------


def _scalar(op: dict) -> list:
    call = op["call"]
    if call == "f21":
        with mp.workdps(DPS):
            return [mp.hyp2f1(mp.mpf(op["a"]), mp.mpf(op["b"]),
                              mp.mpf(op["c"]), mp.mpf(op["x"]))]
    if call == "h":
        return [h_ref(op["t"])]
    if call == "lambda01_neg":
        return [lambda_ref(op["x"])]
    if call == "phi_func":
        return [phi_ref(op["x"])]
    if call == "ellip_k":
        with mp.workdps(DPS):
            return [_K(mp.mpf(op["r"]) ** 2)]
    if call == "mu":
        with mp.workdps(DPS):
            m = mp.mpf(op["r"]) ** 2
            return [mp.pi / 2 * _K(1 - m) / _K(m)]
    if call == "p_func":
        return [p_ref(op["a"], op["b"], op["t"])]
    if call == "p_prime":
        return [p_prime_ref(op["a"], op["b"], op["t"])]
    if call == "q_log":
        return [q_ref(op["a"], op["b"], op["t"])]
    if call == "varphi":
        return [varphi_ref(op["t"])]
    if call == "ring_coefficients":
        return list(ring_ab(op["c"]))
    if call == "ring_lower_bound":
        return [ring_lb(op["c"], op["r1"], op["r2"])]
    if call == "baseline_bounds":
        return baseline_ref(op["c"])
    raise ValueError(f"no reference for call {call!r}")


def _ring_cli(op: dict) -> list:
    """Fields of `bounds ring --compare`, in checker order."""
    c, r1, r2 = op["c"], op["r1"], op["r2"]
    a, b = ring_ab(c)
    gap = mp.log(r2) - mp.log(r1)
    sv_a, bp_a, bp_b = baseline_ref(c)
    return [a, b, max(mp.mpf(0), a * gap - b), sv_a, max(mp.mpf(0), sv_a * gap),
            bp_a, bp_b, max(mp.mpf(0), bp_a * gap - bp_b)]


def _figure1_cli(op: dict) -> list:
    """Rows (c, phi(c)/c, h(c/2), log1p(c/(2 C0))/c), flattened.

    The abscissae are count points evenly spaced from lo to hi, formed
    in double precision as a user would expect them.
    """
    lo, hi, count = op["lo"], op["hi"], op["count"]
    out = []
    for i in range(count):
        c = lo + (hi - lo) * i / (count - 1)
        sv_a, bp_a, _ = baseline_ref(c)
        out += [mp.mpf(c), ring_ab(c)[0], sv_a, bp_a]
    return out


def compute(inputs: dict) -> dict:
    """op id -> list of decimal strings, for every op with a reference."""
    domains = {name: DomainRef([complex(*p) for p in pts])
               for name, pts in inputs["domains"].items()}
    files = inputs.get("files", {})
    refs = {}
    for ops in inputs["passes"]:
        for op in ops:
            call = op["call"]
            if call in ("rho", "sigma"):
                vals = domains[op["domain"]].bounds(complex(*op["z"]))
            elif call == "cli" and op["argv"][0] == "verify":
                continue
            elif call == "cli" and op["argv"][0] == "bounds":
                if op["argv"][1] == "ring":
                    vals = _ring_cli(op)
                else:
                    dom = DomainRef([complex(*p)
                                     for p in files[op["domain_file"]]])
                    vals = dom.bounds(complex(*op["z"]))
            elif call == "cli" and op["argv"][0] == "figure1":
                vals = _figure1_cli(op)
            else:
                vals = _scalar(op)
            if op["kind"].startswith(("sigma.", "cli.sigma.")):
                vals = vals[:1]  # sigma_lower's exact value is L
            refs[op["id"]] = [_s(v) for v in vals]
    return refs


def _digest(inputs: dict) -> str:
    h = hashlib.sha256(json.dumps(inputs, sort_keys=True).encode())
    here = os.path.dirname(os.path.abspath(__file__))
    for name in ("refs.py", "gen.py"):
        with open(os.path.join(here, name), "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()[:16]


def cached(inputs: dict, cache_dir: str) -> dict:
    """References for these inputs, from the cache or computed and stored."""
    os.makedirs(cache_dir, exist_ok=True)
    path = os.path.join(cache_dir, f"{inputs['workload']}-{inputs['seed']}-"
                                   f"{_digest(inputs)}.json")
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    refs = compute(inputs)
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(refs, fh)
    os.replace(tmp, path)
    return refs
