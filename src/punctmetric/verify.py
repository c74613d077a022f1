"""Named verification checks for the monotonicity, convexity, and bound
claims the rest of the package relies on.

Each check samples a claim on a grid and reports the worst margin seen,
where the margin of a single sample is defined so that the claim holds
at that sample iff the margin is positive (strict claims) or at least
-tolerance (approximate claims).  A report is evidence at a stated grid
resolution, not a proof.

A check holds its margins as numpy arrays next to their sample points,
one (points, margins) part per sub-claim.  ``_worst`` reduces the parts
to the first smallest margin in part order, the tie rule of a strict
running minimum.  A NaN margin counts as -inf: a sample that evaluates
to NaN fails its check and is reported as the worst point.

Margin conventions, used consistently below:

* strict monotonicity / convexity: consecutive differences (or chord
  slacks) minus STRICT_FLOOR, so "passes" means strict beyond the floor
  at the grid resolution;
* identities and symmetry: minus the largest absolute deviation, paired
  with a small positive tolerance;
* sharp inequalities whose margins decay exponentially (the Hempel-type
  sandwich, the Q bounds): the raw analytic margin computed from the
  cancellation-free defect functions, with tolerance 0.  At t = 100 the
  genuine margin is ~1e-41; a floor would misreport it as a failure.

Checks that sample a continuum honor the supplied GridSpec.  Structural
checks (coefficient tables, limit cases) use the grid as a nominal
record of their sampling and say so in their notes.
"""

from __future__ import annotations

import functools
import math
import numbers
import random
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from . import hyp2f1, metric, pqfun, specfun
from .errors import BracketError, DomainError, HypothesisError, PunctMetricError, UnknownCheckError

# Strictness floor for sampled strict inequalities: a difference that
# small is treated as "not strictly positive at this resolution".
STRICT_FLOOR = 1e-12

T0_BRACKET = (2.0, 3.0)
T0_ABS_TOL = 1e-10


class GridSpec(NamedTuple("GridSpec", [("lo", float), ("hi", float),
                                        ("count", int), ("scale", str)])):
    """Sampling grid: `count` points from lo to hi, linear or log spaced."""

    __slots__ = ()

    def __new__(cls, lo: float, hi: float, count: int,
                scale: str = "linear") -> GridSpec:
        lo, hi = specfun.to_float(lo, "lo"), specfun.to_float(hi, "hi")
        count = _whole(count, "count")
        # a finite width needs finite ends; an infinite one would make
        # linspace step by inf and sample nan
        if not (lo < hi and math.isfinite(hi - lo)):
            raise DomainError(f"grid needs lo < hi with hi - lo finite, "
                              f"got [{lo}, {hi}]")
        if count < 3:
            raise DomainError(f"grid needs count >= 3, got {count}")
        if scale not in ("linear", "log"):
            raise DomainError(f"scale must be 'linear' or 'log', got {scale!r}")
        if scale == "log" and lo <= 0.0:
            raise DomainError("log scale requires lo > 0")
        return tuple.__new__(cls, (lo, hi, count, scale))

    def points(self) -> np.ndarray:
        if self.scale == "log":
            return np.geomspace(self.lo, self.hi, self.count)
        return np.linspace(self.lo, self.hi, self.count)

    def to_dict(self) -> dict:
        return self._asdict()


class PropertyReport(NamedTuple):
    """Outcome of one named check; passed iff worst_margin > -tolerance."""

    name: str
    passed: bool
    grid: GridSpec
    worst_point: object
    worst_margin: float
    tolerance: float
    notes: str = ""

    def to_dict(self) -> dict:
        """JSON-ready fields; a non-finite margin becomes "inf"/"-inf"."""
        point = self.worst_point
        if isinstance(point, tuple):
            point = list(point)
        margin = self.worst_margin
        if not math.isfinite(margin):
            margin = "inf" if margin > 0 else "-inf"
        return dict(self._asdict(), grid=self.grid.to_dict(),
                    worst_point=point, worst_margin=margin)


# What a check's runner returns: the worst point, its margin, and notes.
Outcome = tuple[object, float, str]


class CheckDef(NamedTuple):
    runner: Callable[[dict, GridSpec], Outcome]
    params: dict
    grid: GridSpec
    tol: float


class ExtremumResult(NamedTuple):
    t0: float
    max_value: float


# One sub-claim's samples: their points and, in the same order, margins.
Part = tuple[Sequence, np.ndarray]


def _worst(*parts: Part) -> tuple[object, float]:
    """First smallest margin across the parts, in part order.

    A NaN margin counts as -inf, so its sample fails.  With no samples
    at all the result is (None, inf).
    """
    margins = [np.asarray(m, dtype=float) for _, m in parts]
    flat = np.concatenate([np.empty(0)] + margins)
    if flat.size == 0:
        return None, math.inf
    flat[np.isnan(flat)] = -math.inf
    worst = i = int(np.argmin(flat))  # argmin returns the first minimum
    for (points, _), m in zip(parts, margins):
        if i < m.size:
            break
        i -= m.size
    point = points[i]
    if isinstance(point, np.generic):
        point = point.item()
    return point, float(flat[worst])


def _fmt(x: float) -> str:
    return format(float(x), ".3e")


def _steps(xs: np.ndarray, ys: Sequence[float], increasing: bool) -> Part:
    """Strict-monotonicity margins between consecutive samples."""
    ys = np.asarray(ys, dtype=float)
    sign = 1.0 if increasing else -1.0
    return xs[:-1], sign * (ys[1:] - ys[:-1]) - STRICT_FLOOR


def _chord(xs: np.ndarray, ys: Sequence[float], convex: bool) -> Part:
    """Strict convexity (or concavity) via chord slack on triples.

    Works on uneven grids; reduces to the midpoint inequality when the
    spacing is uniform.
    """
    x1, x2, x3 = xs[:-2], xs[1:-1], xs[2:]
    ys = np.asarray(ys, dtype=float)
    chord = ys[:-2] + (ys[2:] - ys[:-2]) * ((x2 - x1) / (x3 - x1))
    slack = chord - ys[1:-1] if convex else ys[1:-1] - chord
    return x2, slack - STRICT_FLOOR


def _deviations(points: Sequence, devs: Sequence[float]) -> Part:
    """Equality-type margins: minus the absolute deviation."""
    return points, -np.abs(np.asarray(devs, dtype=float))


def _floor(points: Sequence, values: Sequence[float]) -> Part:
    """Strict-positivity margins: the values minus STRICT_FLOOR."""
    return points, np.asarray(values, dtype=float) - STRICT_FLOOR


def _mirror(xs: np.ndarray, ys: Sequence[float], sign: float) -> Part:
    """Deviations y_i + sign*y_(n-1-i) over the first half of the grid.

    sign = +1 checks oddness, -1 evenness, about the grid's midpoint.
    """
    half = len(xs) // 2
    ys = np.asarray(ys, dtype=float)
    return _deviations(xs[:half], ys[:half] + sign * ys[::-1][:half])


def _increasing_capped(ts: np.ndarray, ys: Sequence[float],
                       cap: float) -> tuple[Part, Part]:
    """Parts for "y strictly increasing with |y| < cap"."""
    return _steps(ts, ys, True), _floor(ts, cap - np.abs(ys))


def _sampled(f_many: Callable[[np.ndarray], np.ndarray],
             *points) -> list[np.ndarray]:
    """f_many at each array of points, by one call on all of them: each
    function is sampled once per check."""
    values = f_many(np.concatenate([np.asarray(p, dtype=float)
                                    for p in points]))
    return np.split(values, np.cumsum([len(p) for p in points[:-1]]))


def _frozen(table: np.ndarray) -> np.ndarray:
    """table, made read-only: a cached table is shared."""
    table.flags.writeable = False
    return table


@functools.lru_cache(8)
def _subadditive_pairs(s_lo, s_hi, seed, pairs, **_) -> np.ndarray:
    """The seeded random pairs (s, t) of a subadditivity claim, uniform on
    [s_lo, s_hi]^2 and drawn pair by pair: their s and their t, read-only
    and cached per process on a check's parameters.

    The range must be finite, non-empty, and small enough that s + t
    stays finite; else DomainError.
    """
    if not -math.inf < 2.0 * s_lo < 2.0 * s_hi < math.inf:
        raise DomainError(
            f"subadditivity pairs need s_lo < s_hi with s + t finite, "
            f"got [{s_lo}, {s_hi}]")
    draw = random.Random(seed).random
    draws = [s_lo + (s_hi - s_lo) * draw() for _ in range(2 * pairs)]
    return _frozen(np.reshape(draws, (-1, 2)).T)


def _subadditive(s: np.ndarray, t: np.ndarray, f_s: np.ndarray,
                 f_t: np.ndarray, f_st: np.ndarray) -> Part:
    """Margins f(s) + f(t) - f(s+t) on the pairs (s, t), from f at s, t
    and s + t."""
    return _floor(list(zip(s.tolist(), t.tolist())), f_s + f_t - f_st)


def _points_inside(grid: GridSpec, hi: float) -> np.ndarray:
    """The grid's points, which must lie inside (0, hi)."""
    xs = grid.points()
    if not (0.0 < xs[0] and xs[-1] < hi):
        raise DomainError(f"grid must lie inside (0, {hi:g})")
    return xs


def _midpoints(s: np.ndarray, t: np.ndarray) -> tuple[np.ndarray, ...]:
    """For the pairs (s[i], t[i]): the midpoints m and (|s|+|t|)/2 - |m|
    without cancellation.

    The second value is identically 0 when s and t share a sign and
    min(|s|, |t|) otherwise; computing it that way keeps midpoint
    convexity margins of |t|-linear functions exact.
    """
    m = 0.5 * (s + t)
    lin = np.where((s >= 0.0) == (t >= 0.0), 0.0,
                   np.minimum(np.abs(s), np.abs(t)))
    return m, lin


# ---------------------------------------------------------------------------
# runners


def _vaman_case(a: float, b: float, c: float) -> str:
    prod = a * b - c
    sums = a + b - (c + 1.0)
    if prod == 0.0 and sums == 0.0:
        return "constant"
    if prod >= 0.0 and sums >= 0.0:
        return "increasing"
    if prod <= 0.0 and sums <= 0.0:
        return "decreasing"
    raise HypothesisError(
        f"(a,b,c)=({a},{b},{c}) has ab-c and a+b-c-1 of opposite sign; "
        "no monotonicity case applies")


def _make_vaman_runner(expected: str):
    def run(params: dict, grid: GridSpec) -> Outcome:
        a, b, c = params["a"], params["b"], params["c"]
        case = _vaman_case(a, b, c)
        if case != expected:
            raise HypothesisError(
                f"(a,b,c)=({a},{b},{c}) falls in the {case} case, "
                f"this check expects the {expected} one")
        p = hyp2f1.HypParams(a, b, c)
        xs = grid.points()
        if not (0.0 <= xs[0] and xs[-1] < 1.0):
            raise DomainError("grid for (1-x)F(x) must lie inside [0, 1)")
        ys = (1.0 - xs) * hyp2f1.f21_many(p, xs).value
        if expected == "constant":
            point, margin = _worst(_deviations(xs, ys - 1.0))
            notes = (f"(1-x)F = 1 on the grid to {_fmt(-margin)}; "
                     "ab = c and a+b = c+1 force the constant case")
        else:
            point, margin = _worst(
                _steps(xs, ys, increasing=(expected == "increasing")))
            notes = (f"(1-x)F strictly {expected}; "
                     f"min consecutive step {_fmt(margin + STRICT_FLOOR)}")
        return point, margin, notes

    return run


def _whole(value, name: str) -> int:
    """value as an int >= 0: an integer, or a float with no fractional
    part; anything else, bools and strings included, is refused."""
    whole = (isinstance(value, numbers.Integral)
             or isinstance(value, float) and value.is_integer())
    if isinstance(value, bool) or not whole or value < 0:
        raise DomainError(f"{name} must be a whole number >= 0, got {value!r}")
    return int(value)


@functools.lru_cache(8)
def _ratio_table(a: float, b: float, c: float, n_max: int,
                 k_max: int = 0) -> np.ndarray:
    """Rows Delta^k r_n, k = 0..k_max and n = 0..n_max, of the Maclaurin
    coefficients r_n of F(a+1,b+1;c+1;x) / F(a,b;c;x), read-only and
    cached per process.

    The r_n come by power-series long division with compensated
    summation, and Delta^{k+1} r_n = Delta^k r_n - Delta^k r_{n+1}.  A
    sequence is totally monotone iff every row is nonnegative (to all
    depths; finite depth here).  The division costs O(n^2) products, so
    r_n is formed for n <= 200 only.
    """
    if n_max + k_max > 200:
        raise DomainError(
            f"coefficient tables reach r_200, got n_max + k_max = "
            f"{n_max + k_max}")
    num = [1.0]
    den = [1.0]
    for n in range(n_max + k_max):
        num.append(num[-1] * (a + 1 + n) * (b + 1 + n) / ((c + 1 + n) * (n + 1.0)))
        den.append(den[-1] * (a + n) * (b + n) / ((c + n) * (n + 1.0)))
    row = [1.0]
    for n in range(1, len(num)):
        row.append(num[n] - math.fsum(row[k] * den[n - k] for k in range(n)))
    table = [row]
    for _ in range(k_max):
        row = [x - y for x, y in zip(row, row[1:])]
        table.append(row)
    return _frozen(np.array([row[:n_max + 1] for row in table]))


def _run_concave_coeffs(params: dict, grid: GridSpec) -> Outcome:
    a, b, c = params["a"], params["b"], params["c"]
    if not max(a, b) < c:
        raise HypothesisError(
            f"negative-coefficient claim needs max(a,b) < c, got ({a},{b},{c})")
    hyp2f1.HypParams(a, b, c)  # refuses a non-positive or non-finite a, b, c
    depth = grid.count - 1
    coeff = (a * b / c) * _ratio_table(a, b, c, depth)[0]  # of v'/v
    # x(1-x)v'/v has x^{n+1} coefficient coeff[n] - coeff[n-1] <= 0
    point, margin = _worst((np.arange(1.0, depth + 1),
                            coeff[:depth] - coeff[1:depth + 1]))
    notes = (f"coefficient drops a_(n-1) - a_n of v'/v for n = 1..{depth}; "
             f"min {_fmt(margin)} (grid count sets the depth)")
    return point, margin, notes


def _run_concave_shape(params: dict, grid: GridSpec) -> Outcome:
    a, b, c = params["a"], params["b"], params["c"]
    if not max(a, b) < c:
        raise HypothesisError(
            f"shape claim needs max(a,b) < c (max = c degenerates to a "
            f"constant), got ({a},{b},{c})")
    xs = _points_inside(grid, 1.0)
    ys = pqfun.n_func_many(a, b, c, xs)
    left = xs <= 0.5
    right = xs >= 0.5
    pos = _floor(xs, ys)
    sym = _mirror(xs, ys, -1.0)
    up = _steps(xs[left], ys[left], True)
    down = _steps(xs[right], ys[right], False)
    conc = _chord(xs, ys, convex=False)
    point, margin = _worst(pos, sym, up, down, conc)
    notes = (f"positive >= {_fmt(_worst(pos)[1] + STRICT_FLOOR)}; symmetry dev "
             f"{_fmt(-_worst(sym)[1])}; increasing then decreasing about 1/2 "
             f"(steps {_fmt(_worst(up)[1] + STRICT_FLOOR)}/"
             f"{_fmt(_worst(down)[1] + STRICT_FLOOR)}); concavity slack "
             f"{_fmt(_worst(conc)[1] + STRICT_FLOOR)}")
    return point, margin, notes


def _run_hlvv_sign(params: dict, grid: GridSpec) -> Outcome:
    xs = _points_inside(grid, 1.0)
    parts = []
    notes = []
    for a, b, c, label in params["cases"]:
        sgn = (a + b - 1.0) * (c - b)
        expected = "constant" if sgn == 0.0 else (
            "convex" if sgn > 0.0 else "concave")
        if label != expected:
            raise HypothesisError(
                f"(a+b-1)(c-b) = {sgn} makes ({a},{b},{c}) {expected}, "
                f"case is labelled {label!r}")
        ys = pqfun.m_func_many(a, b, c, xs)
        if label == "constant":
            mid = ys[len(ys) // 2]
            parts.append(_deviations(xs, ys - mid))
            notes.append(f"constant ({a},{b},{c}): value {mid:.12g}, "
                         f"dev {_fmt(-_worst(parts[-1])[1])}")
        else:
            parts.append(_chord(xs, ys, convex=(label == "convex")))
            notes.append(f"{label} ({a},{b},{c}): chord slack "
                         f"{_fmt(_worst(parts[-1])[1] + STRICT_FLOOR)}")
    point, margin = _worst(*parts)
    return point, margin, "; ".join(notes)


def _run_genconv_logconvex(params: dict, grid: GridSpec) -> Outcome:
    a, b, c = params["a"], params["b"], params["c"]
    if not a * b / (a + b + 1.0) < c:
        raise HypothesisError(
            f"log-convexity needs ab/(a+b+1) < c, got ({a},{b},{c})")
    p = hyp2f1.HypParams(a, b, c)
    xs = _points_inside(grid, 1.0)
    # F at x, at 1-x and at 1/2, F' at x and at 1-x, by one call each
    fx, fy, (f_half,) = _sampled(lambda x: hyp2f1.f21_many(p, x).value,
                                 xs, 1.0 - xs, [0.5])
    dx, dy = _sampled(functools.partial(hyp2f1.f21_derivative_many, p),
                      xs, 1.0 - xs)
    ratio = dx / fx - dy / fy
    logf = specfun.pointwise(math.log, fx) + specfun.pointwise(math.log, fy)
    up = _steps(xs, ratio, True)
    conv = _chord(xs, logf, convex=True)
    parts = [up, conv]
    half = np.flatnonzero(xs == 0.5)
    zero_note = ""
    if half.size:
        parts.append(_deviations([0.5], ratio[half[:1]]))
        zero_note = f"; f'/f at 1/2 = {_fmt(abs(ratio[half[0]]))}"
    fmid = math.log(f_half) * 2.0
    off = xs != 0.5
    fmin = _floor(xs[off], logf[off] - fmid)
    point, margin = _worst(*parts, fmin)
    notes = (f"f(x) = F(x)F(1-x): f'/f increasing (step "
             f"{_fmt(_worst(up)[1] + STRICT_FLOOR)}), log f midpoint-convex "
             f"(slack {_fmt(_worst(conv)[1] + STRICT_FLOOR)}), interior minimum "
             f"at 1/2 (gap {_fmt(_worst(fmin)[1] + STRICT_FLOOR)}){zero_note}")
    return point, margin, notes


def _run_genconv_limits(params: dict, grid: GridSpec) -> Outcome:
    points = []
    margins = []
    notes = []
    for case in params["cases"]:
        a, b = case["a"], case["b"]
        kind = case["kind"]
        if not 0.0 < case["tol"] < math.inf:
            raise DomainError(
                f"{kind} case ({a},{b}) needs a finite tol > 0, "
                f"got {case['tol']!r}")
        if kind == "gauss":
            c = case["c"]
            if not a + b < c:
                raise HypothesisError(f"gauss limit needs a+b < c, got ({a},{b},{c})")
            point = case["x"]
            p = hyp2f1.HypParams(a, b, c)
            lim = hyp2f1.f21_at_one(p)
            val = hyp2f1.f21(p, point).value
        elif kind == "zb":
            u = case["u"]
            ell = -math.log(u)
            val = hyp2f1.f21_from_complement(
                hyp2f1.HypParams(a, b, a + b), u, ell).value
            lim = (ell + specfun.ramanujan_r(a, b)) / specfun.beta(a, b)
            point = 1.0 - u
        else:  # "power": run_check admits only the registry's kinds
            c = case["c"]
            if not a + b > c:
                raise HypothesisError(f"power limit needs a+b > c, got ({a},{b},{c})")
            point = case["x"]
            val = hyp2f1.f21(hyp2f1.HypParams(a, b, c), point).value
            val *= (1.0 - point) ** (a + b - c)
            lim = (specfun.gamma(c) * specfun.gamma(a + b - c)
                   / (specfun.gamma(a) * specfun.gamma(b)))
        dev = abs(val - lim)
        # normalize: each case carries the tolerance its O(.) term implies
        points.append(point)
        margins.append(1.0 - dev / case["tol"])
        notes.append(f"{kind} ({a},{b}): |dev| {_fmt(dev)} vs {_fmt(case['tol'])}")
    point, margin = _worst((points, margins))
    notes = ("boundary limits, margins normalized to 1 - dev/tol; grid is "
             "nominal, cases pin their own points; " + "; ".join(notes))
    return point, margin, notes


def _run_main_parity(params: dict, grid: GridSpec) -> Outcome:
    pr = pqfun.ZeroBalancedPair(params["a"], params["b"])
    ts = grid.points()
    p_pos, p_neg = _sampled(functools.partial(pqfun.p_func_many, pr),
                            ts, -ts)
    d_pos, d_neg = _sampled(functools.partial(pqfun.p_prime_many, pr),
                            ts, -ts)
    # both deviations of each t, in sampling order
    devs = np.column_stack((p_pos - p_neg, d_pos + d_neg)).ravel()
    point, margin = _worst(_deviations(np.repeat(ts, 2), devs))
    notes = ("P even and P' odd; both are enforced by |t| reduction "
             "inside the evaluators, so this is a regression guard")
    return point, margin, notes


@functools.lru_cache(8)
def _convex_pairs(t_span, min_gap, seed, pairs, **_) -> np.ndarray:
    """The seeded random pairs (s, t), uniform on the part of
    [-t_span, t_span]^2 where |s - t| >= min_gap: their s and their t,
    read-only and cached per process on a check's parameters.

    Each pair is drawn directly (Devroye 1986, ch. 2): the gap d, whose
    density is proportional to 2T - d on [g, 2T], by inversion; then the
    lower point, uniform on [-T, T - d]; then a coin for the order.  So
    the cost is O(pairs) however close min_gap is to 2 t_span.
    """
    if not 0.0 < 2.0 * t_span < math.inf:
        raise DomainError(
            f"convex pairs need 0 < t_span with s - t finite, got {t_span}")
    if not min_gap < 2.0 * t_span:
        raise HypothesisError(
            f"no pair in [-{t_span}, {t_span}] is min_gap = {min_gap} apart")
    # slack = 2T - d.  Rounding the room, the slack's split and the two
    # points moves the float gap from 2T - slack by at most 4 ulp(T), so
    # 8 ulp(T) of headroom keeps every float gap >= min_gap.  It trims
    # the slack's law at its top by 8 ulp(T), a relative 8 ulp(T)/(2T - g).
    room = max(2.0 * t_span - max(min_gap, 0.0) - 8.0 * math.ulp(t_span),
               0.0)
    draw = random.Random(seed).random
    drawn = []
    for _ in range(pairs):
        slack = room * math.sqrt(draw())
        below = slack * draw()
        pair = (-t_span + below, t_span - (slack - below))
        drawn.append(pair if draw() < 0.5 else pair[::-1])
    return _frozen(np.reshape(drawn, (-1, 2)).T)


def _run_main_convex(params: dict, grid: GridSpec) -> Outcome:
    pr = pqfun.ZeroBalancedPair(params["a"], params["b"])
    inv_beta = 1.0 / specfun.beta(pr.a, pr.b)
    s, t = _convex_pairs(**params)
    ts = grid.points()
    m, lin = _midpoints(s, t)
    tm, tlin = _midpoints(ts[:-2], ts[2:])
    # P's excess at every point the check needs, t = 0 last
    pe_s, pe_t, pe_m, ex_lo, ex_hi, ex_tm, ex, (ex_0,) = _sampled(
        functools.partial(pqfun.p_excess_many, pr),
        s, t, m, ts[:-2], ts[2:], tm, ts, [0.0])

    # P = (|t| + R)/B + excess: the linear part contributes exactly, the
    # excess keeps relative accuracy at any |t|
    rand = _floor(list(zip(s.tolist(), t.tolist())),
                  lin * inv_beta + 0.5 * (pe_s + pe_t) - pe_m)
    tri = _floor(tm, tlin * inv_beta + 0.5 * (ex_lo + ex_hi) - ex_tm)

    # P -+ t/B through the same excess split (ex is even in t); branch
    # values are O(1)
    big_r = specfun.ramanujan_r(pr.a, pr.b)

    def shifted_down(t: np.ndarray) -> np.ndarray:
        # P(t) - t/B
        return np.where(t >= 0.0, big_r * inv_beta,
                        (2.0 * -t + big_r) * inv_beta) + ex

    down = shifted_down(ts)
    up = shifted_down(-ts)  # P(t) + t/B by symmetry

    # R/B < P - |t|/B <= P(0), strict off t = 0: per t the lower margin,
    # then the upper one where it applies
    keep = np.repeat(ts != 0.0, 2)
    keep[::2] = True
    bound = _floor(np.repeat(ts, 2)[keep],
                   np.column_stack((ex, ex_0 - ex)).ravel()[keep])

    point, margin = _worst(
        rand, tri, _steps(ts, down, increasing=False),
        _steps(ts, up, increasing=True), _chord(ts, down, convex=True),
        _chord(ts, up, convex=True), bound)
    notes = (f"{params['pairs']} seeded midpoint pairs (gap >= "
             f"{params['min_gap']}), min slack "
             f"{_fmt(_worst(rand)[1] + STRICT_FLOOR)}; grid triples "
             f"{_fmt(_worst(tri)[1] + STRICT_FLOOR)}; P-t/B and P+t/B monotone "
             f"and convex; excess bounds {_fmt(_worst(bound)[1] + STRICT_FLOOR)}")
    return point, margin, notes


def _run_pprime_bounds(params: dict, grid: GridSpec) -> Outcome:
    ts = grid.points()
    parts = []
    notes = []
    for a, b in params["pairs"]:
        pr = pqfun.ZeroBalancedPair(a, b)
        ys = pqfun.p_prime_many(pr, ts)
        mono, sharp = _increasing_capped(ts, ys, 1.0 / specfun.beta(a, b))
        parts += [mono, sharp]
        notes.append(f"({a},{b}): step {_fmt(_worst(mono)[1] + STRICT_FLOOR)}, "
                     f"1/B - |P'| >= {_fmt(_worst(sharp)[1] + STRICT_FLOOR)}")
    point, margin = _worst(*parts)
    return point, margin, "P' strictly increasing, |P'| < 1/B; " + "; ".join(notes)


def _run_main_slopes(params: dict, grid: GridSpec) -> Outcome:
    pr = pqfun.ZeroBalancedPair(params["a"], params["b"])
    cap = 1.0 / specfun.beta(pr.a, pr.b)
    ts = grid.points()
    if 0.0 in ts:
        raise DomainError("slope grid must not contain t = 0")
    ys = pqfun.slope_g_many(pr, ts)
    mono, rng_m = _increasing_capped(ts, ys, cap)
    odd = _mirror(ts, ys, 1.0)
    point, margin = _worst(mono, rng_m, odd)
    notes = (f"G odd (dev {_fmt(-_worst(odd)[1])}), strictly increasing (step "
             f"{_fmt(_worst(mono)[1] + STRICT_FLOOR)}), range inside "
             f"(-1/B, 1/B) by {_fmt(_worst(rng_m)[1] + STRICT_FLOOR)}")
    return point, margin, notes


def _run_qq_identity(params: dict, grid: GridSpec) -> Outcome:
    pr = pqfun.ZeroBalancedPair(params["a"], params["b"])
    ts = grid.points()
    q_pos, q_neg = _sampled(functools.partial(pqfun.q_func_many, pr),
                            ts, -ts)
    point, margin = _worst(_deviations(ts, q_pos * q_neg - 1.0))
    notes = ("Q(t)Q(-t) = 1; the two sides reuse one ratio and its "
             "reciprocal, so deviations are pure rounding")
    return point, margin, notes


def _run_subadd(params: dict, grid: GridSpec) -> Outcome:
    pr = pqfun.ZeroBalancedPair(params["a"], params["b"])
    ts = _points_inside(grid, math.inf)
    s, t = _subadditive_pairs(**params)
    qs, q_neg, *q_pairs = _sampled(functools.partial(pqfun.q_log_many, pr),
                                   ts, -ts, s, t, s + t)
    ratio = _steps(ts, qs / ts, False)
    odd = _deviations(ts, qs + q_neg)
    sub = _subadditive(s, t, *q_pairs)
    point, margin = _worst(ratio, _steps(ts, qs, True),
                           _chord(ts, qs, convex=False), odd, sub)
    notes = (f"q(t)/t decreasing (step {_fmt(_worst(ratio)[1] + STRICT_FLOOR)}); "
             f"q increasing, concave, odd (dev {_fmt(-_worst(odd)[1])}); "
             f"{params['pairs']} seeded subadditivity pairs, min slack "
             f"{_fmt(_worst(sub)[1] + STRICT_FLOOR)}")
    return point, margin, notes


def _run_qbounds(params: dict, grid: GridSpec) -> Outcome:
    pr = pqfun.ZeroBalancedPair(params["a"], params["b"])
    if not pr.a + pr.b >= 1.0:
        raise HypothesisError(
            f"Q bound claims need a+b >= 1, got ({pr.a},{pr.b})")
    ts = _points_inside(grid, math.inf)
    qe, (qe_0,) = _sampled(functools.partial(pqfun.q_excess_many, pr),
                           ts, [0.0])
    # Q - t/B = R/B + excess: monotone/convex in the excess alone
    mono = _steps(ts, qe, increasing=False)
    conv = _chord(ts, qe, convex=True)
    low = (ts, qe)                                   # Q > (R+t)/B, ~e^{-t}: raw
    high = _floor(ts, qe_0 - qe)                      # Q < 1 + t/B
    point, margin = _worst(mono, conv, low, high)
    notes = (f"Q - t/B decreasing (step {_fmt(_worst(mono)[1] + STRICT_FLOOR)}) "
             f"and convex (slack {_fmt(_worst(conv)[1] + STRICT_FLOOR)}); "
             f"(R+t)/B < Q by {_fmt(_worst(low)[1])} (raw, decays like e^-t); "
             f"Q < 1 + t/B by {_fmt(_worst(high)[1] + STRICT_FLOOR)}")
    return point, margin, notes


def _run_th_increasing(params: dict, grid: GridSpec) -> Outcome:
    ts = _points_inside(grid, math.inf)
    ys = ts * metric.h_many(ts)
    mono = _steps(ts, ys, True)
    # both band margins of each t, in sampling order
    band = _floor(np.repeat(ts, 2), np.column_stack((ys, 0.5 - ys)).ravel())
    point, margin = _worst(mono, band)
    notes = (f"t h(t) strictly increasing (step {_fmt(_worst(mono)[1] + STRICT_FLOOR)}) "
             f"with values in (0, 1/2), band margin {_fmt(_worst(band)[1] + STRICT_FLOOR)}")
    return point, margin, notes


def _run_big_h_shape(params: dict, grid: GridSpec) -> Outcome:
    pr = pqfun.ZeroBalancedPair(params["a"], params["b"])
    ts = grid.points()
    two_c0 = 2.0 * metric.c0()

    h_pos, h_neg, (h_0,) = _sampled(metric.h_many, ts, -ts, [0.0])
    big_h = 1.0 / h_pos  # H = 1/h, as metric.big_h forms it
    ident = _deviations(ts, big_h * h_pos - 1.0)
    even = _deviations(ts, big_h - 1.0 / h_neg)
    h0_dev = 1.0 / h_0 / two_c0 - 1.0

    # fold to |t| and collapse mirror points that agree to a few ulps:
    # asymmetric grids produce pairs whose gap is pure rounding, and a
    # growth step across such a gap is noise, not evidence
    pos: list[float] = []
    for s in sorted(abs(t) for t in ts.tolist()):
        if not pos or s - pos[-1] > 1e-12 * (1.0 + s):
            pos.append(s)
    ps = np.array(pos)
    m, lin = _midpoints(ts[:-2], ts[2:])
    ex, pe_s, pe_t, pe_m = _sampled(
        functools.partial(pqfun.p_excess_many, pr), ps, ts[:-2], ts[2:], m)
    # H = 2(|t| + log 16) + 2 pi excess: difference without cancellation
    grow = _floor(ps[:-1], 2.0 * (ps[1:] - ps[:-1])
                  + 2.0 * math.pi * (ex[1:] - ex[:-1]))

    conv = _floor(m, 2.0 * lin + 2.0 * math.pi * (0.5 * (pe_s + pe_t) - pe_m))

    point, margin = _worst(ident, even, _deviations([0.0], [h0_dev]), grow, conv)
    notes = (f"H h = 1 (dev {_fmt(-_worst(ident)[1])}); H(0)/2C0 - 1 = "
             f"{_fmt(h0_dev)}; even (dev {_fmt(-_worst(even)[1])}); increasing "
             f"in |t| (step {_fmt(_worst(grow)[1] + STRICT_FLOOR)}); midpoint "
             f"convex via the excess split (slack {_fmt(_worst(conv)[1] + STRICT_FLOOR)})")
    return point, margin, notes


def _run_big_h_prime(params: dict, grid: GridSpec) -> Outcome:
    ts = grid.points()
    ys = metric.big_h_prime_many(ts)
    mono, band = _increasing_capped(ts, ys, 2.0)
    odd = _mirror(ts, ys, 1.0)
    point, margin = _worst(mono, band, odd)
    notes = (f"H' odd (dev {_fmt(-_worst(odd)[1])}), strictly increasing (step "
             f"{_fmt(_worst(mono)[1] + STRICT_FLOOR)}); |H'| < 2 by "
             f"{_fmt(_worst(band)[1] + STRICT_FLOOR)}, sup |H'| = {np.abs(ys).max():.12f}")
    return point, margin, notes


def _run_weighted_extremum(params: dict, grid: GridSpec) -> Outcome:
    ext = max_weighted_h()
    c0 = metric.c0()
    ts = grid.points()
    vals = 2.0 * (ts + c0) * metric.h_many(ts)
    best = int(np.argmax(vals))  # the first maximum
    grid_best_t = float(ts[best])
    grid_max = float(vals[best])
    t_ref = 2.56
    g_ref = (metric.big_h(t_ref)
             - (t_ref + c0) * metric.big_h_prime(t_ref))
    point, margin = _worst((
        [ext.t0, grid_best_t, grid_best_t, ext.t0, ext.t0, t_ref],
        [1.25 - ext.max_value,
         1e-4 - abs(grid_max - ext.max_value),
         ext.max_value + 1e-6 - grid_max,
         5e-4 - abs(ext.t0 - 2.56944),
         5e-4 - abs(ext.max_value - 1.24477),
         g_ref - 0.02]))
    notes = (f"t0 = {ext.t0:.12f}; max = 2/H'(t0) = {ext.max_value:.12f} "
             f"< 1.25; grid max {grid_max:.12f} at t = {grid_best_t:.6f}; "
             f"g(2.56) = {g_ref:.8f} > 0.02")
    return point, margin, notes


def _run_hempel_sandwich(params: dict, grid: GridSpec) -> Outcome:
    pr = pqfun.ZeroBalancedPair(params["a"], params["b"])
    gap = metric.c0() - math.log(16.0)
    ts = _points_inside(grid, math.inf)
    pe = pqfun.p_excess_many(pr, ts)
    lo = (ts, 2.0 * math.pi * pe)          # H - 2(t + log 16) > 0
    hi = (ts, 2.0 * (gap - math.pi * pe))  # 2(t + C0) - H > 0
    point, margin = _worst(lo, hi)
    notes = (f"1/(t+C0) < 2h(t) < 1/(t+log 16) as H between 2(t+log 16) "
             f"and 2(t+C0); min lower margin {_fmt(_worst(lo)[1])} (decays "
             f"like t e^-t, computed cancellation-free), min upper margin "
             f"{_fmt(_worst(hi)[1])}")
    return point, margin, notes


def _run_kustner(params: dict, grid: GridSpec) -> Outcome:
    a, b, c = params["a"], params["b"], params["c"]
    # c = inf meets the hypothesis, but the recurrences need finite floats
    if not all(map(math.isfinite, (a, b, c))):
        raise DomainError(f"(a,b,c) must be finite, got ({a},{b},{c})")
    if not (-1.0 <= a <= c and 0.0 < b <= c):
        raise HypothesisError(
            f"total monotonicity needs -1 <= a <= c and 0 < b <= c, "
            f"got ({a},{b},{c})")
    k_max = params["k_max"]
    n_max = _whole(round(grid.hi), "round(grid.hi)")
    table = _ratio_table(a, b, c, n_max, k_max)
    point, margin = _worst(*(([(k, n) for n in range(row.size)], row)
                             for k, row in enumerate(table)))
    strict = np.flatnonzero(table[1] > 1e-12) if k_max >= 1 else []
    first_strict = int(strict[0]) if len(strict) else None
    notes = (f"Delta^k a_n >= 0 for k <= {k_max}, n <= {n_max} "
             f"(grid hi sets the n range); min entry {_fmt(margin)} at "
             f"(k,n) = {point}; first strict first difference at n = "
             f"{first_strict}")
    return point, margin, notes


def _run_phi_decreasing(params: dict, grid: GridSpec) -> Outcome:
    ts = _points_inside(grid, math.inf)
    s, t = _subadditive_pairs(**params)
    phis, *phi_pairs = _sampled(metric.varphi_many, ts, s, t, s + t)
    ratio = _steps(ts, phis / ts, False)
    sub = _subadditive(s, t, *phi_pairs)
    point, margin = _worst(ratio, sub)
    notes = (f"phi(t)/t strictly decreasing (step {_fmt(_worst(ratio)[1] + STRICT_FLOOR)}); "
             f"{params['pairs']} seeded subadditivity pairs, min slack "
             f"{_fmt(_worst(sub)[1] + STRICT_FLOOR)}")
    return point, margin, notes


# ---------------------------------------------------------------------------
# registry

_REGISTRY: dict[str, CheckDef] = {
    "lem_vaman_1": CheckDef(
        _make_vaman_runner("increasing"),
        {"a": 2.0, "b": 2.0, "c": 1.0},
        GridSpec(0.0, 0.95, 96), 0.0),
    "lem_vaman_2": CheckDef(
        _make_vaman_runner("decreasing"),
        {"a": 0.5, "b": 0.5, "c": 1.0},
        GridSpec(0.0, 0.99, 100), 0.0),
    "lem_vaman_3": CheckDef(
        _make_vaman_runner("constant"),
        {"a": 1.0, "b": 2.0, "c": 2.0},
        GridSpec(0.01, 0.99, 50), 1e-13),
    "lem_concave_coeffs": CheckDef(
        _run_concave_coeffs,
        {"a": 0.5, "b": 0.5, "c": 1.0},
        GridSpec(0.0, 30.0, 31), 1e-12),
    "cor_concave_shape": CheckDef(
        _run_concave_shape,
        {"a": 0.5, "b": 0.5, "c": 1.0},
        GridSpec(0.01, 0.99, 99), 1e-12),
    "lem_hlvv_sign": CheckDef(
        _run_hlvv_sign,
        {"cases": [[1.0, 1.0, 1.5, "convex"],
                   [0.25, 0.25, 1.0, "concave"],
                   [0.5, 0.5, 1.0, "constant"]]},
        GridSpec(0.02, 0.98, 97), 1e-12),
    "thm_genconv_logconvex": CheckDef(
        _run_genconv_logconvex,
        {"a": 0.9, "b": 1.1, "c": 0.8},
        GridSpec(0.02, 0.98, 97), 1e-13),
    "thm_genconv_limits": CheckDef(
        _run_genconv_limits,
        {"cases": [
            {"kind": "gauss", "a": 0.5, "b": 0.5, "c": 2.0,
             "x": 0.9999, "tol": 1e-2},
            {"kind": "zb", "a": 0.5, "b": 0.5, "u": 1e-8, "tol": 1e-6},
            {"kind": "power", "a": 1.0, "b": 1.0, "c": 1.5,
             "x": 0.9999, "tol": 5e-2},
        ]},
        GridSpec(1e-8, 1e-4, 3, "log"), 0.0),
    "thm_main_parity": CheckDef(
        _run_main_parity,
        {"a": 0.5, "b": 0.5},
        GridSpec(0.0, 20.0, 81), 1e-13),
    "thm_main_convex": CheckDef(
        _run_main_convex,
        {"a": 0.5, "b": 0.5, "seed": 20260817, "pairs": 1000,
         "min_gap": 0.5, "t_span": 20.0},
        GridSpec(-20.0, 20.0, 161), 0.0),
    "thm_main_pprime_bounds": CheckDef(
        _run_pprime_bounds,
        {"pairs": [[0.5, 0.5], [1.0, 2.0]]},
        GridSpec(-20.0, 20.0, 101), 0.0),
    "thm_main_slopes": CheckDef(
        _run_main_slopes,
        {"a": 0.5, "b": 0.5},
        GridSpec(-20.0, 20.0, 100), 1e-13),
    "thm_main2_qq": CheckDef(
        _run_qq_identity,
        {"a": 0.5, "b": 0.5},
        GridSpec(-10.0, 10.0, 101), 1e-12),
    "thm_main2_subadd": CheckDef(
        _run_subadd,
        {"a": 0.5, "b": 0.5, "seed": 1202, "pairs": 500,
         "s_lo": 0.05, "s_hi": 25.0},
        # grid starts at 0.05: q is odd so its concavity slack vanishes at 0
        # and falls under the strictness floor for points below ~1e-2
        GridSpec(0.05, 50.0, 120, "log"), 1e-13),
    "thm_main2_qbounds": CheckDef(
        _run_qbounds,
        {"a": 0.5, "b": 0.5},
        # hi = 15: the convexity slack of the excess decays like t e^{-t},
        # and past ~20 a refined grid pushes it under the strictness floor
        GridSpec(0.25, 15.0, 60), 0.0),
    "thm_c212_1": CheckDef(
        _run_th_increasing,
        {},
        GridSpec(1e-3, 50.0, 150, "log"), 0.0),
    "thm_c212_2": CheckDef(
        _run_big_h_shape,
        {"a": 0.5, "b": 0.5},
        GridSpec(-20.0, 20.0, 161), 1e-13),
    "thm_c212_3": CheckDef(
        _run_big_h_prime,
        {},
        GridSpec(-25.0, 25.0, 101), 1e-13),
    "thm_c212_4": CheckDef(
        _run_weighted_extremum,
        {},
        GridSpec(0.0, 20.0, 2001), 0.0),
    "thm_c212_5": CheckDef(
        _run_hempel_sandwich,
        {"a": 0.5, "b": 0.5},
        GridSpec(1e-4, 100.0, 200, "log"), 0.0),
    "kustner_total_monotone": CheckDef(
        _run_kustner,
        {"a": 0.5, "b": 0.5, "c": 1.0, "k_max": 6},
        GridSpec(0.0, 40.0, 41), 1e-12),
    "cor_phi_decreasing": CheckDef(
        _run_phi_decreasing,
        {"seed": 715, "pairs": 400, "s_lo": 0.05, "s_hi": 25.0},
        GridSpec(0.05, 50.0, 120, "log"), 0.0),
}


def _override(default, value, name: str):
    """value in the shape of the registry default it replaces (see
    run_check); `name` locates it in the error."""
    if isinstance(default, float):
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            raise DomainError(f"{name} must be a real number, got {value!r}")
        return specfun.to_float(value, name)
    if isinstance(default, int):
        return _whole(value, name)
    if isinstance(default, dict):
        if isinstance(value, dict) and value.keys() == default.keys():
            return {k: _override(default[k], v, f"{name}[{k!r}]")
                    for k, v in value.items()}
    elif isinstance(default, str):
        if isinstance(value, str):
            return value
    elif isinstance(value, (list, tuple)):
        if isinstance(default[0], (list, dict)):
            # entries, each shaped as a default one; a dict as its kind's
            return [_override(next((d for d in default if isinstance(d, list)
                                    or isinstance(v, dict)
                                    and d["kind"] == v.get("kind")), default),
                              v, f"{name}[{i}]")
                    for i, v in enumerate(value)]
        if len(value) == len(default):  # a record, field by field
            return [_override(d, v, f"{name}[{i}]")
                    for i, (d, v) in enumerate(zip(default, value))]
    raise DomainError(f"{name} must take the form of {default!r}, got {value!r}")


def check_names() -> list[str]:
    """Registry names, sorted."""
    return sorted(_REGISTRY)


def run_check(name: str, params: Optional[dict] = None,
              grid: Optional[GridSpec] = None,
              tol: Optional[float] = None,
              tol_profile: str = "default") -> PropertyReport:
    """Run one named check, overriding parameters, grid, or tolerance.

    The 'strict' profile densifies the grid 4x and divides the tolerance
    by 10, each only where no explicit override is given.  Raises
    UnknownCheckError for names outside the registry and HypothesisError
    when the parameters violate the claim's hypothesis, and DomainError
    for a tol that is negative, NaN or infinite.

    A parameter override must name a registry parameter, and it takes
    the type of the default: a real number where that is a float, a
    whole number >= 0 where it is an int (6.0 serves as 6), a string
    where it is a string.  A list of entries may hold any number of
    them, each shaped as the default's entries: a record of as many
    fields, or a dict with the keys of the default case of its "kind".
    Anything else raises DomainError, and so does a tol that is not a
    real number.
    """
    if tol_profile not in ("default", "strict"):
        raise DomainError(
            f"tol_profile must be 'default' or 'strict', got {tol_profile!r}")
    try:
        cd = _REGISTRY[name]
    except KeyError:
        raise UnknownCheckError(
            f"unknown check {name!r}; known: {', '.join(sorted(_REGISTRY))}"
        ) from None
    merged = dict(cd.params)
    for key, value in (params or {}).items():
        if key not in merged:
            raise DomainError(
                f"check {name!r} has no parameter {key!r}; known: "
                f"{', '.join(sorted(merged)) or 'none'}")
        merged[key] = _override(cd.params[key], value, key)
    g = cd.grid if grid is None else grid
    tolerance = cd.tol if tol is None else _override(cd.tol, tol, "tol")
    if not (0.0 <= tolerance < math.inf):
        raise DomainError(f"tol must be finite and >= 0, got {tol!r}")
    if tol_profile == "strict":
        if grid is None:
            g = GridSpec(g.lo, g.hi, 4 * g.count, g.scale)
        if tol is None:
            tolerance = tolerance / 10.0
    worst_point, worst_margin, notes = cd.runner(merged, g)
    return PropertyReport(
        name=name,
        passed=bool(worst_margin > -tolerance),
        grid=g,
        worst_point=worst_point,
        worst_margin=float(worst_margin),
        tolerance=tolerance,
        notes=notes,
    )


def run_suite(tol_profile: str = "default") -> list[PropertyReport]:
    """Run every registry check; 'strict' uses tol/10 and 4x grid density.

    Failures are reported, not raised; reports come back sorted by name.
    """
    return [run_check(name, tol_profile=tol_profile)
            for name in sorted(_REGISTRY)]


def find_t0() -> float:
    """Zero of g(t) = H(t) - (t + C0) H'(t) in [2, 3].

    g is strictly decreasing with a sign change inside the bracket;
    bisection narrows it, a short secant run polishes to ~1e-12, well
    inside the 1e-10 contract.
    """
    c0 = metric.c0()

    def g(t: float) -> float:
        return metric.big_h(t) - (t + c0) * metric.big_h_prime(t)

    lo, hi = T0_BRACKET
    g_lo, g_hi = g(lo), g(hi)
    if not (g_lo > 0.0 > g_hi):
        raise BracketError(
            f"g({lo}) = {g_lo}, g({hi}) = {g_hi}: no sign change; "
            "this indicates an upstream evaluation bug")
    for _ in range(20):
        mid = 0.5 * (lo + hi)
        g_mid = g(mid)
        if g_mid > 0.0:
            lo, g_lo = mid, g_mid
        else:
            hi, g_hi = mid, g_mid
    t_prev, f_prev = lo, g_lo
    t_cur, f_cur = hi, g_hi
    for _ in range(8):
        if f_cur == f_prev:
            break
        t_next = t_cur - f_cur * (t_cur - t_prev) / (f_cur - f_prev)
        if not (T0_BRACKET[0] <= t_next <= T0_BRACKET[1]):
            break
        t_prev, f_prev = t_cur, f_cur
        t_cur, f_cur = t_next, g(t_next)
        if abs(t_cur - t_prev) < 0.01 * T0_ABS_TOL:
            break
    return t_cur


@functools.cache
def max_weighted_h() -> ExtremumResult:
    """Maximum of 2(|t| + C0) h(t) over the real line.

    Attained at the unique zero t0 of g, where the value equals
    2/H'(t0); must come out below 1.25.  Computed once per process
    (find_t0 runs each time it is called).
    """
    t0 = find_t0()
    max_value = 2.0 / metric.big_h_prime(t0)
    if not max_value < 1.25:
        raise PunctMetricError(
            f"2/H'(t0) = {max_value} is not below 1.25; upstream bug")
    return ExtremumResult(t0=t0, max_value=max_value)
