import math
import sys

import pytest
from hypothesis import settings

# CI runs `pytest --hypothesis-profile=ci`: ten times the default number
# of examples for every test that sets none, the bit-identity oracles of
# the bounds search among them.  Local runs keep hypothesis' default.
settings.register_profile("ci", max_examples=500)


@pytest.fixture(autouse=True)
def _empty_caches():
    """Each test starts with no kept report and no extremum in verify, so
    that a kernel it patches runs.  Loads no module that is not
    loaded."""
    yield
    verify = sys.modules.get("punctmetric.verify")
    if verify is not None:
        verify._reports.clear()
        verify.max_weighted_h.cache_clear()


@pytest.fixture
def each_scan(monkeypatch):
    """each_scan(call): call() with the lockstep's scan crossover as set,
    then with the row scan and with accumulate forced for every block."""
    from punctmetric import _hyp2f1_arrays

    def run(call):
        results = []
        for rows_from in (_hyp2f1_arrays.SCAN_ROWS_FROM, 0, math.inf):
            monkeypatch.setattr(_hyp2f1_arrays, "SCAN_ROWS_FROM", rows_from)
            results.append(call())
        return results

    return run


@pytest.fixture
def lanes(monkeypatch):
    """The lane count of every lockstep run from here on."""
    from punctmetric import _hyp2f1_arrays

    counts = []
    lockstep = _hyp2f1_arrays._lockstep

    def counted(step, fixed, state, cap):
        counts.append(state[0].size)
        return lockstep(step, fixed, state, cap)

    monkeypatch.setattr(_hyp2f1_arrays, "_lockstep", counted)
    return counts


@pytest.fixture
def lambda01_ref():
    """lambda01(-x) = pi / (8 x K(r) K(r')) from mpmath's K, as an mpf.

    Runs at enough digits that r^2 = x/(1+x) keeps 1/(1+x) for extreme
    x; x may be a float or an mpf.  Skips the test without mpmath.
    """
    mpmath = pytest.importorskip("mpmath")

    def ref(x):
        x = mpmath.mpf(x)
        with mpmath.workdps(40 + int(abs(mpmath.log10(x)))):
            k = mpmath.ellipk(x / (1 + x)) * mpmath.ellipk(1 / (1 + x))
            return mpmath.pi / (8 * x * k)

    return ref


@pytest.fixture
def varphi_ref():
    """varphi(t) = log(agm(1, m_L)/agm(1, m_S)) from mpmath at 50 digits,
    as an mpf, the moduli formed from e^{-t/4} so that none underflows.
    Skips the test without mpmath."""
    mpmath = pytest.importorskip("mpmath")

    def ref(t):
        with mpmath.workdps(50):
            w = mpmath.exp(-mpmath.mpf(t) / 4)
            root = mpmath.sqrt(1 + w * w)
            return +mpmath.log(mpmath.agm(1, 1 / root)
                               / mpmath.agm(1, w / root))

    return ref
