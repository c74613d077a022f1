import sys

import pytest
from hypothesis import settings

# CI runs `pytest --hypothesis-profile=ci`: ten times the default number
# of examples for every test that sets none, the bit-identity oracles of
# the bounds search among them.  Local runs keep hypothesis' default.
settings.register_profile("ci", max_examples=500)


@pytest.fixture(autouse=True)
def _empty_caches():
    """Each test starts with an empty array-form memo and empty verify
    caches (the extremum, seeded pairs and coefficient tables), so that
    a kernel it patches runs.  Loads no module that is not loaded."""
    yield
    arrays = sys.modules.get("punctmetric._arrays")
    if arrays is not None:
        arrays._memo.clear()
    verify = sys.modules.get("punctmetric.verify")
    if verify is not None:
        for cached in (verify.max_weighted_h, verify._convex_pairs,
                       verify._subadditive_pairs, verify._ratio_table):
            cached.cache_clear()


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
