import pytest


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
