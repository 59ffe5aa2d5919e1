import numpy as np
import pytest
from hypothesis import settings

from subspace_bounds import OrthMatrix, Spectrum, skew_exp

# Every property test draws the same examples on every run, so tier-1 is deterministic.
settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")


def random_spectrum(rng, p, d, min_gap=0.0, low=0.2, high=3.0) -> Spectrum:
    """Random strictly-positive spectrum, optionally with a guaranteed gap."""
    lam = np.sort(rng.uniform(low, high, p))[::-1]
    if min_gap:
        lam = lam + min_gap * np.arange(p)[::-1]
    return Spectrum(lam, d)


def random_sym(rng, p) -> np.ndarray:
    a = rng.standard_normal((p, p))
    return (a + a.T) / 2.0


def rotation(xi, t: float) -> OrthMatrix:
    """exp(t xi) for one generator (a SkewMatrix or its entries): ``skew_exp``
    on a stack of one generator and one time."""
    return OrthMatrix(skew_exp(np.asarray(getattr(xi, "a", xi))[None], (t,))[0, 0])


def random_skew_unit(rng, p) -> np.ndarray:
    a = rng.standard_normal((p, p))
    s = (a - a.T) / 2.0
    return s / np.sqrt(np.sum(s * s))


@pytest.fixture
def rng():
    return np.random.default_rng(20260811)
