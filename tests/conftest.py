"""Shared fixtures: the three warping-profile variants and chart builders,
and the per-sample stream oracle."""

import numpy as np
import pytest

from fatflat import geometry
from fatflat.profiles import WarpingProfile

MASK64 = (1 << 64) - 1


def sample_stream(seed, index):
    """A fresh Philox stream keyed by (seed, index): the oracle for the
    re-keyed route of ``fatflat.rng.sample_streams``."""
    key = ((seed & MASK64) << 64) | (index & MASK64)
    return np.random.Generator(np.random.Philox(key=key))


@pytest.fixture(scope="session")
def flat_profile():
    return WarpingProfile.flat()


@pytest.fixture(scope="session")
def hyperbolic_profile():
    return WarpingProfile.hyperbolic()


@pytest.fixture(scope="session")
def ramp19():
    """Interpolated profile at the default ramp parameter."""
    return WarpingProfile.interpolated(19.0)


@pytest.fixture(scope="session")
def four_d_19(ramp19):
    return geometry.MetricChart.four_d_model(ramp19)


@pytest.fixture(scope="session")
def polar_19(ramp19):
    return geometry.MetricChart.polar(ramp19, 1)


@pytest.fixture(scope="session")
def cartesian_19(ramp19):
    return geometry.MetricChart.cartesian(ramp19, 1)


def assert_close(actual, expected, rel=0.0, abs_tol=0.0):
    """Componentwise |actual - expected| <= abs_tol + rel * |expected|."""
    a = np.asarray(actual, dtype=float)
    e = np.asarray(expected, dtype=float)
    bound = abs_tol + rel * np.abs(e)
    diff = np.abs(a - e)
    assert np.all(diff <= bound), (
        f"max deviation {np.max(diff - bound):.3e} beyond bound\n"
        f"actual={a!r}\nexpected={e!r}")
