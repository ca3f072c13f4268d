"""Shared fixtures for the test suite, and the hypothesis profiles.

Two registered profiles:

- ``dev`` (default): hypothesis as shipped, but without the wall-clock
  deadline — bound computations have data-dependent runtimes that make
  per-example deadlines flaky on loaded machines.
- ``ci``: additionally derandomized, so a CI failure is reproducible
  from the log alone and reruns are deterministic.

Select with ``HYPOTHESIS_PROFILE=ci`` (the workflow does); locally the
``dev`` profile keeps random exploration on.
"""

import os

import numpy as np
import pytest

try:
    from hypothesis import HealthCheck, settings

    settings.register_profile(
        "dev",
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    settings.register_profile(
        "ci",
        deadline=None,
        derandomize=True,
        max_examples=25,
        suppress_health_check=[HealthCheck.too_slow],
    )
    settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "dev"))
except ImportError:  # pragma: no cover - hypothesis is a test dependency
    pass

from repro.models import (
    make_bike_station_model,
    make_gps_map_model,
    make_gps_poisson_model,
    make_seir_model,
    make_sir_full_model,
    make_sir_model,
)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def sir_model():
    """The paper's SIR model with the Section V parameters."""
    return make_sir_model()


@pytest.fixture
def sir_narrow():
    """SIR with a narrow parameter interval (fast/tight bounds)."""
    return make_sir_model(theta_max=2.0)


@pytest.fixture
def sir_full():
    return make_sir_full_model()


@pytest.fixture
def gps_poisson():
    return make_gps_poisson_model()


@pytest.fixture
def gps_map():
    return make_gps_map_model()


@pytest.fixture
def bike_model():
    return make_bike_station_model()


@pytest.fixture
def seir_model():
    return make_seir_model()


@pytest.fixture
def sir_x0():
    return np.array([0.7, 0.3])
