"""Shared fixtures for the test suite."""

import pytest

from dynreg import (
    GAUSSIAN,
    InnerAdaptConfig,
    NoiseModel,
    make_config_adagrad,
    make_drifting_sine_stream,
    run_stream,
)


@pytest.fixture(scope="session")
def gaussian_trace():
    """A 40-round noisy drifting-sine run, played by the array loop.

    Smoothing uses alpha = 0.9 over a window of 4; several modules compare
    their ledgers and handles against this one trace.
    """
    stream = make_drifting_sine_stream(
        dim=3, drift_rate=0.05, noise=NoiseModel(GAUSSIAN, sigma=0.5), seed=5
    )
    inner = InnerAdaptConfig(theta=0.05)
    opt = make_config_adagrad(eta=0.2, alpha=0.9, window=4)
    return run_stream(stream, 40, inner, opt, seed=5)
