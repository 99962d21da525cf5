"""Shared fixtures and helpers for the test suite."""

import math

import numpy as np
import pytest

from dynreg import (
    GAUSSIAN,
    ConfigError,
    InnerAdaptConfig,
    NoiseModel,
    NumericError,
    make_config_adagrad,
    make_drifting_sine_stream,
    run_stream,
)
from dynreg.numerics import as_vector


def finite_difference_gradient(f, x, h: float = 1e-5) -> np.ndarray:
    """Central-difference gradient estimate of a scalar function.

    Coordinate i gets (f(x + h e_i) - f(x - h e_i)) / (2h).
    """
    if not (h > 0) or not math.isfinite(h):
        raise ConfigError(f"step size h must be a positive finite real, got {h}")
    base = as_vector(x, "x")
    grad = np.empty_like(base)
    probe = base.copy()
    for i in range(base.size):
        probe[i] = base[i] + h
        fp = float(f(probe))
        probe[i] = base[i] - h
        fm = float(f(probe))
        probe[i] = base[i]
        if not (math.isfinite(fp) and math.isfinite(fm)):
            raise NumericError(
                f"function returned a non-finite value while probing coordinate {i}"
            )
        grad[i] = (fp - fm) / (2.0 * h)
    return grad


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
