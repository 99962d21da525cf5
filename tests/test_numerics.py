"""Vector plumbing, norms, finite differences, keyed random streams."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynreg import (
    ConfigError,
    DimensionError,
    NumericError,
    RngStream,
    spawn_rng_stream,
)
from dynreg.numerics import (
    as_vector,
    finite_difference_gradient,
)


def test_as_vector_accepts_lists_and_scalars():
    out = as_vector([1.0, 2.5, -3.0])
    assert out.dtype == np.float64
    assert out.tolist() == [1.0, 2.5, -3.0]
    assert as_vector(4).tolist() == [4.0]


def test_as_vector_rejects_bad_shapes_and_values():
    with pytest.raises(DimensionError):
        as_vector(np.zeros((2, 2)))
    with pytest.raises(DimensionError):
        as_vector(np.empty(0))
    with pytest.raises(NumericError, match="coordinate 1"):
        as_vector([0.0, math.nan])
    with pytest.raises(NumericError, match="coordinate 2"):
        as_vector(np.array([0.0, 1.0, math.inf]))


def test_finite_difference_gradient_on_quadratic():
    coeffs = np.array([2.0, -1.0, 0.5])

    def f(x):
        return float(coeffs @ (x * x))

    x = np.array([0.3, -1.2, 2.0])
    fd = finite_difference_gradient(f, x, h=1e-6)
    assert np.max(np.abs(fd - 2.0 * coeffs * x)) < 1e-7


def test_finite_difference_gradient_validates_inputs():
    with pytest.raises(ConfigError):
        finite_difference_gradient(lambda x: 0.0, [1.0], h=0.0)
    with pytest.raises(ConfigError):
        finite_difference_gradient(lambda x: 0.0, [1.0], h=-1e-5)
    with pytest.raises(NumericError):
        finite_difference_gradient(lambda x: math.nan, [1.0])


def test_rng_stream_reproducible_and_keyed():
    a = spawn_rng_stream(12, 3).standard_normal(8)
    b = spawn_rng_stream(12, 3).standard_normal(8)
    c = spawn_rng_stream(12, 4).standard_normal(8)
    d = spawn_rng_stream(13, 3).standard_normal(8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


def test_rng_stream_draws_are_independent_of_sibling_usage():
    one = spawn_rng_stream(7, 1)
    one.standard_normal(1000)
    other = spawn_rng_stream(7, 2).standard_normal(4)
    assert np.array_equal(other, spawn_rng_stream(7, 2).standard_normal(4))


def test_rng_stream_validates_key_parts():
    with pytest.raises(ConfigError):
        RngStream(True, 0)
    with pytest.raises(ConfigError):
        RngStream(0, -1)
    with pytest.raises(ConfigError):
        RngStream(1 << 64, 0)
    with pytest.raises(ConfigError):
        RngStream(0, 2.5)


def _mixed_draws(rng):
    # an odd count of small integers leaves a cached uint32 behind, and the
    # draws end part-way through a Philox output block
    return [
        rng.standard_normal(3),
        rng.integers(0, 10, size=3),
        rng.uniform(-1.0, 2.0, size=2),
        rng.integers(0, 1 << 40, size=2),
        rng.standard_normal((2, 3)),
        rng.integers(5, 9, size=1),
    ]


@pytest.mark.parametrize("seed", [0, 12, (1 << 64) - 1])
def test_rng_stream_rekey_equals_a_fresh_stream(seed):
    rng = spawn_rng_stream(seed, 0)
    _mixed_draws(rng)
    for stream_id in (1, 7, (1 << 64) - 1, 1):
        assert rng.rekey(stream_id) is rng
        assert rng.stream_id == stream_id
        fresh = spawn_rng_stream(seed, stream_id)
        for got, want in zip(_mixed_draws(rng), _mixed_draws(fresh)):
            assert np.array_equal(got, want)


def test_rng_stream_rekey_validates_the_stream_id():
    rng = spawn_rng_stream(3, 1)
    for bad in (-1, 1 << 64, 2.5, True):
        with pytest.raises(ConfigError):
            rng.rekey(bad)


def test_rng_stream_integers_method():
    vals = spawn_rng_stream(0, 0).integers(1, 5, size=100)
    assert vals.min() >= 1
    assert vals.max() <= 4


@given(
    st.integers(min_value=0, max_value=2**64 - 1),
    st.integers(min_value=0, max_value=2**64 - 1),
)
@settings(max_examples=25, deadline=None)
def test_rng_stream_uniform_bounds(seed, stream_id):
    vals = spawn_rng_stream(seed, stream_id).uniform(2.0, 3.0, size=16)
    assert np.all((vals >= 2.0) & (vals < 3.0))
