"""The central-difference gradient helper the gradient tests lean on."""

import math

import numpy as np
import pytest
from conftest import finite_difference_gradient

from dynreg import ConfigError, NumericError


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
