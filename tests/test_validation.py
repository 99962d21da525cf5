"""Every public entry point checks its integer and real parameters with the
one rule per parameter: a bad value of any type is a ConfigError naming it."""

import math
import re

import pytest

from dynreg import (
    GAUSSIAN,
    ConfigError,
    InnerAdaptConfig,
    LossConstants,
    NoiseModel,
    alpha_weights,
    bound_expectation,
    bound_highprob,
    dlr_cumulative,
    effective_constants,
    exact_smoothed_gradient,
    loss_constants,
    make_config_adagrad,
    make_config_adam,
    make_drifting_sine_stream,
    make_piecewise_drift_stream,
    make_state,
    run_stream,
    run_streams,
    slr_cumulative,
    spawn_rng_stream,
    step_size_at,
    sub_gaussian_scale,
    variance_proxy,
    weight_sum_W,
)
from dynreg.tasks import SineStream

NOISE = NoiseModel(GAUSSIAN, sigma=0.5)
STREAM = make_drifting_sine_stream(dim=2, noise=NOISE)
INNER = InnerAdaptConfig(theta=0.05)
OPT = make_config_adagrad(eta=0.1, window=2)
ADAM = make_config_adam(eta=0.1)
CONST = loss_constants(1.0, 1.0)
TRACE = run_stream(STREAM, 8, INNER, OPT, seed=0)

# (entry point, parameter named in the error, its lowest legal value, call)
INTEGERS = [
    ("make_drifting_sine_stream", "dim", 1, lambda v: make_drifting_sine_stream(dim=v)),
    ("make_drifting_sine_stream", "seed", 0, lambda v: make_drifting_sine_stream(2, seed=v)),
    ("make_piecewise_drift_stream", "dim", 1, lambda v: make_piecewise_drift_stream(v, 5, 0.5)),
    (
        "make_piecewise_drift_stream",
        "segment_length",
        1,
        lambda v: make_piecewise_drift_stream(2, v, 0.5),
    ),
    (
        "SineStream",
        "segment_length",
        1,
        lambda v: SineStream("piecewise-sine", 2, v, 0.5, 1.0, 1.0, None, 0),
    ),
    ("params_upto", "rounds", 1, lambda v: make_drifting_sine_stream(2).params_upto(v)),
    ("task", "t", 1, lambda v: make_drifting_sine_stream(2).task(v)),
    ("sub_gaussian_scale", "dim", 1, lambda v: sub_gaussian_scale(0.5, v)),
    ("make_state", "dim", 1, make_state),
    ("make_config_adagrad", "window", 1, lambda v: make_config_adagrad(0.1, window=v)),
    ("make_config_adam", "window", 1, lambda v: make_config_adam(0.1, window=v)),
    ("weight_sum_W", "window", 1, lambda v: weight_sum_W(0.9, v)),
    ("alpha_weights", "window", 1, lambda v: alpha_weights(0.9, v)),
    ("step_size_at", "t", 0, lambda v: step_size_at(ADAM, v)),
    ("InnerAdaptConfig", "train_batch", 1, lambda v: InnerAdaptConfig(0.05, train_batch=v)),
    ("run_stream", "horizon", 1, lambda v: run_stream(STREAM, v, INNER, OPT, 0)),
    ("run_stream", "seed", 0, lambda v: run_stream(STREAM, 4, INNER, OPT, v)),
    ("run_streams", "horizon", 1, lambda v: run_streams([STREAM], v, INNER, OPT, [0])),
    ("dlr_cumulative", "window", 1, lambda v: dlr_cumulative(TRACE, v, 1.0)),
    ("slr_cumulative", "window", 1, lambda v: slr_cumulative(TRACE, v)),
    ("exact_smoothed_gradient", "t", 1, lambda v: exact_smoothed_gradient(TRACE, v, 2, 1.0)),
    (
        "exact_smoothed_gradient",
        "window",
        1,
        lambda v: exact_smoothed_gradient(TRACE, 4, v, 1.0),
    ),
    ("variance_proxy", "window", 1, lambda v: variance_proxy(NOISE, v, 0.9)),
    (
        "bound_expectation",
        "horizon",
        1,
        lambda v: bound_expectation("adagrad", OPT, NOISE, CONST, 0.05, v, 2, 0.1),
    ),
    (
        "bound_highprob",
        "dim",
        1,
        lambda v: bound_highprob("adagrad", OPT, NOISE, CONST, 0.05, 100, v, 0.1),
    ),
    ("spawn_rng_stream", "seed", 0, lambda v: spawn_rng_stream(v, 0)),
    ("spawn_rng_stream", "stream_id", 0, lambda v: spawn_rng_stream(0, v)),
]

# (entry point, parameter named in the error, values outside its range,
# whether None means "not given", call)
REALS = [
    ("loss_constants", "amplitude", (0.0, -1.0), False, lambda v: loss_constants(v, 1.0)),
    ("loss_constants", "freq_scale", (0.0,), False, lambda v: loss_constants(1.0, v)),
    (
        "make_drifting_sine_stream",
        "amplitude",
        (0.0,),
        False,
        lambda v: make_drifting_sine_stream(2, amplitude=v),
    ),
    (
        "make_drifting_sine_stream",
        "drift_rate",
        (-0.1,),
        False,
        lambda v: make_drifting_sine_stream(2, drift_rate=v),
    ),
    (
        "make_piecewise_drift_stream",
        "jump_scale",
        (-0.1,),
        False,
        lambda v: make_piecewise_drift_stream(2, 5, v),
    ),
    (
        "make_piecewise_drift_stream",
        "freq_scale",
        (-1.0,),
        False,
        lambda v: make_piecewise_drift_stream(2, 5, 0.5, freq_scale=v),
    ),
    (
        "SineStream",
        "drift_rate",
        (-0.1,),
        False,
        lambda v: SineStream("drifting-sine", 2, 1, v, 1.0, 1.0, None, 0),
    ),
    (
        "SineStream",
        "jump_scale",
        (-0.1,),
        False,
        lambda v: SineStream("piecewise-sine", 2, 5, v, 1.0, 1.0, None, 0),
    ),
    ("LossConstants", "constant D", (-1.0,), False, lambda v: LossConstants(v, 1.0, 1.0, 1.0)),
    ("LossConstants", "constant H", (-1.0,), False, lambda v: LossConstants(1.0, 1.0, 1.0, v)),
    ("NoiseModel", "sigma", (-0.5,), False, lambda v: NoiseModel(GAUSSIAN, sigma=v)),
    ("NoiseModel", "kappa", (0.0,), True, lambda v: NoiseModel(GAUSSIAN, 0.5, kappa=v)),
    ("sub_gaussian_scale", "sigma", (0.0,), False, lambda v: sub_gaussian_scale(v, 2)),
    ("make_config_adagrad", "eta", (0.0,), False, make_config_adagrad),
    ("make_config_adagrad", "epsilon", (0.0,), False, lambda v: make_config_adagrad(0.1, v)),
    (
        "make_config_adagrad",
        "alpha",
        (0.0, 1.5),
        False,
        lambda v: make_config_adagrad(0.1, alpha=v),
    ),
    ("make_config_adam", "beta1", (-0.1, 1.0), False, lambda v: make_config_adam(0.1, beta1=v)),
    ("make_config_adam", "beta2", (0.0, 1.5), False, lambda v: make_config_adam(0.1, beta2=v)),
    ("weight_sum_W", "alpha", (0.0, 1.5), False, lambda v: weight_sum_W(v, 4)),
    ("alpha_weights", "alpha", (0.0, 1.5), False, lambda v: alpha_weights(v, 4)),
    ("InnerAdaptConfig", "theta", (-0.1,), False, InnerAdaptConfig),
    ("effective_constants", "theta", (-0.1,), False, lambda v: effective_constants(CONST, v)),
    ("dlr_cumulative", "alpha", (0.0, 1.5), False, lambda v: dlr_cumulative(TRACE, 2, v)),
    ("variance_proxy", "alpha", (0.0, 1.5), False, lambda v: variance_proxy(NOISE, 4, v)),
    (
        "variance_proxy",
        "delta",
        (0.0, 1.0),
        True,
        lambda v: variance_proxy(NOISE, 4, 0.9, delta=v),
    ),
    (
        "bound_expectation",
        "theta",
        (-0.1,),
        False,
        lambda v: bound_expectation("adagrad", OPT, NOISE, CONST, v, 100, 2, 0.1),
    ),
    (
        "bound_highprob",
        "delta",
        (0.0, 1.0),
        False,
        lambda v: bound_highprob("adagrad", OPT, NOISE, CONST, 0.05, 100, 2, v),
    ),
    (
        "bound_expectation",
        "varsigma",
        (0.0,),
        True,
        lambda v: bound_expectation("adam", ADAM, NOISE, CONST, 0.05, 100, 2, 0.1, varsigma=v),
    ),
]


def _cases():
    for entry, name, low, call in INTEGERS:
        for value in (True, 2.5, "3", None, low - 1):
            yield pytest.param(call, name, value, id=f"{entry}-{name}-{value!r}")
    for entry, name, outside, nullable, call in REALS:
        for value in (True, "0.1", None, math.nan, math.inf, *outside):
            if value is None and nullable:
                continue
            yield pytest.param(call, name, value, id=f"{entry}-{name}-{value!r}")


@pytest.mark.parametrize("call, name, value", list(_cases()))
def test_a_bad_parameter_is_a_config_error_naming_it(call, name, value):
    message = f"^{re.escape(name)} must be .*, got {re.escape(repr(value))}$"
    with pytest.raises(ConfigError, match=message):
        call(value)
