"""Loss closed forms, drift processes, curvature constants, gradient noise."""

import math

import numpy as np
import pytest

from dynreg import (
    EXACT,
    GAUSSIAN,
    SUBGAUSSIAN,
    ConfigError,
    DimensionError,
    NoiseModel,
    NumericError,
    loss_constants,
    make_drifting_sine_stream,
    make_piecewise_drift_stream,
    make_sine_task,
    sample_stochastic_gradient,
    spawn_rng_stream,
    sub_gaussian_scale,
)
from dynreg import tasks
from dynreg.numerics import finite_difference_gradient


def test_loss_constants_are_powers_of_the_frequency_scale():
    c = loss_constants(2.0, 3.0)
    assert (c.D, c.L, c.gamma, c.H) == (2.0, 6.0, 18.0, 54.0)


def test_loss_constants_validate():
    with pytest.raises(ConfigError):
        loss_constants(0.0, 1.0)
    with pytest.raises(ConfigError):
        loss_constants(1.0, -2.0)


def test_sub_gaussian_scale_solves_the_mgf_equation():
    # kappa is pinned by E[exp(||n||^2 / kappa^2)] = e for isotropic Gaussian
    # noise with total variance sigma^2; that expectation has a closed form.
    for sigma, d in ((0.7, 3), (0.5, 1), (1.3, 10)):
        kappa = sub_gaussian_scale(sigma, d)
        mgf = (1.0 - 2.0 * sigma**2 / (d * kappa**2)) ** (-d / 2.0)
        assert mgf == pytest.approx(math.e, rel=1e-12)


def test_noise_model_validation():
    with pytest.raises(ConfigError):
        NoiseModel(EXACT, sigma=0.1)
    with pytest.raises(ConfigError):
        NoiseModel(GAUSSIAN, sigma=0.0)
    with pytest.raises(ConfigError):
        NoiseModel("poisson", sigma=1.0)
    with pytest.raises(ConfigError):
        NoiseModel(GAUSSIAN, sigma=1.0, kappa=-1.0)


def test_noise_model_exact_draws_zeros():
    n = NoiseModel(EXACT)
    assert n.is_exact
    assert n.kappa_for(4) is None
    out = n.draw(spawn_rng_stream(0, 1), 3, reps=2)
    assert out.shape == (2, 3)
    assert not out.any()
    single = n.draw(spawn_rng_stream(0, 1), 3)
    assert single.shape == (3,)


def test_noise_model_total_second_moment():
    noise = NoiseModel(GAUSSIAN, sigma=0.5)
    assert noise.coord_std(4) == 0.25
    draws = noise.draw(spawn_rng_stream(0, 9), 4, reps=200_000)
    assert draws.shape == (200_000, 4)
    est = float((draws**2).sum(axis=1).mean())
    assert est == pytest.approx(0.25, rel=0.02)


def test_noise_model_kappa_passthrough_and_derivation():
    assert NoiseModel(GAUSSIAN, sigma=0.5, kappa=2.0).kappa_for(7) == 2.0
    derived = NoiseModel(SUBGAUSSIAN, sigma=0.5).kappa_for(7)
    assert derived == pytest.approx(sub_gaussian_scale(0.5, 7), rel=1e-15)


def test_make_sine_task_closed_forms():
    a = np.array([0.6, -0.8])
    task = make_sine_task(3, 1.5, a, 0.4, NoiseModel(EXACT))
    x = np.array([0.2, 0.7])
    s = float(a @ x) + 0.4
    assert task.loss(x) == pytest.approx(1.5 * math.sin(s), rel=1e-15)
    assert np.allclose(task.grad(x), 1.5 * math.cos(s) * a, rtol=1e-15, atol=0.0)
    v = np.array([1.0, 2.0])
    hv = task.hess_vec(x, v)
    expected = -1.5 * math.sin(s) * float(a @ v) * a
    assert np.allclose(hv, expected, rtol=1e-12, atol=1e-15)


def test_sine_task_gradient_matches_finite_differences():
    task = make_sine_task(1, 1.2, np.array([0.3, 0.9, -0.4]), 1.1, NoiseModel(EXACT))
    x = np.array([0.5, -0.2, 0.8])
    fd = finite_difference_gradient(task.loss, x)
    assert np.max(np.abs(fd - task.grad(x))) < 1e-9


def test_sine_argument_is_checked_in_every_oracle():
    a = np.array([0.6, -0.8])
    x = np.array([0.2, 0.7])
    assert tasks.sine_argument(a, x, 0.4, 3) == float(np.dot(a, x)) + 0.4
    message = r"^round 7 produced a non-finite sine argument <a, x> \+ b$"
    # <a, x> overflows while a and x are finite; b pushes a finite sum to inf
    with np.errstate(over="ignore"):
        with pytest.raises(NumericError, match=message):
            tasks.sine_argument(np.array([2.0]), np.array([1e308]), 0.0, 7)
    with pytest.raises(NumericError, match=message):
        tasks.sine_argument(np.array([1.0]), np.array([1.7e308]), 1.7e308, 7)
    with pytest.raises(NumericError, match=message):
        tasks.sine_argument(a, np.array([math.nan, 0.0]), 0.4, 7)
    task = make_sine_task(7, 1.0, np.array([2.0]), 0.0, NoiseModel(EXACT))
    big = np.array([1e308])
    with np.errstate(over="ignore"):
        for oracle in (task.loss, task.grad, lambda x: task.hess_vec(x, x)):
            with pytest.raises(NumericError, match=message):
                oracle(big)


def test_is_sine_stream_needs_both_parameter_arrays():
    assert tasks.is_sine_stream(make_drifting_sine_stream(dim=2, seed=0))
    assert tasks.is_sine_stream(
        make_piecewise_drift_stream(dim=2, segment_length=4, jump_scale=0.1, seed=0)
    )

    class Amplitude:
        amplitude = 1.0

    class Params:
        def params_upto(self, t):
            raise AssertionError("the predicate must not read the arrays")

    class Both(Amplitude, Params):
        pass

    assert not tasks.is_sine_stream(Amplitude())
    assert not tasks.is_sine_stream(Params())
    assert tasks.is_sine_stream(Both())
    assert not tasks.is_sine_stream(make_drifting_sine_stream(dim=2, seed=0).task(1))


def test_drifting_stream_rows_keep_the_frequency_norm():
    stream = make_drifting_sine_stream(dim=6, freq_scale=1.7, drift_rate=0.2, seed=4)
    A, B = stream.params_upto(50)
    assert A.shape == (50, 6)
    assert B.shape == (50,)
    assert np.allclose(np.linalg.norm(A, axis=1), 1.7, rtol=1e-12, atol=0.0)
    assert stream.constants().L == pytest.approx(1.7, rel=1e-15)


def test_drifting_stream_deterministic_and_prefix_stable():
    one = make_drifting_sine_stream(dim=4, drift_rate=0.1, seed=9)
    t5 = one.task(5)
    A_small = one.params_upto(5)[0].copy()
    A_big, B_big = one.params_upto(400)
    assert np.array_equal(A_small, A_big[:5])  # buffer growth keeps the prefix
    two = make_drifting_sine_stream(dim=4, drift_rate=0.1, seed=9)
    assert np.array_equal(A_big, two.params_upto(400)[0])
    # the round-5 task is built from row 4: its gradient is D cos(<a, x> + b) a
    x = np.linspace(-1.0, 1.0, 4)
    s = float(np.dot(A_big[4], x)) + B_big[4]
    assert np.array_equal(t5.grad(x), (one.amplitude * math.cos(s)) * A_big[4])


GROWTH_STREAMS = {
    "drifting": lambda: make_drifting_sine_stream(dim=4, drift_rate=0.1, seed=9),
    "drifting-still": lambda: make_drifting_sine_stream(dim=2, drift_rate=0.0, seed=3),
    "piecewise": lambda: make_piecewise_drift_stream(
        dim=3, segment_length=37, jump_scale=0.4, seed=1
    ),
    "piecewise-still": lambda: make_piecewise_drift_stream(
        dim=3, segment_length=5, jump_scale=0.0, seed=1
    ),
}


@pytest.mark.parametrize("family", list(GROWTH_STREAMS))
def test_streams_grow_in_place(family, monkeypatch):
    # task(t) round by round grows the buffer by doubling up to 1024 rows;
    # the rows must equal one params_upto(1024) call, and the walk must be
    # resumed, not replayed: one unit-vector normalisation per drawn row or
    # segment, as in the one-shot call
    T = 1024
    calls = []
    real_unit = tasks._unit
    monkeypatch.setattr(tasks, "_unit", lambda v: calls.append(1) or real_unit(v))
    grown = GROWTH_STREAMS[family]()
    for t in range(1, T + 1):
        grown.task(t)
    grown_calls = len(calls)
    calls.clear()
    one_shot = GROWTH_STREAMS[family]()
    A, B = one_shot.params_upto(T)
    A_grown, B_grown = grown.params_upto(T)
    assert np.array_equal(A, A_grown)
    assert np.array_equal(B, B_grown)
    assert grown_calls == len(calls)


def test_drifting_stream_zero_rate_is_stationary():
    A, B = make_drifting_sine_stream(dim=3, drift_rate=0.0, seed=2).params_upto(20)
    assert np.array_equal(A, np.repeat(A[:1], 20, axis=0))
    assert np.array_equal(B, np.repeat(B[:1], 20))


def test_stream_round_index_validation():
    stream = make_drifting_sine_stream(dim=2, seed=0)
    with pytest.raises(ConfigError):
        stream.task(0)
    with pytest.raises(ConfigError):
        stream.params_upto(0)


def test_piecewise_stream_constant_within_segments():
    stream = make_piecewise_drift_stream(dim=3, segment_length=10, jump_scale=0.5, seed=1)
    A, B = stream.params_upto(35)
    for k in range(3):
        seg = A[10 * k : 10 * (k + 1)]
        assert np.array_equal(seg, np.repeat(seg[:1], 10, axis=0))
    assert not np.array_equal(A[9], A[10])
    assert not np.array_equal(A[19], A[20])
    assert np.allclose(np.linalg.norm(A, axis=1), 1.0, rtol=1e-12, atol=0.0)


def test_piecewise_stream_zero_jump_is_stationary():
    stream = make_piecewise_drift_stream(dim=3, segment_length=5, jump_scale=0.0, seed=1)
    A, _ = stream.params_upto(23)
    assert np.array_equal(A, np.repeat(A[:1], 23, axis=0))


def test_stream_specs_record_the_family():
    drifting = make_drifting_sine_stream(dim=2, seed=0)
    piecewise = make_piecewise_drift_stream(dim=2, segment_length=4, jump_scale=0.1, seed=0)
    assert drifting.spec()["family"] == "drifting-sine"
    assert piecewise.spec()["family"] == "piecewise-sine"
    assert drifting.constants().D == 1.0


def test_sample_stochastic_gradient_exact_and_validated():
    stream = make_drifting_sine_stream(dim=3, seed=0)
    task = stream.task(1)
    x = np.array([0.1, 0.2, 0.3])
    g = sample_stochastic_gradient(task, x, spawn_rng_stream(0, 1))
    assert np.array_equal(g, task.grad(x))
    with pytest.raises(DimensionError):
        sample_stochastic_gradient(task, np.zeros(2), spawn_rng_stream(0, 1))


def test_sample_stochastic_gradient_noise_mean():
    noise = NoiseModel(GAUSSIAN, sigma=0.8)
    stream = make_drifting_sine_stream(dim=3, noise=noise, seed=0)
    task = stream.task(1)
    x = np.zeros(3)
    rng = spawn_rng_stream(0, 2)
    acc = np.zeros(3)
    n = 50_000
    for _ in range(n):
        acc += sample_stochastic_gradient(task, x, rng)
    dev = float(np.linalg.norm(acc / n - task.grad(x)))
    assert dev <= 5.0 * 0.8 / math.sqrt(n)
