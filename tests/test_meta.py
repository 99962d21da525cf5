"""Round mechanics of the online meta-learner and full-run traces."""

import math
import re
import tracemalloc

import numpy as np
import pytest

import dynreg
from dynreg import (
    EXACT,
    GAUSSIAN,
    SUBGAUSSIAN,
    ConfigError,
    DimensionError,
    InnerAdaptConfig,
    NoiseModel,
    NumericError,
    RoundLoss,
    RunTrace,
    SmoothingWindow,
    inner_adapt,
    make_config_adagrad,
    make_config_adam,
    make_drifting_sine_stream,
    make_meta_state,
    make_piecewise_drift_stream,
    run_round,
    run_stream,
    run_streams,
    slr_cumulative,
    smoothed_stochastic_gradient,
    spawn_rng_stream,
    step_size_at,
    weight_sum_W,
)
from dynreg.config import load_config
from conftest import finite_difference_gradient


def _stream(dim=3, sigma=0.5, seed=5, drift=0.05):
    noise = NoiseModel(EXACT) if sigma == 0 else NoiseModel(GAUSSIAN, sigma=sigma)
    return make_drifting_sine_stream(dim=dim, drift_rate=drift, noise=noise, seed=seed)


def test_inner_config_validation():
    assert InnerAdaptConfig(theta=0.0).theta == 0.0
    with pytest.raises(ConfigError):
        InnerAdaptConfig(theta=-0.1)
    with pytest.raises(ConfigError):
        InnerAdaptConfig(theta=0.1, train_batch=0)


def test_round_loss_is_identity_at_zero_theta():
    task = _stream(sigma=0).task(1)
    rl = RoundLoss(task, 0.0)
    x = np.array([0.3, -0.4, 0.9])
    assert rl.loss(x) == task.loss(x)
    assert np.array_equal(rl.grad(x), task.grad(x))
    assert np.array_equal(rl.adapted(x), x)


def test_round_loss_gradient_matches_finite_differences():
    task = _stream(sigma=0).task(2)
    rl = RoundLoss(task, 0.1)
    x = np.array([0.5, 0.1, -0.7])
    val, grad = rl.value_and_grad(x)
    assert val == rl.loss(x)
    assert np.array_equal(grad, rl.grad(x))
    fd = finite_difference_gradient(rl.loss, x)
    assert np.max(np.abs(fd - grad)) < 1e-9


def test_inner_adapt_exact_noise_is_a_plain_step():
    task = _stream(sigma=0).task(1)
    cfg = InnerAdaptConfig(theta=0.2)
    x = np.array([0.1, 0.2, 0.3])
    out = inner_adapt(x, task, cfg, spawn_rng_stream(0, 1))
    assert np.array_equal(out, x - 0.2 * task.grad(x))


def test_inner_adapt_batch_scaling():
    task = _stream(sigma=0.8).task(1)
    x = np.zeros(3)
    base = x - 0.5 * task.grad(x)
    dev1 = (
        inner_adapt(x, task, InnerAdaptConfig(theta=0.5, train_batch=1), spawn_rng_stream(2, 7))
        - base
    )
    dev4 = (
        inner_adapt(x, task, InnerAdaptConfig(theta=0.5, train_batch=4), spawn_rng_stream(2, 7))
        - base
    )
    assert np.allclose(dev4, dev1 / 2.0, rtol=1e-12, atol=1e-15)
    with pytest.raises(DimensionError):
        inner_adapt(np.zeros(2), task, InnerAdaptConfig(theta=0.5), spawn_rng_stream(0, 1))


def test_run_round_matches_manual_composition():
    stream = _stream()
    inner = InnerAdaptConfig(theta=0.05)
    opt = make_config_adagrad(eta=0.2, alpha=0.9, window=4)
    state = make_meta_state(np.zeros(3), opt)
    task = stream.task(1)
    state, rec = run_round(state, task, inner, opt, spawn_rng_stream(5, 1))

    rng = spawn_rng_stream(5, 1)
    x0 = np.zeros(3)
    xhat = inner_adapt(x0, task, inner, rng)
    rl = RoundLoss(task, 0.05)
    manual_window = SmoothingWindow(0.9, 4)
    manual_window.push(x0, rl)
    gtilde = smoothed_stochastic_gradient(manual_window, task.noise, rng)

    assert rec.t == 1
    assert np.array_equal(rec.iterate, x0)
    assert np.array_equal(rec.adapted, xhat)
    assert rec.loss == rl.loss(x0)
    assert np.array_equal(rec.grad, rl.grad(x0))
    assert np.array_equal(rec.smoothed_grad, gtilde)
    assert rec.step_size == 0.2
    assert state.round == 2
    assert state.window.occupied == 1


# run_stream's array loop against the run_round loop: the default shape, a
# one-slot window, a ring that wraps many times, exact gradients, the
# piecewise stream with sub-Gaussian noise under the momentum preset, d = 1,
# exact gradients at alpha = 1 with a ring that wraps, and a window wider
# than the horizon
ENGINE_CASES = {
    "gaussian-w4": (_stream(), make_config_adagrad(eta=0.2, alpha=0.9, window=4), 25),
    "w1": (_stream(), make_config_adagrad(eta=0.2, alpha=0.9, window=1), 12),
    "ring-wraps": (_stream(), make_config_adagrad(eta=0.2, alpha=1.0, window=3), 40),
    "exact": (_stream(sigma=0), make_config_adagrad(eta=0.2, alpha=0.9, window=4), 25),
    "piecewise-subgaussian-momentum": (
        make_piecewise_drift_stream(
            dim=3, segment_length=7, jump_scale=0.4, freq_scale=1.3,
            noise=NoiseModel(SUBGAUSSIAN, sigma=0.9), seed=5,
        ),
        make_config_adam(eta=0.05, beta1=0.9, beta2=0.99, alpha=0.8, window=5),
        30,
    ),
    "d1": (_stream(dim=1), make_config_adagrad(eta=0.2, alpha=0.9, window=4), 25),
    "exact-alpha1-wide": (
        _stream(dim=5, sigma=0), make_config_adagrad(eta=0.2, alpha=1.0, window=8), 40
    ),
    "window-beyond-horizon": (_stream(), make_config_adagrad(eta=0.2, alpha=1.0, window=64), 25),
}


@pytest.mark.parametrize("case", list(ENGINE_CASES))
def test_run_stream_numpy_equals_manual_round_loop(case):
    stream, opt, T = ENGINE_CASES[case]
    inner = InnerAdaptConfig(theta=0.05)
    trace = run_stream(stream, T, inner, opt, seed=5)

    state = make_meta_state(np.zeros(stream.dim), opt)
    for t in range(1, T + 1):
        state, rec = run_round(state, stream.task(t), inner, opt, spawn_rng_stream(5, t))
        i = t - 1
        assert np.array_equal(trace.iterates[i], rec.iterate)
        assert np.array_equal(trace.adapted[i], rec.adapted)
        assert trace.losses[i] == rec.loss
        assert np.array_equal(trace.grads[i], rec.grad)
        assert np.array_equal(trace.smoothed_grads[i], rec.smoothed_grad)
        assert trace.step_sizes[i] == rec.step_size


TRACE_ARRAYS = ("iterates", "adapted", "losses", "grads", "smoothed_grads", "step_sizes")


def _batch_streams(noise, dim=3):
    """Four different streams sharing dim, amplitude and noise: three drifting
    ones and a piecewise one."""
    streams = [
        make_drifting_sine_stream(dim=dim, drift_rate=0.1, noise=noise, seed=s) for s in (5, 2, 9)
    ]
    streams.append(
        make_piecewise_drift_stream(dim=dim, segment_length=7, jump_scale=0.4, noise=noise, seed=2)
    )
    return streams


# run_streams against one run_stream call per run: each noise law, rings that
# wrap (w < T) and windows wider than the horizon, alpha < 1 and alpha = 1,
# both optimizer presets, and d = 1, whose windows are summed run by run
BATCH_CASES = {
    "gaussian-wraps": (
        NoiseModel(GAUSSIAN, sigma=0.5), make_config_adagrad(eta=0.2, alpha=0.9, window=4), 3, 30
    ),
    "subgaussian-momentum-wide": (
        NoiseModel(SUBGAUSSIAN, sigma=0.9),
        make_config_adam(eta=0.05, beta1=0.9, beta2=0.99, alpha=0.8, window=64),
        3,
        25,
    ),
    "exact-alpha1-wraps": (
        NoiseModel(EXACT), make_config_adagrad(eta=0.2, alpha=1.0, window=8), 5, 40
    ),
    "gaussian-momentum-alpha1-wide": (
        NoiseModel(GAUSSIAN, sigma=0.5),
        make_config_adam(eta=0.05, alpha=1.0, window=40),
        4,
        30,
    ),
    "d1-gaussian-wraps": (
        NoiseModel(GAUSSIAN, sigma=0.5), make_config_adagrad(eta=0.2, alpha=0.9, window=12), 1, 30
    ),
    "d1-exact-alpha1-wraps": (
        NoiseModel(EXACT), make_config_adagrad(eta=0.2, alpha=1.0, window=9), 1, 30
    ),
}


@pytest.mark.parametrize("case", list(BATCH_CASES))
def test_run_streams_equals_one_run_stream_per_run(case):
    noise, opt, dim, T = BATCH_CASES[case]
    inner = InnerAdaptConfig(theta=0.05)
    seeds = [5, 2, 9, 2]  # a seed repeated on a different stream
    traces = run_streams(_batch_streams(noise, dim), T, inner, opt, seeds)
    assert len(traces) == len(seeds)
    for stream, seed, trace in zip(_batch_streams(noise, dim), seeds, traces):
        ref = run_stream(stream, T, inner, opt, seed=seed)
        assert trace.seed == seed
        assert trace.config == ref.config
        for name in TRACE_ARRAYS:
            assert np.array_equal(getattr(trace, name), getattr(ref, name)), name
        # the loop builds its traces without RunTrace's checks; each passes them
        assert vars(RunTrace(**vars(trace))) == vars(trace)


# every noise law and preset, alpha < 1 and alpha = 1, for the noise blocks
# of the array loop
BLOCK_EDGE_CASES = {
    "gaussian-adagrad-alpha1": (
        NoiseModel(GAUSSIAN, sigma=0.5), make_config_adagrad(eta=0.2, alpha=1.0, window=4)
    ),
    "gaussian-adam-alpha0.9": (
        NoiseModel(GAUSSIAN, sigma=0.5),
        make_config_adam(eta=0.05, beta1=0.9, beta2=0.99, alpha=0.9, window=6),
    ),
    "subgaussian-adagrad-alpha0.8": (
        NoiseModel(SUBGAUSSIAN, sigma=0.9), make_config_adagrad(eta=0.2, alpha=0.8, window=5)
    ),
    "subgaussian-adam-alpha1": (
        NoiseModel(SUBGAUSSIAN, sigma=0.9), make_config_adam(eta=0.05, alpha=1.0, window=3)
    ),
}


@pytest.mark.parametrize("runs", [1, 3])
@pytest.mark.parametrize("case", list(BLOCK_EDGE_CASES))
def test_the_array_loop_keeps_every_bit_across_noise_blocks(case, runs):
    # the loop draws the noise of k rounds ahead; horizons one short of a
    # block, one block, one round into the next and one into the third
    noise, opt = BLOCK_EDGE_CASES[case]
    d = 3
    k = max(1, dynreg.meta.NOISE_BLOCK_BYTES // (16 * runs * d))
    inner = InnerAdaptConfig(theta=0.05)
    streams, seeds = _batch_streams(noise, d)[-runs:], [5, 2, 9][-runs:]
    horizons = [T for T in (k - 1, k, k + 1, 2 * k + 1) if T >= 1]
    # a run's first T rounds do not depend on its horizon, so one round loop
    # of the longest horizon is every horizon's reference
    refs = []
    for stream, seed in zip(streams, seeds):
        state, rows = make_meta_state(np.zeros(d), opt), {name: [] for name in TRACE_ARRAYS}
        for t in range(1, horizons[-1] + 1):
            state, rec = run_round(state, stream.task(t), inner, opt, spawn_rng_stream(seed, t))
            for name, value in zip(TRACE_ARRAYS, (
                rec.iterate, rec.adapted, rec.loss, rec.grad, rec.smoothed_grad, rec.step_size
            )):
                rows[name].append(value)
        refs.append({name: np.array(value) for name, value in rows.items()})
    for T in horizons:
        for trace, ref in zip(run_streams(streams, T, inner, opt, seeds), refs):
            for name in TRACE_ARRAYS:
                assert np.array_equal(getattr(trace, name), ref[name][:T]), (T, name)


def test_run_streams_validates_the_batch():
    noise = NoiseModel(GAUSSIAN, sigma=0.5)
    inner = InnerAdaptConfig(theta=0.05)
    opt = make_config_adagrad(eta=0.2)
    streams = _batch_streams(noise)
    with pytest.raises(ConfigError):
        run_streams(streams, 5, inner, opt, [1, 2])
    with pytest.raises(ConfigError):
        run_streams([], 5, inner, opt, [])
    with pytest.raises(ConfigError):
        run_streams(streams[:2], 5, inner, opt, [1, 2.5])
    with pytest.raises(ConfigError):
        run_streams(streams[:1] + _batch_streams(noise, dim=2)[:1], 5, inner, opt, [1, 2])
    exact = make_drifting_sine_stream(dim=3, noise=NoiseModel(EXACT), seed=1)
    with pytest.raises(ConfigError):
        run_streams([streams[0], exact], 5, inner, opt, [1, 2])


def test_a_batch_reports_the_first_failure_in_round_order():
    # alone, seed 2 overflows the second moment in round 3 and seed 5 in round 2
    noise = NoiseModel(GAUSSIAN, sigma=3e154)
    inner = InnerAdaptConfig(theta=0.05, train_batch=1)
    opt = make_config_adagrad(eta=0.2, alpha=1.0, window=4)

    def stream(seed):
        return make_drifting_sine_stream(dim=3, drift_rate=0.05, noise=noise, seed=seed)

    with np.errstate(over="ignore", invalid="ignore"):
        alone = {
            seed: _numeric_error(lambda: run_stream(stream(seed), 8, inner, opt, seed=seed))
            for seed in (2, 5)
        }
        batch = _numeric_error(lambda: run_streams([stream(2), stream(5)], 8, inner, opt, [2, 5]))
    assert alone == {
        2: "second moment overflowed at coordinate 0 (round 3)",
        5: "second moment overflowed at coordinate 0 (round 2)",
    }
    assert batch == f"run 1 (seed 5): {alone[5]}"


def test_a_batch_reports_the_lowest_run_that_fails_in_a_round():
    # in round 1, run 0's update overflows the iterate (its sine arguments
    # stay finite) and run 1's sine argument overflows, a check run_round
    # makes earlier in the round; no errstate here, so a numpy warning
    # raised while the round is replayed would fail the test
    noise = NoiseModel(GAUSSIAN, sigma=0.5)
    inner = InnerAdaptConfig(theta=0.05, train_batch=1)
    opt = make_config_adagrad(eta=1e308, alpha=1.0, window=4)
    x0 = np.full(3, 1.5e308)
    streams = [
        make_drifting_sine_stream(dim=3, freq_scale=scale, drift_rate=0.05, noise=noise, seed=s)
        for scale, s in ((1e-300, 1), (1e3, 2))
    ]
    alone = [
        _numeric_error(lambda: run_stream(stream, 5, inner, opt, seed=seed, x0=x0))
        for stream, seed in zip(streams, (1, 2))
    ]
    assert alone == [
        "update produced a non-finite iterate at coordinate 2 (round 1)",
        "round 1 produced a non-finite sine argument <a, x> + b",
    ]
    batch = _numeric_error(lambda: run_streams(streams, 5, inner, opt, [1, 2], x0))
    assert batch == f"run 0 (seed 1): {alone[0]}"


@pytest.mark.parametrize("seeds", [[2], [2, 3]])
def test_a_run_whose_only_overflow_is_the_check_sum_plays_to_the_end(seeds):
    # |a| = 1 in one dimension: at x ~ 1e308 every sine argument, adapted
    # point and iterate is finite, but the loop's one-sum check overflows in
    # every round, so every round is replayed and none raises
    stream = make_drifting_sine_stream(
        dim=1, drift_rate=0.05, noise=NoiseModel(GAUSSIAN, sigma=0.5), seed=3
    )
    inner = InnerAdaptConfig(theta=0.05, train_batch=1)
    opt = make_config_adagrad(eta=0.2, alpha=1.0, window=4)
    x0 = np.full(1, 1e308)
    T = 12
    traces = run_streams([stream] * len(seeds), T, inner, opt, seeds, x0)
    for seed, trace in zip(seeds, traces):
        assert trace.iterates[-1, 0] > 1e307
        state = make_meta_state(x0, opt)
        for t in range(1, T + 1):
            state, rec = run_round(state, stream.task(t), inner, opt, spawn_rng_stream(seed, t))
            i = t - 1
            assert np.array_equal(trace.iterates[i], rec.iterate)
            assert np.array_equal(trace.adapted[i], rec.adapted)
            assert trace.losses[i] == rec.loss
            assert np.array_equal(trace.grads[i], rec.grad)
            assert np.array_equal(trace.smoothed_grads[i], rec.smoothed_grad)


def test_a_check_sum_overflow_alone_replays_no_round(monkeypatch):
    # the shape above as a batch of two: every round's one-sum check
    # overflows, every entry stays finite, so no run is replayed
    calls = []
    monkeypatch.setattr(dynreg.meta, "run_round", lambda *args: calls.append(args))
    stream = make_drifting_sine_stream(
        dim=1, drift_rate=0.05, noise=NoiseModel(GAUSSIAN, sigma=0.5), seed=3
    )
    inner = InnerAdaptConfig(theta=0.05, train_batch=1)
    opt = make_config_adagrad(eta=0.2, alpha=1.0, window=4)
    traces = run_streams([stream] * 2, 12, inner, opt, [2, 3], np.full(1, 1e308))
    assert calls == []
    assert all(trace.iterates[-1, 0] > 1e307 for trace in traces)


def test_a_batch_reports_the_lowest_failed_run_not_the_lowest_overflowed_sum():
    # at x0 = 1e308 run 0's adapted point and iterate are finite but add up
    # past the float limit; run 1's sine argument overflows
    noise = NoiseModel(GAUSSIAN, sigma=0.5)
    inner = InnerAdaptConfig(theta=0.05, train_batch=1)
    opt = make_config_adagrad(eta=0.2, alpha=1.0, window=4)
    x0 = np.full(1, 1e308)
    streams = [
        make_drifting_sine_stream(dim=1, freq_scale=scale, drift_rate=0.05, noise=noise, seed=s)
        for scale, s in ((1e-300, 1), (1e3, 2))
    ]
    assert run_stream(streams[0], 5, inner, opt, seed=1, x0=x0).iterates[-1, 0] > 1e307
    batch = _numeric_error(lambda: run_streams(streams, 5, inner, opt, [1, 2], x0))
    assert batch == "run 1 (seed 2): round 1 produced a non-finite sine argument <a, x> + b"


def test_a_failed_round_that_run_round_plays_through_is_an_internal_error(monkeypatch):
    monkeypatch.setattr(dynreg.meta, "run_round", lambda state, *args: (state, None))
    stream = make_drifting_sine_stream(dim=1, freq_scale=1e3, noise=NoiseModel(EXACT), seed=2)
    inner = InnerAdaptConfig(theta=0.05)
    opt = make_config_adagrad(eta=0.2, alpha=1.0, window=4)
    with pytest.raises(RuntimeError, match="run 0 failed round 1 in the array loop"):
        run_stream(stream, 5, inner, opt, seed=2, x0=np.full(1, 1e308))


def _numeric_error(fn) -> str:
    with pytest.raises(NumericError) as info:
        fn()
    return str(info.value)


# (dim, amplitude, sigma, theta, eta, x0 coordinate, expected message)
NON_FINITE_CASES = {
    "adapt": (1, 1.0, 1e308, 1.0, 0.2, 1.7e308, r"inner adaptation non-finite at coordinate 0"),
    "round-loss": (
        3, 1e308, 0.5, 0.05, 0.2, 0.0, r"round 1 produced a non-finite loss or gradient"
    ),
    # one window draw overflows in round 1; later, the second moment would first
    "smoothed": (
        4, 1.0, 1.7e308, 0.05, 0.2, 0.0, r"smoothed gradient has a non-finite entry at coordinate \d"
    ),
    "iterate": (
        3, 1.0, 0.5, 0.05, 1e308, 1.5e308,
        r"update produced a non-finite iterate at coordinate \d \(round 1\)",
    ),
    "second-moment": (
        3, 1.0, 1e155, 0.05, 0.2, 0.0,
        r"second moment overflowed at coordinate \d \(round \d\)",
    ),
}


@pytest.mark.parametrize("case", list(NON_FINITE_CASES))
def test_run_stream_reports_non_finite_rounds_like_the_round_loop(case):
    dim, amplitude, sigma, theta, eta, x0, expected = NON_FINITE_CASES[case]
    noise = NoiseModel(GAUSSIAN, sigma=sigma)
    stream = make_drifting_sine_stream(
        dim=dim, amplitude=amplitude, drift_rate=0.05, noise=noise, seed=5
    )
    inner = InnerAdaptConfig(theta=theta, train_batch=1)
    opt = make_config_adagrad(eta=eta, alpha=1.0, window=4)
    x0 = np.full(dim, x0)

    def engine():
        run_stream(stream, 5, inner, opt, seed=2, x0=x0)

    def round_loop():
        state = make_meta_state(x0, opt)
        for t in range(1, 6):
            state, _ = run_round(state, stream.task(t), inner, opt, spawn_rng_stream(2, t))

    with np.errstate(over="ignore", invalid="ignore"):
        message = _numeric_error(engine)
        assert message == _numeric_error(round_loop)
    assert re.fullmatch(expected, message)


# (noise, theta, x0 coordinate): s = <a, x> + b overflows at the iterate,
# or at the exact inner step U(x) while x and U(x) are still finite
SINE_ARGUMENT_CASES = {
    "at-iterate": (NoiseModel(GAUSSIAN, sigma=0.5), 0.05, 1e308),
    "at-adapted": (NoiseModel(EXACT), 6e307, 0.0),
}


@pytest.mark.parametrize("case", list(SINE_ARGUMENT_CASES))
def test_run_stream_reports_a_non_finite_sine_argument_like_the_round_loop(case):
    noise, theta, x0 = SINE_ARGUMENT_CASES[case]
    # ||a|| = 2 in one dimension, so <a, x> overflows while x is finite
    stream = make_drifting_sine_stream(
        dim=1, freq_scale=2.0, drift_rate=0.05, noise=noise, seed=2
    )
    inner = InnerAdaptConfig(theta=theta, train_batch=1)
    opt = make_config_adagrad(eta=0.2, alpha=1.0, window=4)
    x0 = np.full(1, x0)

    def engine():
        run_stream(stream, 5, inner, opt, seed=2, x0=x0)

    def round_loop():
        state = make_meta_state(x0, opt)
        for t in range(1, 6):
            state, _ = run_round(state, stream.task(t), inner, opt, spawn_rng_stream(2, t))

    with np.errstate(over="ignore", invalid="ignore"):
        message = _numeric_error(engine)
        assert message == _numeric_error(round_loop)
    assert message == "round 1 produced a non-finite sine argument <a, x> + b"


@pytest.mark.parametrize("case", list(SINE_ARGUMENT_CASES))
def test_a_batch_reports_a_non_finite_sine_argument_of_its_second_run(case):
    # run 0's ||a|| = 1e-300 keeps its arguments small; run 1's overflows
    # in round 1 as in the one-run cases above
    noise, theta, x0 = SINE_ARGUMENT_CASES[case]
    streams = [
        make_drifting_sine_stream(dim=1, freq_scale=scale, drift_rate=0.05, noise=noise, seed=2)
        for scale in (1e-300, 2.0)
    ]
    inner = InnerAdaptConfig(theta=theta, train_batch=1)
    opt = make_config_adagrad(eta=0.2, alpha=1.0, window=4)
    with np.errstate(over="ignore", invalid="ignore"):
        message = _numeric_error(
            lambda: run_streams(streams, 5, inner, opt, [3, 2], np.full(1, x0))
        )
    assert message == "run 1 (seed 2): round 1 produced a non-finite sine argument <a, x> + b"


def test_round_losses_rebuilt_from_the_stream_reproduce_recorded_values():
    trace = run_stream(
        _stream(),
        12,
        InnerAdaptConfig(theta=0.05),
        make_config_adagrad(eta=0.2, alpha=0.9, window=4),
        seed=5,
    )
    for t in (1, 7, 12):
        rl = RoundLoss(trace.stream.task(t), trace.theta)
        x = trace.iterates[t - 1]
        assert rl.loss(x) == trace.losses[t - 1]
        assert np.array_equal(rl.grad(x), trace.grads[t - 1])


def test_trace_step_sizes_follow_the_schedule():
    opt = make_config_adam(eta=0.1, beta1=0.9, beta2=0.99, alpha=1.0, window=3)
    trace = run_stream(_stream(), 10, InnerAdaptConfig(theta=0.0), opt, seed=1)
    expected = [step_size_at(opt, t) for t in range(1, 11)]
    assert trace.step_sizes.tolist() == expected


def test_run_stream_records_a_config_snapshot():
    trace = run_stream(
        _stream(),
        6,
        InnerAdaptConfig(theta=0.05),
        make_config_adagrad(eta=0.2, alpha=0.9, window=4),
        seed=5,
    )
    cfg = trace.config
    assert cfg["horizon"] == 6
    assert cfg["smoothing"] == {"alpha": 0.9, "window": 4}
    assert cfg["noise"]["sigma"] == 0.5
    assert cfg["adapt"]["theta"] == 0.05
    assert cfg["optimizer"]["eta"] == 0.2


def test_run_stream_validates_inputs():
    stream = _stream()
    inner = InnerAdaptConfig(theta=0.05)
    opt = make_config_adagrad(eta=0.2)
    with pytest.raises(ConfigError):
        run_stream(stream, 0, inner, opt, seed=1)
    with pytest.raises(DimensionError):
        run_stream(stream, 5, inner, opt, seed=1, x0=np.zeros(2))


def test_run_trace_shape_and_finite_validation():
    T, d = 4, 2
    arrays = dict(
        iterates=np.zeros((T, d)),
        adapted=np.zeros((T, d)),
        losses=np.zeros(T),
        grads=np.zeros((T, d)),
        smoothed_grads=np.zeros((T, d)),
        step_sizes=np.zeros(T),
    )
    trace = RunTrace(seed=0, horizon=T, dim=d, theta=0.0, **arrays)
    with pytest.raises(ConfigError):
        slr_cumulative(trace, 1)  # no stream attached, losses cannot be rebuilt
    bad = dict(arrays, losses=np.zeros(T + 1))
    with pytest.raises(DimensionError):
        RunTrace(seed=0, horizon=T, dim=d, theta=0.0, **bad)
    nan = dict(arrays, grads=np.full((T, d), math.nan))
    with pytest.raises(NumericError):
        RunTrace(seed=0, horizon=T, dim=d, theta=0.0, **nan)


# the stream-long shapes of perfbench/workloads.py, cut to 20 rounds
TRACED_LOOP_SHAPES = {
    "defaults": ("horizon=20",),
    "momentum": (
        "horizon=20",
        "optimizer.preset=adam",
        "smoothing.alpha=0.9",
        "smoothing.window=64",
        "stream.family=piecewise-sine",
        "noise.kind=subgaussian",
    ),
}


@pytest.mark.parametrize("shape", list(TRACED_LOOP_SHAPES))
def test_the_benchmarks_traced_loop_calls_reproduce_run_stream(shape):
    """perfbench/run.py's traced_loop plays a run through these public calls,
    in this order, and compares its six arrays with run_stream's; this test
    keeps `perfbench/run.py --trace 1` working."""
    d = dynreg
    cfg = load_config(None, TRACED_LOOP_SHAPES[shape])
    seed, T = 1, cfg.horizon
    inner, opt = cfg.inner(), cfg.optimizer()
    ref = d.run_stream(cfg.stream(seed), T, inner, opt, seed=seed)

    stream = cfg.stream(seed)
    state = d.make_meta_state(np.zeros(stream.dim), opt)
    out = {name: [] for name in ("iterates", "adapted", "losses", "grads", "smoothed_grads", "step_sizes")}
    for t in range(1, T + 1):
        rng = d.spawn_rng_stream(seed, t)
        task = stream.task(t)
        x = state.x
        xhat = d.inner_adapt(x, task, inner, rng)
        rl = d.RoundLoss(task, inner.theta)
        loss_val, grad_val = rl.value_and_grad(x)
        assert np.isfinite(loss_val) and np.all(np.isfinite(grad_val))
        state.window.push(x, rl, grad=grad_val)
        gtilde = d.smoothed_stochastic_gradient(state.window, task.noise, rng)
        eta_t = d.step_size_at(opt, state.optimizer.t)
        x_new, opt_state = d.dts_ag_step(state.optimizer, opt, x, gtilde)
        for name, value in zip(out, (x, xhat, loss_val, grad_val, gtilde, eta_t)):
            out[name].append(value)
        state.x = x_new
        state.optimizer = opt_state
    assert issubclass(d.NumericError, ArithmeticError)  # traced_loop raises it by name
    for name, rows in out.items():
        assert np.array_equal(np.array(rows), getattr(ref, name)), name


@pytest.mark.parametrize("alpha", [1.0, 0.9])
def test_a_wide_window_costs_memory_for_the_rounds_played_only(alpha):
    # the window's ring grows with min(t, w): at w = 10^6 a (2w, d) ring
    # would take 160 MB for a run of 10 rounds
    inner = InnerAdaptConfig(theta=0.05)
    opt = make_config_adagrad(eta=0.1, alpha=alpha, window=10**6)

    def stream():
        return make_drifting_sine_stream(
            dim=10, drift_rate=0.05, noise=NoiseModel(GAUSSIAN, sigma=0.5), seed=0
        )

    run_stream(stream(), 10, inner, opt, seed=0)  # first-use imports and caches
    tracemalloc.start()
    try:
        run_stream(stream(), 10, inner, opt, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_a_large_batch_draws_its_noise_in_blocks_of_a_few_rounds():
    # the shape of the lemma Monte Carlo exceedance check: its five (T, R, d)
    # trace arrays take 1.6 MB and its peak is about 2.7 MB; noise drawn for
    # all 16 rounds of the 500 runs at once would add 0.6 MB
    inner = InnerAdaptConfig(theta=0.05)
    opt = make_config_adagrad(eta=0.1, alpha=0.9, window=4)
    stream = make_drifting_sine_stream(
        dim=5, drift_rate=0.05, noise=NoiseModel(SUBGAUSSIAN, sigma=0.9), seed=0
    )
    run_streams([stream] * 500, 16, inner, opt, range(500))  # first-use imports and caches
    tracemalloc.start()
    try:
        run_streams([stream] * 500, 16, inner, opt, range(500))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3_000_000


def test_the_window_noise_of_a_partial_window_has_its_variance():
    # before the window fills, round t's smoothed gradient carries one noise
    # row scaled by sqrt(q_t), q_t = sum_{r<t} alpha^(2r): the residual
    # against the exact weighted window mean has mean square
    # c^2 d q_t / W^2 = sigma^2 q_t / W^2. 2000 runs of d = 40 give 80 000
    # normals per round, a relative standard error of 0.5 %
    runs, d, w, alpha, sigma = 2000, 40, 8, 0.9, 0.5
    stream = make_drifting_sine_stream(
        dim=d, drift_rate=0.05, noise=NoiseModel(GAUSSIAN, sigma=sigma), seed=0
    )
    opt = make_config_adagrad(eta=0.1, alpha=alpha, window=w)
    traces = run_streams([stream] * runs, w - 1, InnerAdaptConfig(theta=0.05), opt, range(runs))
    grads = np.stack([tr.grads for tr in traces])
    smoothed = np.stack([tr.smoothed_grads for tr in traces])
    W = weight_sum_W(alpha, w)
    for t in range(1, w):
        exact = sum(alpha**r * grads[:, t - 1 - r] for r in range(t)) / W
        res = smoothed[:, t - 1] - exact
        expected = sigma**2 * math.fsum(alpha ** (2 * r) for r in range(t)) / W**2
        ratio = float(np.einsum("rd,rd->r", res, res).mean()) / expected
        assert abs(ratio - 1.0) <= 0.03, (t, ratio)
