"""Loss closed forms, drift processes, curvature constants, gradient noise."""

import math

import numpy as np
import pytest

from dynreg import (
    EXACT,
    GAUSSIAN,
    SUBGAUSSIAN,
    ConfigError,
    NoiseModel,
    NumericError,
    loss_constants,
    make_drifting_sine_stream,
    make_piecewise_drift_stream,
    RoundLoss,
    make_sine_task,
    spawn_rng_stream,
    sub_gaussian_scale,
)
from dynreg import tasks
from conftest import finite_difference_gradient


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
    out = n.draw(spawn_rng_stream(0, 1), 3)
    assert out.shape == (3,)
    assert not out.any()


def test_noise_model_total_second_moment():
    noise = NoiseModel(GAUSSIAN, sigma=0.5)
    assert noise.coord_std(4) == 0.25
    draws = noise.coord_std(4) * spawn_rng_stream(0, 9).standard_normal((200_000, 4))
    assert draws.shape == (200_000, 4)
    est = float((draws**2).sum(axis=1).mean())
    assert est == pytest.approx(0.25, rel=0.02)


def test_noise_model_draws_are_centred():
    noise = NoiseModel(GAUSSIAN, sigma=0.8)
    n = 50_000
    draws = noise.coord_std(3) * spawn_rng_stream(0, 2).standard_normal((n, 3))
    assert float(np.linalg.norm(draws.mean(axis=0))) <= 5.0 * 0.8 / math.sqrt(n)


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


@pytest.mark.parametrize("d", [1, 4, 5, 10, 40])
def test_sine_round_rows_equal_the_scalar_oracles(d):
    rng = spawn_rng_stream(d, 7)
    n = 300
    A = rng.standard_normal((n, d)) * rng.uniform(0.1, 3.0, size=(n, 1))
    X = rng.uniform(-4.0, 4.0, size=(n, d))
    B = rng.uniform(0.0, 2.0 * math.pi, size=n)
    D, theta = 1.3, 0.07
    s, g_in, u, loss, grad = tasks.sine_round_rows(A, B, X, D, theta)
    assert s.shape == loss.shape == (n, 1)
    s, loss = s[:, 0], loss[:, 0]
    for i in range(n):
        task = make_sine_task(1, D, A[i], B[i], NoiseModel(EXACT))
        rl = RoundLoss(task, theta)
        val, g = rl.value_and_grad(X[i])
        assert s[i] == tasks.sine_argument(A[i], X[i], float(B[i]), 1)
        assert np.array_equal(g_in[i], task.grad(X[i]))
        assert np.array_equal(u[i], rl.adapted(X[i]))
        assert loss[i] == rl.loss(X[i]) == val
        assert np.array_equal(grad[i], g)


@pytest.mark.parametrize("d", [1, 4, 10])
def test_one_row_of_sine_round_rows_equals_the_scalar_oracles(d):
    # R = 1 runs the scalar chain on floats; written into caller-owned rows
    # whose stale contents must not leak into the results
    rng = spawn_rng_stream(d, 8)
    D, theta = 1.3, 0.07
    g_in, u, grad = (np.full((1, d), np.nan) for _ in range(3))
    loss, scratch = np.full((1, 1), np.nan), np.full((4, 1, d), np.nan)
    for _ in range(200):
        a = rng.standard_normal(d) * rng.uniform(0.1, 3.0)
        x = rng.uniform(-4.0, 4.0, size=d)
        b = float(rng.uniform(0.0, 2.0 * math.pi))
        task = make_sine_task(1, D, a, b, NoiseModel(EXACT))
        rl = RoundLoss(task, theta)
        val, g = rl.value_and_grad(x)
        s, *rows, value, _ = tasks.sine_round_rows(a[None], np.array([b]), x[None], D, theta)
        assert s == tasks.sine_argument(a, x, b, 1)
        assert value == val
        out = tasks.sine_round_rows(
            a[None], np.array([b]), x[None], D, theta,
            g_in=g_in, u=u, loss=loss, grad=grad, scratch=scratch,
        )
        assert all(got is want for got, want in zip(out[1:], (g_in, u, loss, grad)))
        for row in (g_in, rows[0]):
            assert np.array_equal(row[0], task.grad(x))
        for row in (u, rows[1]):
            assert np.array_equal(row[0], rl.adapted(x))
        assert loss[0, 0] == val
        assert np.array_equal(grad[0], g)


@pytest.mark.parametrize("x, theta", [(1e308, 0.05), (0.0, 6e307)])
def test_a_non_finite_sine_argument_leaves_nan_in_one_row(x, theta):
    # ||a|| = 2: <a, x> + b overflows at x, or at U(x) while x is finite;
    # math.cos(inf) raises ValueError, so the scalar chain must not reach it
    a, b = np.array([2.0]), np.array([0.3])
    with np.errstate(over="ignore", invalid="ignore"):
        s, g_in, u, loss, grad = tasks.sine_round_rows(a[None], b, np.array([[x]]), 1.0, theta)
    assert math.isnan(loss) and np.isnan(grad).all()
    assert math.isinf(s) == (x != 0.0)


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
    "piecewise-one-round": lambda: make_piecewise_drift_stream(
        dim=4, segment_length=1, jump_scale=0.1, seed=9
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


def test_fresh_stream_generates_only_the_rows_read(monkeypatch):
    # a 16-round read draws the start direction and 15 steps, and generates
    # no rows beyond the 16 it returns
    draws = []

    class Recorder:
        def __init__(self, gen):
            self.gen = gen

        def standard_normal(self, shape):
            draws.append(shape)
            return self.gen.standard_normal(shape)

        def uniform(self, lo, hi):
            return self.gen.uniform(lo, hi)

    spawn = tasks.spawn_rng_stream
    monkeypatch.setattr(tasks, "spawn_rng_stream", lambda *key: Recorder(spawn(*key)))
    stream = make_drifting_sine_stream(dim=5, drift_rate=0.05, seed=0)
    A, B = stream.params_upto(16)
    assert draws == [5, (15, 6)]
    assert A.shape == (16, 5)
    assert stream._B.size == 16


@pytest.mark.parametrize("dim", [1, 4, 10, 40])
def test_drifting_stream_is_the_one_round_piecewise_stream(dim):
    for seed in (0, 3, 11):
        for rate in (0.0, 0.05, 0.7):
            drifting = make_drifting_sine_stream(dim=dim, drift_rate=rate, seed=seed)
            piecewise = make_piecewise_drift_stream(
                dim=dim, segment_length=1, jump_scale=rate, seed=seed
            )
            A, B = drifting.params_upto(300)
            A_pw, B_pw = piecewise.params_upto(300)
            assert np.array_equal(A, A_pw)
            assert np.array_equal(B, B_pw)


@pytest.mark.parametrize("seed", [2.7, True, -1, 1 << 64])
def test_stream_seed_is_checked_at_construction(seed):
    with pytest.raises(ConfigError, match="seed"):
        make_drifting_sine_stream(dim=3, seed=seed)
    with pytest.raises(ConfigError, match="seed"):
        make_piecewise_drift_stream(dim=3, segment_length=4, jump_scale=0.1, seed=seed)


def test_stream_refuses_an_unknown_family_and_a_long_drifting_segment():
    with pytest.raises(ConfigError, match="^family must be .*, got 'sine'$"):
        tasks.SineStream("sine", 2, 1, 0.1, 1.0, 1.0, None, 0)
    with pytest.raises(ConfigError, match="^segment_length must be 1 for drifting-sine, got 2$"):
        tasks.SineStream(tasks.DRIFTING, 2, 2, 0.1, 1.0, 1.0, None, 0)


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
