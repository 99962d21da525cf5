"""Window weighting, smoothed gradient queries, step schedules, the update."""

import math
from math import fsum

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynreg import (
    EXACT,
    GAUSSIAN,
    ConfigError,
    DimensionError,
    NoiseModel,
    NumericError,
    OptimizerState,
    SmoothingWindow,
    alpha_weights,
    dts_ag_step,
    make_config_adagrad,
    make_config_adam,
    make_state,
    smoothed_stochastic_gradient,
    spawn_rng_stream,
    step_size_at,
    weight_sum_W,
)
from dynreg.optimizer import _weighted_row_sum
from dynreg.regret import _sq_weight_sum


class _FixedGrad:
    """Loss handle whose gradient is a constant vector."""

    def __init__(self, g):
        self._g = np.asarray(g, dtype=np.float64)

    def grad(self, x):
        return self._g.copy()


def test_weight_sum_exact_small_cases():
    assert weight_sum_W(0.5, 3) == 1.75
    assert weight_sum_W(1.0, 7) == 7.0
    assert weight_sum_W(0.25, 1) == 1.0


def test_weight_sum_matches_direct_sum():
    direct = fsum(0.9**r for r in range(10))
    assert weight_sum_W(0.9, 10) == pytest.approx(direct, rel=1e-13)


EPS = np.finfo(np.float64).eps
# float64 relative tolerance fixed before measuring: 4 ulps (the worst seen is 2)
GEOM_RTOL = 4 * EPS
GEOM_ALPHAS = (1e-300, 0.25, 0.5, 0.9, 0.99, 1 - 1e-6, 1 - 1e-10, 1 - 1e-12, 1 - 2**-52, 1.0)


def _rel_err(value, reference):
    return abs(value / reference - 1.0)


@pytest.mark.parametrize("window", [1, 2, 16, 64, 1000])
@pytest.mark.parametrize("alpha", GEOM_ALPHAS)
def test_weight_sums_keep_full_precision_as_alpha_tends_to_one(alpha, window):
    W = fsum(alpha**r for r in range(window))
    W2 = fsum(alpha ** (2 * r) for r in range(window))
    assert _rel_err(weight_sum_W(alpha, window), W) <= GEOM_RTOL
    assert _rel_err(_sq_weight_sum(alpha, window), W2) <= GEOM_RTOL


@given(
    st.one_of(
        st.floats(min_value=1e-300, max_value=1.0),
        st.floats(min_value=-16.0, max_value=-1.0).map(lambda e: 1.0 - 10.0**e),
    ),
    st.integers(min_value=1, max_value=1000),
)
@settings(max_examples=80, deadline=None)
def test_weight_sums_match_fsum_over_the_alpha_range(alpha, window):
    assert _rel_err(weight_sum_W(alpha, window), fsum(alpha**r for r in range(window))) <= (
        GEOM_RTOL
    )
    W2 = fsum(alpha ** (2 * r) for r in range(window))
    assert _rel_err(_sq_weight_sum(alpha, window), W2) <= GEOM_RTOL


@pytest.mark.parametrize("weights_of", [weight_sum_W, alpha_weights])
def test_weight_sum_validates(weights_of):
    with pytest.raises(ConfigError, match="alpha must be in"):
        weights_of(0.0, 4)
    with pytest.raises(ConfigError, match="alpha must be in"):
        weights_of(1.5, 4)
    with pytest.raises(ConfigError, match="window must be an integer"):
        weights_of(0.9, 0)
    # a fractional window is refused, not rounded up to 3 weights
    with pytest.raises(ConfigError, match="window must be an integer"):
        weights_of(0.9, 2.5)


def test_alpha_weights_values():
    assert alpha_weights(0.5, 3).tolist() == [1.0, 0.5, 0.25]
    assert alpha_weights(1.0, 4).tolist() == [1.0, 1.0, 1.0, 1.0]


@given(
    st.floats(min_value=0.01, max_value=0.9999),
    st.integers(min_value=1, max_value=64),
)
@settings(max_examples=60, deadline=None)
def test_weight_sum_consistent_with_weights(alpha, window):
    assert weight_sum_W(alpha, window) == pytest.approx(
        float(alpha_weights(alpha, window).sum()), rel=1e-10
    )


def test_optimizer_config_validation():
    with pytest.raises(ConfigError):
        make_config_adagrad(eta=0.0)
    with pytest.raises(ConfigError):
        make_config_adagrad(eta=0.1, epsilon=0.0)
    with pytest.raises(ConfigError):
        make_config_adagrad(eta=0.1, window=0)
    with pytest.raises(ConfigError):
        make_config_adagrad(eta=0.1, alpha=0.0)
    with pytest.raises(ConfigError):
        make_config_adagrad(eta=0.1, alpha=1.2)
    with pytest.raises(ConfigError):
        make_config_adam(eta=0.1, beta1=0.9, beta2=0.5)
    with pytest.raises(ConfigError):
        make_config_adam(eta=0.1, beta1=0.0, beta2=0.9)  # schedule needs beta1 > 0
    with pytest.raises(ConfigError):
        make_config_adam(eta=0.1, beta1=0.5, beta2=1.0)  # and beta2 < 1


def test_presets_fix_moment_coefficients():
    ada = make_config_adagrad(eta=0.3, alpha=0.8, window=5)
    assert (ada.beta1, ada.beta2, ada.schedule) == (0.0, 1.0, "constant")
    adam = make_config_adam(eta=0.2)
    assert (adam.beta1, adam.beta2, adam.schedule) == (0.9, 0.999, "adam")


def test_make_state_fresh():
    s = make_state(3)
    assert s.t == 1
    assert not s.m.any()
    assert not s.v.any()
    with pytest.raises(ConfigError):
        make_state(0)


def test_optimizer_state_validation():
    with pytest.raises(DimensionError):
        OptimizerState(m=np.zeros(2), v=np.zeros(3), t=1)
    with pytest.raises(ConfigError):
        OptimizerState(m=np.zeros(2), v=np.zeros(2), t=0)
    with pytest.raises(ConfigError):
        OptimizerState(m=np.zeros(2), v=-np.ones(2), t=1)


def test_window_keeps_newest_first_and_evicts():
    win = SmoothingWindow(0.5, 2)
    for val in (1.0, 2.0, 3.0):
        win.push(np.array([val]), _FixedGrad([val]))
    assert win.occupied == 2
    assert win.gradient_matrix().ravel().tolist() == [3.0, 2.0]
    assert win.weight_sum == 1.5


@pytest.mark.parametrize("w", [1, 2, 5])
def test_window_ring_holds_the_last_w_pushes_newest_first(w):
    rows = spawn_rng_stream(0, 11).standard_normal((3 * w + 2, 3))
    win = SmoothingWindow(0.9, w)
    with pytest.raises(DimensionError):
        win.gradient_matrix()
    for k, row in enumerate(rows, start=1):
        win.push(np.zeros(3), _FixedGrad(row))
        G = win.gradient_matrix()
        assert G.flags.c_contiguous
        assert np.array_equal(G, rows[max(0, k - w) : k][::-1])
    with pytest.raises(DimensionError):
        win.push(np.zeros(2), _FixedGrad([1.0, 2.0]))


def test_window_push_accepts_precomputed_gradient():
    win = SmoothingWindow(1.0, 3)
    win.push(np.array([0.0]), _FixedGrad([1.0]), grad=np.array([9.0]))
    assert win.gradient_matrix().tolist() == [[9.0]]
    with pytest.raises(DimensionError):
        win.push(np.array([0.0]), _FixedGrad([1.0]), grad=np.array([1.0, 2.0]))


def test_smoothed_gradient_hand_value():
    win = SmoothingWindow(0.5, 2)
    win.push(np.array([0.0]), _FixedGrad([1.0]))
    win.push(np.array([0.0]), _FixedGrad([2.0]))
    out = smoothed_stochastic_gradient(win, NoiseModel(EXACT), spawn_rng_stream(0, 1))
    # newest weighted 1, previous weighted 0.5, divided by W = 1.5
    assert out.tolist() == [2.5 / 1.5]


@pytest.mark.parametrize("occ, dim", [(1, 3), (7, 5), (500, 40)])
def test_alpha_one_row_sum_equals_the_weighted_sum_bit_for_bit(occ, dim):
    # the weights are exactly 1.0, so the plain sum keeps every bit, also over
    # the newest-first reversed view that exact_smoothed_gradient passes
    G = spawn_rng_stream(0, 3).standard_normal((occ, dim)) * np.logspace(-8, 8, occ)[:, None]
    weights = alpha_weights(1.0, occ + 2)
    for rows in (G, G[::-1]):
        expected = (weights[:occ, None] * rows).sum(axis=0)
        assert _weighted_row_sum(1.0, weights[:, None], rows).tobytes() == expected.tobytes()


@pytest.mark.parametrize("noisy", [False, True])
@pytest.mark.parametrize("alpha", [1.0, 0.9])
@pytest.mark.parametrize("dim", [1, 3])
def test_a_batch_window_keeps_each_run_as_its_own_window(dim, alpha, noisy):
    # R runs side by side in (R*dim)-wide rows; numpy sums a lone column
    # pairwise but a block of rows row by row, which the one-coordinate
    # runs must not do. 2w + 9 pushes cover the ring's growth, the re-sums
    # at pushes w and 2w and the in-place move of the ring at push 2w + 2
    runs, w = 4, 64
    rng = spawn_rng_stream(0, 12)
    batch = SmoothingWindow(alpha, w)
    own = [SmoothingWindow(alpha, w) for _ in range(runs)]
    for _ in range(2 * w + 9):
        row = rng.standard_normal(runs * dim) * np.logspace(-8, 8, runs * dim)
        batch.push(np.zeros(runs * dim), _FixedGrad(row))
        for r, win in enumerate(own):
            win.push(np.zeros(dim), _FixedGrad(row[r * dim : (r + 1) * dim]))
        noise = rng.standard_normal(runs * dim) if noisy else None
        out = batch.smoothed(noise)
        for r, win in enumerate(own):
            cols = slice(r * dim, (r + 1) * dim)
            expected = win.smoothed(None if noise is None else noise[cols])
            assert out[cols].tobytes() == expected.tobytes()


@pytest.mark.parametrize("w", [1, 2, 7, 64, 500])
@pytest.mark.parametrize("alpha", [1.0, 0.9, 0.5, 1 - 1e-12])
def test_running_window_sum_stays_within_a_few_eps_of_fsum(alpha, w):
    # entries from 1e-8 to 1e8 in magnitude over five and a half windows. S
    # keeps the rounding of every row it took in since the window it last
    # re-summed, the rows evicted since then among them, so the scale of its
    # error is sum_r alpha^r |g_r| over those rows; the worst seen is 8.7 eps
    d, n = 2, 5 * w + w // 2 + 1
    rng = spawn_rng_stream(1, w)
    G = rng.standard_normal((n, d)) * 10.0 ** rng.uniform(-8.0, 8.0, (n, d))
    weights = alpha_weights(alpha, 2 * w)
    W = weight_sum_W(alpha, w)
    win = SmoothingWindow(alpha, w)
    for k in range(1, n + 1):
        win.push(np.zeros(d), _FixedGrad(G[k - 1]))
        out = win.smoothed()
        occ = win.occupied
        seen = occ + (k % w if k > w else 0)
        lags = G[k - seen : k][::-1]
        for j in range(d):
            exact = fsum((weights[:occ] * lags[:occ, j]).tolist())
            scale = float(weights[:seen] @ np.abs(lags[:, j]))
            assert abs(out[j] - exact / W) <= 16 * EPS * scale / W, (k, j)


@pytest.mark.parametrize("w", [1, 2, 7, 64])
@pytest.mark.parametrize("alpha", [1.0, 0.9, 1 - 1e-12])
def test_running_window_sum_is_the_direct_sum_after_every_wth_push(alpha, w):
    # every w-th push re-sums the window row by row, newest first, as numpy
    # sums a block of rows; criterion 2 compares the window with
    # exact_smoothed_gradient by array_equal at t = w, the first of these
    rng = spawn_rng_stream(2, w)
    G = rng.standard_normal((4 * w + 3, 3)) * np.logspace(-8, 8, 3)
    weights = alpha_weights(alpha, w)
    win = SmoothingWindow(alpha, w)
    for k, row in enumerate(G, start=1):
        win.push(np.zeros(3), _FixedGrad(row))
        if k % w == 0:
            direct = (weights[:, None] * G[k - w : k][::-1]).sum(axis=0)
            assert win.smoothed().tobytes() == (direct / weight_sum_W(alpha, w)).tobytes()


def test_smoothed_gradient_short_history_damped():
    win = SmoothingWindow(1.0, 4)
    win.push(np.array([0.0]), _FixedGrad([2.0]))
    out = smoothed_stochastic_gradient(win, NoiseModel(EXACT), spawn_rng_stream(0, 1))
    assert out.tolist() == [0.5]  # divided by W = 4, not by the single occupant


def test_smoothed_gradient_empty_window_rejected():
    with pytest.raises(DimensionError):
        smoothed_stochastic_gradient(
            SmoothingWindow(1.0, 2), NoiseModel(EXACT), spawn_rng_stream(0, 1)
        )


def test_smoothed_noise_is_one_row_of_the_window_width():
    win = SmoothingWindow(1.0, 4)
    win.push(np.zeros(2), _FixedGrad([1.0, 2.0]))
    with pytest.raises(DimensionError, match=r"window's length 2, got shape \(3,\)"):
        win.smoothed(np.zeros(3))
    # so is a (1, d) block, which has the width but not the shape of a row
    with pytest.raises(DimensionError, match=r"window's length 2, got shape \(1, 2\)"):
        win.smoothed(np.zeros((1, 2)))


@pytest.mark.parametrize("w", [2, 16, 64])
@pytest.mark.parametrize("alpha", [1.0, 0.9, 0.5, 1 - 1e-12])
def test_window_noise_scale_is_the_root_of_the_squared_weight_sum(alpha, w):
    # smoothed adds sqrt(q) * noise, q = sum_{r<occ} alpha^(2r), at one, all
    # but one and all w slots occupied, and once more after an eviction
    win = SmoothingWindow(alpha, w)
    W = weight_sum_W(alpha, w)
    for pushes in range(1, w + 2):
        win.push(np.zeros(1), _FixedGrad([0.0]))
        occ = min(pushes, w)
        if occ not in (1, w - 1, w):
            continue
        # a zero gradient and a unit noise row read sqrt(q) / W back
        out = float(win.smoothed(np.ones(1))[0])
        scale = float(win._noise_scale)
        assert out == scale / W
        assert _rel_err(scale, math.sqrt(fsum(alpha ** (2 * r) for r in range(occ)))) <= GEOM_RTOL
        if alpha == 1.0:
            assert scale == math.sqrt(occ)


def test_smoothed_gradient_noise_is_reproducible():
    noise = NoiseModel(GAUSSIAN, sigma=0.5)
    win = SmoothingWindow(0.9, 3)
    for val in (1.0, -1.0, 0.5):
        win.push(np.array([val, val]), _FixedGrad([val, -val]))
    a = smoothed_stochastic_gradient(win, noise, spawn_rng_stream(3, 8))
    b = smoothed_stochastic_gradient(win, noise, spawn_rng_stream(3, 8))
    assert np.array_equal(a, b)
    c = smoothed_stochastic_gradient(win, noise, spawn_rng_stream(3, 9))
    assert not np.array_equal(a, c)


def test_step_size_constant_schedule():
    cfg = make_config_adagrad(eta=0.25)
    assert step_size_at(cfg, 0) == 0.25
    assert step_size_at(cfg, 1234) == 0.25


def test_step_size_increasing_schedule_matches_formula():
    cfg = make_config_adam(eta=0.3, beta1=0.9, beta2=0.999)
    assert step_size_at(cfg, 0) == 0.3 * (1.0 - 0.9)
    for t in (1, 5, 99):
        expected = 0.3 * (1.0 - 0.9) * math.sqrt((1.0 - 0.999 ** (t + 1)) / (1.0 - 0.999))
        assert step_size_at(cfg, t) == pytest.approx(expected, rel=1e-15)


def test_step_size_monotone_nondecreasing():
    cfg = make_config_adam(eta=0.3, beta1=0.5, beta2=0.99)
    steps = [step_size_at(cfg, t) for t in range(200)]
    assert all(b >= a for a, b in zip(steps, steps[1:]))


def test_step_size_validates_round_index():
    with pytest.raises(ConfigError):
        step_size_at(make_config_adagrad(eta=0.1), -1)


def test_dts_ag_step_hand_value():
    cfg = make_config_adagrad(eta=0.1, epsilon=7.0)
    state = make_state(1)
    x_new, nxt = dts_ag_step(state, cfg, np.array([1.0]), np.array([3.0]))
    assert nxt.m.tolist() == [3.0]
    assert nxt.v.tolist() == [9.0]
    assert nxt.t == 2
    assert x_new.tolist() == [1.0 - (0.1 * 3.0) / 4.0]  # sqrt(7 + 9) = 4


def test_dts_ag_step_momentum_accumulates():
    cfg = make_config_adam(eta=0.1, beta1=0.5, beta2=0.8, epsilon=1e-8)
    state = make_state(1)
    _, s1 = dts_ag_step(state, cfg, np.zeros(1), np.array([1.0]))
    _, s2 = dts_ag_step(s1, cfg, np.zeros(1), np.array([2.0]))
    assert s2.m.tolist() == [0.5 * 1.0 + 2.0]
    assert s2.v.tolist() == [0.8 * 1.0 + 2.0 * 2.0]
    assert s2.t == 3


def test_dts_ag_step_shape_mismatch():
    cfg = make_config_adagrad(eta=0.1)
    with pytest.raises(DimensionError):
        dts_ag_step(make_state(2), cfg, np.zeros(2), np.zeros(3))
    with pytest.raises(DimensionError):
        dts_ag_step(make_state(2), cfg, np.zeros(3), np.zeros(3))


def test_dts_ag_step_flags_overflow():
    cfg = make_config_adam(eta=0.1, beta1=0.9, beta2=0.999)
    state = OptimizerState(m=np.array([1.7e308]), v=np.array([0.0]), t=1)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericError, match="coordinate 0"):
            dts_ag_step(state, cfg, np.array([0.0]), np.array([1.7e308]))


@given(st.lists(st.floats(min_value=-100, max_value=100), min_size=1, max_size=30))
@settings(max_examples=60, deadline=None)
def test_accumulating_second_moment_is_monotone(grads):
    cfg = make_config_adagrad(eta=0.1)
    state = make_state(1)
    x = np.zeros(1)
    prev = state.v.copy()
    for g in grads:
        x, state = dts_ag_step(state, cfg, x, np.array([g]))
        assert state.v[0] >= prev[0]
        prev = state.v.copy()


@given(
    st.lists(
        st.lists(st.floats(min_value=-10, max_value=10), min_size=2, max_size=2),
        min_size=1,
        max_size=6,
    ),
    st.floats(min_value=0.1, max_value=1.0),
)
@settings(max_examples=60, deadline=None)
def test_exact_smoothed_gradient_is_an_average(rows, alpha):
    win = SmoothingWindow(alpha, 4)
    for row in rows:
        win.push(np.zeros(2), _FixedGrad(row))
    out = smoothed_stochastic_gradient(win, NoiseModel(EXACT), spawn_rng_stream(0, 1))
    top = max(float(np.linalg.norm(np.asarray(r))) for r in rows)
    assert float(np.linalg.norm(out)) <= top + 1e-12
