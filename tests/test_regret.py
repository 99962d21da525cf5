"""Regret ledgers, variance proxies, and guarantee calculators."""

import math
import tracemalloc
from math import fsum

import numpy as np
import pytest

from dynreg import (
    ADAGRAD,
    ADAM,
    EXACT,
    GAUSSIAN,
    SUBGAUSSIAN,
    THEOREMS,
    ConfigError,
    InnerAdaptConfig,
    NoiseModel,
    NumericError,
    RoundLoss,
    RunTrace,
    bound_expectation,
    bound_highprob,
    dlr_cumulative,
    effective_constants,
    exact_smoothed_gradient,
    loss_constants,
    make_config_adagrad,
    make_config_adam,
    make_drifting_sine_stream,
    run_stream,
    run_streams,
    slr_cumulative,
    spawn_rng_stream,
    sub_gaussian_scale,
    variance_proxy,
    weight_sum_W,
)
from dynreg import regret
from dynreg.optimizer import _window_means


def _trace_from_grads(grads):
    """Minimal trace carrying only the gradient rows (other fields zeroed)."""
    G = np.asarray(grads, dtype=np.float64)
    T, d = G.shape
    return RunTrace(
        seed=0,
        horizon=T,
        dim=d,
        theta=0.0,
        iterates=np.zeros((T, d)),
        adapted=np.zeros((T, d)),
        losses=np.zeros(T),
        grads=G,
        smoothed_grads=np.zeros((T, d)),
        step_sizes=np.zeros(T),
    )


def _dlr_brute(G, w, alpha):
    T, d = G.shape
    W = fsum(alpha**r for r in range(w))
    out = []
    for t in range(1, T + 1):
        occ = min(t, w)
        avg = [
            fsum(alpha**r * G[t - 1 - r, k] for r in range(occ)) / W for k in range(d)
        ]
        out.append(fsum(v * v for v in avg))
    return out


def test_exact_smoothed_gradient_hand_values():
    trace = _trace_from_grads([[1.0, 0.0], [0.0, 1.0], [2.0, 2.0]])
    first = exact_smoothed_gradient(trace, 1, 2, 0.5)
    assert first.tolist() == [1.0 / 1.5, 0.0]
    third = exact_smoothed_gradient(trace, 3, 2, 0.5)
    assert third.tolist() == [2.0 / 1.5, 2.5 / 1.5]
    with pytest.raises(ConfigError):
        exact_smoothed_gradient(trace, 0, 2, 0.5)
    with pytest.raises(ConfigError):
        exact_smoothed_gradient(trace, 4, 2, 0.5)
    with pytest.raises(ConfigError):
        exact_smoothed_gradient(trace, 1, 2, 1.5)


@pytest.mark.parametrize("alpha,w", [(1.0, 1), (1.0, 5), (0.9, 4), (0.5, 7), (0.7, 64)])
def test_dlr_matches_brute_force(alpha, w):
    G = spawn_rng_stream(0, 50).standard_normal((40, 3))
    trace = _trace_from_grads(G)
    ledger = dlr_cumulative(trace, w, alpha)
    brute = _dlr_brute(G, w, alpha)
    assert np.allclose(ledger.per_round, brute, rtol=1e-12, atol=1e-14)
    assert np.allclose(ledger.cumulative, np.cumsum(brute), rtol=1e-12, atol=1e-14)
    assert ledger.total == ledger.cumulative[-1]
    assert ledger.kind == "dynamic"
    assert ledger.window == w
    assert ledger.weight_sum == pytest.approx(weight_sum_W(alpha, w), rel=1e-15)


_WINDOW_ROWS = spawn_rng_stream(0, 51).standard_normal((12, 3))


# a hand-sized pair of rounds, then w = 1, w < T and w > T at both discounts
@pytest.mark.parametrize(
    "G,w,alpha",
    [(np.array([[1.0, 0.0], [0.0, 2.0]]), 2, 0.5)]
    + [(_WINDOW_ROWS, w, alpha) for w in (1, 5, 20) for alpha in (0.9, 1.0)],
)
def test_window_means_are_the_exact_smoothed_gradients(G, w, alpha):
    trace = _trace_from_grads(G)
    S = _window_means(G[None], w, alpha)[0]
    assert S.shape == G.shape
    for t in range(1, len(G) + 1):
        exact = exact_smoothed_gradient(trace, t, w, alpha)
        np.testing.assert_allclose(S[t - 1], exact, rtol=1e-14, atol=0.0)
    per_round = dlr_cumulative(trace, w, alpha).per_round
    assert per_round.tolist() == np.einsum("td,td->t", S, S).tolist()


# horizons inside the first window, at its edge, one round past it, at the
# second re-sum and over several blocks with a partial last one
@pytest.mark.parametrize("w", [1, 2, 3, 4, 7, 16, 64])
def test_window_means_replay_the_learners_smoothed_gradients(w):
    # exact gradients: the run's smoothed gradients are the window's sums
    # over W, which the replay must give bit for bit at every horizon, and a
    # batch column must equal its trace's own replay
    streams = [
        make_drifting_sine_stream(dim=3, drift_rate=0.3, noise=NoiseModel(EXACT), seed=s)
        for s in range(3)
    ]
    horizons = sorted({1, max(1, w - 1), w, w + 1, 2 * w, 5 * w + 2})
    for alpha in (1.0, 0.9, 0.5, 1 - 1e-12):
        opt = make_config_adagrad(eta=0.5, alpha=alpha, window=w)
        traces = run_streams(streams, horizons[-1], InnerAdaptConfig(theta=0.05), opt, range(3))
        G = np.stack([tr.grads for tr in traces])
        smoothed = np.stack([tr.smoothed_grads for tr in traces])
        for T in horizons:
            means = _window_means(G[:, :T], w, alpha)
            assert means.shape == (3, T, 3)
            assert means.tobytes() == smoothed[:, :T].tobytes(), (alpha, T)
            for r in range(3):
                own = _window_means(G[r : r + 1, :T], w, alpha)[0]
                assert own.tobytes() == means[r].tobytes(), (alpha, T, r)


def test_dlr_per_round_is_the_norm_of_the_exact_smoothed_gradient(gaussian_trace):
    ledger = dlr_cumulative(gaussian_trace, 4, 0.9)
    for t in (1, 3, 11, 40):
        g = exact_smoothed_gradient(gaussian_trace, t, 4, 0.9)
        assert ledger.per_round[t - 1] == pytest.approx(float(g @ g), rel=1e-12)


def _sine_trace(horizon, dim=3):
    """gaussian_trace's run, played for the given number of rounds."""
    stream = make_drifting_sine_stream(
        dim=dim, drift_rate=0.05, noise=NoiseModel(GAUSSIAN, sigma=0.5), seed=5
    )
    opt = make_config_adagrad(eta=0.2, alpha=0.9, window=4)
    return run_stream(stream, horizon, InnerAdaptConfig(theta=0.05), opt, seed=5)


_LONG = 200


@pytest.fixture(scope="module")
def long_trace():
    return _sine_trace(_LONG)


# one-slot window, the trace's own window, and a window wider than its 40
# rounds; then a horizon of several row blocks at w = T and at a w whose
# first block edge falls inside the first window
@pytest.mark.parametrize(
    "trace_name,w",
    [("gaussian_trace", 1), ("gaussian_trace", 4), ("gaussian_trace", 64),
     ("long_trace", _LONG), ("long_trace", 150)],
    ids=["1", "4", "64", "long-200", "long-150"],
)
def test_slr_matches_a_handle_oracle(request, trace_name, w):
    trace = request.getfixturevalue(trace_name)
    if trace_name == "long_trace":
        # several row blocks, the first ending inside the first window
        assert regret._BLOCK_PAIRS // w < w
    ledger = slr_cumulative(trace, w)
    assert ledger.kind == "static"
    assert ledger.weight_sum == float(w)
    assert ledger.alpha is None
    losses = [RoundLoss(trace.stream.task(t), trace.theta) for t in range(1, trace.horizon + 1)]
    for t in range(1, trace.horizon + 1):
        occ = min(t, w)
        x = trace.iterates[t - 1]
        acc = np.zeros(trace.dim)
        for r in range(occ):
            acc += losses[t - 1 - r].grad(x)
        g = acc / w
        assert ledger.per_round[t - 1] == pytest.approx(float(g @ g), rel=1e-9, abs=1e-12)


def _slr_lag_by_lag(trace, w):
    """The static ledger's per-round values as one pass per lag, adding lag
    r's gradients into every round's sum at once."""
    A, B = trace.stream.params_upto(trace.horizon)
    X, T = trace.iterates, trace.horizon
    thD = trace.theta * trace.stream.amplitude
    norms = np.einsum("td,td->t", A, A)
    G = np.zeros_like(X)
    for r in range(min(w, T)):
        a, n2 = A[: T - r], norms[: T - r]
        s = np.einsum("td,td->t", a, X[r:]) + B[: T - r]
        s2 = s - thD * np.cos(s) * n2
        coef = trace.stream.amplitude * np.cos(s2) * (1.0 + thD * np.sin(s) * n2)
        G[r:] += coef[:, None] * a
    G /= w
    return np.einsum("td,td->t", G, G)


@pytest.mark.parametrize("w", [1, 4, 16, 150, _LONG, 500])
def test_slr_blocks_keep_the_lag_by_lag_bits(long_trace, w):
    # each round sums its lags in the loop's order, so the bits are the same
    per_round = slr_cumulative(long_trace, w).per_round
    assert per_round.tolist() == _slr_lag_by_lag(long_trace, w).tolist()


# prefixes that end inside a block, on a block edge at w = 150 (109-row
# blocks) and one round later
@pytest.mark.parametrize("k", [1, 37, 109, 110])
def test_a_prefix_run_has_the_first_ledger_values_bit_for_bit(long_trace, k):
    prefix = _sine_trace(k)
    for w in (1, 4, 16, 150, _LONG, 500):
        full = slr_cumulative(long_trace, w).per_round[:k]
        assert slr_cumulative(prefix, w).per_round.tolist() == full.tolist(), w
        full = dlr_cumulative(long_trace, w, 0.9).per_round[:k]
        assert dlr_cumulative(prefix, w, 0.9).per_round.tolist() == full.tolist(), w


def test_ledgers_of_a_window_wider_than_the_horizon_cost_the_horizon():
    trace = _sine_trace(10, dim=2)
    wide = 10**6
    tracemalloc.start()
    try:
        dlr = dlr_cumulative(trace, wide, 0.9)
        slr = slr_cumulative(trace, wide)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a window padded to 10^6 rows takes 16 MB at d = 2
    assert peak < 64 * 1024
    # W stays the full window's sum: the averages are the horizon-wide
    # window's, rescaled
    assert dlr.weight_sum == weight_sum_W(0.9, wide)
    for t in (1, 10):
        g = exact_smoothed_gradient(trace, t, wide, 0.9)
        assert dlr.per_round[t - 1] == pytest.approx(float(g @ g), rel=1e-12)
    assert slr.weight_sum == float(wide)
    np.testing.assert_allclose(
        slr.per_round, slr_cumulative(trace, 10).per_round * (10 / wide) ** 2, rtol=1e-12
    )


def test_slr_requires_rebuildable_losses():
    trace = _trace_from_grads([[1.0], [2.0]])
    with pytest.raises(ConfigError):
        slr_cumulative(trace, 2)


class _QuadStream:
    """A stream with rounds but without the sine family's parameter arrays."""

    dim = 2

    def task(self, t):
        raise AssertionError("run_stream must reject the stream before playing a round")


def test_run_stream_rejects_a_stream_without_sine_parameters():
    opt = make_config_adagrad(eta=0.1, alpha=1.0, window=2)
    with pytest.raises(ConfigError, match="sine-family streams only"):
        run_stream(_QuadStream(), 4, InnerAdaptConfig(theta=0.0), opt, seed=0)


def test_effective_constants_hand_values():
    eff = effective_constants(loss_constants(1.0, 1.0), 0.0)
    assert (eff.L, eff.gamma) == (1.0, 1.0)
    c = loss_constants(2.0, 1.0)  # D = 2, L = 2, gamma = 2, H = 2
    eff = effective_constants(c, 0.5)
    assert eff.L == (1.0 + 0.5 * 2.0) * 2.0
    assert eff.gamma == 0.5 * 2.0 * 2.0 + (1.0 + 0.5 * 2.0) ** 2 * 2.0
    with pytest.raises(ConfigError):
        effective_constants(c, -0.1)


def test_variance_proxy_full_window_closed_form():
    noise = NoiseModel(GAUSSIAN, sigma=0.5)
    vp = variance_proxy(noise, 4, 1.0)
    assert vp.mu == 0.25 / 4.0
    assert vp.zeta == 0.25 / 4.0
    assert vp.weight_sum == 4.0
    assert vp.delta is None
    assert vp.mubar is None


def test_variance_proxy_matches_direct_sums():
    noise = NoiseModel(GAUSSIAN, sigma=0.7)
    for alpha, w in ((0.9, 8), (0.5, 2), (0.99, 32)):
        vp = variance_proxy(noise, w, alpha)
        W = fsum(alpha**r for r in range(w))
        ssum = fsum(alpha ** (2 * r) for r in range(w))
        assert vp.mu == pytest.approx(0.49 * ssum / W**2, rel=1e-12)
        assert vp.zeta == pytest.approx(0.49 / W, rel=1e-12)


def test_variance_proxy_high_probability_parts():
    noise = NoiseModel(SUBGAUSSIAN, sigma=0.5)
    vp = variance_proxy(noise, 4, 0.9, delta=0.2, dim=5)
    kappa = sub_gaussian_scale(0.5, 5)
    assert vp.kappa == pytest.approx(kappa, rel=1e-15)
    log_inv = math.log(1.0 / 0.2)
    assert vp.zeta_highprob == pytest.approx(kappa**2 * (1.0 + log_inv), rel=1e-12)
    ssum = fsum(0.9 ** (2 * r) for r in range(4))
    W = fsum(0.9**r for r in range(4))
    assert vp.mubar == pytest.approx(kappa**2 * (4 * ssum / W**2 + log_inv), rel=1e-12)
    pinned = variance_proxy(NoiseModel(GAUSSIAN, sigma=0.5, kappa=3.0), 2, 1.0, delta=0.1)
    assert pinned.kappa == 3.0


def test_variance_proxy_that_overflows_reports_inf():
    # sigma^2 and kappa^2 raise OverflowError in float pow
    vp = variance_proxy(NoiseModel(SUBGAUSSIAN, sigma=1e200), 4, 0.9, delta=0.2, dim=5)
    assert vp.mu == math.inf
    assert vp.zeta == math.inf
    assert vp.zeta_highprob == math.inf
    assert vp.mubar == math.inf
    assert vp.kappa == pytest.approx(sub_gaussian_scale(1e200, 5), rel=1e-15)
    assert variance_proxy(NoiseModel(GAUSSIAN, sigma=1e200), 4, 1.0).mu == math.inf


def test_variance_proxy_exact_noise_and_delta_range():
    vp = variance_proxy(NoiseModel(EXACT), 4, 1.0, delta=0.2, dim=5)
    assert vp.mu == 0.0
    assert vp.kappa is None
    assert vp.mubar is None
    with pytest.raises(ConfigError):
        variance_proxy(NoiseModel(EXACT), 4, 1.0, delta=1.5)


def _setup(preset="adagrad"):
    noise = NoiseModel(GAUSSIAN, sigma=0.5)
    consts = loss_constants(1.0, 1.0)
    if preset == "adagrad":
        opt = make_config_adagrad(eta=0.1, alpha=1.0, window=16)
    else:
        opt = make_config_adam(eta=0.05, beta1=0.9, beta2=0.999, alpha=0.9, window=8)
    return opt, noise, consts


@pytest.mark.parametrize("kind,preset", [(ADAGRAD, "adagrad"), (ADAM, "adam")])
def test_expectation_reports_have_flat_records(kind, preset):
    opt, noise, consts = _setup(preset)
    rep = bound_expectation(kind, opt, noise, consts, 0.05, 500, 10, 0.1)
    assert rep.theorem == f"{kind}-expectation"
    assert math.isfinite(rep.rhs)
    assert rep.rhs > 0
    rec = rep.to_record()
    for key in ("theorem", "T", "dim", "delta", "eta", "W", "varpi1", "varpi2", "C",
                "rhs", "warnings"):
        assert key in rec
    assert rec["rhs"] == rep.rhs
    assert rec["warnings"] == []


@pytest.mark.parametrize("kind,preset", [(ADAGRAD, "adagrad"), (ADAM, "adam")])
def test_highprob_reports_carry_the_deviation_scale(kind, preset):
    opt, _, consts = _setup(preset)
    sub = NoiseModel(SUBGAUSSIAN, sigma=0.5)
    rep = bound_highprob(kind, opt, sub, consts, 0.05, 500, 10, 0.1)
    assert rep.theorem == f"{kind}-highprob"
    assert rep.rhs > 0
    assert rep.to_record()["kappa"] == pytest.approx(sub_gaussian_scale(0.5, 10), rel=1e-15)


def test_bounds_enforce_a_matching_preset():
    opt_ada, noise, consts = _setup("adagrad")
    opt_adam, _, _ = _setup("adam")
    with pytest.raises(ConfigError):
        bound_expectation(ADAGRAD, opt_adam, noise, consts, 0.05, 100, 4, 0.1)
    with pytest.raises(ConfigError):
        bound_expectation(ADAM, opt_ada, noise, consts, 0.05, 100, 4, 0.1)
    with pytest.raises(ConfigError):
        bound_expectation("rmsprop", opt_ada, noise, consts, 0.05, 100, 4, 0.1)


def test_bounds_validate_scalar_inputs():
    opt, noise, consts = _setup()
    with pytest.raises(ConfigError):
        bound_expectation(ADAGRAD, opt, noise, consts, 0.05, 0, 4, 0.1)
    with pytest.raises(ConfigError):
        bound_expectation(ADAGRAD, opt, noise, consts, 0.05, 100, 0, 0.1)
    with pytest.raises(ConfigError):
        bound_expectation(ADAGRAD, opt, noise, consts, 0.05, 100, 4, 1.0)
    with pytest.raises(ConfigError):
        bound_expectation(ADAGRAD, opt, noise, consts, -0.1, 100, 4, 0.1)


def test_highprob_requires_a_deviation_scale():
    opt, _, consts = _setup()
    with pytest.raises(ConfigError, match="kappa"):
        bound_highprob(ADAGRAD, opt, NoiseModel(EXACT), consts, 0.05, 100, 4, 0.1)


def test_adam_highprob_flags_momentum_underflow():
    opt, _, consts = _setup("adam")
    sub = NoiseModel(SUBGAUSSIAN, sigma=0.5)
    rep = bound_highprob(ADAM, opt, sub, consts, 0.05, 8000, 10, 0.1)
    assert rep.rhs == math.inf
    assert rep.derived["varpi3"] == math.inf
    assert any("underflow" in w for w in rep.warnings)
    short = bound_highprob(ADAM, opt, sub, consts, 0.05, 500, 10, 0.1)
    assert math.isfinite(short.rhs)
    assert short.warnings == ()


@pytest.mark.parametrize("theorem", THEOREMS)
def test_every_theorem_warns_when_its_guarantee_is_not_finite(theorem):
    kind, _, level = theorem.partition("-")
    opt, _, _ = _setup(kind)
    fn = bound_expectation if level == "expectation" else bound_highprob
    sub = NoiseModel(SUBGAUSSIAN, sigma=0.5)
    tame = fn(kind, opt, sub, loss_constants(1.0, 1.0), 0.05, 500, 10, 0.1)
    assert math.isfinite(tame.rhs)
    assert tame.warnings == ()
    huge = fn(kind, opt, sub, loss_constants(1e200, 1.0), 0.05, 500, 10, 0.1)
    assert huge.theorem == theorem
    assert huge.rhs == math.inf
    assert huge.warnings == ("the right-hand side overflowed to infinity",)
    if level == "expectation":
        # exact noise makes zeta = 0, so C = inf meets sqrt(zeta T) = 0
        exact = fn(kind, opt, NoiseModel(EXACT), loss_constants(1e200, 1.0), 0.05, 500, 10, 0.1)
        assert math.isnan(exact.rhs)
        assert exact.warnings == ("the right-hand side is not finite (C=inf, rhs=nan)",)


def test_adam_bound_varsigma_default_and_override():
    opt, noise, consts = _setup("adam")
    default = bound_expectation(ADAM, opt, noise, consts, 0.05, 200, 6, 0.1)
    assert default.inputs["varsigma"] == pytest.approx(math.sqrt(1.0 - opt.beta2), rel=1e-15)
    bigger = bound_expectation(ADAM, opt, noise, consts, 0.05, 200, 6, 0.1, varsigma=1.0)
    assert bigger.inputs["varsigma"] == 1.0
    assert bigger.rhs < default.rhs  # a larger varsigma shrinks the prefactor
    with pytest.raises(ConfigError):
        bound_expectation(ADAM, opt, noise, consts, 0.05, 200, 6, 0.1, varsigma=0.0)


def test_dlr_ledger_that_overflows_is_a_numeric_error():
    trace = _trace_from_grads([[1.0], [1e200], [1.0]])
    with pytest.raises(NumericError, match="dynamic local regret is not finite from round 2 on"):
        dlr_cumulative(trace, 1, 1.0)


def test_slr_ledger_that_overflows_is_a_numeric_error():
    # every gradient is finite (|D cos| <= 1e200); their squared norms are not
    trace = _trace_from_grads(np.zeros((3, 1)))
    trace.stream = make_drifting_sine_stream(dim=1, amplitude=1e200, seed=0)
    with pytest.raises(NumericError, match="static local regret is not finite from round 1 on"):
        slr_cumulative(trace, 2)
