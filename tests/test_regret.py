"""Regret ledgers, variance proxies, guarantee calculators, and log fits."""

import math
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
    RunTrace,
    TaskRound,
    bound_expectation,
    bound_highprob,
    dlr_cumulative,
    effective_constants,
    exact_smoothed_gradient,
    logarithmic_fit,
    loss_constants,
    make_config_adagrad,
    make_config_adam,
    run_stream,
    slr_cumulative,
    spawn_rng_stream,
    sub_gaussian_scale,
    variance_proxy,
    weight_sum_W,
)


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


def test_weighted_window_norms_tiny_case():
    trace = _trace_from_grads([[1.0, 0.0], [0.0, 2.0]])
    out = dlr_cumulative(trace, 2, 0.5).per_round
    # round 1: [1, 0] / 1.5; round 2: [0.5, 2] / 1.5
    assert out.tolist() == [
        (1.0 / 1.5) ** 2,
        (0.5 / 1.5) ** 2 + (2.0 / 1.5) ** 2,
    ]


def test_dlr_per_round_is_the_norm_of_the_exact_smoothed_gradient(gaussian_trace):
    ledger = dlr_cumulative(gaussian_trace, 4, 0.9)
    for t in (1, 3, 11, 40):
        g = exact_smoothed_gradient(gaussian_trace, t, 4, 0.9)
        assert ledger.per_round[t - 1] == pytest.approx(float(g @ g), rel=1e-12)


def test_slr_matches_a_handle_oracle(gaussian_trace):
    trace = gaussian_trace
    w = 4
    ledger = slr_cumulative(trace, w)
    assert ledger.kind == "static"
    assert ledger.weight_sum == float(w)
    assert ledger.alpha is None
    for t in (1, 2, 3, 17, 40):
        occ = min(t, w)
        x = trace.iterates[t - 1]
        acc = np.zeros(trace.dim)
        for r in range(occ):
            acc += trace.round_loss(t - r).grad(x)
        g = acc / w
        assert ledger.per_round[t - 1] == pytest.approx(float(g @ g), rel=1e-9, abs=1e-12)


def test_slr_requires_rebuildable_losses():
    trace = _trace_from_grads([[1.0], [2.0]])
    with pytest.raises(ConfigError):
        slr_cumulative(trace, 2)


def _quad_task(index, center):
    c = np.asarray(center, dtype=np.float64)

    def loss(x):
        d = x - c
        return 0.5 * float(d @ d)

    def grad(x):
        return x - c

    def hess_vec(x, v):
        return np.asarray(v, dtype=np.float64)

    return TaskRound(
        index=index, dim=c.size, noise=NoiseModel(EXACT),
        loss=loss, grad=grad, hess_vec=hess_vec,
    )


class _QuadStream:
    """Two-coordinate quadratic stream exercising the generic run paths."""

    dim = 2

    def task(self, t):
        return _quad_task(t, [float(t), -float(t)])


def test_generic_stream_uses_portable_path_and_static_ledger():
    stream = _QuadStream()
    opt = make_config_adagrad(eta=0.1, alpha=1.0, window=2)
    trace = run_stream(stream, 4, InnerAdaptConfig(theta=0.0), opt, seed=0)
    ledger = slr_cumulative(trace, 2)
    for t in (1, 4):
        occ = min(t, 2)
        x = trace.iterates[t - 1]
        acc = np.zeros(2)
        for r in range(occ):
            acc = acc + (x - np.array([float(t - r), -float(t - r)]))
        g = acc / 2.0
        assert ledger.per_round[t - 1] == pytest.approx(float(g @ g), rel=1e-12, abs=1e-15)


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


def test_logarithmic_fit_recovers_a_log_curve():
    horizons = np.array([100, 200, 400, 800, 1600])
    values = 5.0 * np.log(horizons) + 2.0
    fit = logarithmic_fit(horizons, values)
    assert fit.slope == pytest.approx(5.0, rel=1e-9)
    assert fit.intercept == pytest.approx(2.0, rel=1e-9)
    assert fit.residual_norm < 1e-9
    assert not fit.non_logarithmic


def test_logarithmic_fit_flags_linear_growth():
    horizons = np.array([100, 200, 400, 800])
    fit = logarithmic_fit(horizons, horizons.astype(float))
    assert fit.non_logarithmic
    assert fit.tail_variation > 0.10
    assert all(b > a for a, b in zip(fit.ratios, fit.ratios[1:]))


def test_logarithmic_fit_validation():
    with pytest.raises(ConfigError):
        logarithmic_fit([10, 20], [1.0, 2.0])
    with pytest.raises(ConfigError):
        logarithmic_fit([10, 20, 15], [1.0, 2.0, 3.0])
    with pytest.raises(ConfigError):
        logarithmic_fit([1, 2, 3], [1.0, 2.0, 3.0])
    with pytest.raises(ConfigError):
        logarithmic_fit([10, 20, 40], [1.0, math.nan, 3.0])
