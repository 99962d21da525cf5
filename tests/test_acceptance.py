"""Acceptance gate: eleven end-to-end checks, one test per criterion.

Each test re-derives its expected values from scratch instead of trusting
the library's own bookkeeping, so a pass line certifies the behavior
rather than the implementation agreeing with itself.
"""

import json
import math
import time
from math import fsum

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynreg import (
    ADAGRAD,
    ADAM,
    EXACT,
    GAUSSIAN,
    SUBGAUSSIAN,
    THEOREMS,
    InnerAdaptConfig,
    NoiseModel,
    RoundLoss,
    SmoothingWindow,
    alpha_weights,
    bound_expectation,
    bound_highprob,
    cli,
    dlr_cumulative,
    effective_constants,
    exact_smoothed_gradient,
    loss_constants,
    make_config_adagrad,
    make_config_adam,
    make_drifting_sine_stream,
    run_stream,
    run_streams,
    smoothed_stochastic_gradient,
    spawn_rng_stream,
    step_size_at,
    variance_proxy,
    weight_sum_W,
)
from conftest import finite_difference_gradient


def test_criterion_01_lemma_quick_suite_clean_within_budget(tmp_path, monkeypatch):
    monkeypatch.delenv("DYNREG_OUT", raising=False)
    t0 = time.perf_counter()
    rc = cli.main(["verify-lemmas", "--preset", "quick", "--out", str(tmp_path)])
    elapsed = time.perf_counter() - t0
    assert rc == 0
    artifact = json.loads((tmp_path / "lemmas_quick.json").read_text())
    results = artifact["results"]
    assert [r["lemma_id"] for r in results] == [
        "geom-sqrt-sum",
        "geom-three-halves-sum",
        "sum-ratio",
        "sum-ratio-momentum",
        "quadratic-root",
        "inv-sqrt-geom",
    ]
    assert all(r["passed"] for r in results)
    assert all(r["violation_count"] == 0 for r in results)
    assert elapsed <= 10.0


def test_criterion_02_smoothed_gradient_unbiased_within_five_standard_errors():
    d, w, alpha, sigma, n_reps = 5, 8, 0.9, 0.5, 100_000
    noise = NoiseModel(GAUSSIAN, sigma=sigma)
    stream = make_drifting_sine_stream(dim=d, drift_rate=0.05, noise=noise, seed=0)
    opt = make_config_adagrad(eta=0.1, alpha=alpha, window=w)
    trace = run_stream(stream, w, InnerAdaptConfig(theta=0.05), opt, seed=0)

    window = SmoothingWindow(alpha, w)
    for t in range(1, w + 1):
        rl = RoundLoss(stream.task(t), trace.theta)
        window.push(trace.iterates[t - 1], rl, grad=trace.grads[t - 1])
    exact = exact_smoothed_gradient(trace, w, w, alpha)
    noiseless = smoothed_stochastic_gradient(window, NoiseModel(EXACT), spawn_rng_stream(0, 1))
    assert np.array_equal(noiseless, exact)

    rng = spawn_rng_stream(0, 424_242)
    acc = np.zeros(d)
    for _ in range(n_reps):
        acc += smoothed_stochastic_gradient(window, noise, rng)
    mean_dev = float(np.linalg.norm(acc / n_reps - exact))
    agg_se = math.sqrt(variance_proxy(noise, w, alpha).mu / n_reps)
    assert mean_dev <= 5.0 * agg_se


def test_criterion_03_smoothed_noise_variance_matches_mu_within_three_percent():
    d, sigma, n_reps = 5, 0.5, 100_000
    noise = NoiseModel(GAUSSIAN, sigma=sigma)
    assert variance_proxy(noise, 4, 1.0).mu == sigma**2 / 4.0  # full-window closed form
    for alpha, w in ((1.0, 4), (0.9, 8), (0.5, 2)):
        mu = variance_proxy(noise, w, alpha).mu
        rng = spawn_rng_stream(0, 777_000 + w)
        draws = noise.coord_std(d) * rng.standard_normal((n_reps, w, d))
        devs = np.einsum("nwd,w->nd", draws, alpha_weights(alpha, w)) / weight_sum_W(alpha, w)
        est = float((devs**2).sum(axis=1).mean())
        assert abs(est - mu) <= 0.03 * mu, (alpha, w, est, mu)


def test_criterion_04_accumulating_preset_matches_closed_form_recursion():
    T, d, eta, eps = 100, 6, 0.1, 1e-8
    stream = make_drifting_sine_stream(
        dim=d, drift_rate=0.05, noise=NoiseModel(EXACT), seed=3
    )
    opt = make_config_adagrad(eta=eta, epsilon=eps, alpha=1.0, window=1)
    trace = run_stream(stream, T, InnerAdaptConfig(theta=0.0), opt, seed=3)

    # Independent recursion: with a window of one round, zero momentum, and
    # exact gradients, the update must reduce to the textbook per-coordinate
    # accumulating-second-moment step.
    x = np.zeros(d)
    sq_sum = np.zeros(d)
    for t in range(1, T + 1):
        g = stream.task(t).grad(x)
        assert np.max(np.abs(trace.iterates[t - 1] - x)) <= 1e-12
        assert np.max(np.abs(trace.smoothed_grads[t - 1] - g)) <= 1e-12
        sq_sum = sq_sum + g * g
        x = x - eta * g / np.sqrt(eps + sq_sum)


def test_criterion_05_increasing_schedule_matches_closed_form():
    eta, b1, b2 = 0.3, 0.9, 0.999
    cfg = make_config_adam(eta=eta, beta1=b1, beta2=b2)
    assert step_size_at(cfg, 0) == eta * (1.0 - b1)  # exact at the first round
    for t_plus_1 in (1, 2, 10, 1000):
        expected = eta * (1.0 - b1) * math.sqrt((1.0 - b2**t_plus_1) / (1.0 - b2))
        got = step_size_at(cfg, t_plus_1 - 1)
        assert got == pytest.approx(expected, rel=1e-12, abs=0.0)


def test_criterion_06_composite_constants_dominate_empirical_ratios():
    theta, amplitude, freq_scale, d = 0.1, 1.3, 0.9, 8
    stream = make_drifting_sine_stream(
        dim=d,
        amplitude=amplitude,
        freq_scale=freq_scale,
        drift_rate=0.1,
        noise=NoiseModel(EXACT),
        seed=11,
    )
    eff = effective_constants(loss_constants(amplitude, freq_scale), theta)
    rng = spawn_rng_stream(17, 1)._gen  # the stream's generator, for its integer draws
    n_pairs = 10_000
    rounds = rng.integers(1, 51, size=n_pairs)
    X = rng.uniform(-3.0, 3.0, size=(n_pairs, d))
    Y = rng.uniform(-3.0, 3.0, size=(n_pairs, d))
    handles = {int(t): RoundLoss(stream.task(int(t)), theta) for t in np.unique(rounds)}
    for i in range(n_pairs):
        rl = handles[int(rounds[i])]
        x, y = X[i], Y[i]
        dist = float(np.linalg.norm(x - y))
        assert abs(rl.loss(x) - rl.loss(y)) <= eff.L * dist
        assert float(np.linalg.norm(rl.grad(x) - rl.grad(y))) <= eff.gamma * dist

    checked = 0
    for i in range(n_pairs):
        rl = handles[int(rounds[i])]
        g = rl.grad(X[i])
        norm = float(np.linalg.norm(g))
        if norm < 0.1:
            continue  # relative error needs a well-scaled denominator
        fd = finite_difference_gradient(rl.loss, X[i], h=1e-5)
        assert float(np.linalg.norm(fd - g)) <= 1e-5 * norm
        checked += 1
        if checked == 400:
            break
    assert checked == 400


def test_criterion_07_dynamic_regret_grows_logarithmically_at_half_horizon_window():
    t0 = time.perf_counter()
    horizons = (500, 1000, 2000, 4000)
    n_seeds = 20
    inner = InnerAdaptConfig(theta=0.05)
    ratio = {}
    for T in horizons:
        w = math.ceil(T / 2)
        opt = make_config_adagrad(eta=0.7, alpha=1.0, window=w)
        seeds = range(n_seeds)
        streams = [
            make_drifting_sine_stream(dim=40, drift_rate=0.3, noise=NoiseModel(EXACT), seed=seed)
            for seed in seeds
        ]
        total = 0.0
        for trace in run_streams(streams, T, inner, opt, seeds):
            total += dlr_cumulative(trace, w, 1.0).total
        ratio[T] = (total / n_seeds) / math.log(T)
    drift = abs(ratio[4000] / ratio[2000] - 1.0)
    assert drift <= 0.10, ratio
    assert time.perf_counter() - t0 <= 600.0


def test_criterion_08_expectation_bound_dominates_observed_regret():
    T, d, w, delta = 500, 10, 16, 0.1
    noise = NoiseModel(GAUSSIAN, sigma=0.5)
    inner = InnerAdaptConfig(theta=0.05)
    opt = make_config_adagrad(eta=0.1, alpha=1.0, window=w)
    rhs = bound_expectation(
        ADAGRAD, opt, noise, loss_constants(1.0, 1.0), inner.theta, T, d, delta
    ).rhs
    assert math.isfinite(rhs)
    assert rhs > 0
    seeds = range(100)
    streams = [
        make_drifting_sine_stream(dim=d, drift_rate=0.05, noise=noise, seed=seed)
        for seed in seeds
    ]
    covered = 0
    for trace in run_streams(streams, T, inner, opt, seeds):
        if dlr_cumulative(trace, w, 1.0).total <= rhs:
            covered += 1
    assert covered >= 90


def _second_opinion_adagrad_expectation(p):
    W = fsum(p["alpha"] ** r for r in range(p["w"]))
    expand = 1.0 + p["theta"] * p["gamma"]
    Lp = expand * p["L"]
    gp = p["theta"] * p["L"] * p["H"] + expand * expand * p["gamma"]
    zeta = p["sigma"] ** 2 / W
    varpi1 = 4.0 * p["D"] * p["T"] / (W * p["eta"])
    varpi2 = 0.5 * (p["eta"] * gp + 4.0 * zeta**0.5)
    C = varpi1 + varpi2 * p["dim"] * math.log(
        1.0 + 2.0 * (zeta + Lp * Lp) * p["T"] / (p["dim"] * p["epsilon"])
    )
    rhs = fsum(
        (
            4.0 * C * p["epsilon"] ** 0.5 / p["delta"],
            8.0 * C * (zeta * p["T"]) ** 0.5 / p["delta"] ** 1.5,
            48.0 * C * C / p["delta"] ** 2,
        )
    )
    return rhs, C


def _second_opinion_adagrad_highprob(p):
    W = fsum(p["alpha"] ** r for r in range(p["w"]))
    expand = 1.0 + p["theta"] * p["gamma"]
    Lp = expand * p["L"]
    gp = p["theta"] * p["L"] * p["H"] + expand * expand * p["gamma"]
    kappa_sq = p["kappa"] ** 2
    log_inv = -math.log(p["delta"])
    zeta = kappa_sq * (1.0 + log_inv)
    varpi1 = 4.0 * p["D"] * p["T"] / (W * p["eta"])
    varpi2 = 0.5 * p["eta"] * gp + 2.0 * (zeta / W) ** 0.5
    C = fsum(
        (
            varpi1,
            varpi2
            * p["dim"]
            * math.log(1.0 + 2.0 * (zeta + Lp * Lp) * p["T"] / (p["dim"] * p["epsilon"])),
            3.0 * kappa_sq * log_inv / p["epsilon"] ** 0.5,
        )
    )
    rhs = fsum(
        (
            4.0 * C * p["epsilon"] ** 0.5,
            4.0 * C * (2.0 * p["T"] * zeta / W) ** 0.5,
            48.0 * C * C / W,
        )
    )
    return rhs, C


def _adam_shared_terms(p, zeta_small, zeta_big):
    """Common pieces of the momentum-preset bounds.

    zeta_small enters the additive noise term of varpi2; zeta_big enters the
    logarithmic term. The expectation bound uses the same value for both.
    """
    W = fsum(p["alpha"] ** r for r in range(p["w"]))
    expand = 1.0 + p["theta"] * p["gamma"]
    Lp = expand * p["L"]
    gp = p["theta"] * p["L"] * p["H"] + expand * expand * p["gamma"]
    b1, b2, eta, d, T = p["beta1"], p["beta2"], p["eta"], p["dim"], p["T"]
    q = (b2 - b1) / b2
    one_m_b2 = 1.0 - b2
    varpi1 = fsum(
        (
            4.0 * p["D"] * T / W,
            8.0 * T * eta * (1.0 - b1) * Lp * Lp / (b1 * one_m_b2**0.5 * W * W),
        )
    )
    varpi2 = fsum(
        (
            d * eta**2 * (1.0 - b1) * gp / (2.0 * one_m_b2 * q),
            d * eta**3 * gp * gp * b1 / (q * one_m_b2**1.5),
            2.0 * d * eta * (1.0 + zeta_small**0.5) * (1.0 - b1) ** 0.5
            / (q**1.5 * one_m_b2**0.5),
            2.0 * eta**3 * (1.0 - b1) ** 2 * gp * gp / (b1 * one_m_b2**1.5 * q),
        )
    )
    log_term = d * math.log(
        1.0 + 2.0 * (zeta_big + Lp * Lp) / (d * p["epsilon"] * one_m_b2)
    ) - T * math.log(b2)
    return W, varpi1, varpi2, log_term, one_m_b2


def _second_opinion_adam_expectation(p):
    W = fsum(p["alpha"] ** r for r in range(p["w"]))
    zeta = p["sigma"] ** 2 / W
    _, varpi1, varpi2, log_term, one_m_b2 = _adam_shared_terms(p, zeta, zeta)
    C = varpi1 + varpi2 * log_term
    b1, eta = p["beta1"], p["eta"]
    pref = one_m_b2**0.5 / (p["varsigma"] * eta * (1.0 - b1))
    rhs = pref * fsum(
        (
            4.0 * C * p["epsilon"] ** 0.5 / p["delta"],
            8.0 * C * (zeta * p["T"]) ** 0.5 / p["delta"] ** 1.5,
        )
    ) + 48.0 * one_m_b2 * C * C / (
        p["varsigma"] ** 2 * eta**2 * (1.0 - b1) ** 2 * p["delta"] ** 2
    )
    return rhs, C


def _second_opinion_adam_highprob(p):
    kappa_sq = p["kappa"] ** 2
    log_inv = -math.log(p["delta"])
    zeta = kappa_sq * (1.0 + log_inv)
    W, varpi1, varpi2, log_term, one_m_b2 = _adam_shared_terms(p, zeta / W_of(p), zeta)
    b1, eta, T = p["beta1"], p["eta"], p["T"]
    varpi3 = (
        3.0
        * eta
        * (1.0 - b1)
        * kappa_sq
        * log_inv
        / (W * W * b1**T * one_m_b2**0.5 * p["epsilon"] ** 0.5)
    )
    C = fsum((varpi1, varpi2 * log_term, varpi3))
    rhs = (4.0 * one_m_b2**0.5 * C / (p["varsigma"] * eta * (1.0 - b1))) * (
        p["epsilon"] ** 0.5 + (2.0 * T * zeta / W) ** 0.5
    ) + 48.0 * one_m_b2 * C * C / (W * p["varsigma"] ** 2 * eta**2 * (1.0 - b1) ** 2)
    return rhs, C


def W_of(p):
    return fsum(p["alpha"] ** r for r in range(p["w"]))


def test_criterion_09_bound_reports_match_independent_reevaluation():
    cases = [
        (
            bound_expectation,
            ADAGRAD,
            make_config_adagrad(eta=0.1, epsilon=1e-8, alpha=1.0, window=16),
            NoiseModel(GAUSSIAN, sigma=0.5),
            loss_constants(1.0, 1.0),
            dict(theta=0.05, T=500, dim=10, delta=0.1),
            _second_opinion_adagrad_expectation,
        ),
        (
            bound_expectation,
            ADAGRAD,
            make_config_adagrad(eta=0.5, epsilon=1e-3, alpha=0.8, window=5),
            NoiseModel(GAUSSIAN, sigma=0.9),
            loss_constants(2.0, 0.7),
            dict(theta=0.1, T=200, dim=3, delta=0.3),
            _second_opinion_adagrad_expectation,
        ),
        (
            bound_highprob,
            ADAGRAD,
            make_config_adagrad(eta=0.1, epsilon=1e-8, alpha=1.0, window=16),
            NoiseModel(SUBGAUSSIAN, sigma=0.5),
            loss_constants(1.0, 1.0),
            dict(theta=0.05, T=500, dim=10, delta=0.1),
            _second_opinion_adagrad_highprob,
        ),
        (
            bound_highprob,
            ADAGRAD,
            make_config_adagrad(eta=0.5, epsilon=1e-3, alpha=0.8, window=5),
            NoiseModel(SUBGAUSSIAN, sigma=0.9, kappa=1.7),
            loss_constants(2.0, 0.7),
            dict(theta=0.1, T=200, dim=3, delta=0.3),
            _second_opinion_adagrad_highprob,
        ),
        (
            bound_expectation,
            ADAM,
            make_config_adam(eta=0.05, beta1=0.9, beta2=0.999, epsilon=1e-8,
                             alpha=0.9, window=8),
            NoiseModel(GAUSSIAN, sigma=0.5),
            loss_constants(1.0, 1.0),
            dict(theta=0.05, T=300, dim=6, delta=0.1),
            _second_opinion_adam_expectation,
        ),
        (
            bound_expectation,
            ADAM,
            make_config_adam(eta=0.2, beta1=0.5, beta2=0.99, epsilon=1e-4,
                             alpha=1.0, window=4),
            NoiseModel(GAUSSIAN, sigma=1.0),
            loss_constants(1.0, 1.0),
            dict(theta=0.0, T=100, dim=4, delta=0.25, varsigma=0.3),
            _second_opinion_adam_expectation,
        ),
        (
            bound_highprob,
            ADAM,
            make_config_adam(eta=0.05, beta1=0.9, beta2=0.999, epsilon=1e-8,
                             alpha=0.9, window=8),
            NoiseModel(SUBGAUSSIAN, sigma=0.5),
            loss_constants(1.0, 1.0),
            dict(theta=0.05, T=300, dim=6, delta=0.1),
            _second_opinion_adam_highprob,
        ),
        (
            bound_highprob,
            ADAM,
            make_config_adam(eta=0.2, beta1=0.5, beta2=0.99, epsilon=1e-4,
                             alpha=1.0, window=4),
            NoiseModel(SUBGAUSSIAN, sigma=1.0),
            loss_constants(1.0, 1.0),
            dict(theta=0.0, T=100, dim=4, delta=0.25, varsigma=0.3),
            _second_opinion_adam_highprob,
        ),
    ]
    for fn, kind, opt, noise, consts, kw, oracle in cases:
        report = fn(
            kind, opt, noise, consts, kw["theta"], kw["T"], kw["dim"], kw["delta"],
            varsigma=kw.get("varsigma"),
        )
        params = dict(report.inputs)
        if fn is bound_highprob and noise.kappa is None:
            independent_kappa = noise.sigma * math.sqrt(
                2.0 / (kw["dim"] * (1.0 - math.exp(-2.0 / kw["dim"])))
            )
            assert params["kappa"] == pytest.approx(independent_kappa, rel=1e-12)
        rhs, C = oracle(params)
        label = report.theorem
        assert math.isfinite(report.rhs), label
        assert report.rhs == pytest.approx(rhs, rel=1e-9), label
        assert report.derived["C"] == pytest.approx(C, rel=1e-9), label


SECOND_OPINIONS = {
    "adagrad-expectation": _second_opinion_adagrad_expectation,
    "adam-expectation": _second_opinion_adam_expectation,
    "adagrad-highprob": _second_opinion_adagrad_highprob,
    "adam-highprob": _second_opinion_adam_highprob,
}


@st.composite
def bound_points(draw):
    """A theorem and a parameter point where its right-hand side is finite."""
    theorem = draw(st.sampled_from(THEOREMS))
    kind, _, level = theorem.partition("-")
    alpha = draw(
        st.one_of(
            st.floats(min_value=0.0, max_value=1.0, exclude_min=True),
            st.sampled_from([1.0 - 1e-10, 1.0]),
        )
    )
    window = draw(st.integers(min_value=1, max_value=1000))
    eta = draw(st.floats(min_value=1e-6, max_value=10.0))
    epsilon = draw(st.floats(min_value=1e-12, max_value=1.0))
    horizon_cap = 100_000
    varsigma = None
    if kind == ADAGRAD:
        opt = make_config_adagrad(eta=eta, epsilon=epsilon, alpha=alpha, window=window)
    else:
        beta2 = draw(st.floats(min_value=1e-3, max_value=1.0 - 1e-12))
        # beta1/beta2 <= 1 - 1e-4 keeps q = 1 - beta1/beta2 well conditioned
        beta1 = beta2 * draw(st.floats(min_value=1e-4, max_value=1.0 - 1e-4))
        if level == "highprob":
            # beta1^T >= 1e-100 keeps the deviation term varpi3 finite
            horizon_cap = min(horizon_cap, max(1, int(100.0 / -math.log10(beta1))))
        opt = make_config_adam(
            eta=eta, beta1=beta1, beta2=beta2, epsilon=epsilon, alpha=alpha, window=window
        )
        varsigma = draw(st.one_of(st.none(), st.floats(min_value=1e-3, max_value=10.0)))
    horizon = draw(st.integers(min_value=1, max_value=horizon_cap))
    noisy = [GAUSSIAN, SUBGAUSSIAN] if level == "highprob" else [EXACT, GAUSSIAN, SUBGAUSSIAN]
    noise_kind = draw(st.sampled_from(noisy))
    if noise_kind == EXACT:
        noise = NoiseModel(EXACT)
    else:
        noise = NoiseModel(
            noise_kind,
            sigma=draw(st.floats(min_value=1e-3, max_value=10.0)),
            kappa=draw(st.one_of(st.none(), st.floats(min_value=1e-3, max_value=10.0))),
        )
    constants = loss_constants(
        draw(st.floats(min_value=0.1, max_value=10.0)),
        draw(st.floats(min_value=0.1, max_value=10.0)),
    )
    theta = draw(st.floats(min_value=0.0, max_value=10.0))
    dim = draw(st.integers(min_value=1, max_value=100))
    # delta <= 0.999 keeps ln(1/delta) and -ln(delta) within 1e-13 of each other
    delta = draw(st.floats(min_value=1e-30, max_value=0.999))
    fn = bound_expectation if level == "expectation" else bound_highprob
    return theorem, fn, (kind, opt, noise, constants, theta, horizon, dim, delta), varsigma


@given(bound_points())
@settings(max_examples=200, deadline=None)
def test_bound_reports_match_independent_reevaluation_over_the_parameter_range(point):
    theorem, fn, args, varsigma = point
    report = fn(*args, varsigma=varsigma)
    assert report.theorem == theorem
    rhs, C = SECOND_OPINIONS[theorem](dict(report.inputs))
    assert math.isfinite(report.rhs)
    assert report.warnings == ()
    assert report.rhs == pytest.approx(rhs, rel=1e-9)
    assert report.derived["C"] == pytest.approx(C, rel=1e-9)


def test_criterion_10_run_artifacts_are_byte_identical(tmp_path, monkeypatch):
    monkeypatch.delenv("DYNREG_OUT", raising=False)
    base = [
        "run",
        "--set", "horizon=50",
        "--set", "dim=6",
        "--set", "smoothing.window=8",
        "--seeds", "8",
    ]
    dirs = {name: tmp_path / name for name in ("first", "second", "fanout")}
    assert cli.main([*base, "--jobs", "1", "--out", str(dirs["first"])]) == 0
    assert cli.main([*base, "--jobs", "1", "--out", str(dirs["second"])]) == 0
    assert cli.main([*base, "--jobs", "8", "--out", str(dirs["fanout"])]) == 0
    for seed in range(8):
        name = f"run_seed{seed}.csv"
        first = (dirs["first"] / name).read_bytes()
        assert first == (dirs["second"] / name).read_bytes()
        assert first == (dirs["fanout"] / name).read_bytes()


def test_criterion_11_deviation_exceedance_respects_the_confidence_level():
    d, w, alpha, sigma, delta = 5, 4, 0.9, 0.5, 0.2
    n_runs, horizon = 500, 16
    noise = NoiseModel(SUBGAUSSIAN, sigma=sigma)
    stream = make_drifting_sine_stream(dim=d, drift_rate=0.05, noise=noise, seed=0)
    inner = InnerAdaptConfig(theta=0.05)
    opt = make_config_adagrad(eta=0.1, alpha=alpha, window=w)

    mubar = variance_proxy(noise, w, alpha, delta=delta, dim=d).mubar
    kappa_sq = 2.0 * sigma**2 / (d * (1.0 - math.exp(-2.0 / d)))
    ssum = fsum(alpha ** (2 * r) for r in range(w))
    W = fsum(alpha**r for r in range(w))
    assert mubar == pytest.approx(
        kappa_sq * (w * ssum / W**2 - math.log(delta)), rel=1e-12
    )

    exceed = 0
    for trace in run_streams([stream] * n_runs, horizon, inner, opt, range(n_runs)):
        worst = 0.0
        for t in range(1, horizon + 1):
            dev = trace.smoothed_grads[t - 1] - exact_smoothed_gradient(trace, t, w, alpha)
            worst = max(worst, float(dev @ dev))
        if worst > mubar:
            exceed += 1
    margin = delta + 3.0 * math.sqrt(delta * (1.0 - delta) / n_runs)
    assert exceed / n_runs <= margin
