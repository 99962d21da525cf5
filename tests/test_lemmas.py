"""The numerical lemma harness: clean grids pass, corruption is caught."""

import json
import math
import sys
import tracemalloc
from math import fsum

import numpy as np
import pytest

from dynreg import (
    FULL_IDS,
    GAUSSIAN,
    InnerAdaptConfig,
    NoiseModel,
    NumericError,
    QUICK_IDS,
    SUBGAUSSIAN,
    ConfigError,
    RoundLoss,
    alpha_weights,
    exact_smoothed_gradient,
    make_config_adagrad,
    make_drifting_sine_stream,
    run_checks,
    run_stream,
    spawn_rng_stream,
    variance_proxy,
    weight_sum_W,
)
from dynreg.lemmas import (
    _DRIFT_CONFIGS,
    _MC_PARTS,
    SELF_TEST_SCALE,
    LemmaCheckResult,
    _BETA2_GRID,
    _EPS_GRID,
    _MOMENTUM_GRID,
    _Collector,
    _drift_config,
    _merge,
    _named_positive_sequences,
    _quad_zmax,
    check_geom_32_sum,
    check_geom_sqrt_sum,
    check_inv_sqrt_geom,
    check_objective_drift,
    check_quadratic,
    check_sum_ratio,
    check_sum_ratio_momentum,
    mc_smoothed_gradient_lemmas,
)


@pytest.fixture(scope="module")
def quick_results():
    return run_checks("quick")


def test_quick_preset_covers_the_scalar_inequalities(quick_results):
    assert tuple(r.lemma_id for r in quick_results) == QUICK_IDS


def test_quick_preset_passes_with_clean_margins(quick_results):
    for res in quick_results:
        assert res.passed, res.lemma_id
        assert not res.violations
        assert res.grid_size > 0
        assert res.elapsed_s >= 0.0


def test_result_records_are_json_shaped(quick_results):
    rec = quick_results[0].to_record()
    assert set(rec) == {
        "lemma_id",
        "grid_size",
        "passed",
        "max_slack",
        "tightest",
        "elapsed_s",
        "violations",
        "violation_count",
    }
    assert rec["passed"] is True
    assert rec["violation_count"] == 0
    assert set(rec["tightest"]) == {"a", "Q"}
    json.dumps(rec)


def test_tightest_names_the_point_of_the_least_slack(quick_results):
    res = quick_results[0]
    a, Q = res.tightest["a"], res.tightest["Q"]
    lhs = fsum(a**q * math.sqrt(q + 1.0) for q in range(Q))
    assert 2.0 / (1.0 - a) ** 1.5 - lhs == res.max_slack
    for rec in (r.to_record() for r in quick_results):
        assert isinstance(rec["tightest"], dict), rec["lemma_id"]


@pytest.mark.parametrize("corrupt", QUICK_IDS)
def test_corrupted_rhs_is_detected(corrupt):
    results = run_checks("quick", corrupt=corrupt)
    by_id = {r.lemma_id: r for r in results}
    assert not by_id[corrupt].passed
    assert by_id[corrupt].violations
    assert by_id[corrupt].max_slack < 0
    for lemma_id in QUICK_IDS:
        if lemma_id != corrupt:
            assert by_id[lemma_id].passed, lemma_id


def test_violation_records_carry_the_failing_point():
    results = run_checks("quick", corrupt="sum-ratio")
    failing = next(r for r in results if r.lemma_id == "sum-ratio")
    rec = failing.to_record()
    assert rec["violation_count"] == len(failing.violations)
    assert len(rec["violations"]) <= 50
    first = rec["violations"][0]
    assert first["lhs"] > first["rhs"]
    assert isinstance(first["params"], dict)


def test_merged_suites_keep_the_first_point_of_least_slack():
    parts = [
        LemmaCheckResult("x", 2, max_slack=0.5, tightest={"part": 0}),
        LemmaCheckResult("x", 3, max_slack=0.25, tightest={"part": 1}),
        LemmaCheckResult("x", 4, max_slack=0.25, tightest={"part": 2}),
    ]
    merged = _merge("x", parts, t0=0.0)
    assert merged.grid_size == 9
    assert merged.max_slack == 0.25
    assert merged.tightest == {"part": 1}


def test_run_checks_validates_arguments():
    with pytest.raises(ConfigError, match=r"^preset must be one of \('quick', 'full'\), got 'medium'$"):
        run_checks("medium")
    with pytest.raises(ConfigError):
        run_checks("quick", corrupt="objective-drift")  # not in the quick preset
    with pytest.raises(ConfigError):
        run_checks("quick", corrupt="no-such-lemma")


def test_full_preset_extends_quick():
    assert QUICK_IDS == ("geom-sqrt-sum", "geom-three-halves-sum", "sum-ratio",
                         "sum-ratio-momentum", "quadratic-root", "inv-sqrt-geom")
    assert FULL_IDS[: len(QUICK_IDS)] == QUICK_IDS
    assert set(FULL_IDS) - set(QUICK_IDS) == {"objective-drift", "smoothed-gradient-mc"}


def test_quadratic_root_bound_standalone():
    res = check_quadratic()
    assert res.passed
    assert res.grid_size > 10_000


def test_objective_drift_bounds_hold_on_a_noisy_run():
    stream = make_drifting_sine_stream(
        dim=4, drift_rate=0.1, noise=NoiseModel(GAUSSIAN, sigma=0.5), seed=2
    )
    opt = make_config_adagrad(eta=0.2, alpha=0.9, window=6)
    trace = run_stream(stream, 150, InnerAdaptConfig(theta=0.05), opt, seed=2)
    res = check_objective_drift(trace, 6, 0.9)
    assert res.passed
    assert res.grid_size == 2 * (150 - 1)
    scaled = check_objective_drift(trace, 6, 0.9, rhs_scale=1e-3)
    assert not scaled.passed


def test_objective_drift_needs_stream_constants():
    stream = make_drifting_sine_stream(dim=2, seed=0)
    trace = run_stream(
        stream, 4, InnerAdaptConfig(theta=0.0), make_config_adagrad(eta=0.1), seed=0
    )
    object.__setattr__(trace, "stream", None)
    with pytest.raises(ConfigError):
        check_objective_drift(trace, 1, 1.0)


def test_objective_drift_reports_an_overflowing_next_iterate_as_its_round():
    # |a| = 2 in one dimension, so <a, x> overflows at x = 1e308
    stream = make_drifting_sine_stream(
        dim=1, freq_scale=2.0, drift_rate=0.05, noise=NoiseModel(GAUSSIAN, sigma=0.5), seed=2
    )
    trace = run_stream(stream, 10, InnerAdaptConfig(theta=0.05), make_config_adagrad(eta=0.2), 2)
    trace.iterates[4] = 1e308  # x_5, where round 4's loss is evaluated
    with pytest.raises(NumericError) as info:
        check_objective_drift(trace, 4, 0.9)
    assert str(info.value) == "round 4 produced a non-finite sine argument <a, x> + b"


@pytest.mark.parametrize("w", [1, 2, 16, 1000])
@pytest.mark.parametrize("alpha", [0.5, 0.99, 1 - 1e-10, 1 - 1e-12, 1 - 2**-52, 1.0])
def test_objective_drift_bounds_keep_precision_as_alpha_tends_to_one(alpha, w):
    D = 1.5
    W = fsum(alpha**r for r in range(w))
    head = fsum(alpha**r for r in range(w - 1))  # (1 - alpha^(w-1)) / (1 - alpha)
    fwd = D * (1.0 + alpha ** (w - 1)) / W + D * head * (1.0 + alpha) / W
    # check_objective_drift uses 2D for the forward bound as well
    assert fwd == pytest.approx(2.0 * D, rel=8 * sys.float_info.epsilon, abs=0.0)


def test_mc_smoothed_gradient_checks_pass_at_reduced_size():
    res = mc_smoothed_gradient_lemmas(4, 4, 0.9, 0.5, 20_000, seed=1)
    assert res.passed
    assert res.grid_size >= 3


@pytest.mark.parametrize("part", range(len(_MC_PARTS)))
def test_corruption_fails_every_check_of_every_mc_part(part):
    kwargs = _MC_PARTS[part]
    res = mc_smoothed_gradient_lemmas(**kwargs, seed=0, rhs_scale=0.1)
    expected = {"unbiasedness", "variance-upper", "variance-lower"}
    if "n_runs" in kwargs:
        expected.add("deviation-exceedance")
    assert {v.params["check"] for v in res.violations} == expected


@pytest.mark.parametrize("config", _DRIFT_CONFIGS, ids=str)
def test_corruption_fails_every_drift_config(config):
    assert any(part.violations for part in _drift_config(SELF_TEST_SCALE, *config))


def test_mc_exceedance_equals_the_per_round_reference():
    d, w, alpha, sigma, delta, n_runs, horizon = 5, 2, 0.9, 0.5, 0.9, 40, 16
    # rhs_scale scales the threshold mubar and the fraction's bound; at 0.6
    # the fraction (38 of 40 runs) exceeds its bound, and the violation
    # records it
    scale = 0.6
    res = mc_smoothed_gradient_lemmas(
        d, w, alpha, sigma, 1000, delta=delta, n_runs=n_runs, rhs_scale=scale
    )
    [got] = [v.lhs for v in res.violations if v.params["check"] == "deviation-exceedance"]

    # criterion 11's loop: one exact smoothed gradient per round
    noise = NoiseModel(SUBGAUSSIAN, sigma=sigma)
    stream = make_drifting_sine_stream(dim=d, drift_rate=0.05, noise=noise, seed=0)
    inner = InnerAdaptConfig(theta=0.05)
    opt = make_config_adagrad(eta=0.1, alpha=alpha, window=w)
    mubar = variance_proxy(noise, w, alpha, delta=delta, dim=d).mubar
    worst = []
    for seed in range(n_runs):
        trace = run_stream(stream, horizon, inner, opt, seed=seed)
        devs = [
            trace.smoothed_grads[t - 1] - exact_smoothed_gradient(trace, t, w, alpha)
            for t in range(1, horizon + 1)
        ]
        worst.append(max(float(dev @ dev) for dev in devs))
    exceed = sum(dev_sq > scale * mubar for dev_sq in worst)
    assert 0 < exceed < n_runs
    assert got == exceed / n_runs
    assert res.tightest["max_dev_over_mubar"] == pytest.approx(max(worst) / mubar, rel=1e-12)


# The scalar loops the vectorised sweeps replaced, kept as their reference:
# one float at a time, in the original nesting order.


def _scalar_sum_ratio(rhs_scale, n_random, n_len, seed):
    col = _Collector("sum-ratio", rhs_scale)
    rng = spawn_rng_stream(seed, 101)
    random_seqs = [
        ("random", i, 0.1 + 1.9 * rng.uniform(size=n_len)) for i in range(n_random)
    ]
    for eps in _EPS_GRID:
        named = [(name, -1, seq) for name, seq in _named_positive_sequences(eps, n_len).items()]
        for name, idx, seq in named + random_seqs:
            for beta2 in _BETA2_GRID:
                b = 0.0
                lhs_terms = []
                for a_j in seq:
                    b = beta2 * b + a_j
                    lhs_terms.append(a_j / (eps + b))
                lhs = fsum(lhs_terms)
                rhs = math.log1p(b / eps) - len(seq) * math.log(beta2)
                col.check(lhs, rhs, sequence=name, index=idx, beta2=beta2, eps=eps, n=len(seq))
    return col.done()


def _scalar_sum_ratio_momentum(rhs_scale, n_random, n_len, seed):
    col = _Collector("sum-ratio-momentum", rhs_scale)
    rng = spawn_rng_stream(seed, 102)
    n = n_len
    seqs = [("normals", i, rng.standard_normal(n)) for i in range(n_random)]
    seqs += [
        ("alternating", -1, np.where(np.arange(n) % 2 == 0, 1.0, -1.0)),
        ("ones", -1, np.ones(n)),
        ("ramp-signed", -1, np.linspace(-2.0, 2.0, n)),
    ]
    for name, idx, seq in seqs:
        for beta1, beta2 in _MOMENTUM_GRID:
            factor = 1.0 / ((1.0 - beta1) * (1.0 - beta1 / beta2))
            for eps in _EPS_GRID:
                b = 0.0
                c = 0.0
                lhs_terms = []
                for a_j in seq:
                    b = beta2 * b + a_j * a_j
                    c = beta1 * c + a_j
                    lhs_terms.append(c * c / (eps + b))
                lhs = fsum(lhs_terms)
                rhs = factor * (math.log1p(b / eps) - n * math.log(beta2))
                col.check(
                    lhs, rhs, sequence=name, index=idx, beta1=beta1, beta2=beta2, eps=eps, n=n
                )
    return col.done()


def _scalar_prefix(lemma_id, term, rhs_of, rhs_scale):
    col = _Collector(lemma_id, rhs_scale)
    for a in (0.01, 0.05, 0.1, 0.2, 0.3, 0.5, 0.7, 0.8, 0.9, 0.95, 0.99):
        terms = [term(a, q) for q in range(1024)]
        for Q in (1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64, 96, 128, 256, 512, 1024):
            col.check(fsum(terms[:Q]), rhs_of(a), a=a, Q=Q)
    return col.done()


_SCALAR_PREFIX_SWEEPS = (
    (
        check_geom_sqrt_sum,
        "geom-sqrt-sum",
        lambda a, q: a**q * math.sqrt(q + 1.0),
        lambda a: 2.0 / (1.0 - a) ** 1.5,
    ),
    (
        check_geom_32_sum,
        "geom-three-halves-sum",
        lambda a, q: a**q * math.sqrt(q) * (q + 1.0),
        lambda a: 4.0 * a / (1.0 - a) ** 2.5,
    ),
    (
        check_inv_sqrt_geom,
        "inv-sqrt-geom",
        lambda a, q: a**q / math.sqrt(q + 1.0),
        lambda a: 2.0 / (a * math.sqrt(1.0 - a)),
    ),
)


def _scalar_quadratic(rhs_scale, n_random, seed):
    col = _Collector("quadratic-root", rhs_scale)

    def probe(a, b, c, z, tag, idx=-1):
        denom = c * z + a
        if denom <= 0.0:
            return
        if z / math.sqrt(denom) > b:  # hypothesis must hold before testing
            return
        col.check(z, c * b * b + b * math.sqrt(a), a=a, b=b, c=c, Z=z, case=tag, index=idx)

    grid = (0.0, 1e-3, 0.1, 1.0, 10.0, 1e3)
    for a in grid:
        for b in grid:
            for c in grid:
                if a == 0.0 and c == 0.0:
                    continue
                zmax = _quad_zmax(a, b, c)
                for s in (0.0, 0.25, 0.5, 0.75, 1.0):
                    probe(a, b, c, s * zmax, "grid")
    rng = spawn_rng_stream(seed, 103)
    exps = rng.uniform(-4.0, 3.0, size=(n_random, 3))
    fracs = rng.uniform(size=n_random)
    for i in range(n_random):
        a, b, c = (10.0 ** exps[i]).tolist()
        probe(a, b, c, float(fracs[i] * _quad_zmax(a, b, c)), "random", i)
    return col.done()


def _scalar_objective_drift(trace, w, alpha, rhs_scale):
    stream = trace.stream
    D = stream.constants().D
    col = _Collector("objective-drift", rhs_scale)
    W = weight_sum_W(alpha, w)
    weights = alpha_weights(alpha, w)
    losses = trace.losses

    def window_sum(t, newest):
        occ = min(t, w)
        terms = [weights[0] * newest]
        terms += [weights[r] * losses[t - 1 - r] for r in range(1, occ)]
        return fsum(terms) / W

    for t in range(1, trace.horizon):
        x_next = trace.iterates[t]
        s_t_here = window_sum(t, losses[t - 1])
        s_t_next = window_sum(t, RoundLoss(stream.task(t), trace.theta).loss(x_next))
        s_next = window_sum(t + 1, losses[t])
        col.check(s_next - s_t_next, 2.0 * D, t=t, seed=trace.seed, side="forward")
        col.check(s_t_here - s_next, 2.0 * D, t=t, seed=trace.seed, side="backward")
    return col.done()


def _assert_same_sweep(got, want):
    assert got.lemma_id == want.lemma_id
    assert got.grid_size == want.grid_size
    assert got.max_slack.hex() == want.max_slack.hex()
    assert got.tightest == want.tightest
    assert got.violations == want.violations
    # the params keep their Python types
    for point in [got.tightest or {}] + [v.params for v in got.violations]:
        assert {type(v) for v in point.values()} <= {int, float, str}


@pytest.fixture(scope="module")
def drift_traces():
    # (dim, window, alpha, seed, horizon); the last is a drift-suite trace,
    # whose next-iterate losses come from one row-kernel call
    traces = []
    shapes = ((3, 3, 0.9, 3, 60), (3, 4, 1.0, 3, 60), (4, 4, 0.9, 0, 300))
    for dim, w, alpha, seed, horizon in shapes:
        stream = make_drifting_sine_stream(
            dim=dim, drift_rate=0.1, noise=NoiseModel(GAUSSIAN, sigma=0.5), seed=seed
        )
        opt = make_config_adagrad(eta=0.2, alpha=alpha, window=w)
        trace = run_stream(stream, horizon, InnerAdaptConfig(theta=0.05), opt, seed=seed)
        traces.append((trace, w, alpha))
    return traces


@pytest.mark.parametrize("rhs_scale", [1.0, 0.1])
def test_vectorised_sweeps_equal_the_scalar_loops_bit_for_bit(rhs_scale, drift_traces):
    size = {"n_random": 7, "n_len": 40, "seed": 5}
    pairs = [
        (check_sum_ratio(rhs_scale, **size), _scalar_sum_ratio(rhs_scale, **size)),
        (
            check_sum_ratio_momentum(rhs_scale, **size),
            _scalar_sum_ratio_momentum(rhs_scale, **size),
        ),
    ]
    for sweep, lemma_id, term, rhs_of in _SCALAR_PREFIX_SWEEPS:
        pairs.append((sweep(rhs_scale), _scalar_prefix(lemma_id, term, rhs_of, rhs_scale)))
    # 2500 random points span five blocks, the last one partial
    quad = {"n_random": 2500, "seed": 5}
    pairs.append((check_quadratic(rhs_scale, **quad), _scalar_quadratic(rhs_scale, **quad)))
    for trace, w, alpha in drift_traces:
        pairs.append(
            (
                check_objective_drift(trace, w, alpha, rhs_scale=rhs_scale),
                _scalar_objective_drift(trace, w, alpha, rhs_scale),
            )
        )
    for got, want in pairs:
        _assert_same_sweep(got, want)
        # the corrupted scale must compare non-empty violation lists
        assert got.passed == (rhs_scale == 1.0)


_NAN, _INF = math.nan, math.inf
# (lhs, rhs) of crafted sweeps; their slacks are rhs * rhs_scale - lhs
_CHECK_MANY_CASES = {
    "nan": ([1.0, _NAN, 0.5, _NAN, 3.0], [2.0, 2.0, _NAN, 0.0, 1.0]),
    "all-nan": ([_NAN, 1.0], [1.0, _NAN]),
    # slacks 0.0, -0.0, 0.0 and -0.0, 0.0: the first zero wins, with its sign
    "zero-then-negative-zero": ([0.0, 0.0, -0.0], [0.0, -0.0, 0.0]),
    "negative-zero-then-zero": ([0.0, 0.0], [-0.0, 0.0]),
    "repeated-minimum": ([0.0, 1.0, 0.5, 1.0, 1.0], [2.0, 2.0, 2.0, 2.0, 2.0]),
    # slacks nan, inf, -inf (no violation: its tolerance is -inf too), -inf
    "inf": ([_INF, -_INF, 1.0, _INF, 0.0], [_INF, 1.0, -_INF, 1.0, _INF]),
    "interleaved": ([0.0, 3.0, 0.0, 3.0, 0.0, 5.0, 1.0], [1.0] * 7),
    # inside and outside the tolerance 1e-9 max(1, |rhs|)
    "tolerance": ([1.0 + 1e-10, 1e10 + 1.0, 1e10 + 100.0, 2.0], [1.0, 1e10, 1e10, 1.0]),
    "near-overflow": ([1e308, 0.0], [1.7e308, 1.7e308]),
    "scalar-rhs": ([0.5, 1.5, 1.0], 1.0),
    "empty": ([], []),
}


def _checked_in_a_loop(col, part, lhs, rhs):
    for i, (l, r) in enumerate(zip(lhs, np.broadcast_to(rhs, np.shape(lhs)).tolist())):
        col.check(l, r, part=part, i=i)


@pytest.mark.parametrize("rhs_scale", [1.0, 0.5, 10.0])
@pytest.mark.parametrize("case", [*_CHECK_MANY_CASES, "all-in-one-collector"])
def test_check_many_makes_the_decisions_of_a_loop_of_check(case, rhs_scale):
    cases = _CHECK_MANY_CASES if case == "all-in-one-collector" else {case: _CHECK_MANY_CASES[case]}
    got, want = _Collector("x", rhs_scale), _Collector("x", rhs_scale)
    built = []

    for part, (lhs, rhs) in cases.items():

        def params_at(i, part=part):
            built.append(i)
            return {"part": part, "i": i}

        got.check_many(np.array(lhs, dtype=float), rhs, params_at)
        _checked_in_a_loop(want, part, lhs, rhs)
    got, want = got.done(), want.done()
    _assert_same_sweep(got, want)
    # params are built only for the points that become tightest and the violations
    assert len(built) <= len(cases) + len(got.violations)


# tracemalloc peaks of the scalar-loop sweeps, in MiB. The array sweeps may
# take a quarter more, which stacking the 15 momentum grid points (5.8 MiB
# of terms) or holding every quadratic probe's temporaries at once (1.9
# MiB) would exceed. The objective-drift figure is the widest drift
# config's: its 20 checks run on the batch's traces, after run_streams.
_SCALAR_SWEEP_PEAKS_MIB = {
    "sum-ratio": (0.87, check_sum_ratio),
    "sum-ratio-momentum": (1.03, check_sum_ratio_momentum),
    "quadratic-root": (0.31, check_quadratic),
    "objective-drift": (2.58, lambda: _drift_config(1.0, *_DRIFT_CONFIGS[-1])),
}


@pytest.mark.parametrize("lemma_id", _SCALAR_SWEEP_PEAKS_MIB)
def test_lemma_sweeps_keep_the_memory_of_the_scalar_loops(lemma_id):
    mib, sweep = _SCALAR_SWEEP_PEAKS_MIB[lemma_id]
    sweep()  # first-use imports and caches
    tracemalloc.start()
    try:
        sweep()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * mib * 2**20
