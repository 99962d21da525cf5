"""The numerical lemma harness: clean grids pass, corruption is caught."""

import sys
from math import fsum

import pytest

from dynreg import (
    FULL_IDS,
    GAUSSIAN,
    InnerAdaptConfig,
    NoiseModel,
    QUICK_IDS,
    ConfigError,
    make_config_adagrad,
    make_drifting_sine_stream,
    run_checks,
    run_stream,
)
from dynreg.lemmas import (
    _drift_bounds,
    check_objective_drift,
    check_quadratic,
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
        "elapsed_s",
        "violations",
        "violation_count",
    }
    assert rec["passed"] is True
    assert rec["violation_count"] == 0


def test_corrupted_rhs_is_detected():
    results = run_checks("quick", corrupt="geom-sqrt-sum")
    by_id = {r.lemma_id: r for r in results}
    assert not by_id["geom-sqrt-sum"].passed
    assert by_id["geom-sqrt-sum"].violations
    assert by_id["geom-sqrt-sum"].max_slack < 0
    for lemma_id in QUICK_IDS:
        if lemma_id != "geom-sqrt-sum":
            assert by_id[lemma_id].passed


def test_violation_records_carry_the_failing_point():
    results = run_checks("quick", corrupt="sum-ratio")
    failing = next(r for r in results if r.lemma_id == "sum-ratio")
    rec = failing.to_record()
    assert rec["violation_count"] == len(failing.violations)
    assert len(rec["violations"]) <= 50
    first = rec["violations"][0]
    assert first["lhs"] > first["rhs"]
    assert isinstance(first["params"], dict)


def test_run_checks_validates_arguments():
    with pytest.raises(ConfigError):
        run_checks("medium")
    with pytest.raises(ConfigError):
        run_checks("quick", corrupt="objective-drift")  # not in the quick preset
    with pytest.raises(ConfigError):
        run_checks("quick", corrupt="no-such-lemma")


def test_full_preset_extends_quick():
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


@pytest.mark.parametrize("w", [1, 2, 16, 1000])
@pytest.mark.parametrize("alpha", [0.5, 0.99, 1 - 1e-10, 1 - 1e-12, 1 - 2**-52, 1.0])
def test_objective_drift_bounds_keep_precision_as_alpha_tends_to_one(alpha, w):
    D = 1.5
    W = fsum(alpha**r for r in range(w))
    head = fsum(alpha**r for r in range(w - 1))  # (1 - alpha^(w-1)) / (1 - alpha)
    fwd = D * (1.0 + alpha ** (w - 1)) / W + D * head * (1.0 + alpha) / W
    got_fwd, got_back = _drift_bounds(D, w, alpha)
    assert got_fwd == pytest.approx(fwd, rel=8 * sys.float_info.epsilon, abs=0.0)
    assert got_back == 2.0 * D


def test_mc_smoothed_gradient_checks_pass_at_reduced_size():
    res = mc_smoothed_gradient_lemmas(4, 4, 0.9, 0.5, 20_000, seed=1)
    assert res.passed
    assert res.grid_size >= 3
