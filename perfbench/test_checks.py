"""Self-tests of the benchmark's checks: each must accept dynreg's real
output and reject a deliberately corrupted copy of it.

Run from the repository root in a few seconds:
    python3 -m pytest -q perfbench/test_checks.py
"""

import copy
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import dynreg  # noqa: E402
from dynreg import cli, dlr_cumulative, run_stream, slr_cumulative  # noqa: E402
from dynreg.config import load_config  # noqa: E402
from workloads import bound_call, bound_grid_points  # noqa: E402

SETS = ["horizon=60", "dim=4", "smoothing.window=8", "smoothing.alpha=0.9"]
SEED = 3


@pytest.fixture(autouse=True)
def _no_out_override(monkeypatch):
    monkeypatch.delenv("DYNREG_OUT", raising=False)


@pytest.fixture(scope="module")
def run():
    cfg = load_config(None, SETS)
    trace = run_stream(cfg.stream(SEED), cfg.horizon, cfg.inner(), cfg.optimizer(), seed=SEED)
    w = cfg.window()
    return cfg, trace, dlr_cumulative(trace, w, cfg.alpha), slr_cumulative(trace, w)


def _nudge(x):
    return x * (1.0 + 1e-9) + 1e-12


def test_csv_check_rejects_one_perturbed_value(tmp_path, run):
    cfg, trace, dlr, slr = run
    argv = ["run", *sum((["--set", s] for s in SETS), []), "--seed-list", str(SEED), "--out", str(tmp_path)]
    assert cli.main(argv) == 0
    text = (tmp_path / f"run_seed{SEED}.csv").read_text()
    assert checks.check_csv(text, trace, dlr, slr) == []
    summary = json.loads((tmp_path / f"summary_seed{SEED}.json").read_text())
    assert checks.check_summary(summary, SEED, cfg.horizon, dlr, slr) == []

    lines = text.split("\n")
    fields = lines[20].split(",")
    fields[3] = repr(float(np.nextafter(float(fields[3]), np.inf)))
    lines[20] = ",".join(fields)
    assert checks.check_csv("\n".join(lines), trace, dlr, slr)


def test_bound_check_rejects_a_scaled_bound():
    points = [p for p in bound_grid_points() if p["alpha"] in (1.0, 0.9) and p["dim"] == 10]
    run = [_bench_call(p) for p in points]
    failed, problems = checks.bound_failures(points, run)
    assert failed == [], problems
    k = len(run) // 2
    run[k] *= 1.0 + 1e-8
    failed, _ = checks.bound_failures(points, run)
    assert k in failed


def test_bound_check_names_only_alpha_near_one_as_known():
    points = bound_grid_points()
    failed, _ = checks.bound_failures(points, [_bench_call(p) for p in points])
    assert failed
    assert checks.unexpected_bound_failures(points, failed) == []


def test_update_recursion_rejects_a_nudged_iterate(run):
    cfg, trace, _, _ = run
    opt = cfg.optimizer()
    args = (opt.eta, opt.beta1, opt.beta2, opt.epsilon, opt.schedule == "adam")
    assert checks.check_update_recursion(trace, *args) == []
    bad = copy.copy(trace)
    bad.iterates = trace.iterates.copy()
    bad.iterates[30, 1] = _nudge(bad.iterates[30, 1])
    assert checks.check_update_recursion(bad, *args)


def test_loss_check_rejects_a_nudged_gradient(run):
    _, trace, _, _ = run
    A, B = trace.stream.params_upto(trace.horizon)
    assert checks.check_losses_and_grads(trace, A, B, trace.stream.amplitude) == []
    bad = copy.copy(trace)
    bad.grads = trace.grads.copy()
    bad.grads[7, 2] = _nudge(bad.grads[7, 2])
    assert checks.check_losses_and_grads(bad, A, B, trace.stream.amplitude)


def test_ledger_check_rejects_a_perturbed_round(run):
    cfg, trace, dlr, slr = run
    A, B = trace.stream.params_upto(trace.horizon)
    w = cfg.window()
    rounds = list(range(1, trace.horizon + 1))
    D = trace.stream.amplitude
    assert checks.check_ledgers(trace, dlr, slr, A, B, D, w, cfg.alpha, rounds) == []
    per = slr.per_round.copy()
    per[40] *= 1.0 + 1e-8
    bad = dataclasses.replace(slr, per_round=per)
    assert checks.check_ledgers(trace, dlr, bad, A, B, D, w, cfg.alpha, rounds)


def test_exact_smoothing_check_rejects_a_nudged_smoothed_gradient():
    cfg = load_config(None, SETS + ["noise.kind=exact", "noise.sigma=0"])
    trace = run_stream(cfg.stream(SEED), cfg.horizon, cfg.inner(), cfg.optimizer(), seed=SEED)
    assert checks.check_exact_smoothing(trace, cfg.alpha, cfg.window()) == []
    bad = copy.copy(trace)
    bad.smoothed_grads = trace.smoothed_grads.copy()
    bad.smoothed_grads[12, 0] = _nudge(bad.smoothed_grads[12, 0])
    assert checks.check_exact_smoothing(bad, cfg.alpha, cfg.window())


def test_noise_check_rejects_rescaled_noise():
    cfg = load_config(None, ["horizon=3000", "dim=10"])
    trace = run_stream(cfg.stream(SEED), cfg.horizon, cfg.inner(), cfg.optimizer(), seed=SEED)
    w, sigma = cfg.window(), cfg.noise_model().sigma
    assert checks.check_noise(trace, cfg.alpha, w, sigma) == []
    assert checks.check_noise(trace, cfg.alpha, w, 1.05 * sigma)


def test_lemma_check_rejects_a_corrupted_lemma_run(tmp_path):
    assert cli.main(["verify-lemmas", "--preset", "quick", "--out", str(tmp_path)]) == 0
    artifact = json.loads((tmp_path / "lemmas_quick.json").read_text())
    assert checks.check_lemma_artifact(artifact, checks.QUICK_LEMMA_IDS) == []
    rc = cli.main(
        ["verify-lemmas", "--preset", "quick", "--self-test-corrupt", "sum-ratio", "--out", str(tmp_path)]
    )
    assert rc == 1
    artifact = json.loads((tmp_path / "lemmas_quick.json").read_text())
    assert checks.check_lemma_artifact(artifact, checks.QUICK_LEMMA_IDS)


def _bench_call(p):
    fn, args = bound_call(dynreg, p)
    return fn(*args).rhs
