"""Command-line behaviors: artifacts, overrides, exit codes, output routing."""

import json
import math
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dynreg import cli

FAST = (
    "--set", "horizon=40",
    "--set", "dim=4",
    "--set", "smoothing.window=6",
)


@pytest.fixture(autouse=True)
def _clean_out_env(monkeypatch):
    monkeypatch.delenv("DYNREG_OUT", raising=False)


def test_run_writes_csv_and_summary(tmp_path, capsys):
    rc = cli.main(["run", *FAST, "--seed-list", "3", "--out", str(tmp_path)])
    assert rc == 0
    csv_path = tmp_path / "run_seed3.csv"
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "t,loss,grad_norm_sq,dlr_cum,slr_cum,eta_t"
    assert len(lines) == 41
    first = lines[1].split(",")
    assert first[0] == "1"
    assert len(first) == 6
    summary = json.loads((tmp_path / "summary_seed3.json").read_text())
    assert summary["seed"] == 3
    assert summary["horizon"] == 40
    assert math.isfinite(summary["final_dlr"])
    assert math.isfinite(summary["final_slr"])
    assert summary["config"]["run_seed"] == 3
    assert summary["csv"] == "run_seed3.csv"
    assert summary["rng_contract"] == "4"  # the DLR ledger replays the learner's window
    out = capsys.readouterr().out
    assert "seed 3:" in out


def test_run_csv_cumulative_columns_are_monotone(tmp_path):
    rc = cli.main(["run", *FAST, "--seeds", "1", "--out", str(tmp_path)])
    assert rc == 0
    rows = [line.split(",") for line in
            (tmp_path / "run_seed0.csv").read_text().splitlines()[1:]]
    dlr = [float(r[3]) for r in rows]
    slr = [float(r[4]) for r in rows]
    assert all(b >= a for a, b in zip(dlr, dlr[1:]))
    assert all(b >= a for a, b in zip(slr, slr[1:]))
    summary = json.loads((tmp_path / "summary_seed0.json").read_text())
    assert summary["final_dlr"] == pytest.approx(dlr[-1], rel=1e-12)


def test_run_seed_flags_are_exclusive(tmp_path):
    with pytest.raises(SystemExit):
        cli.main(["run", "--seeds", "2", "--seed-list", "0,1", "--out", str(tmp_path)])


def test_run_validates_seed_and_job_arguments(tmp_path, capsys):
    assert cli.main(["run", *FAST, "--seeds", "0", "--out", str(tmp_path)]) == 2
    assert cli.main(["run", *FAST, "--seed-list", "1,x", "--out", str(tmp_path)]) == 2
    assert cli.main(["run", *FAST, "--jobs", "0", "--out", str(tmp_path)]) == 2
    # a flag is refused before any seed runs or the output directory is made
    too_big = f"0,{2**64}"
    assert cli.main(["run", *FAST, "--seed-list", too_big, "--out", str(tmp_path)]) == 2
    assert not (tmp_path / "run_seed0.csv").exists()
    fresh = tmp_path / "fresh"
    assert cli.main(["run", *FAST, "--jobs", "0", "--out", str(fresh)]) == 2
    assert not fresh.exists()
    err = capsys.readouterr().err
    assert "config error" in err


@pytest.mark.parametrize("command,flags,error", [
    ("run", ("--set", "seeds=[0,0]"), "seeds[1] must not repeat seeds[0], got 0"),
    ("run", ("--seed-list", "3,3"), "--seed-list[1] must not repeat --seed-list[0], got 3"),
    ("bounds", ("--set", 'optimizer.preset="adam"', "--set", 'bounds=["adam-highprob","adam-highprob"]'),
     "bounds[1] must not repeat bounds[0], got 'adam-highprob'"),
])
def test_a_repeated_seed_or_theorem_exits_before_writing(tmp_path, capsys, command, flags, error):
    out = tmp_path / "out"
    assert cli.main([command, *FAST, *flags, "--out", str(out)]) == 2
    assert not out.exists()
    captured = capsys.readouterr()
    assert captured.out == ""
    assert error in captured.err


def test_run_uses_config_seeds_by_default(tmp_path):
    rc = cli.main(["run", *FAST, "--set", "seeds=[4,6]", "--out", str(tmp_path)])
    assert rc == 0
    assert (tmp_path / "run_seed4.csv").exists()
    assert (tmp_path / "run_seed6.csv").exists()
    assert not (tmp_path / "run_seed0.csv").exists()


def test_out_dir_env_overrides_the_flag(tmp_path, monkeypatch):
    env_dir = tmp_path / "env-out"
    monkeypatch.setenv("DYNREG_OUT", str(env_dir))
    rc = cli.main(["run", *FAST, "--seed-list", "0", "--out", str(tmp_path / "flag-out")])
    assert rc == 0
    assert (env_dir / "run_seed0.csv").exists()
    assert not (tmp_path / "flag-out").exists()


@pytest.mark.parametrize(
    "command, artifact",
    [("run", "run_seed0.csv"), ("bounds", "bound_adagrad-expectation.json"),
     ("verify-lemmas", "lemmas_quick.json")],
)
def test_every_command_writes_to_the_config_out_dir(tmp_path, monkeypatch, command, artifact):
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "exp.json"
    cfg.write_text(json.dumps({"out_dir": "cfgout", "horizon": 40, "dim": 4}))
    assert cli.main([command, "--config", str(cfg)]) == 0
    assert (tmp_path / "cfgout" / artifact).exists()
    assert not (tmp_path / "dynreg-out").exists()


def test_config_file_merges_and_rejects_unknown_keys(tmp_path, capsys):
    cfg = tmp_path / "exp.json"
    cfg.write_text(json.dumps({"horizon": 12, "dim": 3, "smoothing": {"window": 3}}))
    rc = cli.main(["run", "--config", str(cfg), "--seed-list", "0", "--out", str(tmp_path)])
    assert rc == 0
    assert len((tmp_path / "run_seed0.csv").read_text().splitlines()) == 13

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"horizons": 12}))
    assert cli.main(["run", "--config", str(bad), "--out", str(tmp_path)]) == 2
    assert "unknown key" in capsys.readouterr().err


def test_invalid_settings_exit_with_config_error(tmp_path, capsys):
    rc = cli.main(["run", *FAST, "--set", "optimizer.beta1=2.0", "--out", str(tmp_path)])
    assert rc == 2
    assert "beta1" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["run", "bounds"])
@pytest.mark.parametrize(
    "settings",
    [("stream.freq_scale=1e200",), ("stream.amplitude=1e308", "stream.freq_scale=10")],
    ids=["freq-scale-power", "amplitude-product"],
)
def test_overflowing_stream_constants_exit_with_config_error(tmp_path, capsys, command, settings):
    overrides = [arg for setting in settings for arg in ("--set", setting)]
    rc = cli.main([command, *FAST, *overrides, "--out", str(tmp_path)])
    assert rc == 2
    assert "config error" in capsys.readouterr().err


def test_overflowing_sine_argument_exits_with_numeric_error(tmp_path, capsys):
    # round 1's step of size 1e308 sends the iterate so far that round 2's
    # <a, x> + b overflows; a pin that takes few rounds, since the last bits
    # of a long overflowing trajectory decide the round it fails in
    rc = cli.main(["run", "--set", "optimizer.eta=1e308", "--set", "horizon=50",
                   "--seed-list", "3", "--out", str(tmp_path)])
    assert rc == 3
    err = capsys.readouterr().err
    assert "numeric error: round 2 produced a non-finite sine argument" in err


def test_overflowing_second_moment_exits_with_numeric_error(tmp_path, capsys):
    # v <- beta2 v + g~^2 overflows long before the iterate stops being finite
    rc = cli.main(["run", "--set", "stream.amplitude=1.2e154", "--set", "adapt.theta=0",
                   "--seed-list", "0", "--out", str(tmp_path)])
    assert rc == 3
    err = capsys.readouterr().err
    assert "numeric error: second moment overflowed at coordinate 7 (round 284)" in err


def test_overflowing_squared_gradient_norm_exits_with_numeric_error(tmp_path, capsys):
    # each coordinate of round 1's gradient is finite, its squared norm is not
    rc = cli.main(["run", "--set", "horizon=1", "--set", "stream.amplitude=1e78",
                   "--seed-list", "0", "--out", str(tmp_path)])
    assert rc == 3
    assert "numeric error: round 1's squared gradient norm overflowed" in capsys.readouterr().err


@pytest.mark.parametrize(
    "settings, theorem, why",
    [
        (("delta=1e-200",), "adagrad-expectation", "divided by a value that underflowed to zero"),
        (('optimizer.preset="adam"', "optimizer.varsigma=1e300"), "adam-expectation", "overflowed"),
    ],
    ids=["delta-squared-underflows", "varsigma-squared-overflows"],
)
def test_bounds_reports_a_raising_intermediate_term_as_infinite(tmp_path, capsys, settings, theorem, why):
    overrides = [arg for setting in settings for arg in ("--set", setting)]
    rc = cli.main(["bounds", *overrides, "--out", str(tmp_path)])
    assert rc == 0
    warning = f"an intermediate term {why}; the right-hand side is reported as infinite"
    assert f"{theorem}: rhs=inf -> " in capsys.readouterr().out
    rec = json.loads((tmp_path / f"bound_{theorem}.json").read_text())
    assert rec["rhs"] == math.inf
    assert rec["warnings"] == [warning]
    assert math.isfinite(rec["varpi1"])


@pytest.mark.parametrize("preset", ["adagrad", "adam"])
def test_bounds_reports_a_horizon_too_large_for_a_float_as_infinite(tmp_path, capsys, preset):
    horizon = 10**309
    rc = cli.main(["bounds", "--set", f"horizon={horizon}", "--set", f'optimizer.preset="{preset}"',
                   "--out", str(tmp_path)])
    assert rc == 0
    warning = "an intermediate term overflowed; the right-hand side is reported as infinite"
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2
    for theorem, line in zip((f"{preset}-expectation", f"{preset}-highprob"), lines):
        assert line.startswith(f"{theorem}: rhs=inf -> ")
        rec = json.loads((tmp_path / f"bound_{theorem}.json").read_text())
        assert rec["T"] == horizon
        assert rec["rhs"] == math.inf
        assert rec["varpi1"] == math.inf
        assert rec["warnings"] == [warning]


def test_bounds_writes_a_report_per_theorem(tmp_path, capsys):
    rc = cli.main(["bounds", *FAST, "--out", str(tmp_path)])
    assert rc == 0
    for theorem in ("adagrad-expectation", "adagrad-highprob"):
        rec = json.loads((tmp_path / f"bound_{theorem}.json").read_text())
        assert rec["theorem"] == theorem
        assert rec["rhs"] > 0
        assert rec["config"]["smoothing"]["window"] == 6
    out = capsys.readouterr().out
    assert "adagrad-expectation: rhs=" in out
    assert "adagrad-highprob: rhs=" in out


@pytest.mark.parametrize("preset", ["adagrad", "adam"])
def test_bounds_prints_the_warning_of_every_non_finite_guarantee(tmp_path, capsys, preset):
    rc = cli.main(["bounds", *FAST, "--set", f'optimizer.preset="{preset}"',
                   "--set", "stream.amplitude=1e200", "--out", str(tmp_path)])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2
    for theorem, line in zip((f"{preset}-expectation", f"{preset}-highprob"), lines):
        assert line.startswith(f"{theorem}: rhs=inf")
        assert line.endswith("warnings: the right-hand side overflowed to infinity")
        rec = json.loads((tmp_path / f"bound_{theorem}.json").read_text())
        assert rec["warnings"] == ["the right-hand side overflowed to infinity"]


def test_bounds_respects_an_explicit_list(tmp_path):
    rc = cli.main(["bounds", *FAST, "--set", 'bounds=["adagrad-expectation"]',
                   "--out", str(tmp_path)])
    assert rc == 0
    assert (tmp_path / "bound_adagrad-expectation.json").exists()
    assert not (tmp_path / "bound_adagrad-highprob.json").exists()


def test_bounds_rejects_a_mismatched_theorem(tmp_path, capsys):
    rc = cli.main(["bounds", *FAST, "--set", 'bounds=["adam-expectation"]',
                   "--out", str(tmp_path)])
    assert rc == 2
    assert "schedule" in capsys.readouterr().err


@pytest.mark.parametrize("settings", [
    ('noise.kind="exact"', "noise.sigma=0", 'bounds=["adagrad-expectation","adagrad-highprob"]'),
    ('bounds=["adagrad-expectation","adam-expectation"]',),
])
def test_bounds_evaluates_every_theorem_before_writing(tmp_path, capsys, settings):
    # the first theorem is fine and the second is refused: nothing is written
    out = tmp_path / "out"
    rc = cli.main(["bounds", *FAST, *(a for s in settings for a in ("--set", s)), "--out", str(out)])
    assert rc == 2
    assert not out.exists()
    assert capsys.readouterr().out == ""


def test_bounds_exact_noise_skips_highprob(tmp_path):
    rc = cli.main(["bounds", *FAST, "--set", 'noise.kind="exact"',
                   "--set", "noise.sigma=0", "--out", str(tmp_path)])
    assert rc == 0
    assert (tmp_path / "bound_adagrad-expectation.json").exists()
    assert not (tmp_path / "bound_adagrad-highprob.json").exists()


def test_verify_lemmas_quick_passes_and_writes_an_artifact(tmp_path, capsys):
    rc = cli.main(["verify-lemmas", "--preset", "quick", "--out", str(tmp_path)])
    assert rc == 0
    artifact = json.loads((tmp_path / "lemmas_quick.json").read_text())
    assert artifact["preset"] == "quick"
    assert artifact["corrupt"] is None
    assert len(artifact["results"]) == 6
    assert all(r["passed"] for r in artifact["results"])
    out = capsys.readouterr().out
    assert "lemma quadratic-root: pass" in out
    assert out.count("lemma ") == 6


def test_verify_lemmas_corruption_self_test_fails(tmp_path, capsys):
    rc = cli.main(["verify-lemmas", "--preset", "quick",
                   "--self-test-corrupt", "sum-ratio", "--out", str(tmp_path)])
    assert rc == 1
    captured = capsys.readouterr()
    assert "FAIL" in captured.out
    assert "verification failure" in captured.err
    artifact = json.loads((tmp_path / "lemmas_quick.json").read_text())
    assert artifact["corrupt"] == "sum-ratio"


@pytest.mark.parametrize("lemma_id", ["nosuch", "objective-drift"])
def test_verify_lemmas_refuses_a_bad_self_test_id_before_writing(tmp_path, capsys, lemma_id):
    # objective-drift is a lemma id of the full preset only
    out = tmp_path / "out"
    rc = cli.main(["verify-lemmas", "--preset", "quick", "--self-test-corrupt", lemma_id,
                   "--out", str(out)])
    assert rc == 2
    assert not out.exists()
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"unknown lemma id {lemma_id!r}" in captured.err


def test_verify_lemmas_validates_config_eagerly(tmp_path):
    rc = cli.main(["verify-lemmas", "--set", "horizon=0", "--out", str(tmp_path)])
    assert rc == 2


def test_parallel_jobs_match_serial_output(tmp_path):
    serial = tmp_path / "serial"
    parallel = tmp_path / "parallel"
    base = ["run", *FAST, "--seeds", "3"]
    assert cli.main([*base, "--jobs", "1", "--out", str(serial)]) == 0
    assert cli.main([*base, "--jobs", "3", "--out", str(parallel)]) == 0
    for seed in range(3):
        name = f"run_seed{seed}.csv"
        assert (serial / name).read_bytes() == (parallel / name).read_bytes()
        a = json.loads((serial / f"summary_seed{seed}.json").read_text())
        b = json.loads((parallel / f"summary_seed{seed}.json").read_text())
        assert a["final_dlr"] == b["final_dlr"]


def _magnitudes(lo, hi):
    """Powers of ten with exponents in [lo, hi], ends included."""
    return st.one_of(
        st.sampled_from([10.0**lo, 10.0**hi]),
        st.floats(min_value=lo, max_value=hi).map(lambda e: 10.0**e),
    )


EXTREME_SETTINGS = {
    "stream.amplitude": _magnitudes(-300, 308),
    "stream.freq_scale": _magnitudes(-300, 308),
    "optimizer.eta": _magnitudes(-300, 308),
    "optimizer.epsilon": _magnitudes(-300, 308),
    "delta": _magnitudes(-300, -1e-16),
    "optimizer.varsigma": _magnitudes(-300, 308),
    "noise.sigma": _magnitudes(-300, 308),
}


@st.composite
def extreme_commands(draw):
    command = draw(st.sampled_from(["run", "bounds"]))
    chosen = draw(st.lists(st.sampled_from(sorted(EXTREME_SETTINGS)), min_size=1, unique=True))
    sets = [f"{key}={draw(EXTREME_SETTINGS[key])!r}" for key in chosen]
    if command == "run":
        horizons = st.integers(min_value=1, max_value=50)
    else:  # up to horizons past the largest float, about 1.8e308
        horizons = st.one_of(st.integers(1, 10**18), st.integers(10**300, 10**310))
    sets.append(f"horizon={draw(horizons)}")
    sets.append(f'optimizer.preset="{draw(st.sampled_from(["adagrad", "adam"]))}"')
    return command, ["--set", "dim=3", "--set", "smoothing.window=4"] + [
        arg for item in sets for arg in ("--set", item)
    ]


@given(extreme_commands())
@settings(max_examples=50, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_extreme_settings_exit_cleanly_with_finite_or_flagged_artifacts(case):
    command, args = case
    if command == "run":
        args = args + ["--seed-list", "0"]
    with tempfile.TemporaryDirectory() as out, warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rc = cli.main([command, *args, "--out", out])
        assert rc in (0, 2, 3)
        if rc != 0:
            return
        if command == "run":
            rows = (Path(out) / "run_seed0.csv").read_text().splitlines()[1:]
            assert all(math.isfinite(float(v)) for row in rows for v in row.split(","))
            summary = json.loads((Path(out) / "summary_seed0.json").read_text())
            assert math.isfinite(summary["final_dlr"]) and math.isfinite(summary["final_slr"])
        else:
            for path in Path(out).glob("bound_*.json"):
                rec = json.loads(path.read_text())
                # a guarantee that is not finite says so
                numbers = [v for v in rec.values() if isinstance(v, float)]
                assert all(math.isfinite(v) for v in numbers) or rec["warnings"]
