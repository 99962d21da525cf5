"""Command-line behaviors: artifacts, overrides, exit codes, output routing."""

import json
import math

import pytest

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
    err = capsys.readouterr().err
    assert "config error" in err


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
    # the iterate grows until <a, x> + b overflows (round 48 at seed 0)
    rc = cli.main(["run", "--set", "optimizer.eta=1e307", "--set", "horizon=50",
                   "--seed-list", "0", "--out", str(tmp_path)])
    assert rc == 3
    err = capsys.readouterr().err
    assert "numeric error: round 48 produced a non-finite sine argument" in err


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
