"""Configuration loading: defaults, overrides, validation, accessors."""

import json
from pathlib import Path

import pytest

from dynreg import ConfigError
from dynreg.config import DEFAULTS, default_config, load_config


def test_defaults_load_cleanly():
    cfg = load_config()
    assert cfg.horizon == 500
    assert cfg.dim == 10
    assert cfg.window() == 16
    assert cfg.alpha == 1.0
    assert cfg.seeds == [0]
    assert cfg.optimizer().beta1 == 0.0  # the adagrad preset pins the moments
    assert cfg.optimizer().beta2 == 1.0
    assert cfg.noise_model().sigma == 0.5
    assert cfg.inner().theta == 0.05


def test_default_config_is_a_fresh_copy():
    one = default_config()
    one["horizon"] = 7
    one["optimizer"]["eta"] = 99.0
    assert DEFAULTS["horizon"] == 500
    assert DEFAULTS["optimizer"]["eta"] == 0.1


def test_set_overrides_parse_json_values():
    cfg = load_config(None, ("horizon=32", "smoothing.alpha=0.9",
                             'stream.family="piecewise-sine"'))
    assert cfg.horizon == 32
    assert cfg.alpha == 0.9
    assert cfg.stream(0).kind == "piecewise-sine"


def test_set_requires_key_value_shape():
    with pytest.raises(ConfigError, match="KEY=VALUE"):
        load_config(None, ("horizon",))


def test_window_fraction_resolves_at_the_ceiling():
    cfg = load_config(None, ("smoothing.window=null", "smoothing.window_fraction=0.5",
                             "horizon=25"))
    assert cfg.window() == 13
    snap = cfg.snapshot(seed=2)
    assert snap["smoothing"]["window"] == 13
    assert snap["run_seed"] == 2


def test_window_settings_are_exclusive():
    with pytest.raises(ConfigError, match="exactly one"):
        load_config(None, ("smoothing.window_fraction=0.5",))
    with pytest.raises(ConfigError, match="exactly one"):
        load_config(None, ("smoothing.window=null",))


def test_unknown_keys_are_named():
    with pytest.raises(ConfigError, match="optimizer.momentum: unknown key"):
        load_config(None, ("optimizer.momentum=0.9",))
    with pytest.raises(ConfigError, match="cannot assign"):
        load_config(None, ("optimizer=3",))


def test_adapt_test_batch_is_an_unknown_key(tmp_path):
    # the round loss has no batch size; the option was dropped from the schema
    with pytest.raises(ConfigError, match="adapt.test_batch: unknown key"):
        load_config(None, ("adapt.test_batch=32",))
    path = tmp_path / "old.json"
    path.write_text(json.dumps({"adapt": {"test_batch": 32}}))
    with pytest.raises(ConfigError, match="adapt.test_batch: unknown key"):
        load_config(str(path))


def test_errors_are_collected_together():
    with pytest.raises(ConfigError) as exc:
        load_config(None, ("horizon=0", "dim=0", "delta=2"))
    msg = str(exc.value)
    assert "horizon" in msg
    assert "dim" in msg
    assert "delta" in msg
    # each failing key is listed with its value, the stream seed at load time
    with pytest.raises(ConfigError) as exc:
        load_config(None, ("horizon=0", "dim=true", "seeds=[1.5]",
                           "stream.seed=18446744073709551616"))
    lines = [line.strip() for line in str(exc.value).splitlines()[1:]]
    for key, value in (("horizon", "0"), ("dim", "True"), ("seeds[0]", "1.5"),
                       ("stream.seed", "18446744073709551616")):
        assert any(line.startswith(f"{key} must be") and line.endswith(f", got {value}")
                   for line in lines), (key, lines)


def test_beta_ranges_are_checked_for_every_preset():
    with pytest.raises(ConfigError, match="beta1"):
        load_config(None, ("optimizer.beta1=2.0",))
    with pytest.raises(ConfigError, match="beta2"):
        load_config(None, ("optimizer.beta2=0",))
    with pytest.raises(ConfigError, match="adam preset"):
        load_config(None, ('optimizer.preset="adam"', "optimizer.beta2=1.0"))


def test_exact_noise_requires_zero_sigma():
    with pytest.raises(ConfigError, match="sigma"):
        load_config(None, ('noise.kind="exact"',))
    cfg = load_config(None, ('noise.kind="exact"', "noise.sigma=0"))
    assert cfg.noise_model().is_exact


def test_init_vector_length_is_checked():
    with pytest.raises(ConfigError, match="init"):
        load_config(None, ("init=[1.0,2.0]",))  # dim defaults to 10
    cfg = load_config(None, ("dim=2", "init=[1.0,2.0]"))
    assert cfg.init_vector().tolist() == [1.0, 2.0]
    assert load_config(None, ("dim=3",)).init_vector() is None


def test_bounds_list_follows_preset_and_noise():
    assert load_config().bounds_list() == ["adagrad-expectation", "adagrad-highprob"]
    exact = load_config(None, ('noise.kind="exact"', "noise.sigma=0"))
    assert exact.bounds_list() == ["adagrad-expectation"]
    explicit = load_config(None, ('bounds=["adam-highprob"]',))
    assert explicit.bounds_list() == ["adam-highprob"]
    with pytest.raises(ConfigError, match="unknown theorem"):
        load_config(None, ('bounds=["adamw-expectation"]',))


def test_stream_seed_defaults_to_the_run_seed():
    cfg = load_config(None, ("horizon=8",))
    assert cfg.stream(7).seed == 7
    pinned = load_config(None, ("stream.seed=3",))
    assert pinned.stream(7).seed == 3


def test_adam_preset_builds_schedule_config():
    cfg = load_config(None, ('optimizer.preset="adam"',))
    opt = cfg.optimizer()
    assert opt.schedule == "adam"
    assert opt.beta1 == 0.9
    assert opt.beta2 == 0.999


def test_config_file_round_trip(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"dim": 3, "optimizer": {"eta": 0.25}}))
    cfg = load_config(str(path))
    assert cfg.dim == 3
    assert cfg.optimizer().eta == 0.25

    with pytest.raises(ConfigError, match="not found"):
        load_config(str(tmp_path / "missing.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError, match="valid JSON"):
        load_config(str(bad))
    arr = tmp_path / "arr.json"
    arr.write_text("[1, 2]")
    with pytest.raises(ConfigError, match="JSON object"):
        load_config(str(arr))
    obj = tmp_path / "obj.json"
    obj.write_text(json.dumps({"optimizer": 3}))
    with pytest.raises(ConfigError, match="expected an object"):
        load_config(str(obj))


# the schema's defaults, written out so that a changed or dropped row shows
PINNED_DEFAULTS = {
    "horizon": 500,
    "dim": 10,
    "delta": 0.1,
    "seeds": [0],
    "out_dir": None,
    "bounds": None,
    "init": None,
    "stream": {
        "family": "drifting-sine",
        "amplitude": 1.0,
        "freq_scale": 1.0,
        "drift_rate": 0.05,
        "segment_length": 50,
        "jump_scale": 0.5,
        "seed": None,
    },
    "noise": {"kind": "gaussian", "sigma": 0.5, "kappa": None},
    "adapt": {"theta": 0.05, "train_batch": 32},
    "optimizer": {
        "preset": "adagrad",
        "eta": 0.1,
        "beta1": 0.9,
        "beta2": 0.999,
        "epsilon": 1e-8,
        "varsigma": None,
    },
    "smoothing": {"alpha": 1.0, "window": 16, "window_fraction": None},
}

KEYS = [
    "horizon", "dim", "delta", "seeds", "out_dir", "bounds", "init",
    "stream.family", "stream.amplitude", "stream.freq_scale", "stream.drift_rate",
    "stream.segment_length", "stream.jump_scale", "stream.seed",
    "noise.kind", "noise.sigma", "noise.kappa",
    "adapt.theta", "adapt.train_batch",
    "optimizer.preset", "optimizer.eta", "optimizer.beta1", "optimizer.beta2",
    "optimizer.epsilon", "optimizer.varsigma",
    "smoothing.alpha", "smoothing.window", "smoothing.window_fraction",
]
NULLABLE = {
    "stream.seed", "noise.kappa", "optimizer.varsigma", "smoothing.window",
    "smoothing.window_fraction",
}
LOADER_NULLABLE = {"out_dir", "bounds", "init"}  # the loader's own keys, null by default


def _error_lines(sets) -> list:
    with pytest.raises(ConfigError) as exc:
        load_config(None, sets)
    return [line.strip() for line in str(exc.value).splitlines()[1:]]


def test_defaults_are_pinned():
    assert DEFAULTS == PINNED_DEFAULTS
    assert default_config() == PINNED_DEFAULTS


def test_keys_list_every_default():
    leaves = [f"{k}.{leaf}" for k, v in DEFAULTS.items() if isinstance(v, dict) for leaf in v]
    top = [k for k, v in DEFAULTS.items() if not isinstance(v, dict)]
    assert sorted(leaves + top) == sorted(KEYS)


@pytest.mark.parametrize("key", KEYS)
def test_every_key_refuses_a_bool_and_a_string(key):
    for value in ("true", '"text"'):
        if key == "out_dir" and value == '"text"':
            continue  # a directory name is a string
        lines = _error_lines((f"{key}={value}",))
        assert any(line.startswith(f"{key} must ") for line in lines), (value, lines)


@pytest.mark.parametrize("key", KEYS)
def test_only_the_nullable_keys_accept_null(key):
    # the window may be null only when its fraction is set
    extra = ("smoothing.window_fraction=0.5",) if key == "smoothing.window" else ()
    sets = (f"{key}=null", *extra)
    if key in NULLABLE | LOADER_NULLABLE:
        load_config(None, sets)
    else:
        lines = _error_lines(sets)
        assert any(line.startswith(f"{key} must ") for line in lines), lines


def test_combined_errors_keep_their_order():
    lines = _error_lines((
        'stream.family="x"', "seeds=[1.5]", "out_dir=3", 'noise.kind="y"', "init=[1]",
        'optimizer.preset="z"', "smoothing.window=null", "noise.sigma=0",
    ))
    assert lines == [
        "seeds[0] must be an integer >= 0, got 1.5",
        "out_dir must be a string or null, got 3",
        "init must have dim = 10 entries, got 1",
        "stream.family must be one of ('drifting-sine', 'piecewise-sine'), got 'x'",
        "noise.kind must be one of ('exact', 'gaussian', 'subgaussian'), got 'y'",
        "optimizer.preset must be one of ('adagrad', 'adam'), got 'z'",
        "noise.sigma must be > 0 for y noise, got 0.0",
        "smoothing.window / smoothing.window_fraction: exactly one must be set, "
        "got None and None",
    ]


def test_list_keys_name_each_failing_entry():
    lines = _error_lines(('bounds=["x", "adam-highprob", 3]', "init=[1, true, null]",
                          "seeds=[0, -1, 2.5]"))
    theorems = "('adagrad-expectation', 'adam-expectation', 'adagrad-highprob', 'adam-highprob')"
    assert lines == [
        "seeds[1] must be an integer >= 0, got -1",
        "seeds[2] must be an integer >= 0, got 2.5",
        f"bounds must name ids in {theorems}, got unknown theorem id 'x'",
        f"bounds must name ids in {theorems}, got unknown theorem id 3",
        "init[1] must be in (-inf, inf), got True",
        "init[2] must be in (-inf, inf), got None",
        "init must have dim = 10 entries, got 3",
    ]


def test_seeds_and_bounds_refuse_a_repeated_entry():
    lines = _error_lines(("seeds=[3, 1, 3, 1, 3]", 'bounds=["adam-highprob", "adam-highprob"]',
                          "init=[1, 1]", "dim=2"))
    assert lines == [
        "seeds[2] must not repeat seeds[0], got 3",
        "seeds[3] must not repeat seeds[1], got 1",
        "seeds[4] must not repeat seeds[0], got 3",
        "bounds[1] must not repeat bounds[0], got 'adam-highprob'",
    ]


def test_readme_key_table_matches_the_defaults():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    table = readme.split("Selected keys, with defaults:")[1].split("\n\n")[1]
    rows = [line.split("|")[1:3] for line in table.splitlines()[2:]]
    assert rows
    for key, default in rows:
        key, default = key.strip().strip("`"), default.strip()
        section, _, leaf = key.rpartition(".")
        expected = (DEFAULTS[section] if section else DEFAULTS)[leaf]
        shown = default.strip("`") if default.startswith("`") else json.loads(default)
        assert shown == expected and type(shown) is type(expected), (key, default)
