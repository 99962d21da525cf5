"""Experiment configuration: one JSON document, validated as a whole.

Unknown keys are rejected; all validation errors are collected and reported
together, each named by its dotted path. The smoothing window is given
either absolutely (smoothing.window) or as a fraction of the horizon
(smoothing.window_fraction, resolved to ceil(fraction * horizon)); exactly
one of the two must be set.
"""

from __future__ import annotations

import copy
import json
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .meta import THETA_RANGE, InnerAdaptConfig
from .numerics import ConfigError, _check_key_part, check_int, check_one_of, check_real
from .optimizer import (
    ALPHA_RANGE,
    BETA1_RANGE,
    BETA2_RANGE,
    OptimizerConfig,
    make_config_adagrad,
    make_config_adam,
)
from .regret import _PRESETS, ADAGRAD, ADAM, DELTA_RANGE, THEOREMS
from .tasks import (
    _FAMILIES,
    _KINDS,
    DRIFTING,
    EXACT,
    GAUSSIAN,
    SIGMA_RANGE,
    STEP_RANGE,
    NoiseModel,
    SineStream,
)

__all__ = ["DEFAULTS", "ExperimentConfig", "load_config", "default_config"]


def _or_null(key: str, value, rule, *args):
    """None for a null value, else rule(key, value, *args)."""
    return None if value is None else rule(key, value, *args)


def _check_str(key: str, value) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"{key} must be a string or null, got {value!r}")
    return value


def _check_theorem_id(key: str, value) -> str:
    if value not in THEOREMS:
        raise ConfigError(f"bounds must name ids in {THEOREMS}, got unknown theorem id {value!r}")
    return value


def _check_entries(key: str, value, what: str, rule, *args) -> list:
    """value, a non-empty list whose entries pass rule(f"{key}[i]", entry, *args);
    else a ConfigError with one line per failing entry."""
    if not isinstance(value, list) or not value:
        raise ConfigError(f"{key} must be {what}, got {value!r}")
    errors = []
    for i, entry in enumerate(value):
        try:
            rule(f"{key}[{i}]", entry, *args)
        except ConfigError as exc:
            errors.append(str(exc))
    if errors:
        raise ConfigError("\n".join(errors))
    return value


def _check_distinct(key: str, values) -> list:
    """values, whose entries all differ; else a ConfigError with one line per
    entry that repeats an earlier one."""
    first: dict = {}
    errors = []
    for i, entry in enumerate(values):
        j = first.setdefault(entry, i)
        if j != i:
            errors.append(f"{key}[{i}] must not repeat {key}[{j}], got {entry!r}")
    if errors:
        raise ConfigError("\n".join(errors))
    return values


def _check_distinct_entries(key: str, value, what: str, rule, *args) -> list:
    """_check_entries for a list that names each run or report once."""
    return _check_distinct(key, _check_entries(key, value, what, rule, *args))


# One row per key, in the order its errors are listed: (dotted key, default,
# rule, *args); rule(key, value, *args) returns the checked value or raises.
# A parameter takes the library's rule (check_real's default interval is the
# positive reals); window_fraction, seeds, out_dir, bounds and init are the
# loader's own; seeds and bounds also refuse a repeated entry. A key whose
# default is None may be null; so may the window.
_SCHEMA = (
    ("horizon", 500, check_int),
    ("dim", 10, check_int),
    ("delta", 0.1, check_real, DELTA_RANGE),
    ("stream.amplitude", 1.0, check_real),
    ("stream.freq_scale", 1.0, check_real),
    ("stream.drift_rate", 0.05, check_real, STEP_RANGE),
    ("stream.segment_length", 50, check_int),
    ("stream.jump_scale", 0.5, check_real, STEP_RANGE),
    ("stream.seed", None, _check_key_part),
    ("noise.sigma", 0.5, check_real, SIGMA_RANGE),
    ("noise.kappa", None, check_real),
    ("adapt.theta", 0.05, check_real, THETA_RANGE),
    ("adapt.train_batch", 32, check_int),
    ("optimizer.eta", 0.1, check_real),
    ("optimizer.epsilon", 1e-8, check_real),
    ("optimizer.beta1", 0.9, check_real, BETA1_RANGE),
    ("optimizer.beta2", 0.999, check_real, BETA2_RANGE),
    ("optimizer.varsigma", None, check_real),
    ("smoothing.alpha", 1.0, check_real, ALPHA_RANGE),
    ("smoothing.window", 16, _or_null, check_int),
    ("smoothing.window_fraction", None, check_real, (0.0, 1.0, "(]")),
    ("seeds", [0], _check_distinct_entries, "a non-empty list of seeds", _check_key_part),
    ("out_dir", None, _check_str),
    ("bounds", None, _check_distinct_entries, "null or a non-empty list of theorem ids",
     _check_theorem_id),
    ("init", None, _check_entries, "null or a non-empty list of finite numbers",
     check_real, (-math.inf, math.inf, "()")),
    ("stream.family", DRIFTING, check_one_of, _FAMILIES),
    ("noise.kind", GAUSSIAN, check_one_of, _KINDS),
    ("optimizer.preset", ADAGRAD, check_one_of, _PRESETS),
)
_KEYS = {row[0] for row in _SCHEMA}
_SECTIONS = {key.rpartition(".")[0] for key in _KEYS} - {""}


def _node(cfg: dict, key: str):
    """The dict that holds the dotted key's leaf, and the leaf."""
    section, _, leaf = key.rpartition(".")
    return (cfg[section] if section else cfg), leaf


def _defaults() -> dict:
    out: dict = {}
    for key, default, *_ in _SCHEMA:
        section, _, leaf = key.rpartition(".")
        (out.setdefault(section, {}) if section else out)[leaf] = default
    return out


DEFAULTS: dict = _defaults()


def default_config() -> dict:
    return copy.deepcopy(DEFAULTS)


def _merge(base: dict, override: dict, path: str, errors: list) -> None:
    for key, value in override.items():
        here = f"{path}.{key}" if path else key
        if key not in base:
            errors.append(f"{here}: unknown key")
            continue
        if isinstance(base[key], dict) and not isinstance(value, dict) and value is not None:
            errors.append(f"{here}: expected an object")
            continue
        if isinstance(base[key], dict):
            if value is not None:
                _merge(base[key], value, here, errors)
        else:
            base[key] = value


def _set_path(cfg: dict, dotted: str, value, errors: list) -> None:
    if dotted in _SECTIONS:
        errors.append(f"{dotted}: cannot assign to an object")
    elif dotted not in _KEYS:
        errors.append(f"{dotted}: unknown key")
    else:
        parent, leaf = _node(cfg, dotted)
        parent[leaf] = value


def _validate(cfg: dict) -> list:
    """Every error in cfg, each naming its key and value."""
    e: list = []
    ok = {}  # each key's checked value, None where its rule failed
    for key, default, rule, *args in _SCHEMA:
        parent, leaf = _node(cfg, key)
        value = parent[leaf]
        if value is None and default is None:
            continue
        try:
            ok[key] = rule(key, value, *args)
        except ConfigError as exc:
            ok[key] = None
            e.extend(str(exc).split("\n"))
        # init's length is checked at its row, so its error keeps its place
        if key == "init" and isinstance(value, list) and value:
            if ok["dim"] not in (None, len(value)):
                e.append(f"init must have dim = {ok['dim']} entries, got {len(value)}")

    sigma, kind = ok["noise.sigma"], cfg["noise"]["kind"]
    if sigma is not None and (kind == EXACT) != (sigma == 0.0):
        need = "0 for exact noise" if kind == EXACT else f"> 0 for {kind} noise"
        e.append(f"noise.sigma must be {need}, got {sigma!r}")
    b1, b2 = ok["optimizer.beta1"], ok["optimizer.beta2"]
    if cfg["optimizer"]["preset"] == ADAM and None not in (b1, b2) and not 0 < b1 < b2 < 1:
        e.append(
            "optimizer.beta1/beta2: adam preset needs 0 < beta1 < beta2 < 1, "
            f"got {b1!r} and {b2!r}"
        )
    w, frac = cfg["smoothing"]["window"], cfg["smoothing"]["window_fraction"]
    if (w is None) == (frac is None):
        e.append(
            "smoothing.window / smoothing.window_fraction: exactly one must be set, "
            f"got {w!r} and {frac!r}"
        )
    return e


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated experiment configuration with typed accessors."""

    raw: dict

    @property
    def horizon(self) -> int:
        return int(self.raw["horizon"])

    @property
    def dim(self) -> int:
        return int(self.raw["dim"])

    @property
    def delta(self) -> float:
        return float(self.raw["delta"])

    @property
    def seeds(self) -> list:
        return [int(s) for s in self.raw["seeds"]]

    @property
    def out_dir(self) -> Optional[str]:
        return self.raw["out_dir"]

    @property
    def varsigma(self) -> Optional[float]:
        v = self.raw["optimizer"]["varsigma"]
        return None if v is None else float(v)

    def window(self) -> int:
        sm = self.raw["smoothing"]
        if sm["window"] is not None:
            return int(sm["window"])
        return max(1, math.ceil(float(sm["window_fraction"]) * self.horizon))

    @property
    def alpha(self) -> float:
        return float(self.raw["smoothing"]["alpha"])

    def noise_model(self) -> NoiseModel:
        no = self.raw["noise"]
        return NoiseModel(kind=no["kind"], sigma=float(no["sigma"]), kappa=no["kappa"])

    def inner(self) -> InnerAdaptConfig:
        ad = self.raw["adapt"]
        return InnerAdaptConfig(
            theta=float(ad["theta"]),
            train_batch=int(ad["train_batch"]),
        )

    def optimizer(self) -> OptimizerConfig:
        op = self.raw["optimizer"]
        if op["preset"] == ADAGRAD:
            return make_config_adagrad(
                eta=float(op["eta"]),
                epsilon=float(op["epsilon"]),
                alpha=self.alpha,
                window=self.window(),
            )
        return make_config_adam(
            eta=float(op["eta"]),
            beta1=float(op["beta1"]),
            beta2=float(op["beta2"]),
            epsilon=float(op["epsilon"]),
            alpha=self.alpha,
            window=self.window(),
        )

    def stream(self, run_seed: int):
        st = self.raw["stream"]
        seed = run_seed if st["seed"] is None else int(st["seed"])
        # a drifting stream is the walk with one-round segments
        if st["family"] == DRIFTING:
            segment_length, step = 1, st["drift_rate"]
        else:
            segment_length, step = st["segment_length"], st["jump_scale"]
        return SineStream(
            st["family"], self.dim, segment_length, step, st["amplitude"], st["freq_scale"],
            self.noise_model(), seed,
        )

    def init_vector(self) -> Optional[np.ndarray]:
        init = self.raw["init"]
        if init is None:
            return None
        return np.asarray(init, dtype=np.float64)

    def bounds_list(self) -> list:
        """Requested theorem ids, defaulting to the configured preset's pair
        (the high-probability one only when a kappa is derivable)."""
        if self.raw["bounds"] is not None:
            return list(self.raw["bounds"])
        preset = self.raw["optimizer"]["preset"]
        ids = [f"{preset}-expectation"]
        if not self.noise_model().is_exact:
            ids.append(f"{preset}-highprob")
        return ids

    def snapshot(self, seed: Optional[int] = None) -> dict:
        """Fully resolved config (window fraction resolved) for artifacts."""
        snap = copy.deepcopy(self.raw)
        snap["smoothing"]["window"] = self.window()
        if seed is not None:
            snap["run_seed"] = int(seed)
        return snap


def load_config(path: Optional[str] = None, sets=()) -> ExperimentConfig:
    """Merge defaults, an optional JSON file, and --set overrides; validate."""
    cfg = default_config()
    errors: list = []
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                loaded = json.load(fh)
        except FileNotFoundError:
            raise ConfigError(f"config file not found: {path}")
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file {path} is not valid JSON: {exc}")
        if not isinstance(loaded, dict):
            raise ConfigError(f"config file {path} must hold a JSON object")
        _merge(cfg, loaded, "", errors)
    for item in sets:
        if "=" not in item:
            errors.append(f"--set {item!r}: expected KEY=VALUE")
            continue
        key, _, raw_val = item.partition("=")
        try:
            value = json.loads(raw_val)
        except json.JSONDecodeError:
            value = raw_val
        _set_path(cfg, key.strip(), value, errors)
    if errors:
        raise ConfigError("invalid configuration:\n  " + "\n  ".join(errors))
    errors = _validate(cfg)
    if errors:
        raise ConfigError("invalid configuration:\n  " + "\n  ".join(errors))
    return ExperimentConfig(raw=cfg)
