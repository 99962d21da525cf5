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
from .numerics import ConfigError, _check_key_part, check_int, check_real
from .optimizer import (
    ALPHA_RANGE,
    BETA1_RANGE,
    BETA2_RANGE,
    OptimizerConfig,
    make_config_adagrad,
    make_config_adam,
)
from .regret import DELTA_RANGE, THEOREMS
from .tasks import (
    EXACT,
    GAUSSIAN,
    SUBGAUSSIAN,
    SIGMA_RANGE,
    STEP_RANGE,
    NoiseModel,
    make_drifting_sine_stream,
    make_piecewise_drift_stream,
)

__all__ = ["DEFAULTS", "ExperimentConfig", "load_config", "default_config"]

DEFAULTS: dict = {
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
    "noise": {
        "kind": GAUSSIAN,
        "sigma": 0.5,
        "kappa": None,
    },
    "adapt": {
        "theta": 0.05,
        "train_batch": 32,
    },
    "optimizer": {
        "preset": "adagrad",
        "eta": 0.1,
        "beta1": 0.9,
        "beta2": 0.999,
        "epsilon": 1e-8,
        "varsigma": None,
    },
    "smoothing": {
        "alpha": 1.0,
        "window": 16,
        "window_fraction": None,
    },
}


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
    parts = dotted.split(".")
    node = cfg
    for part in parts[:-1]:
        if not isinstance(node, dict) or part not in node:
            errors.append(f"{dotted}: unknown key")
            return
        node = node[part]
    leaf = parts[-1]
    if not isinstance(node, dict) or leaf not in node:
        errors.append(f"{dotted}: unknown key")
        return
    if isinstance(node[leaf], dict):
        errors.append(f"{dotted}: cannot assign to an object")
        return
    node[leaf] = value


# Each key checked by the library's rule for its parameter, named by its
# dotted path: check_int, the seed rule, or check_real over the interval the
# library states (none: the positive reals, check_real's default).
# window_fraction is the loader's own key. The keys in _NULLABLE may be null.
_KEY_RULES = (
    ("horizon", check_int),
    ("dim", check_int),
    ("delta", check_real, DELTA_RANGE),
    ("stream.amplitude", check_real),
    ("stream.freq_scale", check_real),
    ("stream.drift_rate", check_real, STEP_RANGE),
    ("stream.segment_length", check_int),
    ("stream.jump_scale", check_real, STEP_RANGE),
    ("stream.seed", _check_key_part),
    ("noise.sigma", check_real, SIGMA_RANGE),
    ("noise.kappa", check_real),
    ("adapt.theta", check_real, THETA_RANGE),
    ("adapt.train_batch", check_int),
    ("optimizer.eta", check_real),
    ("optimizer.epsilon", check_real),
    ("optimizer.beta1", check_real, BETA1_RANGE),
    ("optimizer.beta2", check_real, BETA2_RANGE),
    ("optimizer.varsigma", check_real),
    ("smoothing.alpha", check_real, ALPHA_RANGE),
    ("smoothing.window", check_int),
    ("smoothing.window_fraction", check_real, (0.0, 1.0, "(]")),
)
_NULLABLE = {
    "stream.seed", "noise.kappa", "optimizer.varsigma", "smoothing.window",
    "smoothing.window_fraction",
}


def _validate(cfg: dict) -> list:
    """Every error in cfg, each naming its key and value."""
    e: list = []

    def check(key, value, rule, *args):
        """rule(key, value, *args), or None with its error recorded."""
        try:
            return rule(key, value, *args)
        except ConfigError as exc:
            e.append(str(exc))

    ok = {}  # the checked value of each key that passed its rule
    for key, rule, *args in _KEY_RULES:
        section, _, leaf = key.rpartition(".")
        value = (cfg[section] if section else cfg)[leaf]
        if value is not None or key not in _NULLABLE:
            ok[key] = check(key, value, rule, *args)

    seeds = cfg["seeds"]
    if isinstance(seeds, list) and seeds:
        for i, seed in enumerate(seeds):
            check(f"seeds[{i}]", seed, _check_key_part)
    else:
        e.append(f"seeds must be a non-empty list of seeds, got {seeds!r}")
    if not (cfg["out_dir"] is None or isinstance(cfg["out_dir"], str)):
        e.append(f"out_dir must be a string or null, got {cfg['out_dir']!r}")
    bounds = cfg["bounds"]
    if bounds is not None:
        if not isinstance(bounds, list) or not bounds:
            e.append(f"bounds must be null or a non-empty list of theorem ids, got {bounds!r}")
        else:
            for b in bounds:
                if b not in THEOREMS:
                    e.append(f"bounds must name ids in {THEOREMS}, got unknown theorem id {b!r}")
    init = cfg["init"]
    if init is not None:
        if not isinstance(init, list) or not init:
            e.append(f"init must be null or a non-empty list of finite numbers, got {init!r}")
        else:
            for i, v in enumerate(init):
                check(f"init[{i}]", v, check_real, (-math.inf, math.inf, "()"))
            if ok["dim"] is not None and len(init) != ok["dim"]:
                e.append(f"init must have dim = {ok['dim']} entries, got {len(init)}")

    for key, names in (
        ("stream.family", ("drifting-sine", "piecewise-sine")),
        ("noise.kind", (EXACT, GAUSSIAN, SUBGAUSSIAN)),
        ("optimizer.preset", ("adagrad", "adam")),
    ):
        section, _, leaf = key.rpartition(".")
        if cfg[section][leaf] not in names:
            e.append(f"{key} must be one of {names}, got {cfg[section][leaf]!r}")
    sigma, kind = ok["noise.sigma"], cfg["noise"]["kind"]
    if sigma is not None and (kind == EXACT) != (sigma == 0.0):
        need = "0 for exact noise" if kind == EXACT else f"> 0 for {kind} noise"
        e.append(f"noise.sigma must be {need}, got {sigma!r}")
    b1, b2 = ok["optimizer.beta1"], ok["optimizer.beta2"]
    if cfg["optimizer"]["preset"] == "adam" and None not in (b1, b2) and not 0 < b1 < b2 < 1:
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
        if op["preset"] == "adagrad":
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
        noise = self.noise_model()
        if st["family"] == "drifting-sine":
            return make_drifting_sine_stream(
                dim=self.dim,
                amplitude=float(st["amplitude"]),
                freq_scale=float(st["freq_scale"]),
                drift_rate=float(st["drift_rate"]),
                noise=noise,
                seed=seed,
            )
        return make_piecewise_drift_stream(
            dim=self.dim,
            segment_length=int(st["segment_length"]),
            jump_scale=float(st["jump_scale"]),
            amplitude=float(st["amplitude"]),
            freq_scale=float(st["freq_scale"]),
            noise=noise,
            seed=seed,
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
