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

from .meta import InnerAdaptConfig
from .numerics import ConfigError
from .optimizer import OptimizerConfig, make_config_adagrad, make_config_adam
from .regret import THEOREMS
from .tasks import (
    EXACT,
    GAUSSIAN,
    SUBGAUSSIAN,
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


def _is_int(v) -> bool:
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)


def _is_num(v) -> bool:
    return (_is_int(v) or isinstance(v, float)) and math.isfinite(float(v))


def _validate(cfg: dict) -> list:
    e: list = []

    def need(cond, msg):
        if not cond:
            e.append(msg)

    need(_is_int(cfg["horizon"]) and cfg["horizon"] >= 1, "horizon: must be an integer >= 1")
    need(_is_int(cfg["dim"]) and cfg["dim"] >= 1, "dim: must be an integer >= 1")
    need(
        _is_num(cfg["delta"]) and 0.0 < cfg["delta"] < 1.0,
        "delta: must be a number in (0, 1)",
    )
    seeds = cfg["seeds"]
    need(
        isinstance(seeds, list) and seeds and all(_is_int(s) and s >= 0 for s in seeds),
        "seeds: must be a non-empty list of integers >= 0",
    )
    need(
        cfg["out_dir"] is None or isinstance(cfg["out_dir"], str),
        "out_dir: must be a string or null",
    )
    bounds = cfg["bounds"]
    if bounds is not None:
        if not isinstance(bounds, list) or not bounds:
            e.append("bounds: must be null or a non-empty list of theorem ids")
        else:
            for b in bounds:
                if b not in THEOREMS:
                    e.append(f"bounds: unknown theorem id {b!r}; expected one of {THEOREMS}")
    init = cfg["init"]
    if init is not None:
        ok = isinstance(init, list) and init and all(_is_num(v) for v in init)
        need(ok, "init: must be null or a list of finite numbers")
        if ok and _is_int(cfg["dim"]) and len(init) != cfg["dim"]:
            e.append(f"init: length {len(init)} does not match dim {cfg['dim']}")

    st = cfg["stream"]
    need(
        st["family"] in ("drifting-sine", "piecewise-sine"),
        "stream.family: must be 'drifting-sine' or 'piecewise-sine'",
    )
    need(
        _is_num(st["amplitude"]) and st["amplitude"] > 0,
        "stream.amplitude: must be a positive number",
    )
    need(
        _is_num(st["freq_scale"]) and st["freq_scale"] > 0,
        "stream.freq_scale: must be a positive number",
    )
    need(
        _is_num(st["drift_rate"]) and st["drift_rate"] >= 0,
        "stream.drift_rate: must be a number >= 0",
    )
    need(
        _is_int(st["segment_length"]) and st["segment_length"] >= 1,
        "stream.segment_length: must be an integer >= 1",
    )
    need(
        _is_num(st["jump_scale"]) and st["jump_scale"] >= 0,
        "stream.jump_scale: must be a number >= 0",
    )
    need(
        st["seed"] is None or (_is_int(st["seed"]) and st["seed"] >= 0),
        "stream.seed: must be null or an integer >= 0",
    )

    no = cfg["noise"]
    need(
        no["kind"] in (EXACT, GAUSSIAN, SUBGAUSSIAN),
        f"noise.kind: must be one of {(EXACT, GAUSSIAN, SUBGAUSSIAN)}",
    )
    need(_is_num(no["sigma"]) and no["sigma"] >= 0, "noise.sigma: must be a number >= 0")
    if no["kind"] == EXACT and _is_num(no["sigma"]) and no["sigma"] != 0:
        e.append("noise.sigma: must be 0 for exact noise")
    if no["kind"] != EXACT and _is_num(no["sigma"]) and no["sigma"] == 0:
        e.append(f"noise.sigma: must be > 0 for {no['kind']} noise")
    need(
        no["kappa"] is None or (_is_num(no["kappa"]) and no["kappa"] > 0),
        "noise.kappa: must be null or a positive number",
    )

    ad = cfg["adapt"]
    need(_is_num(ad["theta"]) and ad["theta"] >= 0, "adapt.theta: must be a number >= 0")
    need(
        _is_int(ad["train_batch"]) and ad["train_batch"] >= 1,
        "adapt.train_batch: must be an integer >= 1",
    )

    op = cfg["optimizer"]
    need(
        op["preset"] in ("adagrad", "adam"),
        "optimizer.preset: must be 'adagrad' or 'adam'",
    )
    need(_is_num(op["eta"]) and op["eta"] > 0, "optimizer.eta: must be a positive number")
    need(
        _is_num(op["epsilon"]) and op["epsilon"] > 0,
        "optimizer.epsilon: must be a positive number",
    )
    need(
        _is_num(op["beta1"]) and 0 <= op["beta1"] < 1,
        "optimizer.beta1: must be a number in [0, 1)",
    )
    need(
        _is_num(op["beta2"]) and 0 < op["beta2"] <= 1,
        "optimizer.beta2: must be a number in (0, 1]",
    )
    if op["preset"] == "adam":
        if not (_is_num(op["beta1"]) and _is_num(op["beta2"]) and 0 < op["beta1"] < op["beta2"] < 1):
            e.append("optimizer.beta1/beta2: adam preset needs 0 < beta1 < beta2 < 1")
    need(
        op["varsigma"] is None or (_is_num(op["varsigma"]) and op["varsigma"] > 0),
        "optimizer.varsigma: must be null or a positive number",
    )

    sm = cfg["smoothing"]
    need(
        _is_num(sm["alpha"]) and 0 < sm["alpha"] <= 1,
        "smoothing.alpha: must be a number in (0, 1]",
    )
    w, frac = sm["window"], sm["window_fraction"]
    if (w is None) == (frac is None):
        e.append(
            "smoothing.window / smoothing.window_fraction: exactly one must be set"
        )
    if w is not None:
        need(_is_int(w) and w >= 1, "smoothing.window: must be an integer >= 1")
    if frac is not None:
        need(
            _is_num(frac) and 0 < frac <= 1,
            "smoothing.window_fraction: must be a number in (0, 1]",
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
        snap["smoothing"]["window_fraction"] = self.raw["smoothing"]["window_fraction"]
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
