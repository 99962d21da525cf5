"""Time-smoothed adaptive gradient optimizer.

The update keeps exponential moving estimates (m, v) of the smoothed
stochastic gradient and its square and steps coordinate-wise:

    g~_t = (1/W) sum_{r < min(t,w)} alpha^r g_{t-r}(x_{t-r}, fresh noise)
    m <- beta1 m + g~_t;   v <- beta2 v + g~_t^2
    x <- x - eta_{t+1} * m / sqrt(epsilon + v)

W = sum_{r<w} alpha^r always uses the full window length, so early rounds
with short history are damped rather than rescaled. Two presets are
provided: an accumulating one (beta1 = 0, beta2 = 1, constant step size)
and a momentum one (0 < beta1 < beta2 < 1) with the increasing schedule
eta_{t+1} = eta (1-beta1) sqrt((1-beta2^{t+1})/(1-beta2)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .numerics import (
    ConfigError,
    DimensionError,
    NumericError,
    RngStream,
    as_vector,
    check_int,
    check_one_of,
    check_real,
    geometric_sum,
)
from .tasks import NoiseModel

__all__ = [
    "CONSTANT",
    "ADAM_SCHEDULE",
    "OptimizerConfig",
    "OptimizerState",
    "SmoothingWindow",
    "make_state",
    "make_config_adagrad",
    "make_config_adam",
    "weight_sum_W",
    "alpha_weights",
    "smoothed_stochastic_gradient",
    "step_size_at",
    "dts_ag_step",
]

CONSTANT = "constant"
ADAM_SCHEDULE = "adam"
_SCHEDULES = (CONSTANT, ADAM_SCHEDULE)

# check_real's ranges of the discount and the moment rates; eta and epsilon
# are positive, check_real's default. The config loader checks its keys
# against the same ranges.
ALPHA_RANGE = BETA2_RANGE = (0.0, 1.0, "(]")
BETA1_RANGE = (0.0, 1.0, "[)")


@dataclass(frozen=True)
class OptimizerConfig:
    """Hyperparameters of the smoothed adaptive update."""

    eta: float
    beta1: float
    beta2: float
    epsilon: float
    schedule: str
    window: int
    alpha: float

    def __post_init__(self):
        check_real("eta", self.eta)
        check_real("epsilon", self.epsilon)
        check_real("beta1", self.beta1, BETA1_RANGE)
        check_real("beta2", self.beta2, BETA2_RANGE)
        if not self.beta1 < self.beta2:
            raise ConfigError(f"need beta1 < beta2, got beta1={self.beta1}, beta2={self.beta2}")
        check_one_of("schedule", self.schedule, _SCHEDULES)
        if self.schedule == ADAM_SCHEDULE and not (0.0 < self.beta1 < self.beta2 < 1.0):
            raise ConfigError(
                "the increasing-step schedule requires 0 < beta1 < beta2 < 1, "
                f"got beta1={self.beta1}, beta2={self.beta2}"
            )
        # make_config_* pass the window through; store it as an int
        object.__setattr__(self, "window", _check_window(self.window, self.alpha))


def make_config_adagrad(
    eta: float, epsilon: float = 1e-8, alpha: float = 1.0, window: int = 1
) -> OptimizerConfig:
    """Accumulating preset: beta1 = 0, beta2 = 1, constant step size."""
    return OptimizerConfig(
        eta=eta, beta1=0.0, beta2=1.0, epsilon=epsilon,
        schedule=CONSTANT, window=window, alpha=alpha,
    )


def make_config_adam(
    eta: float,
    beta1: float = 0.9,
    beta2: float = 0.999,
    epsilon: float = 1e-8,
    alpha: float = 1.0,
    window: int = 1,
) -> OptimizerConfig:
    """Momentum preset with the increasing step-size schedule."""
    return OptimizerConfig(
        eta=eta, beta1=beta1, beta2=beta2, epsilon=epsilon,
        schedule=ADAM_SCHEDULE, window=window, alpha=alpha,
    )


@dataclass(frozen=True, eq=False)
class OptimizerState:
    """Moment estimates and the 1-based round counter."""

    m: np.ndarray
    v: np.ndarray
    t: int

    def __post_init__(self):
        if self.m.shape != self.v.shape or self.m.ndim != 1:
            raise DimensionError(
                f"m and v must be 1-D with equal shape, got {self.m.shape} and {self.v.shape}"
            )
        check_int("t", self.t)
        if np.any(self.v < 0):
            raise ConfigError("v must be coordinate-wise non-negative")


def make_state(dim: int) -> OptimizerState:
    """Fresh state: zero moments, round counter 1."""
    dim = check_int("dim", dim)
    return OptimizerState(m=np.zeros(dim), v=np.zeros(dim), t=1)


def _check_window(window, alpha) -> int:
    """The window length as an int, after checking that it is an integer
    >= 1 and that its discount alpha is in (0, 1]."""
    check_real("alpha", alpha, ALPHA_RANGE)
    return check_int("window", window)


def weight_sum_W(alpha: float, window: int) -> float:
    """W = sum_{r=0}^{w-1} alpha^r, accurate as alpha -> 1 and exactly w at 1."""
    window = _check_window(window, alpha)
    return geometric_sum(math.log(alpha), window)


def alpha_weights(alpha: float, window: int) -> np.ndarray:
    """The weight vector (alpha^0, ..., alpha^(w-1))."""
    _check_window(window, alpha)
    return alpha ** np.arange(window, dtype=np.float64)


def _weighted_row_sum(alpha: float, weights: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """sum_r weights[r] rows[r] over the rows, newest first.

    At alpha = 1 every weight is exactly 1.0, so each product is an exact
    copy of its row and the plain sum is the same number at lower cost.
    """
    if alpha == 1.0:
        return rows.sum(axis=0)
    return (weights[: len(rows), None] * rows).sum(axis=0)


class SmoothingWindow:
    """Ring buffer of the last w exact round-loss gradients, newest first.

    Each slot keeps the round loss's exact gradient at that round's
    iterate, computed once at push time (from the pushed handle unless
    given); the gradient of a fixed loss at a fixed point is deterministic,
    and stochasticity is injected per query, not per slot. Neither the
    handle nor the iterate is kept.

    The gradients live in a (2w, dim) array allocated at the first push:
    the newest row goes to a falling head index, and once per w pushes the
    newest w - 1 rows are copied up, so the window is always the contiguous
    block ring[head:head + occupied]. smoothed sums it. The array run loop
    keeps R runs side by side in one window of (R*d)-wide rows: it fills
    the ring through _store, which skips push's checks, and sums it with
    smoothed(noise, R).
    """

    def __init__(self, alpha: float, window: int):
        self.weights = alpha_weights(alpha, window)
        self.alpha = float(alpha)
        self.window = int(window)
        self.weight_sum = weight_sum_W(alpha, window)
        self._ring: Optional[np.ndarray] = None
        self._head = 2 * self.window
        self._occupied = 0

    @property
    def occupied(self) -> int:
        return self._occupied

    def push(self, iterate, handle, grad: Optional[np.ndarray] = None) -> None:
        """Insert the round loss's gradient at the newest iterate (handle.grad
        at the iterate unless grad is given), evicting the oldest if full."""
        x = as_vector(iterate, "iterate")
        g = handle.grad(x) if grad is None else as_vector(grad, "grad")
        if g.shape != x.shape:
            raise DimensionError(
                f"gradient shape {g.shape} does not match iterate shape {x.shape}"
            )
        if self._ring is not None and g.size != self._ring.shape[1]:
            raise DimensionError(
                f"gradient has length {g.size}, the window holds length {self._ring.shape[1]}"
            )
        self._store(g)

    def _store(self, g: np.ndarray) -> None:
        """push's ring update, unchecked: g is a 1-D gradient of the window's length."""
        w = self.window
        ring = self._ring
        if ring is None:
            ring = self._ring = np.empty((2 * w, g.size))
        head = self._head
        if head == 0:
            ring[w + 1 :] = ring[: w - 1]
            head = w + 1
        head -= 1
        ring[head] = g
        self._head = head
        if self._occupied < w:
            self._occupied += 1

    def gradient_matrix(self) -> np.ndarray:
        """Per-slot exact gradients, newest first, shape (occupied, dim).

        This is a view into the ring, not a copy: a later push overwrites
        it, so copy it to keep it.
        """
        if self._occupied == 0:
            raise DimensionError("window is empty; push at least one round first")
        return self._ring[self._head : self._head + self._occupied]

    def smoothed(self, noise: Optional[np.ndarray] = None, runs: int = 1) -> np.ndarray:
        """(1/W) sum_r alpha^r (g_r + noise_r) over the occupied slots.

        noise, when given, has the shape of gradient_matrix(), one row per
        slot, newest first. runs counts the runs the window holds side by
        side, each owning an equal contiguous block of every row. Each run's
        block of the result equals its own window's sum bit for bit: numpy
        sums a single column pairwise but a wider block row by row, so a
        batch of one-coordinate runs sums each run's column as a contiguous
        row.
        """
        rows = self.gradient_matrix()
        if noise is not None:
            rows = rows + noise
        if rows.shape[1] == runs > 1:
            cols = np.ascontiguousarray(rows.T)
            if self.alpha != 1.0:
                cols = self.weights[: len(rows)] * cols
            total = cols.sum(axis=1)
        else:
            total = _weighted_row_sum(self.alpha, self.weights, rows)
        return total / self.weight_sum


def smoothed_stochastic_gradient(
    window: SmoothingWindow, noise: NoiseModel, rng: RngStream
) -> np.ndarray:
    """Noisy geometrically-weighted average over the window's slots.

    Each occupied slot contributes its exact gradient plus a fresh noise
    draw (one batched draw per call, newest slot first); the weighted sum is
    divided by the full-window W even when history is short.
    """
    if noise.is_exact:
        return window.smoothed()
    occupied, dim = window.gradient_matrix().shape
    return window.smoothed(noise.draw(rng, dim, reps=occupied))


def step_size_at(config: OptimizerConfig, t: int) -> float:
    """Step size consumed by round t (t >= 0 accepted; round t uses index t+1).

    Constant schedule returns eta. The increasing schedule returns
    eta (1-beta1) sqrt((1-beta2^(t+1)) / (1-beta2)), which is exactly
    eta (1-beta1) at t = 0.
    """
    t = check_int("t", t, low=0)
    if config.schedule == CONSTANT:
        return config.eta
    num = 1.0 - config.beta2 ** (t + 1)
    return config.eta * (1.0 - config.beta1) * math.sqrt(num / (1.0 - config.beta2))


def dts_ag_step(
    state: OptimizerState,
    config: OptimizerConfig,
    iterate,
    smoothed_grad,
) -> tuple[np.ndarray, OptimizerState]:
    """One optimizer update; returns (new iterate, new state).

    Moments update before the step: m <- beta1 m + g~, v <- beta2 v + g~^2,
    then x <- x - eta_{t+1} m / sqrt(epsilon + v) coordinate-wise.
    """
    x = as_vector(iterate, "iterate")
    gt = as_vector(smoothed_grad, "smoothed gradient")
    if x.shape != gt.shape or x.shape != state.m.shape:
        raise DimensionError(
            f"shape mismatch: iterate {x.shape}, gradient {gt.shape}, state {state.m.shape}"
        )
    m = config.beta1 * state.m + gt
    v = config.beta2 * state.v + gt * gt
    if not np.all(np.isfinite(v)):
        bad = int(np.flatnonzero(~np.isfinite(v))[0])
        raise NumericError(f"second moment overflowed at coordinate {bad} (round {state.t})")
    eta_t = step_size_at(config, state.t)
    x_new = x - eta_t * m / np.sqrt(config.epsilon + v)
    if not np.all(np.isfinite(x_new)):
        bad = int(np.flatnonzero(~np.isfinite(x_new))[0])
        raise NumericError(
            f"update produced a non-finite iterate at coordinate {bad} (round {state.t})"
        )
    return x_new, OptimizerState(m=m, v=v, t=state.t + 1)
