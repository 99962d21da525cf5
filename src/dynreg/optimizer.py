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


def _sq_weight_sum(alpha: float, w: int) -> float:
    """q = sum_{r<w} alpha^(2r), accurate as alpha -> 1 and exactly w at 1.

    Unchecked. The variance proxy's sum over a full window, and the variance
    factor of the noise a window of w occupied slots adds (see
    SmoothingWindow.smoothed).
    """
    return geometric_sum(2.0 * math.log(alpha), w)


def alpha_weights(alpha: float, window: int) -> np.ndarray:
    """The weight vector (alpha^0, ..., alpha^(w-1))."""
    _check_window(window, alpha)
    return alpha ** np.arange(window, dtype=np.float64)


def _weighted_row_sum(alpha: float, weights: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """sum_r weights[r] rows[r], adding the rows in turn, newest first.

    weights holds alpha^r in row r, as a column or once per entry of rows.
    numpy reduces a block of rows one row at a time but a lone column
    pairwise, so a one-column block is accumulated instead; adding 0.0
    matches the reduction, which starts from +0.0, also in the sign of a
    zero. Each column then sums to the same bits whatever the block's
    width or row shape, which lets a window hold runs side by side. At
    alpha = 1 every weight is exactly 1.0, so each product would be an
    exact copy of its row, and the products are skipped.
    """
    if alpha != 1.0:
        rows = weights[: len(rows)] * rows
    if rows.size > len(rows):
        return rows.sum(axis=0)
    return np.add.accumulate(rows)[-1] + 0.0


# rows of a window's ring at its first push; it doubles from there to 2w
_FIRST_ROWS = 8


class SmoothingWindow:
    """Ring buffer of the last w exact round-loss gradients, newest first,
    and their running weighted sum.

    Each slot keeps the round loss's exact gradient at that round's
    iterate, computed once at push time (from the pushed handle unless
    given); the gradient of a fixed loss at a fixed point is deterministic,
    and stochasticity is injected per query, not per slot. Neither the
    handle nor the iterate is kept.

    The gradients live in a (rows, dim) ring: the newest row goes to a
    falling head index, and when the head reaches 0 the newest
    min(occupied, w) rows move to the ring's end, into a ring of twice the
    rows while it has fewer than 2w. So the window is always the contiguous
    block ring[head:head + occupied], the row a push evicts lies just past
    it, and the ring and its weights grow with min(t, w), not with w.

    S = sum_r alpha^r g_r is kept as it goes: each push sets
    S <- alpha S + g_new - alpha^w g_evicted, and every w-th push re-sums it
    from the ring with _weighted_row_sum instead, since the rounding a
    recursion carries grows with its number of terms (Higham, ch. 4). So an
    exact query costs O(d), and after every w-th push S equals the direct
    sum bit for bit. The ring's rows take the shape of the first row
    stored. The array run loop keeps R runs side by side in one window of
    (R, d) rows: it fills the ring through _store, which skips push's
    checks, and every sum is taken per entry, so each run's rows equal its
    own window's bit for bit.
    """

    def __init__(self, alpha: float, window: int):
        self.weight_sum = weight_sum_W(alpha, window)
        self.alpha = float(alpha)
        self.window = int(window)
        # alpha^r in every entry of row r for the lags the ring can hold (at
        # alpha < 1): numpy multiplies arrays of one shape at a fraction of
        # the cost of broadcasting a column
        self._weights: Optional[np.ndarray] = None
        # alpha, alpha^w and W as 0-d arrays, which numpy takes faster than
        # Python floats
        self._alpha, self._evicted_weight, self._W = (
            np.array(c) for c in (self.alpha, self.alpha**self.window, self.weight_sum)
        )
        self._ring: Optional[np.ndarray] = None
        self._sum: Optional[np.ndarray] = None
        self._head = 0
        self._occupied = 0
        self._pushes = 0
        # sqrt(q) for q = sum_{r<occ} alpha^(2r), the noise scale of smoothed,
        # as a 0-d array, and the occupancy it was computed at
        self._noise_scale: Optional[np.ndarray] = None
        self._noise_scale_occ = 0

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
        if self._ring is not None and g.shape != self._ring.shape[1:]:
            raise DimensionError(
                f"gradient has length {g.size}, the window holds length {self._ring.shape[1]}"
            )
        self._store(g)

    def _store(self, g: np.ndarray) -> None:
        """push's update, unchecked: g is a gradient row of the window's shape."""
        head = self._head
        if head == 0:
            head = self._make_room(g.shape)
        head -= 1
        ring = self._ring
        ring[head] = g
        self._head = head
        w, occ, alpha = self.window, self._occupied, self.alpha
        self._pushes += 1
        if self._pushes % w == 0:
            occ = self._occupied = min(occ + 1, w)
            self._sum = _weighted_row_sum(alpha, self._weights, ring[head : head + occ])
            return
        # ufuncs called with their output in place, the fastest form for rows
        # this short
        S = self._sum
        if alpha != 1.0:
            np.multiply(S, self._alpha, S)
        np.add(S, g, S)
        if occ < w:
            self._occupied = occ + 1
            return
        # the row that leaves the window now; no later move copies it, so it
        # is scaled in place
        evicted = ring[head + w]
        if alpha != 1.0:
            np.multiply(evicted, self._evicted_weight, evicted)
        np.subtract(S, evicted, S)

    def _make_room(self, shape: tuple) -> int:
        """Free the rows above the window and return the new head: at the
        first push allocate the ring, and later move the newest
        min(occupied, w) rows to its end, into a ring of twice the rows (at
        most 2w) while it has fewer than 2w. The weights grow with it."""
        w, ring = self.window, self._ring
        keep = min(self._occupied, w)
        rows = min(2 * w, _FIRST_ROWS if ring is None else 2 * len(ring))
        if ring is None or len(ring) < rows:
            grown = np.empty((rows, *shape))
            if keep:
                grown[rows - keep :] = ring[:keep]
            self._ring = grown
            if self.alpha != 1.0:
                self._weights = _entry_weights(self.alpha, min(rows, w), shape)
            if ring is None:
                self._sum = np.zeros(shape)
        else:
            ring[rows - keep :] = ring[:keep]
        return rows - keep

    def _fill(self, block: np.ndarray) -> None:
        """Put an empty window in the state that pushing the w rows of block,
        oldest first, leaves it in, with one re-sum instead of w pushes: the
        w-th push re-sums S from the rows alone. The rows, newest first, end
        a ring of its full 2w rows."""
        w, dim = self.window, block.shape[1]
        self._ring = np.empty((2 * w, dim))
        self._ring[w:] = block[::-1]
        if self.alpha != 1.0:
            self._weights = _entry_weights(self.alpha, w, (dim,))
        self._head = self._occupied = self._pushes = w
        self._sum = _weighted_row_sum(self.alpha, self._weights, self._ring[w:])

    def gradient_matrix(self) -> np.ndarray:
        """Per-slot exact gradients, newest first, shape (occupied, dim).

        This is a view into the ring, not a copy: a later push overwrites
        it, so copy it to keep it.
        """
        if self._occupied == 0:
            raise DimensionError("window is empty; push at least one round first")
        return self._ring[self._head : self._head + self._occupied]

    def smoothed(
        self, noise: Optional[np.ndarray] = None, out: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """(1/W) (S + sqrt(q) noise) over the occupied slots, written into
        out when it is given (an array of the window's row shape) and
        returned.

        S = sum_r alpha^r g_r is the running sum of the slots' gradients and
        q = sum_{r<occupied} alpha^(2r). noise, when given, is one row of the
        window's shape. If its entries are independent N(0, c^2), then
        sqrt(q) noise has the law of sum_r alpha^r n_r over independent
        N(0, c^2 I) rows n_r, one per slot, which is what the window's
        noise is; so one row stands for occupied rows. sqrt(q) is computed
        again only when the occupancy changed, that is while it is below w.
        """
        occ = self._occupied
        if occ == 0:
            raise DimensionError("window is empty; push at least one round first")
        if noise is None:
            return np.divide(self._sum, self._W, out)
        if noise.shape != self._sum.shape:
            raise DimensionError(
                f"noise must be one row of the window's length {self._sum.size}, "
                f"got shape {noise.shape}"
            )
        if occ != self._noise_scale_occ:
            self._noise_scale = np.array(math.sqrt(_sq_weight_sum(self.alpha, occ)))
            self._noise_scale_occ = occ
        out = np.multiply(noise, self._noise_scale, out)
        np.add(out, self._sum, out)
        return np.divide(out, self._W, out)


def _entry_weights(alpha: float, n: int, shape: tuple) -> np.ndarray:
    """alpha^r in every entry of row r < n of rows of the given shape."""
    column = alpha_weights(alpha, n)[:, None]
    return np.repeat(column, math.prod(shape), axis=1).reshape(n, *shape)


def _window_means(G: np.ndarray, w: int, alpha: float) -> np.ndarray:
    """The exact smoothed gradient of every round of R stacked traces, shape
    (R, T, d) like their gradient rows G: row t-1 of a trace is
    (1/W) sum_{r<min(t,w)} alpha^r G[t-1-r], with the bits a SmoothingWindow
    gives it, because one window replays the rows.

    A window re-sums at every w-th push, so its sums over rounds kw+1 to
    (k+1)w read only rounds (k-1)w+1 to (k+1)w. Every w-round block of
    every trace therefore goes side by side into one window of
    (ceil(T/w) R d)-wide rows, filled with the block before it (w zero rows
    before the first block, which add and evict nothing), and w pushes give
    every block's sums. When T <= w the one block is pushed into an empty
    window, T pushes.
    """
    R, T, d = G.shape
    m = min(w, T)
    blocks = -(-T // m)
    if blocks > 1:
        G = np.concatenate(
            (np.zeros((R, w, d)), G, np.zeros((R, blocks * w - T, d))), axis=1
        )
    # by_block[i, k] is row i of every trace's block k, with the zero block
    # first when there is one
    by_block = G.reshape(R, -1, m, d).transpose(2, 1, 0, 3)
    lead = by_block.shape[1] - blocks
    window = SmoothingWindow(alpha, w)
    if lead:
        window._fill(by_block[:, :blocks].reshape(m, -1))
    sums = np.empty((m, blocks * R * d))
    for i, row in enumerate(by_block[:, lead:].reshape(m, -1)):
        window._store(row)
        sums[i] = window._sum
    sums /= window.weight_sum
    return sums.reshape(m, blocks, R, d).transpose(2, 1, 0, 3).reshape(R, -1, d)[:, :T]


def smoothed_stochastic_gradient(
    window: SmoothingWindow, noise: NoiseModel, rng: RngStream
) -> np.ndarray:
    """Noisy geometrically-weighted average over the window's slots.

    Each occupied slot contributes its exact gradient plus independent
    noise. Their weighted noise sum is drawn as one row of the window's
    length from rng (see SmoothingWindow.smoothed), and the weighted sum is
    divided by the full-window W even when history is short.
    """
    if noise.is_exact:
        return window.smoothed()
    return window.smoothed(noise.draw(rng, window.gradient_matrix().shape[1]))


def step_size_at(config: OptimizerConfig, t: int) -> float:
    """Step size consumed by round t (t >= 0 accepted; round t uses index t+1).

    Constant schedule returns eta. The increasing schedule returns
    eta (1-beta1) sqrt((1-beta2^(t+1)) / (1-beta2)), which is exactly
    eta (1-beta1) at t = 0.
    """
    return _step_size(config, check_int("t", t, low=0))


def _step_size(config: OptimizerConfig, t: int) -> float:
    """step_size_at, unchecked: t is an integer >= 0."""
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
