"""Online meta-learning driver.

Round t: the learner holds x_t, adapts it with one stochastic inner gradient
step x^_t = x_t - theta * g^(x_t) (batch-mean estimate), suffers the round
loss ell_t(x_t) = raw_t(x_t - theta * grad raw_t(x_t)) evaluated with the
exact inner step, pushes (x_t, ell_t) into the smoothing window, and updates
x via the time-smoothed adaptive step.

All stochasticity of round t comes from the stream (seed, t): one adaptation
draw, then one batched window draw. A run is therefore a pure function of
(stream, horizon, configs, seed), whichever loop plays it: run_stream's
array loop, or run_round called once per round.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .numerics import (
    ConfigError,
    DimensionError,
    NumericError,
    RngStream,
    as_vector,
    spawn_rng_stream,
)
from .optimizer import (
    OptimizerConfig,
    OptimizerState,
    SmoothingWindow,
    _weighted_row_sum,
    dts_ag_step,
    make_state,
    smoothed_stochastic_gradient,
    step_size_at,
)
from .tasks import TaskRound, sine_argument

__all__ = [
    "InnerAdaptConfig",
    "RoundLoss",
    "MetaLearnerState",
    "RoundRecord",
    "RunTrace",
    "inner_adapt",
    "make_meta_state",
    "run_round",
    "run_stream",
]


@dataclass(frozen=True)
class InnerAdaptConfig:
    """Inner-adaptation step size and batch size.

    theta = 0 is legal (adaptation becomes the identity). train_batch scales
    the inner-step gradient noise by 1/sqrt(train_batch). The round loss
    has no batch size: its noise is injected at the gradient oracle, whose
    second moment is the configured sigma^2 by definition.
    """

    theta: float
    train_batch: int = 32

    def __post_init__(self):
        if not (math.isfinite(self.theta) and self.theta >= 0):
            raise ConfigError(f"theta must be finite and >= 0, got {self.theta}")
        tb = self.train_batch
        if not isinstance(tb, (int, np.integer)) or tb < 1:
            raise ConfigError(f"train_batch must be an integer >= 1, got {tb!r}")


class RoundLoss:
    """A round's loss: the task loss after one exact inner gradient step.

    value(x) = raw(U(x)) with U(x) = x - theta * grad_raw(x);
    grad(x)  = (I - theta * Hess_raw(x)) grad_raw(U(x)).
    """

    __slots__ = ("task", "theta")

    def __init__(self, task: TaskRound, theta: float):
        self.task = task
        self.theta = float(theta)

    def adapted(self, x: np.ndarray) -> np.ndarray:
        """The exact inner step U(x)."""
        return x - self.theta * self.task.grad(x)

    def loss(self, x: np.ndarray) -> float:
        return float(self.task.loss(self.adapted(x)))

    def grad(self, x: np.ndarray) -> np.ndarray:
        g_in = self.task.grad(x)
        u = x - self.theta * g_in
        g_out = self.task.grad(u)
        corr = self.task.hess_vec(x, g_out)
        return g_out - self.theta * corr

    def value_and_grad(self, x: np.ndarray) -> tuple[float, np.ndarray]:
        g_in = self.task.grad(x)
        u = x - self.theta * g_in
        val = float(self.task.loss(u))
        g_out = self.task.grad(u)
        corr = self.task.hess_vec(x, g_out)
        return val, g_out - self.theta * corr


def inner_adapt(x, task: TaskRound, config: InnerAdaptConfig, rng: RngStream) -> np.ndarray:
    """One stochastic inner step from a batch-mean gradient estimate.

    The batch mean of train_batch independent noisy gradients has the same
    law as the exact gradient plus one noise draw scaled by
    1/sqrt(train_batch), which is how it is sampled.
    """
    xv = as_vector(x, "x")
    if xv.size != task.dim:
        raise DimensionError(f"x has length {xv.size}, task dimension is {task.dim}")
    g = task.grad(xv)
    if not task.noise.is_exact:
        n = task.noise.draw(rng, task.dim)
        g = g + n / math.sqrt(config.train_batch)
    xhat = xv - config.theta * g
    if not np.all(np.isfinite(xhat)):
        bad = int(np.flatnonzero(~np.isfinite(xhat))[0])
        raise NumericError(f"inner adaptation non-finite at coordinate {bad}")
    return xhat


@dataclass(eq=False)
class MetaLearnerState:
    """Mutable run state: current iterate, optimizer moments, smoothing window."""

    x: np.ndarray
    optimizer: OptimizerState
    window: SmoothingWindow

    @property
    def round(self) -> int:
        """1-based index of the next round to be played."""
        return self.optimizer.t


def make_meta_state(x0, opt: OptimizerConfig) -> MetaLearnerState:
    x = as_vector(x0, "x0")
    return MetaLearnerState(
        x=np.array(x, dtype=np.float64),
        optimizer=make_state(x.size),
        window=SmoothingWindow(opt.alpha, opt.window),
    )


@dataclass(frozen=True, eq=False)
class RoundRecord:
    """Everything observed in one round."""

    t: int
    iterate: np.ndarray
    adapted: np.ndarray
    loss: float
    grad: np.ndarray
    smoothed_grad: np.ndarray
    step_size: float


def run_round(
    state: MetaLearnerState,
    task: TaskRound,
    inner: InnerAdaptConfig,
    opt: OptimizerConfig,
    rng: RngStream,
) -> tuple[MetaLearnerState, RoundRecord]:
    """Play one round; advances and returns the state plus the round record.

    Steps: stochastic inner adaptation, exact round-loss evaluation at the
    pre-update iterate, window push (so the newest slot holds this round's
    pair), smoothed stochastic gradient, optimizer update.
    """
    t = state.round
    x = state.x
    xhat = inner_adapt(x, task, inner, rng)
    rl = RoundLoss(task, inner.theta)
    loss_val, grad_val = rl.value_and_grad(x)
    if not (math.isfinite(loss_val) and np.all(np.isfinite(grad_val))):
        raise NumericError(f"round {t} produced a non-finite loss or gradient")
    state.window.push(x, rl, grad=grad_val)
    gtilde = smoothed_stochastic_gradient(state.window, task.noise, rng)
    eta_t = step_size_at(opt, state.optimizer.t)
    x_new, opt_state = dts_ag_step(state.optimizer, opt, x, gtilde)
    record = RoundRecord(
        t=t,
        iterate=x,
        adapted=xhat,
        loss=loss_val,
        grad=grad_val,
        smoothed_grad=gtilde,
        step_size=eta_t,
    )
    state.x = x_new
    state.optimizer = opt_state
    return state, record


@dataclass(eq=False)
class RunTrace:
    """Complete per-round record of one run, indexed t = 1..horizon.

    Row t-1 of each array belongs to round t. iterates holds the pre-update
    x_t; losses/grads are the exact round-loss value and gradient at x_t;
    smoothed_grads holds the stochastic smoothed gradient the optimizer
    consumed; step_sizes the step size used.
    """

    seed: int
    horizon: int
    dim: int
    theta: float
    iterates: np.ndarray
    adapted: np.ndarray
    losses: np.ndarray
    grads: np.ndarray
    smoothed_grads: np.ndarray
    step_sizes: np.ndarray
    config: dict = field(default_factory=dict)
    stream: object = None

    def __post_init__(self):
        T, d = self.horizon, self.dim
        shapes = {
            "iterates": (T, d),
            "adapted": (T, d),
            "losses": (T,),
            "grads": (T, d),
            "smoothed_grads": (T, d),
            "step_sizes": (T,),
        }
        for name, shape in shapes.items():
            arr = getattr(self, name)
            if arr.shape != shape:
                raise DimensionError(f"{name} must have shape {shape}, got {arr.shape}")
            if not np.all(np.isfinite(arr)):
                raise NumericError(f"{name} contains non-finite entries")


def _snapshot(stream, horizon, inner, opt, seed, x0) -> dict:
    noise = stream.noise
    return {
        "horizon": int(horizon),
        "dim": int(stream.dim),
        "seed": int(seed),
        "stream": stream.spec(),
        "noise": {"kind": noise.kind, "sigma": noise.sigma, "kappa": noise.kappa},
        "adapt": {"theta": inner.theta, "train_batch": inner.train_batch},
        "optimizer": {
            "schedule": opt.schedule,
            "eta": opt.eta,
            "beta1": opt.beta1,
            "beta2": opt.beta2,
            "epsilon": opt.epsilon,
        },
        "smoothing": {"alpha": opt.alpha, "window": opt.window},
        "init": [float(v) for v in x0],
    }


def run_stream(
    stream,
    horizon: int,
    inner: InnerAdaptConfig,
    opt: OptimizerConfig,
    seed: int,
    x0=None,
) -> RunTrace:
    """Play `horizon` rounds of a sine-family stream and return the full trace.

    The stream must expose the sine family's parameter arrays (params_upto,
    amplitude), its noise, spec() and task(t); the rounds are played in an
    array loop that equals run_round over stream.task(t) bit for bit.
    """
    if not hasattr(stream, "params_upto"):
        raise ConfigError(
            f"run_stream plays sine-family streams only; {type(stream).__name__} "
            "has no params_upto"
        )
    if not isinstance(horizon, (int, np.integer)) or horizon < 1:
        raise ConfigError(f"horizon must be an integer >= 1, got {horizon!r}")
    horizon = int(horizon)
    if x0 is None:
        x0 = np.zeros(stream.dim)
    x0 = as_vector(x0, "x0")
    if x0.size != stream.dim:
        raise DimensionError(f"x0 has length {x0.size}, stream dimension is {stream.dim}")

    config = _snapshot(stream, horizon, inner, opt, seed, x0)
    # an overflowing sine argument, gradient, second moment or iterate raises
    # NumericError from the loop's own finiteness checks; numpy's warnings
    # would repeat it
    with np.errstate(over="ignore", invalid="ignore"):
        arrays = _play_sine_stream(stream, horizon, inner, opt, seed, x0)
    return RunTrace(
        seed=int(seed),
        horizon=horizon,
        dim=stream.dim,
        theta=inner.theta,
        config=config,
        stream=stream,
        **arrays,
    )


def _first_non_finite(v: np.ndarray) -> int:
    return int(np.flatnonzero(~np.isfinite(v))[0])


def _play_sine_stream(stream, T, inner, opt, seed, x0) -> dict:
    """run_round's arithmetic for sine-family streams, over the stream's arrays.

    Performs the floating-point operations of inner_adapt,
    RoundLoss.value_and_grad, SmoothingWindow.push,
    smoothed_stochastic_gradient and dts_ag_step in their order, so the
    trace equals the round-by-round path bit for bit, and raises the same
    errors at the same round. One Philox is re-keyed per round; a round's
    adaptation draw and window draw come from one call, which yields the
    same sequence as two.
    """
    d = stream.dim
    w = opt.window
    A, B = stream.params_upto(T)
    D = float(stream.amplitude)
    noise = stream.noise
    noisy = not noise.is_exact
    coord_std = noise.coord_std(d) if noisy else 0.0
    sqrt_tb = math.sqrt(inner.train_batch)
    theta = float(inner.theta)
    window = SmoothingWindow(opt.alpha, w)
    beta1, beta2, eps = opt.beta1, opt.beta2, opt.epsilon
    rng = spawn_rng_stream(seed, 1)

    iterates, adapted, grads, smoothed = (np.empty((T, d)) for _ in range(4))
    losses = np.empty(T)
    etas = [step_size_at(opt, t) for t in range(1, T + 1)]

    x = np.array(x0, dtype=np.float64)
    m = np.zeros(d)
    v = np.zeros(d)
    for i in range(T):
        t = i + 1
        a = A[i]
        b = float(B[i])
        occ = t if t < w else w
        if noisy:
            z = coord_std * rng.rekey(t).standard_normal((occ + 1, d))
        # inner_adapt
        s = sine_argument(a, x, b, t)
        g_in = (D * math.cos(s)) * a
        if noisy:
            xhat = x - theta * (g_in + z[0] / sqrt_tb)
        else:
            xhat = x - theta * g_in
        if not np.isfinite(xhat).all():
            raise NumericError(
                f"inner adaptation non-finite at coordinate {_first_non_finite(xhat)}"
            )
        # RoundLoss.value_and_grad; with exact gradients U(x) is xhat's expression
        u = x - theta * g_in if noisy else xhat
        su = sine_argument(a, u, b, t)
        val = D * math.sin(su)
        g_out = (D * math.cos(su)) * a
        corr = (-D * math.sin(s)) * float(np.dot(a, g_out)) * a
        g = g_out - theta * corr
        if not (math.isfinite(val) and np.isfinite(g).all()):
            raise NumericError(f"round {t} produced a non-finite loss or gradient")
        # SmoothingWindow.push, its checks already made
        window._store(g)
        # smoothed_stochastic_gradient
        rows = window.gradient_matrix()
        if noisy:
            rows = rows + z[1:]
        gt = _weighted_row_sum(window.alpha, window.weights, rows) / window.weight_sum
        if not np.isfinite(gt).all():
            raise NumericError(
                f"smoothed gradient has a non-finite entry at coordinate {_first_non_finite(gt)}"
            )
        # dts_ag_step
        m = beta1 * m + gt
        v = beta2 * v + gt * gt
        # g~ is finite and beta2 > 0, so v holds no nan: it overflowed iff its max is inf
        if not math.isfinite(v.max()):
            raise NumericError(
                f"second moment overflowed at coordinate {_first_non_finite(v)} (round {t})"
            )
        x_new = x - etas[i] * m / np.sqrt(eps + v)
        if not np.isfinite(x_new).all():
            raise NumericError(
                "update produced a non-finite iterate at coordinate "
                f"{_first_non_finite(x_new)} (round {t})"
            )
        iterates[i] = x
        adapted[i] = xhat
        losses[i] = val
        grads[i] = g
        smoothed[i] = gt
        x = x_new
    return {
        "iterates": iterates,
        "adapted": adapted,
        "losses": losses,
        "grads": grads,
        "smoothed_grads": smoothed,
        "step_sizes": np.array(etas),
    }
