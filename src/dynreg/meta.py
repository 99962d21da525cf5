"""Online meta-learning driver.

Round t: the learner holds x_t, adapts it with one stochastic inner gradient
step x^_t = x_t - theta * g^(x_t) (batch-mean estimate), suffers the round
loss ell_t(x_t) = raw_t(x_t - theta * grad raw_t(x_t)) evaluated with the
exact inner step, pushes (x_t, ell_t) into the smoothing window, and updates
x via the time-smoothed adaptive step.

All stochasticity of round t comes from the stream (seed, t): one adaptation
draw, then one batched window draw. A run is therefore a pure function of
(stream, horizon, configs, seed), whichever loop plays it: run_round called
once per round, or the one array loop, which run_streams uses to step R runs
side by side on (R, d) arrays and run_stream calls with R = 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .numerics import (
    NON_NEGATIVE,
    ConfigError,
    DimensionError,
    NumericError,
    RngStream,
    _check_key_part,
    as_vector,
    check_int,
    check_real,
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
from .tasks import TaskRound, sine_round_rows

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
    "run_streams",
]

# check_real's range of the inner step size; the config loader and the
# guarantee calculator check theta against it too
THETA_RANGE = NON_NEGATIVE


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
        check_real("theta", self.theta, THETA_RANGE)
        check_int("train_batch", self.train_batch)


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

    The one-run call of run_streams: the stream must expose the sine
    family's parameter arrays (params_upto, amplitude), its noise, spec()
    and task(t), and the trace equals run_round over stream.task(t) bit for
    bit, errors included.
    """
    return run_streams([stream], horizon, inner, opt, [seed], x0)[0]


def run_streams(
    streams,
    horizon: int,
    inner: InnerAdaptConfig,
    opt: OptimizerConfig,
    seeds,
    x0=None,
) -> list:
    """Play R runs side by side in one array loop; returns their RunTraces.

    Run r plays streams[r] with seed seeds[r]. The runs share the horizon,
    dimension, amplitude, noise law, inner step, optimizer and starting
    point x0 (zeros by default), and each keeps its own stream parameters
    and its own random stream (seed, t) per round, so trace r equals
    run_stream(streams[r], ..., seeds[r]) bit for bit.

    Every finiteness check runs once per round over the (R, d) block, in
    run_round's order: the sine argument at x, the adapted point, the sine
    argument at U(x), the round loss and its gradient, the smoothed
    gradient, the second moment and the iterate. The first failure in round
    order wins; within a round, the first failing check, and within it the
    lowest run. The NumericError carries the text that run would raise
    alone; with R > 1 it is prefixed with the run's index and seed. A run
    that fails in an earlier round than another is therefore reported even
    if it comes later in the batch, unlike serial play, which reports the
    first failure in seed order.
    """
    streams, seeds = list(streams), [_check_key_part("seed", seed) for seed in seeds]
    if not streams or len(streams) != len(seeds):
        raise ConfigError(
            f"need one seed per stream and at least one run, got {len(streams)} streams "
            f"and {len(seeds)} seeds"
        )
    first = streams[0]
    for stream in streams:
        if not hasattr(stream, "params_upto"):
            raise ConfigError(
                f"run_stream plays sine-family streams only; {type(stream).__name__} "
                "has no params_upto"
            )
        shared = (stream.dim, stream.amplitude, stream.noise)
        if shared != (first.dim, first.amplitude, first.noise):
            raise ConfigError(
                "the runs of a batch share dim, amplitude and noise; got "
                f"{shared} beside {(first.dim, first.amplitude, first.noise)}"
            )
    horizon = check_int("horizon", horizon)
    if x0 is None:
        x0 = np.zeros(first.dim)
    x0 = as_vector(x0, "x0")
    if x0.size != first.dim:
        raise DimensionError(f"x0 has length {x0.size}, stream dimension is {first.dim}")

    # an overflowing sine argument, gradient, second moment or iterate raises
    # NumericError from the loop's own finiteness checks; numpy's warnings
    # would repeat it
    with np.errstate(over="ignore", invalid="ignore"):
        arrays = _play_sine_streams(streams, horizon, inner, opt, seeds, x0)
    return [
        RunTrace(
            seed=seed,
            horizon=horizon,
            dim=stream.dim,
            theta=inner.theta,
            config=_snapshot(stream, horizon, inner, opt, seed, x0),
            stream=stream,
            **{name: arr[r] for name, arr in arrays.items()},
        )
        for r, (stream, seed) in enumerate(zip(streams, seeds))
    ]


def _raise_first_failure(t: int, seeds: list, s, xhat, loss, g, gt, v, x_new) -> None:
    """Raise run_round's NumericError for the first non-finite block of round
    t in run_round's order, at the lowest failing run and its first bad
    coordinate k; the text names the run when the batch has several."""
    sine = f"round {t} produced a non-finite sine argument <a, x> + b"
    for block, message in (
        (s, sine),
        (xhat, "inner adaptation non-finite at coordinate {k}"),
        (loss, sine),  # the loss is nan exactly when <a, U(x)> + b is not finite
        (g, f"round {t} produced a non-finite loss or gradient"),
        (gt, "smoothed gradient has a non-finite entry at coordinate {k}"),
        (v, f"second moment overflowed at coordinate {{k}} (round {t})"),
        (x_new, f"update produced a non-finite iterate at coordinate {{k}} (round {t})"),
    ):
        block = np.reshape(block, (len(seeds), -1))
        bad = np.flatnonzero(~np.isfinite(block))
        if bad.size:
            run, k = divmod(int(bad[0]), block.shape[1])
            text = message.format(k=k)
            if len(seeds) > 1:
                text = f"run {run} (seed {seeds[run]}): {text}"
            raise NumericError(text)


def _runs_window_sum(window: SmoothingWindow, rows: np.ndarray, runs: int) -> np.ndarray:
    """_weighted_row_sum over the ring's (occupied, R*d) rows, as each run's
    own window would sum its (occupied, d) rows.

    numpy sums a single column pairwise but a wider block row by row, so a
    batch of one-coordinate runs sums each run's column as a contiguous row.
    """
    if rows.shape[1] == runs > 1:
        cols = np.ascontiguousarray(rows.T)
        if window.alpha == 1.0:
            return cols.sum(axis=1)
        return (window.weights[: len(rows)] * cols).sum(axis=1)
    return _weighted_row_sum(window.alpha, window.weights, rows)


def _play_sine_streams(streams, T, inner, opt, seeds, x0) -> dict:
    """run_round's arithmetic for R sine-family runs, over (R, d) arrays.

    Performs the floating-point operations of inner_adapt,
    RoundLoss.value_and_grad (as sine_round_rows), SmoothingWindow.push,
    smoothed_stochastic_gradient and dts_ag_step in their order, so each
    run's rows equal the round-by-round path bit for bit, and raises the
    same errors at the same round. One Philox is re-keyed to (seed, t) for
    each run's round; a round's adaptation draw and window draw come from
    one call, which yields the same sequence as two. The window ring holds one
    (R*d)-wide row per round. Returns the trace arrays with the runs first.
    """
    R, d, w = len(streams), streams[0].dim, opt.window
    A = np.empty((T, R, d))  # round t's rows at t - 1
    B = np.empty((T, R))
    for r, stream in enumerate(streams):
        A[:, r], B[:, r] = stream.params_upto(T)
    D = float(streams[0].amplitude)
    noise = streams[0].noise
    noisy = not noise.is_exact
    coord_std = noise.coord_std(d) if noisy else 0.0
    sqrt_tb = math.sqrt(inner.train_batch)
    theta = float(inner.theta)
    window = SmoothingWindow(opt.alpha, w)
    beta1, beta2, eps = opt.beta1, opt.beta2, opt.epsilon
    rng = spawn_rng_stream(seeds[0], 1)  # re-keyed to (seeds[r], t) for run r's round t
    draws = np.empty((min(w, T) + 1, R, d))  # run r's normals of round t: draws[:occ + 1, r]

    iterates, adapted, grads, smoothed = (np.empty((T, R, d)) for _ in range(4))
    losses = np.empty((T, R, 1))  # sine_round_rows gives each round's losses as a column
    etas = [step_size_at(opt, t) for t in range(1, T + 1)]

    x = np.empty((R, d))
    x[:] = x0
    m = np.zeros((R, d))
    v = np.zeros((R, d))
    for i in range(T):
        t = i + 1
        occ = t if t < w else w
        if noisy:
            for r, seed in enumerate(seeds):
                draws[: occ + 1, r] = rng.rekey(t, seed).standard_normal((occ + 1, d))
            z = coord_std * draws[: occ + 1]
        s, g_in, u, val, g = sine_round_rows(A[i], B[i], x, D, theta)
        # inner_adapt; with exact gradients the adapted point is U(x)
        xhat = x - theta * (g_in + z[0] / sqrt_tb) if noisy else u
        # SmoothingWindow.push, its checks made below
        window._store(g.reshape(-1))
        # smoothed_stochastic_gradient
        rows = window.gradient_matrix()
        if noisy:
            rows = rows + z[1:].reshape(occ, R * d)
        gt = (_runs_window_sum(window, rows, R) / window.weight_sum).reshape(R, d)
        # dts_ag_step
        m = beta1 * m + gt
        v = beta2 * v + gt * gt
        x_new = x - etas[i] * m / np.sqrt(eps + v)
        # a non-finite s, loss, gradient or g~ leaves nan in xhat or x_new, and
        # an overflowed v is inf, so one sum finds every failure; the search
        # finds none when only the sum overflowed
        if not math.isfinite(np.add.reduce(xhat + x_new + v, axis=None)):
            _raise_first_failure(t, seeds, s, xhat, val, g, gt, v, x_new)
        iterates[i] = x
        adapted[i] = xhat
        losses[i] = val
        grads[i] = g
        smoothed[i] = gt
        x = x_new
    arrays = {
        "iterates": iterates,
        "adapted": adapted,
        "losses": losses[:, :, 0],
        "grads": grads,
        "smoothed_grads": smoothed,
    }
    del iterates, adapted, losses, grads, smoothed
    # runs first, each run's rows contiguous: a copy when R > 1, made one
    # array at a time so that each buffer is freed as its copy is stored
    for name, arr in arrays.items():
        arrays[name] = np.ascontiguousarray(arr.swapaxes(0, 1))
    arrays["step_sizes"] = np.array([etas] * R)
    return arrays
