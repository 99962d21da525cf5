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

    Each round is checked once, by one sum over the adapted points, the new
    iterates and the second moments. When it is not finite, those arrays
    are checked run by run: if every entry is finite, only the sum
    overflowed and play goes on. Otherwise the lowest run with a non-finite
    entry is replayed through run_round from round 1 to this round, and
    raises its own NumericError, prefixed with its index and seed when
    R > 1. So the first failure in round order wins, and within a round the
    lowest failing run, unlike serial play, which reports the first failure
    in seed order.
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


def _replay_run(streams, seeds, r, t, inner, opt, x0) -> None:
    """Replay rounds 1..t of run r through run_round, which raises round t's
    NumericError; prefixed with the run's index and seed when R > 1."""
    stream, seed = streams[r], seeds[r]
    state = make_meta_state(x0, opt)
    try:
        for s in range(1, t + 1):
            run_round(state, stream.task(s), inner, opt, spawn_rng_stream(seed, s))
    except NumericError as exc:
        if len(seeds) == 1:
            raise
        raise NumericError(f"run {r} (seed {seed}): {exc}") from exc
    raise RuntimeError(f"run {r} failed round {t} in the array loop but not in run_round")


def _play_sine_streams(streams, T, inner, opt, seeds, x0) -> dict:
    """run_round's arithmetic for R sine-family runs, over (R, d) arrays.

    Performs the floating-point operations of inner_adapt,
    RoundLoss.value_and_grad (as sine_round_rows), SmoothingWindow.push,
    smoothed_stochastic_gradient and dts_ag_step in their order, so each
    run's rows equal the round-by-round path bit for bit; the lowest run
    with a non-finite entry in a round is replayed through run_round from
    round 1, which raises its errors. One Philox is re-keyed to (seed, t)
    for each run's round; a round's adaptation draw and window draw come
    from one call, which yields the same sequence as two. One
    SmoothingWindow holds the R runs side by side, one (R*d)-wide row per
    round. Returns the trace arrays with the runs first.
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
        _, g_in, u, val, g = sine_round_rows(A[i], B[i], x, D, theta)
        # inner_adapt; with exact gradients the adapted point is U(x)
        xhat = x - theta * (g_in + z[0] / sqrt_tb) if noisy else u
        # SmoothingWindow.push, its checks made below
        window._store(g.reshape(-1))
        # smoothed_stochastic_gradient
        gt = window.smoothed(z[1:].reshape(occ, R * d) if noisy else None, R).reshape(R, d)
        # dts_ag_step
        m = beta1 * m + gt
        v = beta2 * v + gt * gt
        x_new = x - etas[i] * m / np.sqrt(eps + v)
        # a non-finite s, loss, gradient or g~ leaves nan in xhat or x_new, and
        # an overflowed v is inf, so one sum finds every failure; it also
        # overflows when finite entries near the float limit add up
        if not math.isfinite(np.add.reduce(xhat + x_new + v, axis=None)):
            failed = np.flatnonzero(~np.isfinite([xhat, x_new, v]).all(axis=(0, 2)))
            if failed.size:
                _replay_run(streams, seeds, int(failed[0]), t, inner, opt, x0)
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
