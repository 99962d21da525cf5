"""Synthetic non-stationary task streams and their gradient oracles.

Each round t carries a sinusoidal loss ell_t(x) = D * sin(<a_t, x> + b_t)
whose parameters follow one random walk, which steps at the start of each
segment of rounds: every round for the drifting family, every
segment_length rounds for the piecewise family. The direction vector a_t
always has norm equal to the configured frequency scale, so the regularity
constants are uniform over the stream:

    |ell| <= D,   Lipschitz L = D*s,   smoothness gamma = D*s^2,
    Hessian-Lipschitz H = D*s^3,       with s = ||a_t||.

Gradient queries can be exact or corrupted by additive isotropic Gaussian
noise with total second moment exactly sigma^2 (per-coordinate std
sigma/sqrt(dim)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .numerics import (
    NON_NEGATIVE,
    ConfigError,
    NumericError,
    RngStream,
    _check_key_part,
    check_int,
    check_one_of,
    check_real,
    spawn_rng_stream,
)

__all__ = [
    "EXACT",
    "GAUSSIAN",
    "SUBGAUSSIAN",
    "LossConstants",
    "NoiseModel",
    "TaskRound",
    "SineStream",
    "sine_argument",
    "sine_round_rows",
    "loss_constants",
    "sub_gaussian_scale",
    "make_drifting_sine_stream",
    "make_piecewise_drift_stream",
]

EXACT = "exact"
GAUSSIAN = "gaussian"
SUBGAUSSIAN = "subgaussian"
_KINDS = (EXACT, GAUSSIAN, SUBGAUSSIAN)

# Stream id reserved for drawing task parameters; rounds use ids 1..T.
PARAM_STREAM_ID = 0

# check_real's ranges of the walk steps and of sigma; the other real
# parameters here are positive, check_real's default. The config loader
# checks its keys against the same ranges.
STEP_RANGE = SIGMA_RANGE = NON_NEGATIVE


@dataclass(frozen=True)
class LossConstants:
    """Regularity constants of a loss family.

    D bounds |ell|, L is the Lipschitz constant of ell, gamma the Lipschitz
    constant of its gradient, H the Lipschitz constant of its Hessian.
    """

    D: float
    L: float
    gamma: float
    H: float

    def __post_init__(self):
        for name in ("D", "L", "gamma", "H"):
            check_real(f"constant {name}", getattr(self, name), NON_NEGATIVE)


def loss_constants(amplitude: float, freq_scale: float) -> LossConstants:
    """Constants of the sine family D*sin(<a,x>+b) with ||a|| = freq_scale."""
    amplitude = check_real("amplitude", amplitude)
    freq_scale = check_real("freq_scale", freq_scale)
    return LossConstants(
        D=amplitude,
        L=amplitude * freq_scale,
        gamma=amplitude * _power(freq_scale, 2),
        H=amplitude * _power(freq_scale, 3),
    )


def _power(base: float, k: int) -> float:
    """base**k, or inf where it overflows (float pow raises OverflowError
    there), so that LossConstants reports the overflow as a ConfigError and
    variance_proxy reports an infinite mu."""
    try:
        return base**k
    except OverflowError:
        return math.inf


def sub_gaussian_scale(sigma: float, dim: int) -> float:
    """Smallest kappa with E[exp(||n||^2 / kappa^2)] <= e for our noise.

    For isotropic Gaussian noise with total variance sigma^2 in dimension d
    the moment generating function is (1 - 2 sigma^2/(d kappa^2))^(-d/2);
    kappa^2 = 2 sigma^2 / (d (1 - e^(-2/d))) makes it exactly e.
    """
    d = float(check_int("dim", dim))
    sigma = check_real("sigma", sigma)
    return sigma * math.sqrt(2.0 / (d * (1.0 - math.exp(-2.0 / d))))


@dataclass(frozen=True)
class NoiseModel:
    """Additive gradient-oracle noise.

    kind 'exact' returns true gradients (sigma must be 0). 'gaussian' adds
    isotropic Gaussian noise with E||n||^2 = sigma^2 exactly. 'subgaussian'
    is the same law but additionally carries a sub-Gaussian scale kappa
    (derived sharply from sigma and the dimension when not given).
    """

    kind: str
    sigma: float = 0.0
    kappa: Optional[float] = None

    def __post_init__(self):
        check_one_of("noise kind", self.kind, _KINDS)
        check_real("sigma", self.sigma, SIGMA_RANGE)
        if self.kind == EXACT and self.sigma != 0.0:
            raise ConfigError("exact noise requires sigma = 0")
        if self.kind != EXACT and self.sigma == 0.0:
            raise ConfigError(f"{self.kind} noise requires sigma > 0")
        if self.kappa is not None:
            check_real("kappa", self.kappa)

    @property
    def is_exact(self) -> bool:
        return self.kind == EXACT

    def coord_std(self, dim: int) -> float:
        """Per-coordinate standard deviation keeping E||n||^2 = sigma^2."""
        return self.sigma / math.sqrt(dim)

    def kappa_for(self, dim: int) -> Optional[float]:
        """Sub-Gaussian scale for this model, deriving it when absent."""
        if self.kappa is not None:
            return self.kappa
        if self.is_exact:
            return None
        return sub_gaussian_scale(self.sigma, dim)

    def draw(self, rng: RngStream, dim: int) -> np.ndarray:
        """Draw additive noise of shape (dim,). Exact draws nothing."""
        if self.is_exact:
            return np.zeros(dim)
        return self.coord_std(dim) * rng.standard_normal(dim)


@dataclass(frozen=True, eq=False)
class TaskRound:
    """One round's loss with exact evaluators and its noise model.

    loss/grad take an iterate; hess_vec(x, v) applies the Hessian at x to v.
    """

    index: int
    dim: int
    noise: NoiseModel
    loss: Callable[[np.ndarray], float]
    grad: Callable[[np.ndarray], np.ndarray]
    hess_vec: Callable[[np.ndarray, np.ndarray], np.ndarray]


def sine_argument(a: np.ndarray, x: np.ndarray, b: float, t: int) -> float:
    """s = <a, x> + b of round t's sine loss, checked for finiteness.

    A large finite x can overflow s, and math.sin/math.cos raise ValueError
    at inf. The task oracles compute s here. The array run loop computes it
    in sine_round_rows, unchecked, and replays a round with a non-finite
    entry through run_round, whose oracles raise the overflow here, so both
    loops report it as the same NumericError at the same round.
    """
    s = float(np.dot(a, x)) + b
    if not math.isfinite(s):
        raise NumericError(f"round {t} produced a non-finite sine argument <a, x> + b")
    return s


def sine_round_rows(
    A: np.ndarray,
    B: np.ndarray,
    X: np.ndarray,
    amplitude: float,
    theta: float,
    *,
    g_in: Optional[np.ndarray] = None,
    u: Optional[np.ndarray] = None,
    loss: Optional[np.ndarray] = None,
    grad: Optional[np.ndarray] = None,
    scratch: Optional[np.ndarray] = None,
):
    """Round losses D sin(<a_i, U(x_i)> + b_i) and their gradients, row by row.

    Row i holds one round's direction a_i, phase b_i and point x_i; U(x) =
    x - theta D cos(<a, x> + b) a is the exact inner step. Returns
    (s, g_in, u, loss, grad): s_i = <a_i, x_i> + b_i and the loss as
    (R, 1) columns, or as floats when R = 1 (the loss in its given column
    when there is one); the inner gradient
    g_in = D cos(s) a, u = U(x) and the composite gradient
    g_out - theta (-D sin(s)) <a, g_out> a, with g_out = D cos(<a, u> + b) a,
    with shape (R, d).

    g_in, u and grad, when given, are caller-owned (R, d) arrays the rows
    are written into, loss an (R, 1) column, and scratch a (4, R, d) array
    of work rows, which an R > 1 call's s is a view into; what is not
    given is allocated. So a loop that owns them allocates nothing.

    The operations are make_sine_task's and RoundLoss.value_and_grad's, in
    their order, so each row equals those scalar oracles bit for bit. When
    R = 1 the scalar chain runs on Python floats through math.cos and
    math.sin, as the oracles do, and the dot products are np.dot's
    (a.dot(x) is the same function without its dispatch). When R > 1 they
    are the batched product A[:, None, :] @ X[:, :, None], which equals
    np.dot bit for bit on this numpy build (einsum and (A * X).sum(1) do
    not). Nothing is checked: a non-finite s leaves nan in g_in and
    everything after it, and a non-finite <a, u> + b nan in the loss and
    the gradient.
    """
    R, d = X.shape
    D = float(amplitude)
    if g_in is None:
        g_in = np.empty((R, d))
    if u is None:
        u = np.empty((R, d))
    if grad is None:
        grad = np.empty((R, d))
    if scratch is None:
        scratch = np.empty((4, R, d))
    work = scratch[0]
    if R == 1:
        a, b = A[0], float(B[0])
        s = float(a.dot(X[0])) + b
        # math.cos(inf) raises where np.cos returns nan
        sf = s if math.isfinite(s) else math.nan
        np.multiply(A, D * math.cos(sf), g_in)
        np.multiply(g_in, theta, work)
        np.subtract(X, work, u)
        su = float(a.dot(u[0])) + b
        if not math.isfinite(su):
            su = math.nan
        np.multiply(A, D * math.cos(su), grad)  # g_out, corrected in place below
        np.multiply(A, -D * math.sin(sf) * float(a.dot(grad[0])), work)
        value = D * math.sin(su)
        if loss is None:
            loss = value
        else:
            loss[0] = value
    else:
        s, su, c = (scratch[k, :, :1] for k in (1, 2, 3))
        A3, b = A[:, None, :], B[:, None]
        if loss is None:
            loss = np.empty((R, 1))
        np.matmul(A3, X[:, :, None], s[:, :, None])
        np.add(s, b, s)
        np.cos(s, c)
        np.multiply(c, D, c)
        np.multiply(c, A, g_in)
        np.multiply(g_in, theta, work)
        np.subtract(X, work, u)
        np.matmul(A3, u[:, :, None], su[:, :, None])
        np.add(su, b, su)
        np.cos(su, c)
        np.multiply(c, D, c)
        np.multiply(c, A, grad)  # g_out, corrected in place below
        np.sin(su, loss)
        np.multiply(loss, D, loss)
        np.matmul(A3, grad[:, :, None], c[:, :, None])
        np.sin(s, su)
        np.multiply(su, -D, su)
        np.multiply(su, c, su)
        np.multiply(su, A, work)
    np.multiply(work, theta, work)
    np.subtract(grad, work, grad)
    return s, g_in, u, loss, grad


def make_sine_task(
    index: int, amplitude: float, freq: np.ndarray, phase: float, noise: NoiseModel
) -> TaskRound:
    """Build a TaskRound for D*sin(<a,x>+b) with a = freq, b = phase."""
    a = np.array(freq, dtype=np.float64)
    D = float(amplitude)
    b = float(phase)
    t = int(index)

    def loss(x: np.ndarray) -> float:
        return D * math.sin(sine_argument(a, x, b, t))

    def grad(x: np.ndarray) -> np.ndarray:
        return (D * math.cos(sine_argument(a, x, b, t))) * a

    def hess_vec(x: np.ndarray, v: np.ndarray) -> np.ndarray:
        s = sine_argument(a, x, b, t)
        return (-D * math.sin(s)) * float(np.dot(a, v)) * a

    return TaskRound(
        index=t,
        dim=a.size,
        noise=noise,
        loss=loss,
        grad=grad,
        hess_vec=hess_vec,
    )


def _unit(v: np.ndarray) -> np.ndarray:
    n = math.sqrt(float(v.dot(v)))  # np.linalg.norm's arithmetic, without its overhead
    if n == 0.0:  # pragma: no cover - probability zero
        out = np.zeros_like(v)
        out[0] = 1.0
        return out
    return v / n


DRIFTING = "drifting-sine"
PIECEWISE = "piecewise-sine"
_FAMILIES = (DRIFTING, PIECEWISE)


class SineStream:
    """Sine tasks whose direction and phase follow one random walk.

    The walk holds its state for segment_length rounds and steps at each
    segment start: the unit direction moves by a Gaussian step of RMS size
    `step` and is re-normalized, the phase by a Gaussian step of std `step`.
    The drifting family is the walk with one-round segments and step
    drift_rate, the piecewise family the walk with step jump_scale; the
    family names the step in errors and in spec(). step = 0 freezes the
    walk, giving a stationary stream. make_drifting_sine_stream,
    make_piecewise_drift_stream and ExperimentConfig.stream build it.
    """

    def __init__(self, family, dim, segment_length, step, amplitude, freq_scale, noise, seed):
        check_one_of("family", family, _FAMILIES)
        self.segment_length = check_int("segment_length", segment_length)
        if family == DRIFTING and self.segment_length != 1:
            raise ConfigError(f"segment_length must be 1 for {DRIFTING}, got {segment_length!r}")
        self.step = check_real("drift_rate" if family == DRIFTING else "jump_scale", step, STEP_RANGE)
        if noise is None:
            noise = NoiseModel(EXACT)
        if not isinstance(noise, NoiseModel):
            raise ConfigError("noise must be a NoiseModel")
        self.kind = family
        self.dim = check_int("dim", dim)
        self._constants = loss_constants(amplitude, freq_scale)  # checks both
        self.amplitude = float(amplitude)
        self.freq_scale = float(freq_scale)
        self.noise = noise
        self.seed = _check_key_part("seed", seed)
        self._A = np.empty((0, self.dim))
        self._B = np.empty(0)

    def constants(self) -> LossConstants:
        return self._constants

    def _ensure(self, rounds: int) -> None:
        filled = self._B.size
        if rounds <= filled:
            return
        n = max(rounds, 2 * filled)
        A = np.empty((n, self.dim))
        B = np.empty(n)
        A[:filled] = self._A
        B[:filled] = self._B
        if filled == 0:
            # the walk state of the last generated row: generator, unit
            # direction, phase and segment
            self._gen = spawn_rng_stream(self.seed, PARAM_STREAM_ID)
            self._u = _unit(self._gen.standard_normal(self.dim))
            self._b = float(self._gen.uniform(0.0, 2.0 * math.pi))
            self._segment = 0
        self._extend(A, B, filled)
        self._A, self._B = A, B

    def _extend(self, A: np.ndarray, B: np.ndarray, lo: int) -> None:
        """Generate rows lo.. of A and B, resuming the walk at self._segment."""
        # a zero step never moves the walk: one segment spans every row
        L = self.segment_length if self.step > 0.0 else B.size
        k0 = self._segment
        seg = np.arange(lo, B.size) // L - k0  # each new row's segment, from k0
        new = int(seg[-1])
        # per new segment: dim normals for the direction step, then one for the phase
        Z = self._gen.standard_normal((new, self.dim + 1))
        U = np.empty((new + 1, self.dim))
        U[0] = self._u
        # u_k = _unit(u_{k-1} + step z_k), each row built in place
        steps = (self.step / math.sqrt(self.dim)) * Z[:, :-1]
        for u, sz, u_new in zip(U[:-1], steps, U[1:]):
            np.add(u, sz, out=u_new)
            n = math.sqrt(float(u_new.dot(u_new)))
            if n == 0.0:  # pragma: no cover - probability zero
                u_new[:] = _unit(u_new)
            else:
                u_new /= n
        # the phase walk b_k = b_{k-1} + step * phi_k, accumulated in order
        phases = np.add.accumulate(np.concatenate(([self._b], self.step * Z[:, -1])))
        A[lo:] = (self.freq_scale * U)[seg]
        B[lo:] = phases[seg]
        # a copy of the last row, so the walk state does not keep U alive
        self._u, self._b, self._segment = U[-1].copy(), float(phases[-1]), k0 + new

    def params_upto(self, rounds: int):
        """Direction and phase arrays for rounds 1..rounds (rows 0..rounds-1)."""
        self._ensure(check_int("rounds", rounds))
        return self._A[:rounds], self._B[:rounds]

    def task(self, t: int) -> TaskRound:
        """The round-t loss (t >= 1)."""
        t = check_int("t", t)
        self._ensure(t)
        return make_sine_task(
            index=t,
            amplitude=self.amplitude,
            freq=self._A[t - 1],
            phase=self._B[t - 1],
            noise=self.noise,
        )

    def spec(self) -> dict:
        if self.kind == DRIFTING:
            walk = {"drift_rate": self.step}
        else:
            walk = {"segment_length": self.segment_length, "jump_scale": self.step}
        return {
            "family": self.kind,
            "dim": self.dim,
            "amplitude": self.amplitude,
            "freq_scale": self.freq_scale,
            **walk,
            "seed": self.seed,
        }


def make_drifting_sine_stream(
    dim: int,
    amplitude: float = 1.0,
    freq_scale: float = 1.0,
    drift_rate: float = 0.05,
    noise: Optional[NoiseModel] = None,
    seed: int = 0,
) -> SineStream:
    """Sine stream whose parameters random-walk at rate drift_rate per round."""
    return SineStream(DRIFTING, dim, 1, drift_rate, amplitude, freq_scale, noise, seed)


def make_piecewise_drift_stream(
    dim: int,
    segment_length: int,
    jump_scale: float,
    amplitude: float = 1.0,
    freq_scale: float = 1.0,
    noise: Optional[NoiseModel] = None,
    seed: int = 0,
) -> SineStream:
    """Sine stream constant on segments with jumps of size jump_scale between them."""
    return SineStream(
        PIECEWISE, dim, segment_length, jump_scale, amplitude, freq_scale, noise, seed
    )
