"""Synthetic non-stationary task streams and their gradient oracles.

Each round t carries a sinusoidal loss ell_t(x) = D * sin(<a_t, x> + b_t)
whose parameters drift slowly (random walk) or jump at segment boundaries.
The direction vector a_t always has norm equal to the configured frequency
scale, so the regularity constants are uniform over the stream:

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
    ConfigError,
    DimensionError,
    NumericError,
    RngStream,
    as_vector,
    spawn_rng_stream,
)

__all__ = [
    "EXACT",
    "GAUSSIAN",
    "SUBGAUSSIAN",
    "LossConstants",
    "NoiseModel",
    "TaskRound",
    "SineDriftStream",
    "PiecewiseDriftStream",
    "is_sine_stream",
    "sine_argument",
    "loss_constants",
    "sub_gaussian_scale",
    "make_drifting_sine_stream",
    "make_piecewise_drift_stream",
    "sample_stochastic_gradient",
]

EXACT = "exact"
GAUSSIAN = "gaussian"
SUBGAUSSIAN = "subgaussian"
_KINDS = (EXACT, GAUSSIAN, SUBGAUSSIAN)

# Stream id reserved for drawing task parameters; rounds use ids 1..T.
PARAM_STREAM_ID = 0


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
            val = getattr(self, name)
            if not (math.isfinite(val) and val >= 0):
                raise ConfigError(f"constant {name} must be finite and >= 0, got {val}")


def loss_constants(amplitude: float, freq_scale: float) -> LossConstants:
    """Constants of the sine family D*sin(<a,x>+b) with ||a|| = freq_scale."""
    if not (math.isfinite(amplitude) and amplitude > 0):
        raise ConfigError(f"amplitude must be positive and finite, got {amplitude}")
    if not (math.isfinite(freq_scale) and freq_scale > 0):
        raise ConfigError(f"frequency scale must be positive and finite, got {freq_scale}")
    return LossConstants(
        D=amplitude,
        L=amplitude * freq_scale,
        gamma=amplitude * _power(freq_scale, 2),
        H=amplitude * _power(freq_scale, 3),
    )


def _power(base: float, k: int) -> float:
    """base**k, or inf where it overflows (float pow raises OverflowError
    there), so that LossConstants reports the overflow as a ConfigError."""
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
    if not (math.isfinite(sigma) and sigma > 0):
        raise ConfigError(f"sigma must be positive to derive kappa, got {sigma}")
    if dim < 1:
        raise ConfigError(f"dim must be >= 1, got {dim}")
    d = float(dim)
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
        if self.kind not in _KINDS:
            raise ConfigError(f"noise kind must be one of {_KINDS}, got {self.kind!r}")
        if not math.isfinite(self.sigma) or self.sigma < 0:
            raise ConfigError(f"sigma must be finite and >= 0, got {self.sigma}")
        if self.kind == EXACT and self.sigma != 0.0:
            raise ConfigError("exact noise requires sigma = 0")
        if self.kind != EXACT and self.sigma == 0.0:
            raise ConfigError(f"{self.kind} noise requires sigma > 0")
        if self.kappa is not None and not (math.isfinite(self.kappa) and self.kappa > 0):
            raise ConfigError(f"kappa must be positive and finite, got {self.kappa}")

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

    def draw(self, rng: RngStream, dim: int, reps: Optional[int] = None) -> np.ndarray:
        """Draw additive noise; shape (dim,) or (reps, dim). Exact draws nothing."""
        shape = (dim,) if reps is None else (reps, dim)
        if self.is_exact:
            return np.zeros(shape)
        return self.coord_std(dim) * rng.standard_normal(shape)


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
    at inf. The task oracles and the array run loop both compute s here, so
    they report the overflow as the same NumericError at the same round.
    """
    s = float(np.dot(a, x)) + b
    if not math.isfinite(s):
        raise NumericError(f"round {t} produced a non-finite sine argument <a, x> + b")
    return s


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


class _SineStreamBase:
    """Common plumbing for sine-family streams with drifting parameters."""

    kind = "sine"

    def __init__(self, dim, amplitude, freq_scale, noise, seed):
        if not isinstance(dim, (int, np.integer)) or dim < 1:
            raise ConfigError(f"dim must be an integer >= 1, got {dim!r}")
        if not isinstance(noise, NoiseModel):
            raise ConfigError("noise must be a NoiseModel")
        self.dim = int(dim)
        self.amplitude = float(amplitude)
        self.freq_scale = float(freq_scale)
        self.noise = noise
        self.seed = int(seed)
        # constants() validates amplitude/freq_scale ranges
        self._constants = loss_constants(self.amplitude, self.freq_scale)
        self._A = np.empty((0, self.dim))
        self._B = np.empty(0)

    def constants(self) -> LossConstants:
        return self._constants

    def _extend(self, A: np.ndarray, B: np.ndarray, lo: int) -> None:
        """Generate rows lo.. of A and B, resuming the parameter walk."""
        raise NotImplementedError

    def _ensure(self, rounds: int) -> None:
        filled = self._B.size
        if rounds <= filled:
            return
        n = max(rounds, 2 * filled, 64)
        A = np.empty((n, self.dim))
        B = np.empty(n)
        A[:filled] = self._A
        B[:filled] = self._B
        if filled == 0:
            # the walk state after the last generated row: generator, unit
            # direction and phase
            self._gen = spawn_rng_stream(self.seed, PARAM_STREAM_ID)
            self._u = _unit(self._gen.standard_normal(self.dim))
            self._b = float(self._gen.uniform(0.0, 2.0 * math.pi))
        self._extend(A, B, filled)
        self._A, self._B = A, B

    def params_upto(self, rounds: int):
        """Direction and phase arrays for rounds 1..rounds (rows 0..rounds-1)."""
        if not isinstance(rounds, (int, np.integer)) or rounds < 1:
            raise ConfigError(f"rounds must be an integer >= 1, got {rounds!r}")
        self._ensure(int(rounds))
        return self._A[:rounds], self._B[:rounds]

    def task(self, t: int) -> TaskRound:
        """The round-t loss (t >= 1)."""
        if not isinstance(t, (int, np.integer)) or t < 1:
            raise ConfigError(f"round index must be an integer >= 1, got {t!r}")
        self._ensure(int(t))
        return make_sine_task(
            index=int(t),
            amplitude=self.amplitude,
            freq=self._A[t - 1],
            phase=self._B[t - 1],
            noise=self.noise,
        )

    def spec(self) -> dict:
        raise NotImplementedError


class SineDriftStream(_SineStreamBase):
    """Sine tasks whose direction and phase follow a slow random walk.

    Per round, the unit direction moves by a Gaussian step of RMS size
    drift_rate and is re-normalized; the phase takes a Gaussian step of std
    drift_rate. drift_rate = 0 freezes both, giving a stationary stream.
    """

    kind = "drifting-sine"

    def __init__(self, dim, amplitude, freq_scale, drift_rate, noise, seed):
        super().__init__(dim, amplitude, freq_scale, noise, seed)
        if not (math.isfinite(drift_rate) and drift_rate >= 0):
            raise ConfigError(f"drift_rate must be finite and >= 0, got {drift_rate}")
        self.drift_rate = float(drift_rate)

    def _extend(self, A: np.ndarray, B: np.ndarray, lo: int) -> None:
        n = B.size
        if lo == 0:
            A[0] = self.freq_scale * self._u
            B[0] = self._b
            lo = 1
        if self.drift_rate == 0.0:
            A[lo:] = A[0]
            B[lo:] = B[0]
            return
        step = self.drift_rate / math.sqrt(self.dim)
        # per row: dim normals for the direction step, then one for the phase
        Z = self._gen.standard_normal((n - lo, self.dim + 1))
        u = self._u
        for t, z in zip(range(lo, n), Z[:, :-1]):
            u = _unit(u + step * z)
            A[t] = u
        A[lo:] *= self.freq_scale
        # the phase walk b_t = b_{t-1} + drift_rate * phi_t, accumulated in order
        B[lo - 1 :] = np.add.accumulate(np.concatenate(([self._b], self.drift_rate * Z[:, -1])))
        self._u, self._b = u, float(B[-1])

    def spec(self) -> dict:
        return {
            "family": self.kind,
            "dim": self.dim,
            "amplitude": self.amplitude,
            "freq_scale": self.freq_scale,
            "drift_rate": self.drift_rate,
            "seed": self.seed,
        }


class PiecewiseDriftStream(_SineStreamBase):
    """Sine tasks constant within segments, jumping at segment boundaries.

    Segment k >= 1 perturbs the previous segment's direction by a Gaussian
    step of RMS size jump_scale (re-normalized) and its phase by a Gaussian
    step of std jump_scale. jump_scale = 0, or a segment at least as long as
    the horizon, yields a stationary stream.
    """

    kind = "piecewise-sine"

    def __init__(self, dim, segment_length, jump_scale, amplitude, freq_scale, noise, seed):
        super().__init__(dim, amplitude, freq_scale, noise, seed)
        if not isinstance(segment_length, (int, np.integer)) or segment_length < 1:
            raise ConfigError(
                f"segment_length must be an integer >= 1, got {segment_length!r}"
            )
        if not (math.isfinite(jump_scale) and jump_scale >= 0):
            raise ConfigError(f"jump_scale must be finite and >= 0, got {jump_scale}")
        self.segment_length = int(segment_length)
        self.jump_scale = float(jump_scale)
        self._segment = 0  # the segment the walk state (_u, _b) belongs to

    def _extend(self, A: np.ndarray, B: np.ndarray, lo: int) -> None:
        n = B.size
        L = self.segment_length
        first, last = lo // L, (n - 1) // L
        jumps = self.jump_scale > 0.0
        if jumps:
            # per new segment: dim normals for the direction, one for the phase
            Z = iter(self._gen.standard_normal((last - self._segment, self.dim + 1)))
        step = self.jump_scale / math.sqrt(self.dim)
        for k in range(first, last + 1):
            if k > self._segment:
                if jumps:
                    z = next(Z)
                    self._u = _unit(self._u + step * z[:-1])
                    self._b = self._b + self.jump_scale * float(z[-1])
                self._segment = k
            rows = slice(max(lo, k * L), min(n, (k + 1) * L))
            A[rows] = self.freq_scale * self._u
            B[rows] = self._b

    def spec(self) -> dict:
        return {
            "family": self.kind,
            "dim": self.dim,
            "amplitude": self.amplitude,
            "freq_scale": self.freq_scale,
            "segment_length": self.segment_length,
            "jump_scale": self.jump_scale,
            "seed": self.seed,
        }


def is_sine_stream(stream) -> bool:
    """Whether a stream exposes the sine family's parameter arrays
    (params_upto and amplitude), which the array run loop and the static
    ledger read directly; any other stream is played through its tasks."""
    return hasattr(stream, "params_upto") and hasattr(stream, "amplitude")


def make_drifting_sine_stream(
    dim: int,
    amplitude: float = 1.0,
    freq_scale: float = 1.0,
    drift_rate: float = 0.05,
    noise: Optional[NoiseModel] = None,
    seed: int = 0,
) -> SineDriftStream:
    """Sine stream whose parameters random-walk at rate drift_rate per round."""
    if noise is None:
        noise = NoiseModel(EXACT)
    return SineDriftStream(dim, amplitude, freq_scale, drift_rate, noise, seed)


def make_piecewise_drift_stream(
    dim: int,
    segment_length: int,
    jump_scale: float,
    amplitude: float = 1.0,
    freq_scale: float = 1.0,
    noise: Optional[NoiseModel] = None,
    seed: int = 0,
) -> PiecewiseDriftStream:
    """Sine stream constant on segments with jumps of size jump_scale between them."""
    if noise is None:
        noise = NoiseModel(EXACT)
    return PiecewiseDriftStream(
        dim, segment_length, jump_scale, amplitude, freq_scale, noise, seed
    )


def sample_stochastic_gradient(task: TaskRound, x, rng: RngStream) -> np.ndarray:
    """One stochastic gradient of the round loss at x: exact gradient plus noise."""
    xv = as_vector(x, "x")
    if xv.size != task.dim:
        raise DimensionError(f"x has length {xv.size}, task dimension is {task.dim}")
    g = task.grad(xv)
    if task.noise.is_exact:
        out = np.array(g, dtype=np.float64)
    else:
        out = g + task.noise.draw(rng, task.dim)
    if not np.all(np.isfinite(out)):
        bad = int(np.flatnonzero(~np.isfinite(out))[0])
        raise NumericError(f"stochastic gradient non-finite at coordinate {bad}")
    return out
