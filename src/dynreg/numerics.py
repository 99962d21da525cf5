"""Shared numeric plumbing: vector checks, norms, finite differences, RNG streams.

Everything downstream funnels through these helpers so that validation and
error classification happen in one place.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "ConfigError",
    "DimensionError",
    "NumericError",
    "VerificationError",
    "as_vector",
    "finite_difference_gradient",
    "geometric_sum",
    "RngStream",
    "spawn_rng_stream",
]


class ConfigError(ValueError):
    """A configuration value is missing, malformed, or out of range."""


class DimensionError(ValueError):
    """Vector arguments have incompatible or invalid shapes."""


class NumericError(ArithmeticError):
    """A computation produced a non-finite value."""


class VerificationError(Exception):
    """A verification run found violations."""


def as_vector(x, name: str = "x") -> np.ndarray:
    """Coerce to a finite 1-D float64 array; raise on anything else."""
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim == 0:
        arr = arr.reshape(1)
    if arr.ndim != 1:
        raise DimensionError(f"{name} must be 1-D, got shape {arr.shape}")
    if arr.size == 0:
        raise DimensionError(f"{name} must be non-empty")
    if not np.all(np.isfinite(arr)):
        bad = int(np.flatnonzero(~np.isfinite(arr))[0])
        raise NumericError(f"{name} has a non-finite entry at coordinate {bad}")
    return arr


def finite_difference_gradient(f, x, h: float = 1e-5) -> np.ndarray:
    """Central-difference gradient estimate of a scalar function.

    Coordinate i gets (f(x + h e_i) - f(x - h e_i)) / (2h).
    """
    if not (h > 0) or not math.isfinite(h):
        raise ConfigError(f"step size h must be a positive finite real, got {h}")
    base = as_vector(x, "x")
    grad = np.empty_like(base)
    probe = base.copy()
    for i in range(base.size):
        probe[i] = base[i] + h
        fp = float(f(probe))
        probe[i] = base[i] - h
        fm = float(f(probe))
        probe[i] = base[i]
        if not (math.isfinite(fp) and math.isfinite(fm)):
            raise NumericError(
                f"function returned a non-finite value while probing coordinate {i}"
            )
        grad[i] = (fp - fm) / (2.0 * h)
    return grad


def geometric_sum(log_ratio: float, n: int) -> float:
    """sum_{r<n} q^r for a ratio 0 < q <= 1 given as log_ratio = log(q).

    Evaluated as expm1(n log q) / expm1(log q), which keeps full relative
    precision as q -> 1, where (1 - q^n) / (1 - q) cancels; log_ratio = 0
    (q = 1) gives n exactly. Pass log_ratio = k * log(alpha) for the ratio
    alpha^k rather than the log of a rounded power.
    """
    if log_ratio == 0.0:
        return float(n)
    return math.expm1(n * log_ratio) / math.expm1(log_ratio)


_UINT64_SPAN = 1 << 64


def _check_key_part(name: str, value) -> int:
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    if not (0 <= int(value) < _UINT64_SPAN):
        raise ConfigError(f"{name} must be in [0, 2^64), got {value}")
    return int(value)


class RngStream:
    """Deterministic random stream identified by (seed, stream_id).

    Wraps a counter-based Philox generator keyed by the pair, so streams with
    distinct ids are statistically independent and reproducible regardless of
    how many draws other streams have made. The 128-bit key is
    (seed << 64) | stream_id, i.e. the key words [stream_id, seed].
    """

    __slots__ = ("seed", "stream_id", "_gen", "_state")

    def __init__(self, seed: int, stream_id: int):
        self.seed = _check_key_part("seed", seed)
        self.stream_id = _check_key_part("stream_id", stream_id)
        key = (self.seed << 64) | self.stream_id
        self._gen = np.random.Generator(np.random.Philox(key=key))
        self._state = None

    def rekey(self, stream_id: int) -> "RngStream":
        """Switch in place to the stream (seed, stream_id); returns self.

        Resets the Philox counter, its output buffer and its cached uint32,
        so the draws that follow equal those of a fresh
        spawn_rng_stream(seed, stream_id), at a fraction of its cost.
        """
        sid = _check_key_part("stream_id", stream_id)
        if self._state is None:  # built on first use: most streams are never re-keyed
            self._state = {
                "bit_generator": "Philox",
                "state": {
                    "counter": np.zeros(4, dtype=np.uint64),
                    "key": np.array([0, self.seed], dtype=np.uint64),
                },
                "buffer": np.zeros(4, dtype=np.uint64),
                "buffer_pos": 4,
                "has_uint32": 0,
                "uinteger": 0,
            }
        self._state["state"]["key"][0] = sid
        self._gen.bit_generator.state = self._state
        self.stream_id = sid
        return self

    def standard_normal(self, size=None) -> np.ndarray | float:
        return self._gen.standard_normal(size)

    def uniform(self, low: float = 0.0, high: float = 1.0, size=None):
        return self._gen.uniform(low, high, size)

    def integers(self, low: int, high: int, size=None):
        return self._gen.integers(low, high, size=size)

    @property
    def generator(self) -> np.random.Generator:
        return self._gen

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        return f"RngStream(seed={self.seed}, stream_id={self.stream_id})"


def spawn_rng_stream(seed: int, stream_id: int) -> RngStream:
    """Create the deterministic stream for (seed, stream_id)."""
    return RngStream(seed, stream_id)
