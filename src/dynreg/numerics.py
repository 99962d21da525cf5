"""Shared numeric plumbing: vector checks, geometric sums, RNG streams.

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
    "check_int",
    "check_one_of",
    "check_real",
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


def check_int(name: str, value, low: int = 1) -> int:
    """value as an int: an integer (not a bool) >= low, else a ConfigError."""
    # type() is int for a plain int, the common case, and never for a bool
    if type(value) is int or (isinstance(value, (int, np.integer)) and not isinstance(value, bool)):
        if value >= low:
            return int(value)
    raise ConfigError(f"{name} must be an integer >= {low}, got {value!r}")


# check_real's intervals (low, high, ends): ends says which end is open,
# "(" or ")", and which closed, "[" or "]"
POSITIVE = (0.0, math.inf, "()")
NON_NEGATIVE = (0.0, math.inf, "[)")


def check_real(name: str, value, interval: tuple = POSITIVE) -> float:
    """value as a float: a real number (not a bool) in the interval, else a
    ConfigError.

    The test is by comparison alone, so nan fails it, and an open infinite
    end rejects that infinity.
    """
    low, high, ends = interval
    x = math.nan  # fails every comparison
    if type(value) is float:  # the common case
        x = value
    elif isinstance(value, (float, int, np.floating, np.integer)) and not isinstance(value, bool):
        try:
            x = float(value)
        except OverflowError:  # an integer beyond the float range
            pass
    if (low < x or (ends[0] == "[" and x == low)) and (x < high or (ends[1] == "]" and x == high)):
        return x
    raise ConfigError(f"{name} must be in {ends[0]}{low:g}, {high:g}{ends[1]}, got {value!r}")


def check_one_of(name: str, value, names: tuple):
    """value if it is one of names, else a ConfigError listing them."""
    if value in names:
        return value
    raise ConfigError(f"{name} must be one of {names}, got {value!r}")


_UINT64_SPAN = 1 << 64


def _check_key_part(name: str, value) -> int:
    """A seed or stream id: an integer in [0, 2^64)."""
    value = check_int(name, value, low=0)
    if value >= _UINT64_SPAN:
        raise ConfigError(f"{name} must be below 2^64, got {value!r}")
    return value


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

    def _set_key(self, stream_id: int, seed: int) -> "RngStream":
        """Switch in place to the stream (seed, stream_id); returns self.

        Unchecked: stream_id and seed are integers in [0, 2^64), for loops
        whose keys were checked once up front. Resets the Philox counter,
        its output buffer and its cached uint32, so the draws that follow
        equal those of a fresh spawn_rng_stream(seed, stream_id), at a
        fraction of its cost, so one generator can serve many keys in turn.
        """
        if self._state is None:  # built on first use: most streams are never re-keyed
            self._state = {
                "bit_generator": "Philox",
                "state": {
                    "counter": np.zeros(4, dtype=np.uint64),
                    "key": np.zeros(2, dtype=np.uint64),
                },
                "buffer": np.zeros(4, dtype=np.uint64),
                "buffer_pos": 4,
                "has_uint32": 0,
                "uinteger": 0,
            }
        key = self._state["state"]["key"]
        key[0] = stream_id
        key[1] = seed
        self._gen.bit_generator.state = self._state
        self.seed = seed
        self.stream_id = stream_id
        return self

    def standard_normal(self, size=None, out=None) -> np.ndarray | float:
        """Standard normals of the given size, or written into out, a
        C-contiguous float64 array, in its memory order."""
        return self._gen.standard_normal(size, out=out)

    def uniform(self, low: float = 0.0, high: float = 1.0, size=None):
        return self._gen.uniform(low, high, size)

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        return f"RngStream(seed={self.seed}, stream_id={self.stream_id})"


def spawn_rng_stream(seed: int, stream_id: int) -> RngStream:
    """Create the deterministic stream for (seed, stream_id)."""
    return RngStream(seed, stream_id)
