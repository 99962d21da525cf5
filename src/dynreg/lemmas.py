"""Numerical verification of the scalar inequalities and noise lemmas that
the guarantee calculators rest on.

Each check sweeps a deterministic grid (plus seeded random cases), records
every violation beyond tolerance, and reports the tightest margin seen. An
inequality lhs <= rhs counts as violated when rhs - lhs < -1e-9 * max(1, |rhs|),
so near-tight cases evaluated with compensated summation do not false-alarm.

The rhs_scale hook exists for self-testing the harness: scaling a right-hand
side below 1 must make the corresponding check fail.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from math import fsum
from typing import Optional

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .meta import InnerAdaptConfig, RoundLoss, RunTrace, run_streams
from .numerics import ConfigError, check_one_of, spawn_rng_stream
from .optimizer import _window_means, alpha_weights, make_config_adagrad, weight_sum_W
from .regret import variance_proxy
from .tasks import (
    GAUSSIAN,
    SUBGAUSSIAN,
    NoiseModel,
    make_drifting_sine_stream,
    sine_round_rows,
)

__all__ = [
    "Violation",
    "LemmaCheckResult",
    "QUICK_IDS",
    "FULL_IDS",
    "check_geom_sqrt_sum",
    "check_geom_32_sum",
    "check_sum_ratio",
    "check_sum_ratio_momentum",
    "check_quadratic",
    "check_inv_sqrt_geom",
    "check_objective_drift",
    "mc_smoothed_gradient_lemmas",
    "run_checks",
]

_TOL = 1e-9

_A_GRID = (0.01, 0.05, 0.1, 0.2, 0.3, 0.5, 0.7, 0.8, 0.9, 0.95, 0.99)
_Q_GRID = (1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64, 96, 128, 256, 512, 1024)
_BETA2_GRID = (0.5, 0.9, 0.99, 0.999, 1.0)
_EPS_GRID = (1e-8, 1e-3, 1.0)
_MOMENTUM_GRID = ((0.1, 0.5), (0.5, 0.9), (0.9, 0.999), (0.5, 1.0), (0.9, 1.0))


@dataclass(frozen=True)
class Violation:
    params: dict
    lhs: float
    rhs: float

    def to_record(self) -> dict:
        return {"params": self.params, "lhs": self.lhs, "rhs": self.rhs}


@dataclass(eq=False)
class LemmaCheckResult:
    """Outcome of one inequality sweep.

    max_slack is the smallest rhs - lhs over the whole grid: how close the
    sharpest case came to the boundary (negative only when violations exist).
    tightest holds the parameters of the first check that reached it.
    """

    lemma_id: str
    grid_size: int
    violations: list = field(default_factory=list)
    max_slack: float = math.inf
    elapsed_s: float = 0.0
    tightest: Optional[dict] = None

    @property
    def passed(self) -> bool:
        return not self.violations

    def to_record(self) -> dict:
        return {
            "lemma_id": self.lemma_id,
            "grid_size": self.grid_size,
            "passed": self.passed,
            "max_slack": self.max_slack,
            "tightest": self.tightest,
            "elapsed_s": self.elapsed_s,
            "violations": [v.to_record() for v in self.violations[:50]],
            "violation_count": len(self.violations),
        }


class _Collector:
    def __init__(self, lemma_id: str, rhs_scale: float):
        self.result = LemmaCheckResult(lemma_id=lemma_id, grid_size=0)
        self.rhs_scale = float(rhs_scale)
        self._t0 = time.perf_counter()

    def check(self, lhs: float, rhs: float, **params) -> None:
        rhs = rhs * self.rhs_scale
        self.result.grid_size += 1
        slack = rhs - lhs
        if slack < self.result.max_slack:
            self.result.max_slack = slack
            self.result.tightest = params
        if slack < -_TOL * max(1.0, abs(rhs)):
            self.result.violations.append(Violation(params=params, lhs=lhs, rhs=rhs))

    def check_many(self, lhs, rhs, params_at) -> None:
        """check(lhs[idx], rhs[idx], **params_at(*idx)) for every index idx
        of lhs in C order, over arrays; rhs broadcasts against lhs.

        The decisions are check's, point by point in that order: the first
        point of the least slack becomes tightest, a nan slack never counts,
        and violations are appended in order. params_at gets a point's index
        as Python ints and is called only for the tightest point and the
        violations.
        """
        lhs = np.asarray(lhs, dtype=float)
        shape = lhs.shape

        def params(i: int) -> dict:
            return params_at(*(int(j) for j in np.unravel_index(i, shape)))

        with np.errstate(over="ignore", invalid="ignore"):
            rhs = np.asarray(rhs, dtype=float) * self.rhs_scale
            rhs = np.broadcast_to(rhs, shape).ravel()
            lhs = lhs.ravel()
            slack = rhs - lhs
            tol = np.abs(rhs)
            np.fmax(tol, 1.0, out=tol)  # fmax(nan, 1) is 1, as max(1.0, nan) is
            tol *= -_TOL
            failed = slack < tol
        self.result.grid_size += slack.size
        if slack.size == 0:
            return
        least = np.fmin.reduce(slack)  # nan only when every slack is
        if least < self.result.max_slack:
            # the first point equal to the least, keeping its sign of zero
            i = int(np.argmax(slack == least))
            self.result.max_slack = float(slack[i])
            self.result.tightest = params(i)
        for i in np.flatnonzero(failed).tolist():
            self.result.violations.append(
                Violation(params=params(i), lhs=float(lhs[i]), rhs=float(rhs[i]))
            )

    def done(self) -> LemmaCheckResult:
        self.result.elapsed_s = time.perf_counter() - self._t0
        return self.result


def _prefix_checker(lemma_id: str, term, rhs_of, rhs_scale: float) -> LemmaCheckResult:
    """Sweep sum_{q<Q} t_q <= rhs_of(a) over the a and Q grids, with the
    terms t = term(a**q, q) for q = 0..max(Q)-1.

    term gets a**q as Python's pow computes it (numpy's power may differ
    in the last bit) and q as floats, and combines them with correctly
    rounded array operations, so each term keeps the scalar loop's bits.
    """
    col = _Collector(lemma_id, rhs_scale)
    qmax = max(_Q_GRID)
    q = np.arange(qmax, dtype=float)
    lhs = []
    for a in _A_GRID:
        terms = memoryview(term(np.array([a**k for k in range(qmax)]), q))
        lhs.append([fsum(terms[:Q]) for Q in _Q_GRID])
    rhs = np.array([[rhs_of(a)] for a in _A_GRID])
    col.check_many(lhs, rhs, lambda i, j: {"a": _A_GRID[i], "Q": _Q_GRID[j]})
    return col.done()


def check_geom_sqrt_sum(rhs_scale: float = 1.0) -> LemmaCheckResult:
    """sum_{q=0}^{Q-1} a^q sqrt(q+1) <= 2 / (1-a)^(3/2) for 0 < a < 1."""
    return _prefix_checker(
        "geom-sqrt-sum",
        lambda p, q: p * np.sqrt(q + 1.0),
        lambda a: 2.0 / (1.0 - a) ** 1.5,
        rhs_scale,
    )


def check_geom_32_sum(rhs_scale: float = 1.0) -> LemmaCheckResult:
    """sum_{q=0}^{Q-1} a^q sqrt(q) (q+1) <= 4a / (1-a)^(5/2) for 0 < a < 1."""
    return _prefix_checker(
        "geom-three-halves-sum",
        lambda p, q: p * np.sqrt(q) * (q + 1.0),
        lambda a: 4.0 * a / (1.0 - a) ** 2.5,
        rhs_scale,
    )


def check_inv_sqrt_geom(rhs_scale: float = 1.0) -> LemmaCheckResult:
    """sum_{q=0}^{Q-1} a^q / sqrt(q+1) <= 2 / (a sqrt(1-a)) for 0 < a < 1."""
    return _prefix_checker(
        "inv-sqrt-geom",
        lambda p, q: p / np.sqrt(q + 1.0),
        lambda a: 2.0 / (a * math.sqrt(1.0 - a)),
        rhs_scale,
    )


def _named_positive_sequences(eps: float, n: int) -> dict:
    ramp = np.linspace(0.05, 3.0, n)
    return {
        "constant-eps": np.full(n, eps),
        "ones": np.ones(n),
        "ramp": ramp,
        "decay": 0.9 ** np.arange(n) + 1e-6,
        "spiky": np.where(np.arange(n) % 17 == 0, 5.0, 1e-3),
    }


def _row_fsums(rows: np.ndarray, occupied=None) -> list:
    """fsum over each row of a C-contiguous 2-D array, or over the first
    occupied[i] entries of row i; one memoryview serves every row.

    fsum rounds exactly, so each value equals fsum over the same terms
    taken one at a time, in any order.
    """
    n, m = rows.shape
    flat = memoryview(rows.reshape(-1))
    if occupied is None:
        occupied = [m] * n
    return [fsum(flat[lo : lo + k]) for lo, k in zip(range(0, n * m, m), occupied)]


def check_sum_ratio(
    rhs_scale: float = 1.0, n_random: int = 300, n_len: int = 160, seed: int = 0
) -> LemmaCheckResult:
    """sum_j a_j/(eps+b_j) <= ln(1+b_N/eps) - N ln(beta2) for positive a_j,
    where b_n = sum_{j<=n} beta2^(n-j) a_j.

    The recurrence runs over all sequences at once, one step j at a time,
    with the elementwise IEEE operations of the scalar recurrence, so each
    lhs and rhs keeps its bits. Per grid point, row k of one terms array
    holds sequence k's terms; the checks follow the order eps, sequence,
    beta2.
    """
    col = _Collector("sum-ratio", rhs_scale)
    rng = spawn_rng_stream(seed, 101)
    # row k holds sequence k: the named sequences first, then the random ones
    seqs = np.empty((5 + n_random, n_len))
    for i in range(n_random):
        seqs[5 + i] = 0.1 + 1.9 * rng.uniform(size=n_len)
    n_seq = seqs.shape[0]
    terms = np.empty_like(seqs)
    lhs = np.empty((len(_EPS_GRID), n_seq, len(_BETA2_GRID)))
    rhs = np.empty_like(lhs)
    for e, eps in enumerate(_EPS_GRID):
        named = _named_positive_sequences(eps, n_len)
        seqs[:5] = list(named.values())
        for g, beta2 in enumerate(_BETA2_GRID):
            # column j holds b_j until the division turns it into a_j/(eps+b_j)
            b = np.zeros(n_seq)
            for j in range(n_len):
                b = np.multiply(b, beta2, out=terms[:, j])
                b += seqs[:, j]
            rhs[e, :, g] = [math.log1p(b_k / eps) - n_len * math.log(beta2) for b_k in b.tolist()]
            terms += eps
            np.divide(seqs, terms, out=terms)
            lhs[e, :, g] = _row_fsums(terms)
    del seqs, terms  # before the checks' temporaries
    labels = [(name, -1) for name in named] + [("random", i) for i in range(n_random)]

    def params_at(e: int, k: int, g: int) -> dict:
        name, idx = labels[k]
        return dict(sequence=name, index=idx, beta2=_BETA2_GRID[g], eps=_EPS_GRID[e], n=n_len)

    col.check_many(lhs, rhs, params_at)
    return col.done()


def check_sum_ratio_momentum(
    rhs_scale: float = 1.0, n_random: int = 300, n_len: int = 160, seed: int = 0
) -> LemmaCheckResult:
    """Momentum form: with b_n = sum beta2^(n-j) a_j^2 and c_n = sum beta1^(n-j) a_j,
    sum_j c_j^2/(eps+b_j) <= (ln(1+b_n/eps) - n ln(beta2)) / ((1-beta1)(1-beta1/beta2)).

    Vectorised over the sequences like check_sum_ratio, one grid point at
    a time; the checks follow the order sequence, (beta1, beta2), eps.
    """
    col = _Collector("sum-ratio-momentum", rhs_scale)
    rng = spawn_rng_stream(seed, 102)
    n = n_len
    labels = [("normals", i) for i in range(n_random)]
    labels += [("alternating", -1), ("ones", -1), ("ramp-signed", -1)]
    # row k holds sequence k, in the order of labels
    seqs = np.empty((n_random + 3, n))
    for i in range(n_random):
        seqs[i] = rng.standard_normal(n)
    seqs[n_random] = np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
    seqs[n_random + 1] = 1.0
    seqs[n_random + 2] = np.linspace(-2.0, 2.0, n)
    n_seq = seqs.shape[0]
    terms = np.empty_like(seqs)
    b, c, tmp = np.empty(n_seq), np.empty(n_seq), np.empty(n_seq)
    lhs = np.empty((n_seq, len(_MOMENTUM_GRID), len(_EPS_GRID)))
    rhs = np.empty_like(lhs)
    for p, (beta1, beta2) in enumerate(_MOMENTUM_GRID):
        factor = 1.0 / ((1.0 - beta1) * (1.0 - beta1 / beta2))
        for e, eps in enumerate(_EPS_GRID):
            b.fill(0.0)
            c.fill(0.0)
            for j in range(n):
                a_j = seqs[:, j]
                b *= beta2
                b += np.multiply(a_j, a_j, out=tmp)
                c *= beta1
                c += a_j
                cc = np.multiply(c, c, out=terms[:, j])
                np.divide(cc, np.add(b, eps, out=tmp), out=cc)
            rhs[:, p, e] = [
                factor * (math.log1p(b_k / eps) - n * math.log(beta2)) for b_k in b.tolist()
            ]
            lhs[:, p, e] = _row_fsums(terms)
    del seqs, terms  # before the checks' temporaries

    def params_at(k: int, p: int, e: int) -> dict:
        (name, idx), (beta1, beta2) = labels[k], _MOMENTUM_GRID[p]
        return dict(
            sequence=name, index=idx, beta1=beta1, beta2=beta2, eps=_EPS_GRID[e], n=n
        )

    col.check_many(lhs, rhs, params_at)
    return col.done()


def _quad_zmax(a: float, b: float, c: float) -> float:
    """Largest Z with Z / sqrt(cZ + a) = b (the hypothesis boundary)."""
    return (c * b * b + math.sqrt(c * c * b**4 + 4.0 * a * b * b)) / 2.0


def _check_quad_points(col: _Collector, a, b, c, z, case: str, start=None) -> None:
    """Check Z <= c b^2 + b sqrt(a) at the points of the arrays where the
    hypothesis cZ + a > 0, Z / sqrt(cZ + a) <= b holds; point k's index
    param is start + k, or -1 without a start.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        denom = c * z + a
        # a nan denominator fails neither test, as in one point's scalar check
        kept = np.flatnonzero(~((denom <= 0.0) | (z / np.sqrt(denom) > b)))
    a, b, c, z = a[kept], b[kept], c[kept], z[kept]

    def params_at(i: int) -> dict:
        index = -1 if start is None else start + int(kept[i])
        return dict(
            a=float(a[i]), b=float(b[i]), c=float(c[i]), Z=float(z[i]), case=case, index=index
        )

    col.check_many(z, c * b * b + b * np.sqrt(a), params_at)


# random points of check_quadratic per block, which bounds its temporaries
_QUAD_BLOCK = 512


def check_quadratic(
    rhs_scale: float = 1.0, n_random: int = 10_000, seed: int = 0
) -> LemmaCheckResult:
    """If Z >= 0 and Z / sqrt(cZ + a) <= b then Z <= c b^2 + b sqrt(a).

    Probes Z = s * Zmax(a, b, c) on a grid, then at seeded random points;
    only the probes where the hypothesis holds are checked, grid first, in
    order. Zmax stays scalar Python: numpy's power may differ from pow in
    the last bit.
    """
    col = _Collector("quadratic-root", rhs_scale)
    grid = (0.0, 1e-3, 0.1, 1.0, 10.0, 1e3)
    fracs = (0.0, 0.25, 0.5, 0.75, 1.0)
    abc = [(a, b, c) for a in grid for b in grid for c in grid if a != 0.0 or c != 0.0]
    z = np.multiply.outer([_quad_zmax(*p) for p in abc], fracs).ravel()
    a, b, c = np.repeat(abc, len(fracs), axis=0).T
    _check_quad_points(col, a, b, c, z, "grid")

    rng = spawn_rng_stream(seed, 103)
    abc = rng.uniform(-4.0, 3.0, size=(n_random, 3))
    np.power(10.0, abc, out=abc)
    fracs = rng.uniform(size=n_random)
    for lo in range(0, n_random, _QUAD_BLOCK):
        a, b, c = abc[lo : lo + _QUAD_BLOCK].T
        zmax = map(_quad_zmax, memoryview(a), memoryview(b), memoryview(c))
        z = np.fromiter(zmax, float, count=a.size)
        z *= fracs[lo : lo + _QUAD_BLOCK]
        _check_quad_points(col, a, b, c, z, "random", start=lo)
    return col.done()


def check_objective_drift(
    trace: RunTrace, w: int, alpha: float, rhs_scale: float = 1.0
) -> LemmaCheckResult:
    """Per-round drift of the weighted window objective along a real trace.

    S_t(x) = (1/W)(alpha^0 ell_t(x) + sum_{r>=1} alpha^r ell_{t-r}(x_{t-r}));
    checks S_{t+1}(x_{t+1}) - S_t(x_{t+1}) and S_t(x_t) - S_{t+1}(x_{t+1})
    against their closed-form bound 2D, D the stream's amplitude, for every
    t < T. Row t-1 of a (T, min(w, T)) matrix of the products
    alpha^r ell_{t-r} holds the terms of W S_t(x_t) in its first min(t, w)
    entries; a copy whose newest column holds the next-iterate losses gives
    W S_t(x_{t+1}). Every point's params name its window and alpha, so the
    points of several configs stay apart.
    """
    stream = trace.stream
    if stream is None:
        raise ConfigError("trace has no stream attached; cannot rebuild round losses")
    # ell_t(x_{t+1}) for t = 1..T-1, row t-1: round t's loss at the next iterate
    T = trace.horizon
    A, B = stream.params_upto(T)
    with np.errstate(over="ignore", invalid="ignore"):
        next_losses = np.reshape(
            sine_round_rows(A[:-1], B[:-1], trace.iterates[1:], stream.amplitude, trace.theta)[3],
            -1,
        )
        if not np.isfinite(next_losses).all():
            # a nan loss means a non-finite sine argument; round t's loss raises it
            t = int(np.flatnonzero(~np.isfinite(next_losses))[0]) + 1
            RoundLoss(stream.task(t), trace.theta).loss(trace.iterates[t])
    col = _Collector("objective-drift", rhs_scale)
    W = weight_sum_W(alpha, w)
    m = min(w, T)
    weights = alpha_weights(alpha, m)
    # [t-1, r] = ell_{t-r}(x_{t-r}), zero where t - r < 1
    lagged = sliding_window_view(np.concatenate((np.zeros(m - 1), trace.losses)), m)[:, ::-1]
    here = np.multiply(lagged, weights, out=np.empty((T, m)))
    there = here[:-1].copy()
    there[:, 0] = weights[0] * next_losses
    occupied = [min(t, w) for t in range(1, T + 1)]
    # fsum rounds exactly, so the order of a row's terms does not matter
    s_here = np.array(_row_fsums(here, occupied)) / W
    s_there = np.array(_row_fsums(there, occupied)) / W
    # Both bounds are exactly 2D. The forward one, D(1 + alpha^(w-1))/W
    # + D(1 + alpha)(1 - alpha^(w-1))/((1 - alpha)W), reduces to it since
    # (1 + alpha^(w-1))(1 - alpha) + (1 + alpha)(1 - alpha^(w-1)) = 2(1 - alpha^w).
    bound = 2.0 * stream.constants().D
    # per t, forward then backward; S_{t+1}(x_{t+1}) is the next round's S_t(x_t)
    lhs = np.stack((s_here[1:] - s_there, s_here[:-1] - s_here[1:]), axis=1)
    sides = ("forward", "backward")
    config = dict(window=int(w), alpha=float(alpha))
    col.check_many(
        lhs, bound, lambda i, j: dict(config, t=i + 1, seed=trace.seed, side=sides[j])
    )
    return col.done()


def _merge(lemma_id: str, parts, t0: float) -> LemmaCheckResult:
    """One result over several sweeps, the first part with the least slack
    giving max_slack and tightest."""
    merged = LemmaCheckResult(lemma_id=lemma_id, grid_size=0)
    for part in parts:
        merged.grid_size += part.grid_size
        merged.violations.extend(part.violations)
        if part.max_slack < merged.max_slack:
            merged.max_slack = part.max_slack
            merged.tightest = part.tightest
    merged.elapsed_s = time.perf_counter() - t0
    return merged


# (window, alpha, seeds, horizon) of each objective-drift config
_DRIFT_CONFIGS = (
    (1, 0.5, 4, 300),
    (4, 0.9, 4, 300),
    (8, 1.0, 4, 300),
    (16, 0.99, 4, 300),
    (32, 0.99, 20, 500),
)


def _drift_config(rhs_scale: float, w: int, alpha: float, n_seeds: int, horizon: int) -> list:
    """One config's drift checks, one per drifting run of seed 0..n_seeds-1;
    the runs are played as one batch."""
    seeds = list(range(n_seeds))
    streams = [
        make_drifting_sine_stream(
            dim=4, drift_rate=0.1, noise=NoiseModel(GAUSSIAN, sigma=0.5), seed=s
        )
        for s in seeds
    ]
    opt = make_config_adagrad(eta=0.2, alpha=alpha, window=w)
    traces = run_streams(streams, horizon, InnerAdaptConfig(theta=0.05), opt, seeds)
    return [check_objective_drift(trace, w, alpha, rhs_scale=rhs_scale) for trace in traces]


def _drift_suite(rhs_scale: float) -> LemmaCheckResult:
    """Drift check across window/discount configs and seeded drifting runs."""
    t0 = time.perf_counter()
    parts = [part for config in _DRIFT_CONFIGS for part in _drift_config(rhs_scale, *config)]
    return _merge("objective-drift", parts, t0)


# the length of each exceedance run of the smoothed-gradient check
EXCEEDANCE_HORIZON = 16


def mc_smoothed_gradient_lemmas(
    dim: int,
    window: int,
    alpha: float,
    sigma: float,
    n_reps: int,
    seed: int = 0,
    delta: float = None,
    n_runs: int = 0,
    rhs_scale: float = 1.0,
) -> LemmaCheckResult:
    """Monte Carlo checks of the smoothed-gradient noise lemmas.

    Unbiasedness: over n_reps fresh full-window noise draws, the mean
    deviation of the smoothed stochastic gradient from the exact one stays
    within 5 aggregate standard errors of zero. Variance: the mean squared
    deviation matches mu within 3%. With delta and n_runs given,
    additionally plays n_runs seeded streams of EXCEEDANCE_HORIZON rounds
    under sub-Gaussian noise, as one batch, and checks that
    max_t ||gtilde_t - grad S_t||^2 exceeds mubar(delta) in at most a
    delta + 3 sqrt(delta/n_runs) fraction of runs.
    rhs_scale scales the threshold mubar as well as that fraction, so a
    corrupted run of this check counts exceedances. The largest observed
    max_t ||gtilde_t - grad S_t||^2 / mubar is recorded as
    max_dev_over_mubar in the check's params and in the result's tightest.
    """
    col = _Collector("smoothed-gradient-mc", rhs_scale)
    noise = NoiseModel(GAUSSIAN, sigma=sigma)
    vp = variance_proxy(noise, window, alpha)
    W = vp.weight_sum
    weights = alpha_weights(alpha, window)
    coord_std = noise.coord_std(dim)
    # the (n_reps, window, dim) noise is dropped once summed, so the checks'
    # temporaries and the exceedance runs do not stack on it
    devs = np.einsum(
        "irk,r->ik",
        spawn_rng_stream(seed, 999_983).standard_normal((int(n_reps), window, dim)),
        weights,
    ) * (coord_std / W)

    mean_norm = float(np.linalg.norm(devs.mean(axis=0)))
    col.check(
        mean_norm,
        5.0 * math.sqrt(vp.mu / n_reps),
        check="unbiasedness",
        n_reps=int(n_reps),
        alpha=alpha,
        window=window,
    )
    var_est = float((devs**2).sum(axis=1).mean())
    col.check(var_est, 1.03 * vp.mu, check="variance-upper", alpha=alpha, window=window)
    col.check(0.97 * vp.mu, var_est, check="variance-lower", alpha=alpha, window=window)

    if delta is not None and n_runs > 0:
        sub_noise = NoiseModel(SUBGAUSSIAN, sigma=sigma)
        sub_stream = make_drifting_sine_stream(
            dim=dim, drift_rate=0.05, noise=sub_noise, seed=seed
        )
        inner = InnerAdaptConfig(theta=0.05)
        opt = make_config_adagrad(eta=0.1, alpha=alpha, window=window)
        mubar = variance_proxy(sub_noise, window, alpha, delta=delta, dim=dim).mubar
        traces = run_streams(
            [sub_stream] * int(n_runs), EXCEEDANCE_HORIZON, inner, opt, range(int(n_runs))
        )
        dev = np.stack([tr.smoothed_grads for tr in traces])
        dev -= _window_means(np.stack([tr.grads for tr in traces]), window, alpha)
        worst = np.einsum("rtd,rtd->rt", dev, dev).max(axis=1)
        exceed = int(np.count_nonzero(worst > col.rhs_scale * mubar))
        ratio = float(worst.max()) / mubar
        col.check(
            exceed / n_runs,
            delta + 3.0 * math.sqrt(delta / n_runs),
            check="deviation-exceedance",
            delta=delta,
            n_runs=int(n_runs),
            mubar=mubar,
            max_dev_over_mubar=ratio,
        )
        res = col.done()
        res.tightest = {**res.tightest, "max_dev_over_mubar": ratio}
        return res
    return col.done()


# the smoothed-gradient suite's parts; the last one adds the exceedance runs
_MC_PARTS = (
    dict(dim=5, window=4, alpha=1.0, sigma=0.5, n_reps=100_000),
    dict(dim=5, window=8, alpha=0.9, sigma=0.5, n_reps=100_000),
    dict(dim=5, window=2, alpha=0.5, sigma=0.5, n_reps=100_000),
    dict(dim=5, window=4, alpha=0.9, sigma=0.5, n_reps=10_000, delta=0.2, n_runs=500),
)


def _mc_suite(rhs_scale: float) -> LemmaCheckResult:
    t0 = time.perf_counter()
    parts = [mc_smoothed_gradient_lemmas(**part, rhs_scale=rhs_scale) for part in _MC_PARTS]
    merged = _merge("smoothed-gradient-mc", parts, t0)
    # the exceedance check is rarely the tightest point; its largest ratio to
    # mubar rides along, so the artifact shows how loose mubar is
    ratio = parts[-1].tightest["max_dev_over_mubar"]
    merged.tightest = {**merged.tightest, "max_dev_over_mubar": ratio}
    return merged


# lemma id -> check(rhs_scale); the two trace-backed suites come last, full preset only
_CHECKS = {
    "geom-sqrt-sum": check_geom_sqrt_sum,
    "geom-three-halves-sum": check_geom_32_sum,
    "sum-ratio": check_sum_ratio,
    "sum-ratio-momentum": check_sum_ratio_momentum,
    "quadratic-root": check_quadratic,
    "inv-sqrt-geom": check_inv_sqrt_geom,
    "objective-drift": _drift_suite,
    "smoothed-gradient-mc": _mc_suite,
}
FULL_IDS = tuple(_CHECKS)
QUICK_IDS = FULL_IDS[:6]


SELF_TEST_SCALE = 0.02


def run_checks(preset: str = "quick", corrupt: str = None):
    """Run the preset's checks; returns a list of LemmaCheckResult.

    Every seeded check draws with its own default seed, 0.

    corrupt names a lemma id whose right-hand sides are scaled by
    SELF_TEST_SCALE = 0.02, a self-test that the harness detects violations:
    every lemma id, and every drift config, fails at that scale (at 0.1 the
    two widest drift windows do not).
    """
    ids = QUICK_IDS if check_one_of("preset", preset, ("quick", "full")) == "quick" else FULL_IDS
    if corrupt is not None and corrupt not in ids:
        raise ConfigError(f"unknown lemma id {corrupt!r}; expected one of {ids}")
    return [_CHECKS[i](SELF_TEST_SCALE if i == corrupt else 1.0) for i in ids]
