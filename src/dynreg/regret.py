"""Regret accounting and closed-form guarantee calculators.

Dynamic local regret at window w and discount alpha is the cumulative
squared norm of the weighted average of past round-loss gradients, each
taken at its own historical iterate:

    DLR_w(T) = sum_t || (1/W) sum_{r<min(t,w)} alpha^r grad ell_{t-r}(x_{t-r}) ||^2.

The static variant re-evaluates the last w losses at the current iterate:

    SLR_w(T) = sum_t || (1/w) sum_{r<min(t,w)} grad ell_{t-r}(x_t) ||^2.

One calculator turns run hyperparameters and loss-family constants into
the four closed-form right-hand sides: expectation and high-probability
guarantees for the accumulating (beta1=0, beta2=1) and momentum presets.
The noise level and the preset are independent choices inside it; every
guarantee whose C or right-hand side is not finite carries a warning.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .meta import RunTrace
from .numerics import ConfigError, DimensionError, geometric_sum
from .optimizer import ADAM_SCHEDULE, CONSTANT, OptimizerConfig, alpha_weights, weight_sum_W
from .tasks import LossConstants, NoiseModel, is_sine_stream, sub_gaussian_scale

__all__ = [
    "ADAGRAD",
    "ADAM",
    "THEOREMS",
    "RegretLedger",
    "EffectiveConstants",
    "VarianceProxy",
    "BoundReport",
    "LogFit",
    "exact_smoothed_gradient",
    "dlr_cumulative",
    "slr_cumulative",
    "effective_constants",
    "variance_proxy",
    "bound_expectation",
    "bound_highprob",
    "logarithmic_fit",
]

ADAGRAD = "adagrad"
ADAM = "adam"
THEOREMS = (
    "adagrad-expectation",
    "adam-expectation",
    "adagrad-highprob",
    "adam-highprob",
)


@dataclass(frozen=True, eq=False)
class RegretLedger:
    """Per-round and cumulative regret values for one trace."""

    kind: str  # "dynamic" or "static"
    window: int
    alpha: Optional[float]
    weight_sum: float
    per_round: np.ndarray
    cumulative: np.ndarray

    @property
    def total(self) -> float:
        return float(self.cumulative[-1])


def _check_window(w, alpha=None):
    if not isinstance(w, (int, np.integer)) or w < 1:
        raise ConfigError(f"window must be an integer >= 1, got {w!r}")
    if alpha is not None and not (0.0 < alpha <= 1.0):
        raise ConfigError(f"alpha must be in (0, 1], got {alpha}")


def exact_smoothed_gradient(trace: RunTrace, t: int, w: int, alpha: float) -> np.ndarray:
    """The noiseless weighted window average of recorded gradients at round t."""
    _check_window(w, alpha)
    if not (1 <= t <= trace.horizon):
        raise ConfigError(f"t must be in [1, {trace.horizon}], got {t}")
    occ = min(int(t), int(w))
    W = weight_sum_W(alpha, w)
    rows = trace.grads[t - occ : t][::-1]  # newest first
    weights = alpha_weights(alpha, w)[:occ]
    return (weights[:, None] * rows).sum(axis=0) / W


def dlr_cumulative(trace: RunTrace, w: int, alpha: float) -> RegretLedger:
    """Dynamic local regret ledger of a trace."""
    _check_window(w, alpha)
    per_round = _weighted_window_norms(trace.grads, int(w), float(alpha))
    return RegretLedger(
        kind="dynamic",
        window=int(w),
        alpha=float(alpha),
        weight_sum=weight_sum_W(alpha, w),
        per_round=per_round,
        cumulative=np.cumsum(per_round),
    )


def slr_cumulative(trace: RunTrace, w: int) -> RegretLedger:
    """Static local regret ledger: past losses re-evaluated at the current iterate."""
    _check_window(w)
    stream = trace.stream
    if is_sine_stream(stream):
        A, B = stream.params_upto(trace.horizon)
        per_round = _static_window_norms_sine(
            A, B, trace.iterates, int(w), trace.theta, stream.amplitude
        )
    else:
        per_round = _slr_generic(trace, int(w))
    return RegretLedger(
        kind="static",
        window=int(w),
        alpha=None,
        weight_sum=float(w),
        per_round=per_round,
        cumulative=np.cumsum(per_round),
    )


def _weighted_window_norms(G, w: int, alpha: float) -> np.ndarray:
    """Per-round squared norms of the weighted window average of rows of G."""
    G = np.ascontiguousarray(G, dtype=np.float64)
    T, d = G.shape
    W = weight_sum_W(alpha, w)
    if w == 1:
        S = G / W
    else:
        padded = np.vstack([np.zeros((w - 1, d)), G])
        win = np.lib.stride_tricks.sliding_window_view(padded, w, axis=0)  # (T, d, w)
        # position k carries weight alpha^(w-1-k)
        rev = np.ascontiguousarray(alpha_weights(alpha, w)[::-1])
        S = (win @ rev) / W
    return np.einsum("td,td->t", S, S)


def _static_window_norms_sine(A, B, X, w: int, theta: float, D: float) -> np.ndarray:
    """Per-round squared norms of the plain window average of past composite
    gradients, all re-evaluated at the round's own iterate."""
    A = np.ascontiguousarray(A, dtype=np.float64)
    B = np.ascontiguousarray(B, dtype=np.float64)
    X = np.ascontiguousarray(X, dtype=np.float64)
    T = X.shape[0]
    out = np.empty(T)
    for t in range(1, T + 1):
        occ = min(t, w)
        Aw = A[t - occ : t][::-1]
        Bw = B[t - occ : t][::-1]
        x = X[t - 1]
        s = Aw @ x + Bw
        cs = np.cos(s)
        sn = np.sin(s)
        U = x[None, :] - theta * (D * cs)[:, None] * Aw
        s2 = np.einsum("rd,rd->r", Aw, U) + Bw
        c2 = np.cos(s2)
        dot_ag = D * c2 * np.einsum("rd,rd->r", Aw, Aw)
        F = (D * c2 + theta * D * sn * dot_ag)[:, None] * Aw
        g = F.sum(axis=0) / w
        out[t - 1] = float(g @ g)
    return out


def _slr_generic(trace: RunTrace, w: int) -> np.ndarray:
    """Handle-based static regret for non-sine streams (portable, slow)."""
    T = trace.horizon
    out = np.empty(T)
    handles = [trace.round_loss(t) for t in range(1, T + 1)]
    for t in range(1, T + 1):
        occ = min(t, w)
        x = trace.iterates[t - 1]
        acc = np.zeros(trace.dim)
        for r in range(occ):
            acc += handles[t - 1 - r].grad(x)
        g = acc / w
        out[t - 1] = float(g @ g)
    return out


@dataclass(frozen=True)
class EffectiveConstants:
    """Lipschitz and smoothness constants of the composite round loss."""

    L: float
    gamma: float


def effective_constants(constants: LossConstants, theta: float) -> EffectiveConstants:
    """Composite constants under one inner gradient step of size theta.

    L' = (1 + theta gamma) L and gamma' = theta L H + (1 + theta gamma)^2 gamma,
    valid for every theta >= 0.
    """
    if not (math.isfinite(theta) and theta >= 0):
        raise ConfigError(f"theta must be finite and >= 0, got {theta}")
    expand = 1.0 + theta * constants.gamma
    return EffectiveConstants(
        L=expand * constants.L,
        gamma=theta * constants.L * constants.H + expand * expand * constants.gamma,
    )


@dataclass(frozen=True)
class VarianceProxy:
    """Second-moment and deviation proxies of the smoothed gradient noise."""

    sigma: float
    kappa: Optional[float]
    window: int
    alpha: float
    weight_sum: float
    mu: float
    zeta: float
    delta: Optional[float] = None
    zeta_highprob: Optional[float] = None
    mubar: Optional[float] = None


def _sq_weight_sum(alpha: float, w: int) -> float:
    """sum_{r<w} alpha^(2r), accurate as alpha -> 1 and exactly w at 1."""
    if alpha == 1.0:
        return float(w)
    return geometric_sum(2.0 * math.log(alpha), w)


def variance_proxy(
    noise: NoiseModel,
    window: int,
    alpha: float,
    delta: Optional[float] = None,
    dim: Optional[int] = None,
) -> VarianceProxy:
    """Variance mu of the smoothed stochastic gradient and deviation proxies.

    mu = sigma^2 (1-alpha^(2w)) / (W^2 (1-alpha^2)), with the alpha = 1 limit
    sigma^2 / w. With delta given (and a kappa, explicit or derived from the
    dimension) the high-probability proxies are included:
    zeta_hp = kappa^2 ln(e/delta) and
    mubar = kappa^2 (w sum_r alpha^(2r) / W^2 + ln(1/delta)), the log-domain
    form of kappa^2 ln(exp(w sum_r alpha^(2r) / W^2)/delta).
    """
    _check_window(window, alpha)
    w = int(window)
    W = weight_sum_W(alpha, w)
    ssum = _sq_weight_sum(alpha, w)
    mu = noise.sigma**2 * ssum / (W * W)
    zeta = noise.sigma**2 / W
    zeta_hp = None
    mubar = None
    kappa = noise.kappa
    if kappa is None and not noise.is_exact and dim is not None:
        kappa = sub_gaussian_scale(noise.sigma, dim)
    if delta is not None:
        if not (0.0 < delta < 1.0):
            raise ConfigError(f"delta must be in (0, 1), got {delta}")
        if kappa is not None:
            log_inv = math.log(1.0 / delta)
            zeta_hp = kappa**2 * (1.0 + log_inv)
            mubar = kappa**2 * (w * ssum / (W * W) + log_inv)
    return VarianceProxy(
        sigma=noise.sigma,
        kappa=kappa,
        window=w,
        alpha=float(alpha),
        weight_sum=W,
        mu=mu,
        zeta=zeta,
        delta=delta,
        zeta_highprob=zeta_hp,
        mubar=mubar,
    )


@dataclass(frozen=True)
class BoundReport:
    """One closed-form guarantee evaluation, fully reproducible from inputs."""

    theorem: str
    inputs: dict
    derived: dict
    rhs: float
    warnings: tuple = ()

    def to_record(self) -> dict:
        """Flat JSON-ready record keyed by symbol name."""
        rec = {"theorem": self.theorem}
        rec.update(self.inputs)
        rec.update(self.derived)
        rec["rhs"] = self.rhs
        rec["warnings"] = list(self.warnings)
        return rec


def bound_expectation(
    kind: str,
    opt: OptimizerConfig,
    noise: NoiseModel,
    constants: LossConstants,
    theta: float,
    horizon: int,
    dim: int,
    delta: float,
    varsigma: Optional[float] = None,
) -> BoundReport:
    """In-expectation guarantee on DLR_w(T), holding with probability 1-delta."""
    return _bound(kind, False, opt, noise, constants, theta, horizon, dim, delta, varsigma)


def bound_highprob(
    kind: str,
    opt: OptimizerConfig,
    noise: NoiseModel,
    constants: LossConstants,
    theta: float,
    horizon: int,
    dim: int,
    delta: float,
    varsigma: Optional[float] = None,
) -> BoundReport:
    """High-probability guarantee on DLR_w(T) under sub-Gaussian oracle noise.

    Requires a sub-Gaussian scale kappa (explicit on the noise model, or
    derived from sigma and the dimension).
    """
    return _bound(kind, True, opt, noise, constants, theta, horizon, dim, delta, varsigma)


def _bound(kind, highprob, opt, noise, constants, theta, horizon, dim, delta, varsigma):
    """The four guarantees, built along two independent choices.

    The noise level sets zeta and the noise scale: sigma^2/W and sqrt(zeta)
    in expectation, kappa^2 ln(e/delta) and sqrt(zeta)/sqrt(W) with high
    probability, where a deviation term also joins C. The preset (kind) sets
    varpi1, varpi2, the log term and the right-hand side.
    """
    if kind == ADAGRAD:
        if not (opt.beta1 == 0.0 and opt.beta2 == 1.0 and opt.schedule == CONSTANT):
            raise ConfigError(
                "the accumulating-preset bounds require beta1=0, beta2=1 and a "
                f"constant step size; got beta1={opt.beta1}, beta2={opt.beta2}, "
                f"schedule={opt.schedule}"
            )
    elif kind == ADAM:
        if opt.schedule != ADAM_SCHEDULE:
            raise ConfigError(
                "the momentum-preset bounds require the increasing step-size "
                f"schedule; got schedule={opt.schedule}"
            )
    else:
        raise ConfigError(f"theorem kind must be '{ADAGRAD}' or '{ADAM}', got {kind!r}")
    if not isinstance(horizon, (int, np.integer)) or horizon < 1:
        raise ConfigError(f"horizon must be an integer >= 1, got {horizon!r}")
    if not isinstance(dim, (int, np.integer)) or dim < 1:
        raise ConfigError(f"dim must be an integer >= 1, got {dim!r}")
    if not (0.0 < delta < 1.0):
        raise ConfigError(f"delta must be in (0, 1), got {delta}")
    eff = effective_constants(constants, theta)  # also validates theta
    Lp, gp = eff.L, eff.gamma
    T, d = int(horizon), int(dim)
    eta, eps = opt.eta, opt.epsilon
    inputs = {
        "T": T, "dim": d, "delta": float(delta),
        "eta": eta, "beta1": opt.beta1, "beta2": opt.beta2, "epsilon": eps,
        "alpha": opt.alpha, "w": opt.window, "sigma": float(noise.sigma), "theta": float(theta),
        "D": constants.D, "L": constants.L, "gamma": constants.gamma, "H": constants.H,
    }
    W = weight_sum_W(opt.alpha, opt.window)
    if highprob:
        kappa = noise.kappa_for(d)
        if kappa is None:
            raise ConfigError(
                "high-probability bounds require a sub-Gaussian scale kappa; the "
                "noise model is exact and provides none"
            )
        inputs["kappa"] = kappa
        log_inv = math.log(1.0 / delta)
        zeta = kappa**2 * (1.0 + log_inv)  # kappa^2 ln(e/delta)
        noise_scale = math.sqrt(zeta) / math.sqrt(W)
    else:
        zeta = noise.sigma**2 / W
        noise_scale = math.sqrt(zeta)
    warnings: list[str] = []

    if kind == ADAGRAD:
        varpi1 = 4.0 * constants.D * T / (W * eta)
        varpi2 = eta * gp / 2.0 + 2.0 * noise_scale
        C = varpi1 + varpi2 * d * math.log1p(2.0 * (zeta + Lp**2) * T / (d * eps))
        if highprob:
            C += (3.0 * kappa**2 / math.sqrt(eps)) * log_inv
            rhs = (
                4.0 * C * math.sqrt(eps)
                + 4.0 * C * math.sqrt(2.0 * T * zeta / W)
                + 48.0 * C * C / W
            )
        else:
            rhs = (
                4.0 * C * math.sqrt(eps) / delta
                + 8.0 * C * math.sqrt(zeta * T) / delta**1.5
                + 48.0 * C * C / delta**2
            )
    else:
        b1, b2 = opt.beta1, opt.beta2
        vs = math.sqrt(1.0 - b2) if varsigma is None else float(varsigma)
        if not (math.isfinite(vs) and vs > 0):
            raise ConfigError(f"varsigma must be positive and finite, got {vs}")
        inputs["varsigma"] = vs
        q = 1.0 - b1 / b2
        varpi1 = 4.0 * constants.D * T / W + 8.0 * T * eta * (1.0 - b1) * Lp**2 / (
            b1 * math.sqrt(1.0 - b2) * W * W
        )
        varpi2 = (
            d * eta**2 * (1.0 - b1) * gp / (2.0 * (1.0 - b2) * q)
            + d * eta**3 * gp**2 * b1 / (q * (1.0 - b2) ** 1.5)
            + 2.0 * d * eta * (1.0 + noise_scale) * math.sqrt(1.0 - b1)
            / (q**1.5 * math.sqrt(1.0 - b2))
            + 2.0 * eta**3 * (1.0 - b1) ** 2 * gp**2 / (b1 * (1.0 - b2) ** 1.5 * q)
        )
        log_term = d * math.log1p(2.0 * (zeta + Lp**2) / (d * eps * (1.0 - b2))) - T * math.log(b2)
        C = varpi1 + varpi2 * log_term
        if highprob:
            b1_pow_T = b1**T
            if b1_pow_T == 0.0:
                varpi3 = math.inf
                warnings.append(
                    f"beta1^T underflowed to zero at T={T}; the deviation term and the "
                    "right-hand side are reported as infinite"
                )
            else:
                varpi3 = (
                    3.0 * eta * (1.0 - b1) * kappa**2 * log_inv
                    / (W * W * b1_pow_T * math.sqrt(1.0 - b2) * math.sqrt(eps))
                )
                if not math.isfinite(varpi3):
                    warnings.append(
                        "the deviation term overflowed; the right-hand side is reported as infinite"
                    )
            C += varpi3
            rhs = (4.0 * math.sqrt(1.0 - b2) * C / (vs * eta * (1.0 - b1))) * (
                math.sqrt(eps) + math.sqrt(2.0 * T * zeta / W)
            ) + 48.0 * (1.0 - b2) * C * C / (W * vs**2 * eta**2 * (1.0 - b1) ** 2)
        else:
            pref = math.sqrt(1.0 - b2) / (vs * eta * (1.0 - b1))
            rhs = pref * (
                4.0 * C * math.sqrt(eps) / delta + 8.0 * C * math.sqrt(zeta * T) / delta**1.5
            ) + 48.0 * (1.0 - b2) * C * C / (vs**2 * eta**2 * (1.0 - b1) ** 2 * delta**2)

    if not warnings and not (math.isfinite(C) and math.isfinite(rhs)):
        warnings.append(
            "the right-hand side overflowed to infinity"
            if rhs == math.inf
            else f"the right-hand side is not finite (C={C}, rhs={rhs})"
        )
    derived = {
        "W": W, "L_prime": Lp, "gamma_prime": gp, "zeta": zeta, "varpi1": varpi1, "varpi2": varpi2
    }
    if highprob and kind == ADAM:
        derived["varpi3"] = varpi3
    derived["C"] = C
    theorem = f"{kind}-highprob" if highprob else f"{kind}-expectation"
    return BoundReport(theorem, inputs, derived, rhs, tuple(warnings))


@dataclass(frozen=True, eq=False)
class LogFit:
    """Least-squares fit of cumulative regret against ln T."""

    slope: float
    intercept: float
    residual_norm: float
    horizons: np.ndarray
    values: np.ndarray
    ratios: np.ndarray
    tail_variation: float
    non_logarithmic: bool


def logarithmic_fit(horizons, values) -> LogFit:
    """Fit values ~ slope*ln(T) + intercept over >= 3 horizons.

    The growth is flagged non-logarithmic when the ratios values/ln(T) are
    strictly increasing and the last ratio exceeds its predecessor by more
    than 10%.
    """
    h = np.asarray(horizons, dtype=np.float64)
    vals = np.asarray(values, dtype=np.float64)
    if h.ndim != 1 or vals.ndim != 1 or h.size != vals.size:
        raise DimensionError("horizons and values must be 1-D with equal length")
    if h.size < 3:
        raise ConfigError(f"need at least 3 horizons, got {h.size}")
    if np.any(h <= 1) or np.any(np.diff(h) <= 0):
        raise ConfigError("horizons must be strictly increasing and > 1")
    if not np.all(np.isfinite(vals)):
        raise ConfigError("values must be finite")
    lt = np.log(h)
    design = np.column_stack([lt, np.ones_like(lt)])
    coef, resid, _, _ = np.linalg.lstsq(design, vals, rcond=None)
    residual_norm = (
        math.sqrt(float(resid[0]))
        if resid.size
        else float(np.linalg.norm(design @ coef - vals))
    )
    ratios = vals / lt
    prev = ratios[-2]
    diff = abs(ratios[-1] - prev)
    tail_variation = diff / abs(prev) if prev != 0.0 else (math.inf if diff > 0 else 0.0)
    increasing = bool(np.all(np.diff(ratios) > 0))
    return LogFit(
        slope=float(coef[0]),
        intercept=float(coef[1]),
        residual_norm=residual_norm,
        horizons=h,
        values=vals,
        ratios=ratios,
        tail_variation=float(tail_variation),
        non_logarithmic=bool(increasing and tail_variation > 0.10),
    )
