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
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .meta import THETA_RANGE, RunTrace
from .numerics import ConfigError, NumericError, check_int, check_one_of, check_real, geometric_sum
from .optimizer import (
    ADAM_SCHEDULE,
    CONSTANT,
    OptimizerConfig,
    _check_window,
    _sq_weight_sum,
    _weighted_row_sum,
    _window_means,
    alpha_weights,
    weight_sum_W,
)
from .tasks import LossConstants, NoiseModel, _power

__all__ = [
    "ADAGRAD",
    "ADAM",
    "THEOREMS",
    "RegretLedger",
    "EffectiveConstants",
    "VarianceProxy",
    "BoundReport",
    "exact_smoothed_gradient",
    "dlr_cumulative",
    "slr_cumulative",
    "effective_constants",
    "variance_proxy",
    "bound_expectation",
    "bound_highprob",
]

ADAGRAD = "adagrad"
ADAM = "adam"
_PRESETS = (ADAGRAD, ADAM)
THEOREMS = (
    "adagrad-expectation",
    "adam-expectation",
    "adagrad-highprob",
    "adam-highprob",
)

# check_real's range of the confidence level delta; varsigma is positive,
# check_real's default. The config loader checks its keys against the same
# ranges.
DELTA_RANGE = (0.0, 1.0, "()")


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


def exact_smoothed_gradient(trace: RunTrace, t: int, w: int, alpha: float) -> np.ndarray:
    """The noiseless weighted window average of recorded gradients at round t."""
    w = _check_window(w, alpha)
    if check_int("t", t) > trace.horizon:
        raise ConfigError(f"t must be at most the horizon {trace.horizon}, got {t}")
    occ = min(t, w)
    W = weight_sum_W(alpha, w)
    rows = trace.grads[t - occ : t][::-1]  # newest first
    return _weighted_row_sum(alpha, alpha_weights(alpha, occ)[:, None], rows) / W


def dlr_cumulative(trace: RunTrace, w: int, alpha: float) -> RegretLedger:
    """Dynamic local regret ledger of a trace."""
    _check_window(w, alpha)
    with np.errstate(over="ignore", invalid="ignore"):
        S = _window_means(trace.grads[None], int(w), float(alpha))[0]
        per_round = np.einsum("td,td->t", S, S)
        return _ledger("dynamic", int(w), float(alpha), weight_sum_W(alpha, w), per_round)


def slr_cumulative(trace: RunTrace, w: int) -> RegretLedger:
    """Static local regret ledger: past losses re-evaluated at the current iterate."""
    check_int("window", w)
    stream = trace.stream
    if stream is None:
        raise ConfigError("trace has no stream attached; cannot rebuild round losses")
    A, B = stream.params_upto(trace.horizon)
    with np.errstate(over="ignore", invalid="ignore"):
        per_round = _static_window_norms_sine(
            A, B, trace.iterates, int(w), trace.theta, stream.amplitude
        )
        return _ledger("static", int(w), None, float(w), per_round)


def _ledger(kind, w, alpha, weight_sum, per_round) -> RegretLedger:
    """The ledger of non-negative per-round values. A ledger that overflows
    is a NumericError (its callers silence numpy's warnings, which would
    repeat it): every later cumulative value would inherit the inf or nan."""
    cumulative = np.cumsum(per_round)
    if not math.isfinite(cumulative[-1]):
        bad = int(np.flatnonzero(~np.isfinite(cumulative))[0])
        raise NumericError(f"{kind} local regret is not finite from round {bad + 1} on")
    return RegretLedger(
        kind=kind,
        window=w,
        alpha=alpha,
        weight_sum=weight_sum,
        per_round=per_round,
        cumulative=cumulative,
    )


def _window_rows(T: int, m: int, width: int):
    """Rows to fill, shape (T, width), and the window view over them,
    shape (T, m, width): view[t-1, r] is row t-1-r, newest first, and a zero
    row where r >= t. Both read one buffer that starts with the m - 1 zero
    rows; with m at most T it is under twice the rows."""
    pad = np.zeros((T + m - 1, width))
    step = pad.strides[0]
    view = np.ndarray(
        (T, m, width), buffer=pad, offset=(m - 1) * step, strides=(step, -step, pad.strides[1])
    )
    return pad[m - 1 :], view


# The static ledger takes its rounds in blocks of about this many (round,
# lag) pairs, so that a block's temporaries stay cache-sized whatever the
# horizon and window.
_BLOCK_PAIRS = 1 << 14


def _static_window_norms_sine(A, B, X, w: int, theta: float, D: float) -> np.ndarray:
    """Per-round squared norms of the plain window average of past composite
    gradients, all re-evaluated at the round's own iterate.

    Pair (t, r) is round t - r's loss at iterate x_t. With s = <a, x> + b and
    U = x - theta D cos(s) a, the inner argument is <a, U> + b =
    s - theta D cos(s) ||a||^2 and the gradient is
    D cos(s2) (1 + theta D sin(s) ||a||^2) a, so U is never built.

    A block of rounds reads the window view of the rows (a, b, ||a||^2)
    and stops at its last round's lag count, so the padding costs the
    transcendentals only a triangle per block in the first min(w, T)
    rounds. Each round sums its pairs in lag order and then zero rows, so
    its bits are those of the lag-by-lag sum, whatever the block edges or
    the horizon.
    """
    X = np.ascontiguousarray(X, dtype=np.float64)
    T, d = X.shape
    m = min(w, T)
    thD = theta * D
    rows, V = _window_rows(T, m, d + 2)
    rows[:, :d] = A
    rows[:, d] = B
    rows[:, d + 1] = np.einsum("td,td->t", rows[:, :d], rows[:, :d])
    block = max(1, _BLOCK_PAIRS // m)
    G = np.empty_like(X)
    for i0 in range(0, T, block):
        i1 = min(i0 + block, T)
        v = V[i0:i1, : min(m, i1)]
        a, n2 = v[..., :d], v[..., d + 1]
        s = np.einsum("trd,td->tr", a, X[i0:i1])
        s += v[..., d]
        # coef = D cos(s2) (1 + thD sin(s) n2), with s2 = s - thD cos(s) n2,
        # in place: a block's temporaries are then three arrays of its pairs
        tmp = np.cos(s)
        tmp *= thD
        tmp *= n2
        coef = s - tmp
        np.sin(s, out=tmp)
        tmp *= thD
        tmp *= n2
        tmp += 1.0
        np.cos(coef, out=coef)
        coef *= D
        coef *= tmp
        np.einsum("tr,trd->td", coef, a, out=G[i0:i1])
    G /= w
    return np.einsum("td,td->t", G, G)


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
    return EffectiveConstants(*_effective(constants, theta))


def _effective(constants: LossConstants, theta: float) -> tuple[float, float]:
    """(L', gamma'); the guarantee calculator skips building the dataclass."""
    theta = check_real("theta", theta, THETA_RANGE)
    expand = 1.0 + theta * constants.gamma
    return expand * constants.L, theta * constants.L * constants.H + expand * expand * constants.gamma


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
    sigma2 = _power(noise.sigma, 2)
    mu = sigma2 * ssum / (W * W)
    zeta = sigma2 / W
    zeta_hp = None
    mubar = None
    kappa = noise.kappa if dim is None else noise.kappa_for(dim)
    if delta is not None:
        check_real("delta", delta, DELTA_RANGE)
        if kappa is not None:
            log_inv = math.log(1.0 / delta)
            kappa2 = _power(kappa, 2)
            zeta_hp = kappa2 * (1.0 + log_inv)
            mubar = kappa2 * (w * ssum / (W * W) + log_inv)
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
    if check_one_of("theorem kind", kind, _PRESETS) == ADAGRAD:
        if not (opt.beta1 == 0.0 and opt.beta2 == 1.0 and opt.schedule == CONSTANT):
            raise ConfigError(
                "the accumulating-preset bounds require beta1=0, beta2=1 and a "
                f"constant step size; got beta1={opt.beta1}, beta2={opt.beta2}, "
                f"schedule={opt.schedule}"
            )
    elif opt.schedule != ADAM_SCHEDULE:
        raise ConfigError(
            "the momentum-preset bounds require the increasing step-size "
            f"schedule; got schedule={opt.schedule}"
        )
    T = check_int("horizon", horizon)
    d = check_int("dim", dim)
    delta = check_real("delta", delta, DELTA_RANGE)
    Lp, gp = _effective(constants, theta)  # also validates theta
    inputs = {
        "T": T, "dim": d, "delta": delta,
        "eta": opt.eta, "beta1": opt.beta1, "beta2": opt.beta2, "epsilon": opt.epsilon,
        "alpha": opt.alpha, "w": opt.window, "sigma": float(noise.sigma), "theta": float(theta),
        "D": constants.D, "L": constants.L, "gamma": constants.gamma, "H": constants.H,
    }
    kappa = vs = None
    if highprob:
        kappa = noise.kappa_for(d)
        if kappa is None:
            raise ConfigError(
                "high-probability bounds require a sub-Gaussian scale kappa; the "
                "noise model is exact and provides none"
            )
        inputs["kappa"] = kappa
    if kind == ADAM:
        vs = math.sqrt(1.0 - opt.beta2)
        if varsigma is not None:
            vs = check_real("varsigma", varsigma)
        inputs["varsigma"] = vs
    # W of the validated optimizer config, without weight_sum_W's checks
    W = geometric_sum(math.log(opt.alpha), opt.window)
    reals = (
        W, constants.D, Lp, gp, opt.eta,
        opt.epsilon, opt.beta1, opt.beta2, delta, float(noise.sigma), kappa, vs,
    )
    try:
        derived, rhs, warnings = _guarantee(kind, highprob, T, d, *reals)
    except ArithmeticError as exc:
        # Python's float arithmetic raises where IEEE arithmetic overflows to
        # inf or divides by a power that underflowed to zero (delta^2 at
        # delta=1e-200), and so does a horizon too large for a float; the
        # terms are re-evaluated in IEEE arithmetic
        ieee = [None if v is None else _ieee(v) for v in (T, d, *reals)]
        with np.errstate(all="ignore"):
            derived, _, _ = _guarantee(kind, highprob, *ieee)
        derived = {k: float(v) for k, v in derived.items()}
        rhs = math.inf
        why = (
            "overflowed" if isinstance(exc, OverflowError)
            else "divided by a value that underflowed to zero"
        )
        warnings = [f"an intermediate term {why}; the right-hand side is reported as infinite"]
    theorem = f"{kind}-highprob" if highprob else f"{kind}-expectation"
    return BoundReport(theorem, inputs, derived, rhs, tuple(warnings))


def _ieee(v) -> np.float64:
    """v as an IEEE double; an integer too large for one is inf."""
    try:
        return np.float64(v)
    except OverflowError:
        return np.float64(math.inf)


def _guarantee(kind, highprob, T, d, W, D, Lp, gp, eta, eps, b1, b2, delta, sigma, kappa, vs):
    """The derived terms, right-hand side and warnings of one guarantee."""
    if highprob:
        log_inv = math.log(1.0 / delta)
        zeta = kappa**2 * (1.0 + log_inv)  # kappa^2 ln(e/delta)
        noise_scale = math.sqrt(zeta) / math.sqrt(W)
    else:
        zeta = sigma**2 / W
        noise_scale = math.sqrt(zeta)
    warnings: list[str] = []

    if kind == ADAGRAD:
        varpi1 = 4.0 * D * T / (W * eta)
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
        q = 1.0 - b1 / b2
        varpi1 = 4.0 * D * T / W + 8.0 * T * eta * (1.0 - b1) * Lp**2 / (
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
    return derived, rhs, warnings
