"""Independent checks of dynreg's outputs.

Every expected value here is recomputed from first principles: the
composite sine loss in closed form from the stream's parameters, the
optimizer recursion from the recorded smoothed gradients, ledger values
with ``math.fsum``, and the four guarantee formulas with compensated
sums. Nothing is compared against a stored copy of an earlier output.

Each check returns a list of human-readable problems; an empty list
means the output passed.
"""

from __future__ import annotations

import hashlib
import math
from math import fsum

import numpy as np

CSV_HEADER = "t,loss,grad_norm_sq,dlr_cum,slr_cum,eta_t"
FULL_LEMMA_IDS = (
    "geom-sqrt-sum",
    "geom-three-halves-sum",
    "sum-ratio",
    "sum-ratio-momentum",
    "quadratic-root",
    "inv-sqrt-geom",
    "objective-drift",
    "smoothed-gradient-mc",
)
QUICK_LEMMA_IDS = FULL_LEMMA_IDS[:6]

# alpha this close to 1 makes (1 - alpha^w)/(1 - alpha) cancel in the
# program's closed forms; only such evaluations may miss the 1e-9 agreement.
ALPHA_CANCELLATION_EDGE = 1.0 - 1e-9


def digest(*arrays) -> str:
    """sha256 over the raw bytes of the given arrays."""
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


# --- closed-form composite sine loss ---------------------------------------


def composite_loss_and_grad(A, B, X, D, theta):
    """Round-loss value and gradient of D sin(<a, U(x)> + b), U(x) = x - theta grad.

    Row i uses direction A[i], phase B[i] and iterate X[i]. The gradient is
    D cos(s2) a (1 + theta D sin(s1) |a|^2), with s1 = <a,x>+b and
    s2 = <a,U(x)>+b.
    """
    s1 = np.einsum("td,td->t", A, X) + B
    U = X - (theta * D * np.cos(s1))[:, None] * A
    s2 = np.einsum("td,td->t", A, U) + B
    sq = np.einsum("td,td->t", A, A)
    loss = D * np.sin(s2)
    grad = (D * np.cos(s2) * (1.0 + theta * D * np.sin(s1) * sq))[:, None] * A
    return loss, grad


def _composite_lipschitz(D, A, theta):
    s = float(np.sqrt(np.einsum("td,td->t", A, A)).max())
    return (1.0 + theta * D * s * s) * D * s


def check_losses_and_grads(trace, A, B, D, tol=1e-12):
    """Recorded losses and gradients equal the closed form at each iterate."""
    T = trace.horizon
    loss, grad = composite_loss_and_grad(A[:T], B[:T], trace.iterates, D, trace.theta)
    problems = []
    err = np.abs(trace.losses - loss)
    if float(err.max()) > tol * D:
        t = int(err.argmax()) + 1
        problems.append(f"loss at round {t} is {trace.losses[t - 1]!r}, closed form {loss[t - 1]!r}")
    scale = _composite_lipschitz(D, A[:T], trace.theta)
    gerr = np.abs(trace.grads - grad).max(axis=1)
    if float(gerr.max()) > tol * scale:
        t = int(gerr.argmax()) + 1
        problems.append(f"gradient at round {t} is off the closed form by {gerr[t - 1]:.3g}")
    return problems


# --- optimizer recursion ----------------------------------------------------


def closed_form_step_sizes(T, eta, beta1, beta2, increasing):
    """Step size used by rounds 1..T."""
    if not increasing:
        return np.full(T, eta)
    return np.array(
        [eta * (1.0 - beta1) * math.sqrt((1.0 - beta2 ** (t + 1)) / (1.0 - beta2)) for t in range(1, T + 1)]
    )


def check_update_recursion(trace, eta, beta1, beta2, epsilon, increasing, tol=1e-12):
    """Recomputing each update from the recorded smoothed gradients and the
    closed-form step size reproduces the next recorded iterate."""
    T = trace.horizon
    problems = []
    steps = closed_form_step_sizes(T, eta, beta1, beta2, increasing)
    serr = np.abs(trace.step_sizes - steps)
    if float(serr.max()) > tol * float(np.abs(steps).max()):
        t = int(serr.argmax()) + 1
        problems.append(f"step size at round {t} is {trace.step_sizes[t - 1]!r}, closed form {steps[t - 1]!r}")
    if np.any(trace.iterates[0] != 0.0):
        problems.append("the first iterate is not the zero vector")
    d = trace.dim
    m = np.zeros(d)
    v = np.zeros(d)
    X = trace.iterates
    G = trace.smoothed_grads
    for i in range(T - 1):
        g = G[i]
        m = beta1 * m + g
        v = beta2 * v + g * g
        move = steps[i] * m / np.sqrt(epsilon + v)
        pred = X[i] - move
        scale = float(np.abs(X[i]).max()) + float(np.abs(move).max())
        if float(np.abs(pred - X[i + 1]).max()) > tol * scale:
            problems.append(f"iterate at round {i + 2} does not follow from round {i + 1}'s update")
            break
    return problems


# --- smoothing and noise ----------------------------------------------------


def exact_smoothed(grads, alpha, w):
    """(1/W) sum_{r<min(t,w)} alpha^r grads[t-1-r] for every round, and the
    same sum over absolute values (the rounding scale of each entry)."""
    T, d = grads.shape
    weights = [alpha**r for r in range(w)]
    W = fsum(weights)
    out = np.zeros((T, d))
    mag = np.zeros((T, d))
    for r in range(min(w, T)):
        out[r:] += weights[r] * grads[: T - r]
        mag[r:] += weights[r] * np.abs(grads[: T - r])
    return out / W, mag / W


def check_exact_smoothing(trace, alpha, w, tol=1e-12):
    """With exact noise, the smoothed gradient is the weighted window mean."""
    ref, mag = exact_smoothed(trace.grads, alpha, w)
    err = np.abs(trace.smoothed_grads - ref)
    bad = err > tol * mag.max(axis=1, keepdims=True)
    if np.any(bad):
        t = int(np.argwhere(bad)[0][0]) + 1
        return [f"smoothed gradient at round {t} is not the weighted window mean of the recorded gradients"]
    return []


def check_noise(trace, alpha, w, sigma):
    """Over the full-window rounds, g~_t minus the exact smoothed gradient has
    mean within 5 standard errors of 0 and mean square within 3 % of
    mu = sigma^2 sum_r alpha^(2r) / W^2."""
    ref, _ = exact_smoothed(trace.grads, alpha, w)
    res = (trace.smoothed_grads - ref)[w - 1 :]
    n = res.shape[0]
    W = fsum(alpha**r for r in range(w))
    mu = sigma**2 * fsum(alpha ** (2 * r) for r in range(w)) / (W * W)
    se = math.sqrt(mu / n)
    mean_norm = float(np.linalg.norm(res.mean(axis=0)))
    ratio = float(np.einsum("td,td->t", res, res).mean()) / mu
    problems = []
    if mean_norm > 5.0 * se:
        problems.append(f"smoothed-gradient residual mean {mean_norm:.3g} exceeds 5 standard errors ({se:.3g})")
    if abs(ratio - 1.0) > 0.03:
        problems.append(f"smoothed-gradient residual mean square is {ratio:.4f} of mu, outside 3 %")
    return problems


# --- regret ledgers ---------------------------------------------------------


def sample_rounds(T, w, rng, k=32):
    picks = {1, T, min(w, T), min(w + 1, T)}
    picks.update(int(t) for t in rng.integers(1, T + 1, size=k))
    return sorted(picks)


def _rel_ok(got, ref, scale, tol):
    return abs(got - ref) <= tol * max(abs(ref), scale)


def dlr_round_fsum(grads, t, w, alpha):
    """Per-round dynamic regret at round t, and its rounding scale."""
    occ = min(t, w)
    W = fsum(alpha**r for r in range(w))
    comps, mags = [], []
    for k in range(grads.shape[1]):
        terms = [alpha**r * grads[t - 1 - r, k] for r in range(occ)]
        comps.append(fsum(terms) / W)
        mags.append(fsum(abs(x) for x in terms) / W)
    return fsum(c * c for c in comps), fsum(m * m for m in mags)


def slr_round_fsum(A, B, X, t, w, D, theta):
    """Per-round static regret at round t: the last min(t,w) losses'
    gradients at the round's own iterate, averaged over w."""
    occ = min(t, w)
    rows = slice(t - occ, t)
    Xt = np.repeat(X[t - 1][None, :], occ, axis=0)
    _, G = composite_loss_and_grad(A[rows], B[rows], Xt, D, theta)
    comps = [fsum(G[:, k]) / w for k in range(G.shape[1])]
    mags = [fsum(np.abs(G[:, k])) / w for k in range(G.shape[1])]
    return fsum(c * c for c in comps), fsum(m * m for m in mags)


def check_ledgers(trace, dlr, slr, A, B, D, w, alpha, rounds, tol=1e-9):
    """DLR and SLR per-round values and running totals against fsum
    recomputations on the sampled rounds."""
    problems = []
    for name, ledger in (("DLR", dlr), ("SLR", slr)):
        for t in rounds:
            if name == "DLR":
                ref, scale = dlr_round_fsum(trace.grads, t, w, alpha)
            else:
                ref, scale = slr_round_fsum(A, B, trace.iterates, t, w, D, trace.theta)
            if not _rel_ok(float(ledger.per_round[t - 1]), ref, scale, tol):
                problems.append(f"{name} at round {t} is {ledger.per_round[t - 1]!r}, fsum gives {ref!r}")
                break
            total = fsum(ledger.per_round[:t])
            if not _rel_ok(float(ledger.cumulative[t - 1]), total, 0.0, tol):
                problems.append(f"cumulative {name} at round {t} is not the sum of its per-round values")
                break
    return problems


# --- run artifacts ----------------------------------------------------------


def check_csv(text, trace, dlr, slr, tol=1e-12):
    """The CSV parses back exactly to the trace and both ledgers."""
    lines = text.split("\n")
    if lines[-1] != "":
        return ["the CSV does not end with a newline"]
    lines = lines[:-1]
    if not lines or lines[0] != CSV_HEADER:
        return [f"unexpected CSV header {lines[0] if lines else ''!r}"]
    rows = lines[1:]
    T = trace.horizon
    if len(rows) != T:
        return [f"the CSV has {len(rows)} rows for a horizon of {T}"]
    cols = {"t": [], "loss": [], "grad_norm_sq": [], "dlr_cum": [], "slr_cum": [], "eta_t": []}
    for row in rows:
        fields = row.split(",")
        if len(fields) != 6:
            return [f"malformed CSV row {row!r}"]
        for key, val in zip(cols, fields):
            cols[key].append(val)
    problems = []
    if cols["t"] != [str(t) for t in range(1, T + 1)]:
        problems.append("the CSV round column is not 1..T")
    exact = {
        "loss": trace.losses,
        "dlr_cum": dlr.cumulative,
        "slr_cum": slr.cumulative,
        "eta_t": trace.step_sizes,
    }
    for key, ref in exact.items():
        got = np.array([float(s) for s in cols[key]])
        bad = np.flatnonzero(got != ref)
        if bad.size:
            problems.append(f"CSV column {key} differs at round {int(bad[0]) + 1}")
    gns = np.array([float(s) for s in cols["grad_norm_sq"]])
    ref = np.array([fsum(g * g) for g in trace.grads])
    if float((np.abs(gns - ref) / ref).max()) > tol:
        problems.append("CSV column grad_norm_sq differs from the squared gradient norms")
    return problems


def check_summary(summary, seed, horizon, dlr, slr):
    problems = []
    if summary.get("seed") != seed or summary.get("horizon") != horizon:
        problems.append("the run summary names another seed or horizon")
    if summary.get("final_dlr") != dlr.total or summary.get("final_slr") != slr.total:
        problems.append("the run summary's final ledgers differ from the CSV")
    return problems


def check_lemma_artifact(artifact, ids):
    """Every expected lemma passed with zero violations on a non-empty grid."""
    results = artifact.get("results", [])
    got = [r.get("lemma_id") for r in results]
    if got != list(ids):
        return [f"lemma ids {got} differ from the expected {list(ids)}"]
    problems = []
    for r in results:
        if not r.get("passed") or r.get("violation_count") != 0 or r.get("grid_size", 0) < 1:
            problems.append(f"lemma {r['lemma_id']} failed with {r.get('violation_count')} violations")
    return problems


# --- guarantee calculators --------------------------------------------------


def _kappa(sigma, dim):
    return sigma * math.sqrt(2.0 / (dim * -math.expm1(-2.0 / dim)))


def second_opinion(p):
    """The guarantee's right-hand side for the parameter point p, from the
    stated formulas with W and sum alpha^(2r) summed term by term."""
    theorem = p["theorem"]
    T, d, delta = p["T"], p["dim"], p["delta"]
    eta, eps, theta = p["eta"], p["epsilon"], p["theta"]
    D, s = p["D"], p["s"]
    L, gamma, H = D * s, D * s * s, D * s**3
    W = fsum(p["alpha"] ** r for r in range(p["w"]))
    grow = 1.0 + theta * gamma
    Lp = grow * L
    gp = theta * L * H + grow * grow * gamma
    highprob = theorem.endswith("highprob")
    log_inv = -math.log(delta)
    if highprob:
        kappa_sq = (p["kappa"] if p["kappa"] is not None else _kappa(p["sigma"], d)) ** 2
        zeta = kappa_sq * (1.0 + log_inv)
        zeta_noise = zeta / W
    else:
        zeta = p["sigma"] ** 2 / W
        zeta_noise = zeta
    if theorem.startswith("adagrad"):
        varpi1 = 4.0 * D * T / (W * eta)
        varpi2 = fsum((eta * gp / 2.0, 2.0 * math.sqrt(zeta_noise)))
        logs = d * math.log1p(2.0 * (zeta + Lp * Lp) * T / (d * eps))
        if not highprob:
            C = fsum((varpi1, varpi2 * logs))
            return fsum(
                (
                    4.0 * C * math.sqrt(eps) / delta,
                    8.0 * C * math.sqrt(zeta * T) / delta**1.5,
                    48.0 * C * C / delta**2,
                )
            )
        C = fsum((varpi1, varpi2 * logs, 3.0 * kappa_sq * log_inv / math.sqrt(eps)))
        return fsum(
            (4.0 * C * math.sqrt(eps), 4.0 * C * math.sqrt(2.0 * T * zeta / W), 48.0 * C * C / W)
        )
    b1, b2 = p["beta1"], p["beta2"]
    vs = math.sqrt(1.0 - b2)
    q = (b2 - b1) / b2
    r2 = math.sqrt(1.0 - b2)
    varpi1 = fsum((4.0 * D * T / W, 8.0 * T * eta * (1.0 - b1) * Lp * Lp / (b1 * r2 * W * W)))
    varpi2 = fsum(
        (
            d * eta**2 * (1.0 - b1) * gp / (2.0 * (1.0 - b2) * q),
            d * eta**3 * gp * gp * b1 / (q * r2**3),
            2.0 * d * eta * (1.0 + math.sqrt(zeta_noise)) * math.sqrt(1.0 - b1) / (q**1.5 * r2),
            2.0 * eta**3 * (1.0 - b1) ** 2 * gp * gp / (b1 * r2**3 * q),
        )
    )
    logs = fsum((d * math.log1p(2.0 * (zeta + Lp * Lp) / (d * eps * (1.0 - b2))), -T * math.log(b2)))
    scale = r2 / (vs * eta * (1.0 - b1))
    if not highprob:
        C = fsum((varpi1, varpi2 * logs))
        return fsum(
            (
                scale * 4.0 * C * math.sqrt(eps) / delta,
                scale * 8.0 * C * math.sqrt(zeta * T) / delta**1.5,
                48.0 * (1.0 - b2) * C * C / (vs * vs * eta * eta * (1.0 - b1) ** 2 * delta**2),
            )
        )
    varpi3 = 3.0 * eta * (1.0 - b1) * kappa_sq * log_inv / (W * W * b1**T * r2 * math.sqrt(eps))
    C = fsum((varpi1, varpi2 * logs, varpi3))
    return fsum(
        (
            4.0 * scale * C * math.sqrt(eps),
            4.0 * scale * C * math.sqrt(2.0 * T * zeta / W),
            48.0 * (1.0 - b2) * C * C / (W * vs * vs * eta * eta * (1.0 - b1) ** 2),
        )
    )


def bound_failures(points, rhs, tol=1e-9):
    """Indices of evaluations that are not finite and positive, disagree with
    the second opinion beyond tol, or do not increase with T along their
    curve. Returns (failed indices, problems naming each)."""
    failed, problems = [], []
    last = {}
    for i, (p, got) in enumerate(zip(points, rhs)):
        why = None
        if not (math.isfinite(got) and got > 0.0):
            why = f"rhs {got!r} is not finite and positive"
        else:
            ref = second_opinion(p)
            rel = abs(got - ref) / abs(ref)
            if rel > tol:
                why = f"rhs {got!r} differs from the re-evaluation {ref!r} by {rel:.3g}"
        curve = p["curve"]
        if why is None and curve in last and not got > last[curve][1]:
            why = f"rhs does not increase from T={last[curve][0]} to T={p['T']}"
        if got == got:
            last[curve] = (p["T"], got)
        if why is not None:
            failed.append(i)
            problems.append(f"{p['theorem']} at T={p['T']}, alpha={p['alpha']!r}, w={p['w']}: {why}")
    return failed, problems


def unexpected_bound_failures(points, failed):
    """Failures other than the known alpha -> 1 cancellation."""
    return [i for i in failed if not (points[i]["alpha"] > ALPHA_CANCELLATION_EDGE and points[i]["alpha"] < 1.0)]
