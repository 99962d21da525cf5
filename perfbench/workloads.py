"""The three workloads: their run shapes, bound evaluations and lemma passes.

This module imports nothing from dynreg, so the set-up probe can import it
before it starts its clock.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class RunShape:
    """One seeded run configuration, as ``--set`` overrides of the CLI defaults.

    ``copies`` runs are played per batch, with seeds base+offset,
    base+offset+1, ...
    """

    name: str
    sets: tuple
    seed_offset: int = 0
    copies: int = 1


@dataclass(frozen=True)
class Workload:
    name: str
    shapes: tuple
    via_cli: bool  # runs go through ``dynreg run`` and write artifacts
    lemma_preset: str  # "quick" or "full"
    run_batches: int  # run batches per round
    bound_batches: int  # bound batches per round
    bound_grid: bool  # fixed grid (True) or each shape's guarantee curve


STREAM_LONG = Workload(
    name="stream-long",
    shapes=(
        # the CLI defaults: drifting stream, gaussian noise, accumulating preset, alpha=1, w=16
        RunShape("defaults", ("horizon=6000",)),
        RunShape(
            "momentum",
            (
                "horizon=3000",
                "optimizer.preset=adam",
                "smoothing.alpha=0.9",
                "smoothing.window=64",
                "stream.family=piecewise-sine",
                "noise.kind=subgaussian",
            ),
            seed_offset=1,
        ),
    ),
    via_cli=True,
    lemma_preset="quick",
    run_batches=1,
    bound_batches=10,
    bound_grid=False,
)

# the shape of acceptance criterion 7: d=40, w=T/2, exact gradients
WINDOW_WIDE = Workload(
    name="window-wide",
    shapes=(
        RunShape(
            "wide",
            (
                "horizon=1000",
                "dim=40",
                "smoothing.window=500",
                "noise.kind=exact",
                "noise.sigma=0",
                "stream.drift_rate=0.3",
                "optimizer.eta=0.7",
            ),
        ),
    ),
    via_cli=False,
    lemma_preset="quick",
    run_batches=1,
    bound_batches=10,
    bound_grid=False,
)

# the run shapes the full lemma preset plays: the objective-drift suite
# (horizon 300, d=4) and the Monte Carlo exceedance runs (horizon 16, d=5)
VERIFY_FULL = Workload(
    name="verify-full",
    shapes=(
        RunShape(
            "drift-suite",
            (
                "horizon=300",
                "dim=4",
                "stream.drift_rate=0.1",
                "optimizer.eta=0.2",
                "smoothing.alpha=0.99",
                "smoothing.window=16",
            ),
        ),
        RunShape(
            "mc-suite",
            (
                "horizon=16",
                "dim=5",
                "noise.kind=subgaussian",
                "smoothing.alpha=0.9",
                "smoothing.window=4",
            ),
            seed_offset=1,
            copies=10,
        ),
    ),
    via_cli=False,
    lemma_preset="full",
    run_batches=8,
    bound_batches=40,
    bound_grid=True,
)

WORKLOADS = {w.name: w for w in (STREAM_LONG, WINDOW_WIDE, VERIFY_FULL)}


def cli_sets(shape: RunShape) -> list:
    out = []
    for item in shape.sets:
        out += ["--set", item]
    return out


# --- guarantee evaluations --------------------------------------------------

CURVE_POINTS = 128

_ADAGRAD = dict(eta=0.1, beta1=0.0, beta2=1.0, epsilon=1e-8)
_ADAM = dict(eta=0.05, beta1=0.9, beta2=0.999, epsilon=1e-8)
GRID_T = (10, 100, 1000, 2000)
GRID_DIM = (1, 10, 40)
# (alpha, w): ordinary points beside the alpha -> 1 ones that expose the
# cancellation in (1 - alpha^w) / (1 - alpha)
GRID_ALPHA_W = (
    (1.0, 1),
    (1.0, 16),
    (0.9, 16),
    (0.5, 64),
    (0.99, 1000),
    (1.0 - 1e-10, 16),
    (1.0 - 1e-12, 1000),
)
GRID_DELTA = (0.01, 0.1)
GRID_NOISE = (("gaussian", 0.5, None), ("subgaussian", 0.9, 1.7))
THEOREMS = ("adagrad-expectation", "adam-expectation", "adagrad-highprob", "adam-highprob")


def bound_grid_points() -> list:
    """The fixed grid of verify-full: theorem x T x d x (alpha, w) x delta x noise."""
    points = []
    for theorem in THEOREMS:
        preset = _ADAGRAD if theorem.startswith("adagrad") else _ADAM
        for dim in GRID_DIM:
            for alpha, w in GRID_ALPHA_W:
                for delta in GRID_DELTA:
                    for kind, sigma, kappa in GRID_NOISE:
                        curve = (theorem, dim, alpha, w, delta, kind)
                        for T in GRID_T:
                            points.append(
                                dict(
                                    preset,
                                    theorem=theorem,
                                    T=T,
                                    dim=dim,
                                    alpha=alpha,
                                    w=w,
                                    delta=delta,
                                    kind=kind,
                                    sigma=sigma,
                                    kappa=kappa,
                                    theta=0.05,
                                    D=1.0,
                                    s=1.0,
                                    curve=curve,
                                )
                            )
    return points


def curve_points(raw: dict, horizon: int, window: int, theorems) -> list:
    """The configured guarantees at CURVE_POINTS horizons up to the run's own,
    from a resolved CLI config (``ExperimentConfig.raw``)."""
    op, no, st = raw["optimizer"], raw["noise"], raw["stream"]
    points = []
    for theorem in theorems:
        curve = (theorem, horizon)
        for k in range(1, CURVE_POINTS + 1):
            points.append(
                dict(
                    theorem=theorem,
                    T=-(-k * horizon // CURVE_POINTS),
                    dim=raw["dim"],
                    alpha=float(raw["smoothing"]["alpha"]),
                    w=window,
                    delta=raw["delta"],
                    kind=no["kind"],
                    sigma=float(no["sigma"]),
                    kappa=no["kappa"],
                    theta=float(raw["adapt"]["theta"]),
                    D=float(st["amplitude"]),
                    s=float(st["freq_scale"]),
                    eta=float(op["eta"]),
                    beta1=0.0 if op["preset"] == "adagrad" else float(op["beta1"]),
                    beta2=1.0 if op["preset"] == "adagrad" else float(op["beta2"]),
                    epsilon=float(op["epsilon"]),
                    curve=curve,
                )
            )
    return points


def bound_call(d, p):
    """The dynreg calculator and arguments for point p; d is the dynreg module."""
    if p["theorem"].startswith("adagrad"):
        opt = d.make_config_adagrad(eta=p["eta"], epsilon=p["epsilon"], alpha=p["alpha"], window=p["w"])
    else:
        opt = d.make_config_adam(
            eta=p["eta"], beta1=p["beta1"], beta2=p["beta2"], epsilon=p["epsilon"], alpha=p["alpha"], window=p["w"]
        )
    fn = d.bound_expectation if p["theorem"].endswith("expectation") else d.bound_highprob
    noise = d.NoiseModel(p["kind"], sigma=p["sigma"], kappa=p["kappa"])
    kind = p["theorem"].split("-")[0]
    return fn, (kind, opt, noise, d.loss_constants(p["D"], p["s"]), p["theta"], p["T"], p["dim"], p["delta"])
