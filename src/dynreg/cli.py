"""Command-line interface.

Subcommands:
  run            play seeded online runs, writing one CSV and one JSON
                 summary per seed
  bounds         evaluate the closed-form guarantees for the configured
                 setup, one JSON report per theorem
  verify-lemmas  sweep the numerical lemma checks (quick or full preset)

Exit codes: 0 success, 1 verification failure, 2 configuration error,
3 numeric error. The output directory is DYNREG_OUT when set, else --out,
else the config's out_dir, else ./dynreg-out.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from .config import ExperimentConfig, _check_distinct, load_config
from .lemmas import run_checks
from .meta import RNG_CONTRACT, run_stream
from .numerics import ConfigError, NumericError, VerificationError, _check_key_part, check_int
from .regret import bound_expectation, bound_highprob, dlr_cumulative, slr_cumulative
from .tasks import loss_constants

__all__ = ["main"]


def _out_dir(cli_out, cfg: ExperimentConfig) -> Path:
    env = os.environ.get("DYNREG_OUT")
    chosen = env or cli_out or cfg.out_dir or "dynreg-out"
    path = Path(chosen)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _write_json(path: Path, record: dict) -> None:
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8")


_CSV_HEADER = "t,loss,grad_norm_sq,dlr_cum,slr_cum,eta_t\n"
# %.17g converts a float as format(x, ".17g") does: enough digits to round-trip
_CSV_ROW = "%d" + ",%.17g" * 5 + "\n"


def _run_seed_job(payload) -> dict:
    """Run one seed end to end, write its artifacts and return its summary
    (pool-friendly)."""
    raw_cfg, seed, out_dir = payload
    cfg = ExperimentConfig(raw=raw_cfg)
    t0 = time.perf_counter()
    trace = run_stream(
        cfg.stream(seed), cfg.horizon, cfg.inner(), cfg.optimizer(), seed=seed, x0=cfg.init_vector()
    )
    w = cfg.window()
    dlr = dlr_cumulative(trace, w, cfg.alpha)
    slr = slr_cumulative(trace, w)
    grad_norm_sq = np.einsum("td,td->t", trace.grads, trace.grads)
    if not np.isfinite(grad_norm_sq).all():
        bad = int(np.flatnonzero(~np.isfinite(grad_norm_sq))[0])
        raise NumericError(f"round {bad + 1}'s squared gradient norm overflowed")
    wall = time.perf_counter() - t0

    columns = (trace.losses, grad_norm_sq, dlr.cumulative, slr.cumulative, trace.step_sizes)
    rows = zip(range(1, trace.horizon + 1), *(column.tolist() for column in columns))
    csv_name = f"run_seed{seed}.csv"
    (out_dir / csv_name).write_text(
        _CSV_HEADER + "".join(map(_CSV_ROW.__mod__, rows)), encoding="utf-8"
    )
    summary = {
        "seed": seed,
        "horizon": cfg.horizon,
        "final_dlr": dlr.total,
        "final_slr": slr.total,
        "wall_time_s": wall,
        "rng_contract": RNG_CONTRACT,
        "csv": csv_name,
        "config": cfg.snapshot(seed=seed),
    }
    _write_json(out_dir / f"summary_seed{seed}.json", summary)
    return summary


def _cmd_run(args) -> int:
    cfg = load_config(args.config, args.set or ())
    if args.seed_list is not None:
        try:
            seeds = [int(s) for s in args.seed_list.split(",") if s.strip() != ""]
        except ValueError:
            raise ConfigError(f"--seed-list must be comma-separated integers, got {args.seed_list!r}")
        if not seeds:
            raise ConfigError("--seed-list must name at least one seed")
        seeds = [_check_key_part(f"--seed-list[{i}]", seed) for i, seed in enumerate(seeds)]
        _check_distinct("--seed-list", seeds)
    elif args.seeds is not None:
        seeds = list(range(check_int("--seeds", args.seeds)))
    else:
        seeds = cfg.seeds
    jobs = check_int("--jobs", args.jobs)
    # every flag is checked before the output directory is made
    out_dir = _out_dir(args.out, cfg)

    payloads = [(cfg.raw, seed, out_dir) for seed in seeds]
    if jobs > 1 and len(payloads) > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_run_seed_job, payloads))
    else:
        results = [_run_seed_job(p) for p in payloads]
    for res in results:
        print(
            f"seed {res['seed']}: dlr={res['final_dlr']:.6g} "
            f"slr={res['final_slr']:.6g} wall={res['wall_time_s']:.2f}s -> {out_dir / res['csv']}"
        )
    return 0


def _cmd_bounds(args) -> int:
    cfg = load_config(args.config, args.set or ())
    st = cfg.raw["stream"]
    constants = loss_constants(float(st["amplitude"]), float(st["freq_scale"]))
    opt = cfg.optimizer()
    noise = cfg.noise_model()
    theta = cfg.inner().theta
    reports = []
    for theorem in cfg.bounds_list():
        kind, _, tail = theorem.partition("-")
        fn = bound_expectation if tail == "expectation" else bound_highprob
        report = fn(
            kind, opt, noise, constants, theta, cfg.horizon, cfg.dim, cfg.delta,
            varsigma=cfg.varsigma,
        )
        reports.append((theorem, report))
    # every theorem is evaluated before the output directory is made
    out_dir = _out_dir(args.out, cfg)
    for theorem, report in reports:
        record = report.to_record()
        record["config"] = cfg.snapshot()
        path = out_dir / f"bound_{theorem}.json"
        _write_json(path, record)
        extra = f"  warnings: {'; '.join(report.warnings)}" if report.warnings else ""
        print(f"{theorem}: rhs={report.rhs:.6g} -> {path}{extra}")
    return 0


def _cmd_verify_lemmas(args) -> int:
    cfg = load_config(args.config, args.set or ())
    # run_checks refuses a bad self-test id before it runs anything
    results = run_checks(args.preset, corrupt=args.self_test_corrupt)
    out = _out_dir(args.out, cfg)
    artifact = {
        "preset": args.preset,
        "corrupt": args.self_test_corrupt,
        "results": [r.to_record() for r in results],
    }
    path = out / f"lemmas_{args.preset}.json"
    _write_json(path, artifact)
    failed = []
    for res in results:
        status = "pass" if res.passed else f"FAIL ({len(res.violations)} violations)"
        print(
            f"lemma {res.lemma_id}: {status} "
            f"(grid {res.grid_size}, min margin {res.max_slack:.3g}, {res.elapsed_s:.2f}s)"
        )
        if not res.passed:
            failed.append(res.lemma_id)
    print(f"wrote {path}")
    if failed:
        raise VerificationError(f"lemma checks failed: {', '.join(failed)}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dynreg",
        description="Online meta-learning runs, regret bounds, and lemma verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="path to a JSON experiment config")
        p.add_argument(
            "--set",
            action="append",
            metavar="KEY=VALUE",
            help="override one config entry (dotted path, JSON value); repeatable",
        )
        p.add_argument("--out", help="output directory (DYNREG_OUT overrides)")

    p_run = sub.add_parser("run", help="play seeded online runs")
    common(p_run)
    seeds_group = p_run.add_mutually_exclusive_group()
    seeds_group.add_argument("--seeds", type=int, help="run seeds 0..N-1")
    seeds_group.add_argument("--seed-list", help="comma-separated explicit seeds")
    p_run.add_argument("--jobs", type=int, default=1, help="parallel worker processes")
    p_run.set_defaults(fn=_cmd_run)

    p_bounds = sub.add_parser("bounds", help="evaluate closed-form guarantees")
    common(p_bounds)
    p_bounds.set_defaults(fn=_cmd_bounds)

    p_ver = sub.add_parser("verify-lemmas", help="run the numerical lemma checks")
    common(p_ver)
    p_ver.add_argument(
        "--preset", choices=("quick", "full"), default="quick", help="check suite size"
    )
    p_ver.add_argument("--self-test-corrupt", metavar="LEMMA_ID", help=argparse.SUPPRESS)
    p_ver.set_defaults(fn=_cmd_verify_lemmas)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 3
    except VerificationError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
