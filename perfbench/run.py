"""Benchmark of dynreg: three closed-loop workloads in one process.

Usage:
    python3 perfbench/run.py --workload {stream-long,window-wide,verify-full}
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout; dynreg is imported from its ``src``. With
``--trace 0`` the benchmark measures the end-to-end metrics for S seconds,
in whole rounds of the same operations, then checks every output against
independent computations (``checks.py``). With ``--trace 1`` it instead
times each public call at dynreg's layer boundaries and reports the
per-layer metrics. The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
Artifacts, results and span traces go to ``perfbench/out/``.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("DYNREG_OUT", None)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS, bound_call, bound_grid_points, cli_sets, curve_points  # noqa: E402

SETUP_PROBES = 7
WARM_HORIZON = 200
TRACE_REBUILDS = 20
TRACE_ARRAYS = ("iterates", "adapted", "losses", "grads", "smoothed_grads", "step_sizes")
clock = time.perf_counter


def median(xs):
    return statistics.median(xs) if xs else float("nan")


def quiet(fn, *args):
    """Call fn with its standard output discarded."""
    with contextlib.redirect_stdout(io.StringIO()):
        return fn(*args)


def environment() -> dict:
    head = ROOT / ".git" / "HEAD"
    commit = "unknown"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            target = ROOT / ".git" / ref[5:]
            commit = target.read_text().strip() if target.is_file() else ref[5:]
        else:
            commit = ref
    return {
        "commit": commit,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "loadavg": list(os.getloadavg()),
    }


def measure_setup(workload, seed) -> dict:
    """Median cold set-up over fresh interpreters; users pay it on every run."""
    parts = {"import_s": [], "config_s": [], "total_s": []}
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload.name, str(seed)],
            capture_output=True,
            text=True,
            timeout=120,
            check=False,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        probe = json.loads(proc.stdout.strip().splitlines()[-1])
        for key in parts:
            parts[key].append(probe[key])
    return {key: median(vals) for key, vals in parts.items()}


class Bench:
    """One workload's set-up, rounds and checks."""

    def __init__(self, workload, seed, trace):
        import dynreg
        from dynreg import cli
        from dynreg.config import load_config

        if not Path(dynreg.__file__).resolve().is_relative_to(SRC.resolve()):
            raise RuntimeError(f"dynreg was imported from {dynreg.__file__}, not from {SRC}")
        self.dynreg = dynreg
        self.cli = cli
        self.w = workload
        self.seed = seed
        self.out = OUT / f"{workload.name}-seed{seed}-trace{trace}"
        shutil.rmtree(self.out, ignore_errors=True)
        self.out.mkdir(parents=True)
        self.cfgs = [load_config(None, list(shape.sets)) for shape in workload.shapes]
        if workload.bound_grid:
            self.points = bound_grid_points()
        else:
            self.points = []
            for cfg in self.cfgs:
                self.points += curve_points(cfg.raw, cfg.horizon, cfg.window(), cfg.bounds_list())
        self.calls = [bound_call(dynreg, p) for p in self.points]
        self.lemma_ids = checks.FULL_LEMMA_IDS if workload.lemma_preset == "full" else checks.QUICK_LEMMA_IDS
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.ref_rhs = None
        self.ref_failed = []

    # -- operations ----------------------------------------------------------

    def eval_bounds(self):
        return [fn(*args).rhs for fn, args in self.calls]

    def seeds(self, shape):
        base = self.seed + shape.seed_offset
        return range(base, base + shape.copies)

    def cli_run(self, shape, seed, horizon=None):
        argv = ["run", *cli_sets(shape)]
        if horizon is not None:
            argv += ["--set", f"horizon={horizon}"]
        argv += ["--seed-list", str(seed), "--out", str(self.out)]
        rc = quiet(self.cli.main, argv)
        if rc != 0:
            self.problems.append(f"dynreg run for {shape.name}, seed {seed}, exited with {rc}")
            self.failed += 1

    def api_run(self, cfg, seed, horizon=None):
        d = self.dynreg
        trace = d.run_stream(cfg.stream(seed), horizon or cfg.horizon, cfg.inner(), cfg.optimizer(), seed=seed)
        w = cfg.window()
        return trace, d.dlr_cumulative(trace, w, cfg.alpha), d.slr_cumulative(trace, w)

    def lemma_pass(self, preset):
        """``dynreg verify-lemmas`` in process; returns (seconds, artifact)."""
        t0 = clock()
        rc = quiet(self.cli.main, ["verify-lemmas", "--preset", preset, "--out", str(self.out)])
        dt = clock() - t0
        artifact = json.loads((self.out / f"lemmas_{preset}.json").read_text())
        ids = checks.FULL_LEMMA_IDS if preset == "full" else checks.QUICK_LEMMA_IDS
        problems = checks.check_lemma_artifact(artifact, ids)
        if rc != 0 and not problems:
            problems = [f"verify-lemmas exited with {rc}"]
        self.problems += problems
        self.failed += min(len(problems), len(ids))
        return dt, artifact

    def check_bound_batch(self, rhs):
        """Bound evaluations are deterministic: a batch equal to the reference
        batch has the reference's failures; any other batch is re-checked."""
        if rhs == self.ref_rhs:
            return len(self.ref_failed)
        failed, problems = checks.bound_failures(self.points, rhs)
        self.problems += problems[:5]
        return len(failed)

    def set_bound_reference(self):
        self.ref_rhs = self.eval_bounds()
        self.ref_failed, problems = checks.bound_failures(self.points, self.ref_rhs)
        unexpected = checks.unexpected_bound_failures(self.points, self.ref_failed)
        self.bound_problems = problems
        if unexpected:
            self.problems += [problems[self.ref_failed.index(i)] for i in unexpected[:5]]

    def warm_up(self):
        """One short pass over every operation; excluded from the figures."""
        for shape, cfg in zip(self.w.shapes, self.cfgs):
            if self.w.via_cli:
                self.cli_run(shape, self.seed + shape.seed_offset, horizon=min(WARM_HORIZON, cfg.horizon))
            else:
                self.api_run(cfg, self.seed + shape.seed_offset, horizon=min(WARM_HORIZON, cfg.horizon))
        self.set_bound_reference()
        self.lemma_pass("quick")
        self.failed = 0

    # -- measured rounds -----------------------------------------------------

    def run_batch(self, digests, kept):
        """Every shape's runs once; returns rounds played and wall seconds."""
        rounds = 0
        elapsed = 0.0
        for shape, cfg in zip(self.w.shapes, self.cfgs):
            for seed in self.seeds(shape):
                t0 = clock()
                if self.w.via_cli:
                    self.cli_run(shape, seed)
                    result = None
                else:
                    result = self.api_run(cfg, seed)
                elapsed += clock() - t0
                rounds += cfg.horizon
                if result is None:
                    blob = (self.out / f"run_seed{seed}.csv").read_bytes()
                    digests.setdefault((shape.name, seed), set()).add(checks.digest(blob))
                else:
                    arrays = [getattr(result[0], name) for name in TRACE_ARRAYS]
                    digests.setdefault((shape.name, seed), set()).add(checks.digest(*arrays))
                    kept.setdefault((shape.name, seed), result)
                self.attempted += 1
        return rounds, elapsed

    def measure(self, seconds):
        self.warm_up()
        samples = {"rounds_per_s": [], "bounds_per_s": [], "lemmas_s": []}
        digests, kept = {}, {}
        n_rounds = 0
        deadline = clock() + seconds
        while clock() < deadline:
            for _ in range(self.w.run_batches):
                rounds, dt = self.run_batch(digests, kept)
                samples["rounds_per_s"].append(rounds / dt)
            for _ in range(self.w.bound_batches):
                t0 = clock()
                rhs = self.eval_bounds()
                dt = clock() - t0
                samples["bounds_per_s"].append(len(rhs) / dt)
                self.attempted += len(rhs)
                self.failed += self.check_bound_batch(rhs)
            dt, _ = self.lemma_pass(self.w.lemma_preset)
            samples["lemmas_s"].append(dt)
            self.attempted += len(self.lemma_ids)
            n_rounds += 1
        for key, found in digests.items():
            if len(found) != 1:
                self.problems.append(f"runs of {key[0]} with seed {key[1]} wrote {len(found)} different outputs")
        self.check_runs(kept)
        return {key: median(vals) for key, vals in samples.items()}, {
            "rounds": n_rounds,
            "samples": {key: len(vals) for key, vals in samples.items()},
            "quartiles": {key: statistics.quantiles(vals, n=4) for key, vals in samples.items() if len(vals) > 1},
        }

    # -- output checks -------------------------------------------------------

    def check_runs(self, kept):
        rng = np.random.default_rng(self.seed)
        for shape, cfg in zip(self.w.shapes, self.cfgs):
            for seed in self.seeds(shape):
                if self.w.via_cli:
                    trace, dlr, slr = self.api_run(cfg, seed)
                    text = (self.out / f"run_seed{seed}.csv").read_text(encoding="utf-8")
                    summary = json.loads((self.out / f"summary_seed{seed}.json").read_text())
                    self.problems += checks.check_csv(text, trace, dlr, slr)
                    self.problems += checks.check_summary(summary, seed, cfg.horizon, dlr, slr)
                else:
                    trace, dlr, slr = kept[(shape.name, seed)]
                self.problems += [f"{shape.name} seed {seed}: {p}" for p in self.check_trace(trace, dlr, slr, cfg, rng)]

    def check_trace(self, trace, dlr, slr, cfg, rng):
        opt = cfg.optimizer()
        stream = trace.stream
        A, B = stream.params_upto(trace.horizon)
        w = cfg.window()
        problems = checks.check_losses_and_grads(trace, A, B, stream.amplitude)
        problems += checks.check_update_recursion(
            trace, opt.eta, opt.beta1, opt.beta2, opt.epsilon, opt.schedule == "adam"
        )
        rounds = checks.sample_rounds(trace.horizon, w, rng)
        problems += checks.check_ledgers(trace, dlr, slr, A, B, stream.amplitude, w, cfg.alpha, rounds)
        if stream.noise.is_exact:
            problems += checks.check_exact_smoothing(trace, cfg.alpha, w)
        elif self.w.via_cli:
            problems += checks.check_noise(trace, cfg.alpha, w, stream.noise.sigma)
        return problems

    # -- traced rounds -------------------------------------------------------

    def traced_loop(self, tr, stream, horizon, inner, opt, seed):
        """run_round's public calls in its order, one span around each."""
        d = self.dynreg
        state = d.make_meta_state(np.zeros(stream.dim), opt)
        T, dim = horizon, stream.dim
        out = {name: np.empty(T if name in ("losses", "step_sizes") else (T, dim)) for name in TRACE_ARRAYS}
        begin, end = tr.begin, tr.end
        loop = begin("meta.round_loop")
        for t in range(1, T + 1):
            i = begin("numerics.rng_key")
            rng = d.spawn_rng_stream(seed, t)
            end(i)
            i = begin("tasks.task")
            task = stream.task(t)
            end(i)
            x = state.x
            i = begin("meta.inner_adapt")
            xhat = d.inner_adapt(x, task, inner, rng)
            end(i)
            rl = d.RoundLoss(task, inner.theta)
            i = begin("meta.round_loss")
            loss_val, grad_val = rl.value_and_grad(x)
            end(i)
            if not (np.isfinite(loss_val) and np.all(np.isfinite(grad_val))):
                raise d.NumericError(f"round {t} produced a non-finite loss or gradient")
            i = begin("optimizer.push")
            state.window.push(x, rl, grad=grad_val)
            end(i)
            i = begin("optimizer.smoothed_grad")
            gtilde = d.smoothed_stochastic_gradient(state.window, task.noise, rng)
            end(i)
            i = begin("optimizer.step")
            eta_t = d.step_size_at(opt, state.optimizer.t)
            x_new, opt_state = d.dts_ag_step(state.optimizer, opt, x, gtilde)
            end(i)
            k = t - 1
            out["iterates"][k] = x
            out["adapted"][k] = xhat
            out["losses"][k] = loss_val
            out["grads"][k] = grad_val
            out["smoothed_grads"][k] = gtilde
            out["step_sizes"][k] = eta_t
            state.x = x_new
            state.optimizer = opt_state
        return out, end(loop)

    def traced_round(self, tr, acc, first):
        d = self.dynreg
        per = {k: 0.0 for k in ("params", "loop", "play", "dlr", "slr", "cli", "csv_bytes", "rounds")}
        traces = []
        rng = np.random.default_rng(self.seed)
        for shape, cfg in zip(self.w.shapes, self.cfgs):
            seed = self.seed + shape.seed_offset
            T, w, inner, opt = cfg.horizon, cfg.window(), cfg.inner(), cfg.optimizer()
            # the untraced calls run back to back, before the span-heavy loop
            gc.collect()
            fresh = cfg.stream(seed)
            i = tr.begin("tasks.params")
            fresh.params_upto(T)
            per["params"] += tr.end(i)
            stream = cfg.stream(seed)
            i = tr.begin("meta.play")
            trace = d.run_stream(stream, T, inner, opt, seed=seed)
            per["play"] += tr.end(i)
            i = tr.begin("regret.dlr")
            dlr = d.dlr_cumulative(trace, w, cfg.alpha)
            per["dlr"] += tr.end(i)
            i = tr.begin("regret.slr")
            slr = d.slr_cumulative(trace, w)
            per["slr"] += tr.end(i)
            i = tr.begin("cli.run_seed")
            self.cli_run(shape, seed)
            per["cli"] += tr.end(i)
            per["csv_bytes"] += (self.out / f"run_seed{seed}.csv").stat().st_size
            arrays = {name: getattr(trace, name) for name in TRACE_ARRAYS}
            for _ in range(TRACE_REBUILDS):
                i = tr.begin("meta.trace")
                d.RunTrace(
                    seed=seed, horizon=T, dim=trace.dim, theta=trace.theta, config=trace.config, stream=stream, **arrays
                )
                tr.end(i)
            gc.collect()
            looped, dt = self.traced_loop(tr, cfg.stream(seed), T, inner, opt, seed)
            per["loop"] += dt
            per["rounds"] += T
            for name in TRACE_ARRAYS:
                if not np.array_equal(looped[name], arrays[name]):
                    self.problems.append(f"traced round loop differs from run_stream in {name} ({shape.name})")
            self.attempted += 3
            traces.append((trace, w, cfg.alpha))
            if first:
                self.problems += [f"{shape.name}: {p}" for p in self.check_trace(trace, dlr, slr, cfg, rng)]
        per["write"] = per["cli"] - per["play"] - per["dlr"] - per["slr"]
        per["overhead_pct"] = 100.0 * (per["loop"] - per["play"]) / per["play"]
        for key, val in per.items():
            acc.setdefault(key, []).append(val)

        for _ in range(self.w.bound_batches):
            i = tr.begin("regret.bound_batch")
            rhs = self.eval_bounds()
            acc.setdefault("bound_us", []).append(tr.end(i) / len(rhs) * 1e6)
            self.attempted += len(rhs)
            self.failed += self.check_bound_batch(rhs)

        lem = self.dynreg.lemmas
        public = {
            "geom-sqrt-sum": lem.check_geom_sqrt_sum,
            "geom-three-halves-sum": lem.check_geom_32_sum,
            "sum-ratio": lem.check_sum_ratio,
            "sum-ratio-momentum": lem.check_sum_ratio_momentum,
            "quadratic-root": lem.check_quadratic,
            "inv-sqrt-geom": lem.check_inv_sqrt_geom,
        }
        trace, w, alpha = traces[0]
        if self.w.lemma_preset != "full":
            public["objective-drift"] = lambda: lem.check_objective_drift(trace, w, alpha)
            public["smoothed-gradient-mc"] = lambda: lem.mc_smoothed_gradient_lemmas(5, 4, 1.0, 0.5, 100_000)
        points = 0
        for lemma_id, fn in public.items():
            i = tr.begin(f"lemmas.{lemma_id}")
            res = fn()
            acc.setdefault(f"lemmas.{lemma_id}_s", []).append(tr.end(i))
            points += res.grid_size
            if not res.passed:
                self.problems.append(f"lemma {lemma_id} reported {len(res.violations)} violations")
        if self.w.lemma_preset == "full":
            i = tr.begin("lemmas.full_pass")
            _, artifact = self.lemma_pass("full")
            tr.end(i)
            for rec in artifact["results"]:
                if rec["lemma_id"] in ("objective-drift", "smoothed-gradient-mc"):
                    acc.setdefault(f"lemmas.{rec['lemma_id']}_s", []).append(rec["elapsed_s"])
                    points += rec["grid_size"]
        acc.setdefault("points", []).append(points)
        self.attempted += len(checks.FULL_LEMMA_IDS)

    def traced(self, seconds, setup):
        self.warm_up()
        tr = Tracer()
        acc = {}
        deadline = clock() + seconds
        n_rounds = 0
        while n_rounds == 0 or clock() < deadline:
            i = tr.begin("round")
            self.traced_round(tr, acc, first=n_rounds == 0)
            tr.end(i)
            n_rounds += 1
        m = {key: median(vals) for key, vals in acc.items()}
        layers = tr.summary()
        us = {name: 1e6 * layer["median_s"] for name, layer in layers.items()}
        metrics = {
            "import_s": (setup["import_s"], "s"),
            "config.load_s": (setup["config_s"], "s"),
            "tasks.params_s": (m["params"], "s"),
            "tasks.task_us": (us["tasks.task"], "us"),
            "numerics.rng_key_us": (us["numerics.rng_key"], "us"),
            "meta.inner_adapt_us": (us["meta.inner_adapt"], "us"),
            "meta.round_loss_us": (us["meta.round_loss"], "us"),
            "optimizer.push_us": (us["optimizer.push"], "us"),
            "optimizer.smoothed_grad_us": (us["optimizer.smoothed_grad"], "us"),
            "optimizer.step_us": (us["optimizer.step"], "us"),
            "meta.play_s": (m["play"], "s"),
            "meta.trace_us": (us["meta.trace"], "us"),
            "regret.dlr_s": (m["dlr"], "s"),
            "regret.slr_s": (m["slr"], "s"),
            "regret.bound_us": (m["bound_us"], "us"),
        }
        for lemma_id in checks.FULL_LEMMA_IDS:
            metrics[f"lemmas.{lemma_id}_s"] = (m[f"lemmas.{lemma_id}_s"], "s")
        metrics.update(
            {
                "cli.run_seed_s": (m["cli"], "s"),
                "cli.write_s": (m["write"], "s"),
                "meta.rounds": (m["rounds"], "count"),
                "lemmas.points": (m["points"], "count"),
                "regret.bounds": (len(self.points), "count"),
                "cli.csv_bytes": (m["csv_bytes"], "bytes"),
                "trace.overhead_pct": (m["overhead_pct"], "%"),
            }
        )
        sources = {
            "cli.write_s": "computed: per round, cli.run_seed_s minus meta.play_s, regret.dlr_s and regret.slr_s",
            "trace.overhead_pct": "computed: traced round loop against untraced run_stream on the same inputs",
        }
        if self.w.lemma_preset == "full":
            for lemma_id in ("objective-drift", "smoothed-gradient-mc"):
                sources[f"lemmas.{lemma_id}_s"] = "reported by the program: elapsed_s in lemmas_full.json"
        tr.write(
            self.out / "trace.json",
            {"workload": self.w.name, "seed": self.seed, "rounds": n_rounds, "sources": sources, "layers": layers},
        )
        return metrics, {"rounds": n_rounds, "sources": sources}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "dynreg" / "__init__.py").is_file():
        print(f"error: no dynreg sources at {SRC}; run from the root of a dynreg checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload]
    info = {"workload": workload.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace}
    info.update(environment())

    setup = measure_setup(workload, args.seed)
    bench = Bench(workload, args.seed, args.trace)
    if args.trace:
        values, detail = bench.traced(args.seconds, setup)
        metrics = {name: {"value": v, "unit": unit} for name, (v, unit) in values.items()}
    else:
        values, detail = bench.measure(args.seconds)
        metrics = {
            "setup_s": {"value": setup["total_s"], "unit": "s"},
            "rounds_per_s": {"value": values["rounds_per_s"], "unit": "1/s"},
            "lemmas_s": {"value": values["lemmas_s"], "unit": "s"},
            "bounds_per_s": {"value": values["bounds_per_s"], "unit": "1/s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MB"},
        }
    info.update(detail)
    info["known_failures"] = {"per_batch": len(bench.ref_failed), "examples": bench.bound_problems[:3]}
    info["problems"] = bench.problems[:20]
    result = {
        "correct": not bench.problems,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": metrics,
    }
    (bench.out / "result.json").write_text(json.dumps({"info": info, "result": result}, indent=1) + "\n")
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
