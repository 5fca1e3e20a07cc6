"""Workload inputs, the operations each visit runs, and the correctness oracle.

Every workload runs every operation group, so every metric exists on every
workload; the sizes in SPECS decide which layer dominates. The runner
visits one group at a time, in a fixed interleaved order. Untraced
visits call the public functions directly. Traced visits compose the same
work from outside (glm.fit -> linalg.factor, glm.latent, linalg.solve; the
harness -> partition.shard_stats, encode, decode, aggregate) inside spans,
and add probe calls that only feed per-layer metrics.
"""

from __future__ import annotations

import contextlib
import io
import os
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
from scipy.special import expit, log_ndtr

import jacobiprior as jp
from jacobiprior import cli
from jacobiprior.dmr import CountTable
from jacobiprior.errors import SeparationError
from jacobiprior.mle import mle_score
from jacobiprior.modelio import StoredModel, load_csv_dataset
from jacobiprior.partition import (
    aggregate_and_solve,
    decode_shard_message,
    encode_shard_message,
    shard_stats,
)
from jacobiprior.simlab import (
    EXP_LOGISTIC_BETA,
    EXP_POISSON_BETA,
    ExperimentConfig,
    gen_circular,
    gen_dmr,
    gen_logistic,
    gen_poisson,
    run_experiment,
)

ONE_OVER_N = jp.JacobiHyper(schedule="one_over_n")
WORKERS = 2  # threads for `workers`/`max_workers`; BLAS runs 1 thread (run.py)
SHARDS = 8
GP_PARAMS = jp.KernelParams()

# Sizes per workload. "sub" is the row count of the secondary operations
# (grid and search, experiment, DMR) whose cost multiplies per call, and
# "irls_rows" that of the IRLS comparator. "reps" gives a group's calls per
# visit (default 1) and "visits" its visits in a run of SIZED_SECONDS; the
# counts scale with --seconds and were sized on a 2-core machine, where the
# visits take about 30 s on small_n and 40 s on large_n. Cheap groups get
# many short visits, so that their samples are spread over the whole run;
# the MC and harness groups, whose metrics are not gated, get few. The
# fit mix gives
# (family, hyper, calls per visit); the default logit fit holds most calls
# so that the mix's median falls inside one latency cluster. With
# "fit_rotate" a visit makes one call of the mix in turn instead of the
# whole mix.
SIZED_SECONDS = 30
SPECS = {
    "small_n": dict(
        n=100, sub=100, irls_rows=100, mc_rows=1000, draws=2000, dmr_reps=20, irls=("logit", "poisson"),
        grid=12, budget=200, exp_reps=50, gp=(100, 100), cli_rows=100,
        reps=dict(irls=10, predict=20, harness=20, gp=5),
        visits=dict(fits=120, irls=60, hyper=48, experiment=48, mc=4, predict=400, harness=8, gp=100, cli=9),
        fits=(("logit", None, 120), ("probit", None, 20), ("poisson", None, 20)),
    ),
    "large_n": dict(
        n=2_000_000, sub=20_000, irls_rows=200_000, mc_rows=20_000, draws=20, dmr_reps=1, irls=("logit",),
        grid=2, budget=4, exp_reps=1, gp=(2000, 1000), cli_rows=5_000,
        reps=dict(mc=2, experiment=2),
        visits=dict(fits=12, irls=4, hyper=24, experiment=16, mc=6, predict=10, harness=6, gp=7, cli=7),
        fits=(("logit", None, 3), ("poisson", None, 1), ("logit", ONE_OVER_N, 1), ("probit", ONE_OVER_N, 1)),
        fit_rotate=True,
    ),
}
DMR_CLASSES = 4
GP_CLASSES = 3
GRID_FAMILIES = ("logit", "probit")


def rel_err(a, ref) -> float:
    a, ref = np.asarray(a, dtype=float), np.asarray(ref, dtype=float)
    scale = np.linalg.norm(ref)
    return float(np.linalg.norm(a - ref) / (scale if scale > 0 else 1.0))


def fit_label(family, hyper) -> str:
    return family if hyper is None else f"{family}_{hyper.schedule}"


def _span(tr, name, **attrs):
    return tr.span(name, **attrs) if tr is not None else contextlib.nullcontext()


def cli_command(root: str) -> tuple[list, dict]:
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    return [sys.executable, "-m", "jacobiprior.cli"], env


def run_cli(root, args) -> float:
    """Run one CLI subcommand in a fresh interpreter; returns its wall time."""
    cmd, env = cli_command(root)
    t0 = time.perf_counter()
    proc = subprocess.run(cmd + args, env=env, capture_output=True, text=True, timeout=170)
    dt = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"jacobiprior {args[0]} exited {proc.returncode}: {proc.stderr.strip()}")
    return dt


class Inputs:
    """Everything a workload feeds the library, made from the seed alone."""

    def __init__(self, name: str, seed: int, root: str, workdir: str):
        spec = SPECS[name]
        self.spec, self.seed, self.root, self.workdir = spec, seed, root, workdir
        rng = lambda task: jp.derive_rng(jp.SeedSpec(seed, 0), task)  # noqa: E731
        n, sub = spec["n"], spec["sub"]
        # Task 0 is also what `jacobiprior generate --seed <seed>` draws.
        self.X, self.y = gen_logistic(n, EXP_LOGISTIC_BETA, 3.0, 0.5, rng(0))
        self.Xp, self.yp = gen_poisson(n, EXP_POISSON_BETA, 1.0, 0.5, rng(1))
        self.X_test, self.y_test = gen_logistic(sub, EXP_LOGISTIC_BETA, 3.0, 0.5, rng(2))
        self.X_dmr, self.counts, _ = gen_dmr(sub, 7, DMR_CLASSES, rng(3))
        self.X_mc, self.y_mc = gen_logistic(spec["mc_rows"], EXP_LOGISTIC_BETA, 3.0, 0.5, rng(4))
        n_gp, n_gp_test = spec["gp"]
        Xg, yg = gen_circular(n_gp + n_gp_test, rng(5))
        self.X_gp, self.y_gp, self.X_gp_test = Xg[:n_gp], yg[:n_gp], Xg[n_gp:]
        radius = np.hypot(self.X_gp[:, 0], self.X_gp[:, 1])
        self.gp_labels = CountTable.from_labels(np.minimum((radius * 1.5).astype(int), GP_CLASSES - 1), GP_CLASSES)
        self.exp_config = ExperimentConfig(
            name="exp1", kind="logit", n=sub,
            n_reps=spec["exp_reps"], seed=jp.SeedSpec(seed, 1),
        )
        self.fit_data = {
            fit_label(f, h): ((self.Xp, self.yp) if f == "poisson" else (self.X, self.y), f, h, reps)
            for f, h, reps in spec["fits"]
        }
        self.csv = os.path.join(workdir, "train.csv")
        self.model_path = os.path.join(workdir, "model.json")
        self.preds_path = os.path.join(workdir, "preds.csv")

    def write_csv(self):
        run_cli(self.root, ["generate", "--kind", "logistic", "--n", str(self.spec["cli_rows"]),
                            "--seed", str(self.seed), "--out", self.csv])


class Recorder:
    """Samples for the end-to-end metrics plus operation and check counts.

    Samples carry the number of the visit that made them, so a metric can
    be reduced per visit first. Counts are kept per group, so that a count
    "per round" (one visit of every group) repeats exactly for a seed.
    """

    def __init__(self):
        self.samples = {}  # key -> [(visit, value)]
        self.visit = 0
        self.group = None
        self.visits = {}  # group -> visits made
        self.attempted = 0
        self.failed = 0
        self.check_failures = []
        self.errors = {}
        self.outcomes = {}  # group -> key -> count
        self.values = {}  # per-layer values that are not span durations

    def begin(self, group):
        self.visit += 1
        self.group = group
        self.visits[group] = self.visits.get(group, 0) + 1

    def add(self, key, value):
        self.samples.setdefault(key, []).append((self.visit, value))

    def count(self, key, k=1):
        counts = self.outcomes.setdefault(self.group, {})
        counts[key] = counts.get(key, 0) + k

    def per_round(self, key) -> float:
        return sum(c.get(key, 0) / self.visits[g] for g, c in self.outcomes.items())

    def round_counts(self) -> dict:
        return {k: self.per_round(k) for k in sorted({k for c in self.outcomes.values() for k in c})}

    def note(self, key, value):
        self.values.setdefault(key, []).append(value)

    def check(self, ok: bool, what: str):
        """A failed check fails the operation and the run."""
        if not ok:
            self.failed += 1
            self.check_failures.append(what)

    @contextlib.contextmanager
    def op(self, name):
        """One attempted operation; an unexpected exception fails it and is counted by type."""
        self.attempted += 1
        try:
            yield
        except Exception as exc:  # the round must go on; the cause is kept in the run record
            self.failed += 1
            key = f"{name}: {type(exc).__name__}"
            self.errors[key] = self.errors.get(key, 0) + 1


class Workload:
    """Runs visits of the operation groups against one set of inputs."""

    def __init__(self, inp: Inputs, rec: Recorder, ref: dict):
        self.inp, self.rec, self.spec = inp, rec, inp.spec
        self.ref = ref  # operation -> output of the first warm-up round, verified
        self.warmup = False

    # -- reference handling -------------------------------------------------
    def _same(self, key, value):
        """First call stores the reference; later calls must reproduce it exactly."""
        if key not in self.ref:
            self.ref[key] = value
            return True
        return np.array_equal(np.asarray(value), np.asarray(self.ref[key]), equal_nan=True)

    # -- operation groups ---------------------------------------------------
    def fits(self, tr):
        rec = self.rec
        kinds = list(self.inp.fit_data.items()) + [("dmr", (None, "dmr", None, self.spec["dmr_reps"]))]
        calls = [kind for i in range(max(self._reps(k[1][3]) for k in kinds))  # interleave the kinds
                 for kind in kinds if i < self._reps(kind[1][3])]
        if self.spec.get("fit_rotate") and not self.warmup:  # the visit's turn in the mix
            calls = [calls[(rec.visits["fits"] - 1) % len(calls)]]
        for label, (data, family, hyper, _) in calls:
            with rec.op(f"fit.{label}"):
                t0 = time.perf_counter()
                if family == "dmr":
                    with _span(tr, "dmr.fit", op=tr.new_op() if tr else None):
                        beta = jp.fit_dmr(self.inp.X_dmr, self.inp.counts).betas
                elif tr is None:
                    beta = jp.fit_jacobi(*data, family, hyper).beta
                else:
                    beta = self._fit_composed(tr, *data, family, hyper, label)
                rec.add("fit", time.perf_counter() - t0)
                rec.count("fits")
                rec.count("rhs", DMR_CLASSES if family == "dmr" else 1)
                rec.check(self._same(f"fit.{label}", beta), f"fit.{label} differs from the reference fit")

    def _fit_composed(self, tr, X, y, family, hyper, label, role="main"):
        with tr.span("glm.fit", op=tr.new_op(), family=family, label=label, role=role, n=X.shape[0]):
            with tr.span("linalg.factor", n=X.shape[0], p=X.shape[1], role=role):
                solver = jp.LeastSquaresSolver(X)
            self.rec.note("linalg.cond", solver.cond)
            with tr.span("glm.latent", family=family):
                eta = jp.latent_vector(y, family, hyper)
            with tr.span("linalg.solve", n=X.shape[0]):
                return solver.solve(eta)

    def irls(self, tr):
        rec, sub = self.rec, self.spec["irls_rows"]
        for family in self.spec["irls"]:
            X, y = (self.inp.Xp, self.inp.yp) if family == "poisson" else (self.inp.X, self.inp.y)
            X, y = X[:sub], y[:sub]
            if tr is not None:  # the jacobi fit of the same inputs, for mle.over_jacobi
                self._fit_composed(tr, X, y, family, None, f"irls_ref.{family}", role="irls_ref")
            with rec.op(f"irls.{family}"):
                try:
                    with _span(tr, "mle.fit", op=tr.new_op() if tr else None, family=family):
                        fit = jp.fit_mle(X, y, family)
                except SeparationError:
                    rec.count("mle.separations")
                    continue
                finally:
                    rec.count("mle.fits")
                rec.note("mle.iterations", fit.iterations)
                key = f"irls.{family}"
                if key not in self.ref:
                    score = np.max(np.abs(mle_score(X, y, fit.beta, family)))
                    rec.check(fit.converged and score <= 1e-8, f"{key}: score {score:.3e} > 1e-8")
                rec.check(self._same(key, fit.beta), f"{key} differs from the reference fit")

    def hyper(self, tr):
        rec, inp, sub, k = self.rec, self.inp, self.spec["sub"], self.spec["grid"]
        values = np.linspace(0.05, 2.0, k)
        X, y = inp.X[:sub], inp.y[:sub]
        cells, t_total = 0, 0.0
        for family in GRID_FAMILIES:
            with rec.op(f"grid.{family}"):
                t0 = time.perf_counter()
                with _span(tr, "hyper.grid", op=tr.new_op() if tr else None, family=family):
                    report = jp.sensitivity_grid(X, y, inp.X_test, inp.y_test, family, values, values)
                t_total += time.perf_counter() - t0
                cells += report.scores.size
                rec.count("hyper.grid_cells", report.scores.size)
                valid = int(np.sum(~np.isnan(report.scores)))
                rec.count("hyper.grid_valid_cells", valid)
                rec.count("rhs", valid)
                rec.check(self._same(f"grid.{family}", report.scores), f"grid.{family} scores changed")
            with rec.op(f"search.{family}"):
                t0 = time.perf_counter()
                with _span(tr, "hyper.search", op=tr.new_op() if tr else None, family=family):
                    res = jp.stochastic_search(X, y, inp.X_test, inp.y_test, family,
                                               self.spec["budget"], seed=jp.SeedSpec(inp.seed, 2))
                t_total += time.perf_counter() - t0
                cells += self.spec["budget"]
                rec.count("hyper.search_budget", self.spec["budget"])
                rec.count("hyper.search_skipped", res.skipped)
                rec.count("rhs", len(res.trace))
                rec.check(self._same(f"search.{family}", np.array(res.trace)), f"search.{family} trace changed")
        rec.add("grid_cells_per_s", cells / t_total)

    def experiment(self, tr):
        rec, config = self.rec, self.inp.exp_config
        with rec.op("experiment"):
            t0 = time.perf_counter()
            with _span(tr, "simlab.experiment", op=tr.new_op() if tr else None):
                report = run_experiment(config)
            rec.add("experiment_reps_per_s", config.n_reps / (time.perf_counter() - t0))
            for row in report.rows:
                rec.count(f"simlab.experiment_failed.{row.method}", row.n_failed)
                rec.count("simlab.experiment_attempted", config.n_reps)
                if row.method.startswith("jacobi"):
                    rec.count("rhs", row.n_used)
            metrics = np.array([[r.n_failed, r.rmse_y_out, r.rmse_beta] for r in report.rows])
            rec.check(self._same("experiment", metrics), "experiment metric columns changed")

    def mc(self, tr):
        rec, inp, draws = self.rec, self.inp, self.spec["draws"]
        seed = jp.SeedSpec(inp.seed, 3)
        with rec.op("mc"):
            if "mc" not in self.ref or tr is not None:  # workers=1 is the reference and the speedup base
                with _span(tr, "mc.sample", op=tr.new_op() if tr else None, workers=1):
                    serial = jp.sample_beta(inp.X_mc, inp.y_mc, "logit", n_draws=draws, seed=seed, workers=1).draws
                rec.check(self._same("mc", serial), "sample_beta workers=1 draws changed")
            t0 = time.perf_counter()
            with _span(tr, "mc.sample", op=tr.new_op() if tr else None, workers=WORKERS):
                out = jp.sample_beta(inp.X_mc, inp.y_mc, "logit", n_draws=draws, seed=seed, workers=WORKERS).draws
            rec.add("draws_per_s", draws / (time.perf_counter() - t0))
            rec.count("rhs", draws)
            # Concurrent LeastSquaresSolver.solve calls race, so some calls
            # differ from workers=1. Being nondeterministic, the mismatch is a
            # counted outcome (mc.worker_mismatches), not a failed operation.
            rec.count("mc.calls")
            rec.count("mc.worker_mismatches", int(not np.array_equal(out, self.ref["mc"])))
        if tr is not None:  # probes for the per-draw split of mc.sample
            solver = jp.LeastSquaresSolver(inp.X_mc)
            eta = jp.latent_vector(inp.y_mc, "logit")
            op = tr.new_op()
            for r in range(min(draws, 50)):
                with tr.span("rng.derive", op=op):
                    jp.derive_rng(seed, r)
                with tr.span("linalg.solve", op=op, n=inp.X_mc.shape[0]):
                    solver.solve(eta)

    def predict(self, tr):
        rec, inp = self.rec, self.inp
        model = jp.FittedGLM(beta=self.ref_beta, family="logit", hyper=jp.default_hyper("logit"),
                             eta_hat=np.empty(0), n_train=inp.X.shape[0])
        with rec.op("predict"):
            t0 = time.perf_counter()
            with _span(tr, "glm.predict", op=tr.new_op() if tr else None):
                p = jp.predict(model, inp.X)
            rec.add("predict_rows_per_s", inp.X.shape[0] / (time.perf_counter() - t0))
            if "predict" not in self.ref:
                rec.check(rel_err(p, expit(inp.X @ self.ref_beta)) <= 1e-12, "predict differs from expit(X @ beta)")
            rec.check(self._same("predict", p), "predict output changed")

    @property
    def ref_beta(self):
        return self.ref["fit.logit"]

    def harness(self, tr):
        rec, inp = self.rec, self.inp
        seed = jp.SeedSpec(inp.seed, 4)
        with rec.op("harness"):
            t0 = time.perf_counter()
            if tr is None:
                res = jp.run_harness(inp.X, inp.y, SHARDS, "logit", seed=seed, max_workers=WORKERS)
                beta = res.beta
                rec.count("partition.duplicates_dropped", res.duplicates_dropped)
            else:
                beta = self._harness_composed(tr, seed)
            rec.add("shard_fit", time.perf_counter() - t0)
            if "harness" not in self.ref:
                err = rel_err(beta, self.ref_beta)
                rec.check(err <= 1e-10, f"run_harness differs from the monolithic fit by {err:.2e}")
            rec.check(self._same("harness", beta), "run_harness output changed")

    def _harness_composed(self, tr, seed):
        X, y, n = self.inp.X, self.inp.y, self.inp.X.shape[0]
        blocks = np.array_split(np.arange(n), SHARDS)
        with tr.span("partition.harness", op=tr.new_op()) as (root, op):
            def work(m):
                with tr.span("partition.shard_stats", parent=root, op=op, shard=m):
                    stats = shard_stats(X[blocks[m]], y[blocks[m]], "logit", None, n_total=n, shard_id=m)
                with tr.span("partition.encode", parent=root, op=op, shard=m):
                    return encode_shard_message(stats)

            with ThreadPoolExecutor(max_workers=WORKERS) as pool:
                frames = list(pool.map(work, range(SHARDS)))
            frames = [frames[i] for i in jp.derive_rng(seed, 0).permutation(SHARDS)]
            seen = {}
            for frame in frames:
                self.rec.note("partition.frame_bytes", len(frame))
                with tr.span("partition.decode"):
                    stats = decode_shard_message(frame)
                if stats.shard_id in seen:
                    self.rec.count("partition.duplicates_dropped")
                    continue
                seen[stats.shard_id] = stats
            with tr.span("partition.aggregate"):
                beta = aggregate_and_solve(list(seen.values()))
        self.rec.note("partition.shards", len(seen))
        return beta

    def gp(self, tr):
        rec, inp = self.rec, self.inp
        first = "gp" not in self.ref
        with rec.op("gp"):
            t0 = time.perf_counter()
            with _span(tr, "gp.fit_binary", op=tr.new_op() if tr else None):
                gb = jp.gp_fit_binary(inp.X_gp, inp.y_gp, params=GP_PARAMS)
            with _span(tr, "gp.fit_multiclass", op=tr.new_op() if tr else None):
                gm = jp.gp_fit_multiclass(inp.X_gp, inp.gp_labels, params=GP_PARAMS)
            t1 = time.perf_counter()
            with _span(tr, "gp.predict_binary", op=tr.new_op() if tr else None):
                pb = jp.gp_predict_proba(gb, inp.X_gp_test)
            with _span(tr, "gp.predict_multiclass", op=tr.new_op() if tr else None):
                pm = gm.predict_proba(inp.X_gp_test)
            rec.add("gp_fit", t1 - t0)
            rec.count("rhs", 1 + GP_CLASSES)
            rec.add("gp_predict", time.perf_counter() - t1)
            if first:
                self._check_gp(gb, gm)
            rec.check(self._same("gp", np.concatenate([pb, pm.ravel()])), "GP predictions changed")
        if tr is not None:
            with tr.span("gp.kernel", op=tr.new_op()):
                jp.kernel_matrix(inp.X_gp, inp.X_gp, GP_PARAMS)

    def _check_gp(self, gb, gm):
        """GP latent means against a direct numpy solve of the kernel system."""
        inp = self.inp
        X, X0 = inp.X_gp, inp.X_gp_test

        def kern(A, B):
            d = np.sqrt(np.sum((A[:, None, :] - B[None, :, :]) ** 2, axis=-1))
            return GP_PARAMS.tau * np.exp(-GP_PARAMS.rho * d)

        K = kern(X, X) + GP_PARAMS.sigma ** 2 * np.eye(X.shape[0])
        Ks = kern(X0, X)
        etas = np.column_stack([gb.eta_hat] + [m.eta_hat for m in gm.models])
        betas = np.linalg.lstsq(X, etas, rcond=None)[0]
        alphas = np.linalg.solve(K, etas - X @ betas)
        ref = X0 @ betas + Ks @ alphas
        got = np.column_stack([jp.gp_predict_latent(gb, X0)[0], gm.predict_latent_means(X0)])
        err = rel_err(got, ref)
        self.rec.check(err <= 1e-8, f"GP latent means differ from a direct numpy solve by {err:.2e}")

    def cli(self, tr):
        rec, inp = self.rec, self.inp
        rows = self.spec["cli_rows"]
        first = "cli.model" not in self.ref
        with rec.op("cli.fit"):
            dt = run_cli(inp.root, ["fit", "--train", inp.csv, "--target", "y", "--family", "logit",
                                    "--model-out", inp.model_path])
            rec.add("cli_fit_rows_per_s", rows / dt)
        with rec.op("cli.predict"):
            dt = run_cli(inp.root, ["predict", "--model", inp.model_path, "--data", inp.csv,
                                    "--out", inp.preds_path])
            rec.add("cli_predict_rows_per_s", rows / dt)
        if first or tr is not None:
            self._check_cli(first)
        if tr is not None:
            self._cli_probes(tr)

    def _check_cli(self, first):
        """CLI outputs against the library on the same CSV (README contracts)."""
        rec, inp = self.rec, self.inp
        stored = StoredModel.load(inp.model_path)
        data = load_csv_dataset(inp.csv, target="y")
        if first:
            model = jp.fit_jacobi(data.X, data.y, "logit")
            err = rel_err(stored.beta, model.beta)
            rec.check(err <= 1e-10, f"CLI fit differs from the library fit by {err:.2e}")
            path = os.path.join(inp.workdir, "roundtrip.json")
            StoredModel.from_glm(model, data.feature_names).save(path)
            rec.check(np.array_equal(StoredModel.load(path).beta, model.beta), "model JSON round trip is not bit-exact")
        with open(inp.preds_path, encoding="utf-8") as fh:
            got = np.array([float(line) for line in fh.read().splitlines()[1:]])
        want = stored.predict_mean(data)
        rec.check(np.array_equal(got, want), "CLI predict output differs from library predict")
        rec.check(self._same("cli.model", stored.beta), "CLI model changed")

    def _cli_probes(self, tr):
        inp = self.inp
        cmd, env = cli_command(inp.root)
        with tr.span("cli.import", op=tr.new_op()):
            subprocess.run([cmd[0], "-c", "import jacobiprior.cli"], env=env, check=True, timeout=170)
        with tr.span("modelio.load_csv", op=tr.new_op()):
            data = load_csv_dataset(inp.csv, target="y")
        self.rec.note("modelio.rows", data.n)
        self.rec.note("modelio.bytes", os.path.getsize(inp.csv))
        model = jp.fit_jacobi(data.X, data.y, "logit")
        stored = StoredModel.from_glm(model, data.feature_names)
        path = os.path.join(inp.workdir, "probe_model.json")
        with tr.span("modelio.model_save", op=tr.new_op()):
            stored.save(path)
        with tr.span("modelio.model_load", op=tr.new_op()):
            StoredModel.load(path)
        with tr.span("glm.predict", op=tr.new_op(), role="cli"):
            jp.predict(model, data.X)
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink):
            with tr.span("cli.fit_inproc", op=tr.new_op()):
                rc_fit = cli.main(["fit", "--train", inp.csv, "--target", "y", "--model-out", path])
            with tr.span("cli.predict_inproc", op=tr.new_op()):
                rc_pred = cli.main(["predict", "--model", path, "--data", inp.csv,
                                    "--out", os.path.join(inp.workdir, "probe_preds.csv")])
        self.rec.check(rc_fit == 0 and rc_pred == 0, "in-process CLI returned non-zero")

    # -- visits -------------------------------------------------------------
    GROUPS = ("fits", "irls", "hyper", "experiment", "mc", "predict", "harness", "gp", "cli")

    def _reps(self, n: int) -> int:
        return 1 if self.warmup else n

    def visit(self, group, tr=None, warmup=False):
        """One visit: the group's calls per visit, or one call in a warm-up."""
        self.warmup = warmup
        self.rec.begin(group)
        if tr is not None:
            tr.group = group
        for _ in range(self._reps(self.spec["reps"].get(group, 1))):
            getattr(self, group)(tr)

    def round(self, tr=None, warmup=False):
        """One visit of every group; a warm-up round makes one call per operation."""
        for g in self.GROUPS:
            self.visit(g, tr, warmup)

    def verify_reference(self):
        """Independent oracle for the warm-up fits: lstsq on closed-form latents."""
        rec = self.rec
        for label, ((X, y), family, hyper, _) in self.inp.fit_data.items():
            if f"fit.{label}" not in self.ref:
                continue  # the fit raised; already counted as failed
            h = hyper or jp.default_hyper(family)
            a, b = h.resolve(y.shape[0])
            if family == "logit":
                eta = np.log((y + a) / (b + 1.0 - y))
            elif family == "poisson":
                eta = np.log((y + a) / (1.0 + b))
            else:
                eta = jp.latent_vector(y, family, hyper)
                rec.check(_probit_stationary(eta, y, a, b), f"fit.{label}: probit modes not stationary")
            ref = np.linalg.lstsq(X, eta, rcond=None)[0]
            err = rel_err(self.ref[f"fit.{label}"], ref)
            rec.check(err <= 1e-10, f"fit.{label} differs from lstsq by {err:.2e}")
        a, b = jp.default_hyper("poisson").resolve(self.inp.counts.n)
        ref = np.linalg.lstsq(self.inp.X_dmr, np.log((self.inp.counts.counts + a) / (1.0 + b)), rcond=None)[0]
        err = rel_err(self.ref["fit.dmr"], ref)
        rec.check(err <= 1e-10, f"fit_dmr differs from lstsq by {err:.2e}")


def _probit_stationary(eta, y, a, b) -> bool:
    c1, c2 = y + a - 1.0, b - y
    log_phi = -0.5 * eta * eta - 0.5 * np.log(2 * np.pi)
    grad = c1 * np.exp(log_phi - log_ndtr(eta)) - c2 * np.exp(log_phi - log_ndtr(-eta)) - eta
    return bool(np.max(np.abs(grad)) <= 1e-8)

