"""Benchmark runner for jacobiprior.

    python3 perfbench/run.py --workload small_n --seed 1 --seconds 30 --trace 0

Builds the workload's inputs from the seed, sets up (import, inputs, CSV,
one warm-up call of every operation) three times, checks the warm-up
outputs against independent references, then runs a closed loop with one
client: a fixed, interleaved sequence of visits to the operation groups,
sized to take about --seconds. The last stdout line is the
JSON result: end-to-end metrics with --trace 0, per-layer metrics with
--trace 1. A traced run makes half the visits and repeats each with tracing
on, so it also reports tracing overhead. Exits 1 if any correctness check fails, 2 if the
library sources are missing.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_REPEATS = 3

# name -> (unit, sample key, scale, higher is better). Samples are per-call
# seconds or rates. Each visit's samples reduce to one value, the median for
# fit_p50_ms (the fit mix) and the mean otherwise. A run reports the slow
# quartile of its visit values: the upper quartile of a time, the lower
# quartile of a rate. The host alternates between a slow phase and one about
# 1.6x faster, in spells of seconds to minutes, and the fast share of a run
# varies from none to most of it, so a median of visits jumps between the
# phases while the slow quartile stays in the slow one. UNGATED metrics are
# reported with the per-layer metrics of a traced run, from its untraced
# visits: their calls hand work to the library's 2-worker pool, and on a
# shared 2-core host they read up to 2.5x slower for as long as the second
# core is busy, which no run length here averages out.
TIMED = {
    "fit_p50_ms": ("ms", "fit", 1e3, False),
    "draws_per_s": ("1/s", "draws_per_s", 1.0, True),
    "grid_cells_per_s": ("1/s", "grid_cells_per_s", 1.0, True),
    "experiment_reps_per_s": ("1/s", "experiment_reps_per_s", 1.0, True),
    "predict_rows_per_s": ("rows/s", "predict_rows_per_s", 1.0, True),
    "shard_fit_s": ("s", "shard_fit", 1.0, False),
    "gp_fit_s": ("s", "gp_fit", 1.0, False),
    "gp_predict_s": ("s", "gp_predict", 1.0, False),
    "cli_fit_rows_per_s": ("rows/s", "cli_fit_rows_per_s", 1.0, True),
    "cli_predict_rows_per_s": ("rows/s", "cli_predict_rows_per_s", 1.0, True),
}
UNGATED = ("draws_per_s", "shard_fit_s")
LAYERS = ("linalg", "glm", "mle", "rng", "mc", "dmr", "hyper", "partition", "gp", "simlab", "modelio", "cli")


def schedule(groups, visits, seconds) -> list:
    """Visit order: group g's k-th of n visits sits at (k + 0.5) / n of the run.

    The counts are fixed for a workload and --seconds, not by a clock, so a
    seed's attempted and failed operations repeat exactly.
    """
    import bench

    slots = []
    for i, g in enumerate(groups):
        n = max(1, round(visits[g] * seconds / bench.SIZED_SECONDS))
        slots += [((k + 0.5) / n, i, g) for k in range(n)]
    return [g for _, _, g in sorted(slots)]


def visit_values(samples, reduce) -> list:
    by_visit = {}
    for visit, value in samples:
        by_visit.setdefault(visit, []).append(value)
    return [reduce(v) for v in by_visit.values()]


def reduced_visits(rec, key) -> list:
    return visit_values(rec.samples[key], statistics.median if key == "fit" else statistics.fmean)


def timed_metrics(rec) -> dict:
    import numpy as np

    return {name: (float(np.percentile(reduced_visits(rec, key), 25 if higher else 75)) * scale, unit)
            for name, (unit, key, scale, higher) in TIMED.items()}


def fit_p99_ms(rec) -> float:
    import numpy as np

    return float(np.percentile([v for _, v in rec.samples["fit"]], 99)) * 1e3


def environment(inp) -> dict:
    import bench
    import numpy
    import scipy

    def read(path):
        try:
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        except OSError:
            return None

    cpu = next((line.split(":", 1)[1].strip() for line in (read("/proc/cpuinfo") or "").splitlines()
                if line.startswith("model name")), platform.processor())
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "l3": read("/sys/devices/system/cpu/cpu0/cache/index3/size"),
        "design_rows": int(inp.X.shape[0]),
        "design_bytes": int(inp.X.nbytes),
        "workers": bench.WORKERS,
    }


def blas_threads() -> dict:
    """Thread count reported by each OpenBLAS library loaded in this process."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return {}
    out = {}
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                out[os.path.basename(path)] = fn()
                break
    return out


def layer_metrics(spans, rec, inp, generate_s) -> dict:
    """Per-layer values from the traced visits' spans and counters.

    A count or a self time "per round" is per visit of the group that made
    it, summed over groups: one round is one visit of every group.
    """
    import numpy as np

    from spans import self_time_by_layer

    def durs(name, **attrs):
        return [s["end"] - s["start"] for s in spans
                if s["name"] == name and all(s.get(k) == v for k, v in attrs.items())]

    def med(values, scale=1.0):
        return float(statistics.median(values)) * scale if values else 0.0

    per_round = rec.per_round

    n, p = inp.X.shape
    spec = inp.spec
    factor_main = durs("linalg.factor", role="main", n=n)
    m = {}
    m["linalg.factor_us"] = (med(factor_main, 1e6), "us")
    m["linalg.factor_ms"] = (med(factor_main, 1e3), "ms")
    flops = 2.0 * n * p * p - 2.0 * p ** 3 / 3.0
    m["linalg.factor_gflops_computed"] = (flops / med(factor_main) / 1e9, "GFLOP/s")
    m["linalg.factor_bytes_computed"] = (8 * n * p, "bytes")
    m["linalg.solve_us"] = (med(durs("linalg.solve"), 1e6), "us")
    m["linalg.cond_max"] = (max(rec.values.get("linalg.cond", [0.0])), "ratio")
    for family in ("logit", "probit", "poisson"):
        m[f"glm.latent_us.{family}"] = (med(durs("glm.latent", family=family), 1e6), "us")
    predict_main = [s["end"] - s["start"] for s in spans if s["name"] == "glm.predict" and s.get("role") != "cli"]
    m["glm.predict_ms"] = (med(predict_main, 1e3), "ms")
    m["glm.predict_bytes_computed"] = (8 * n * p + 8 * n, "bytes")
    mle_fit = durs("mle.fit", family="logit")
    jac_same = durs("glm.fit", role="irls_ref", family="logit")
    m["mle.fit_us"] = (med(mle_fit, 1e6), "us")
    m["mle.iterations"] = (med(rec.values.get("mle.iterations", [])), "count")
    m["mle.separations"] = (per_round("mle.separations"), "count")
    m["mle.fits"] = (per_round("mle.fits"), "count")
    m["mle.over_jacobi"] = (med(mle_fit) / med(jac_same) if jac_same and mle_fit else 0.0, "ratio")
    derive = med(durs("rng.derive"))
    m["rng.derive_us"] = (derive * 1e6, "us")
    mc2, mc1 = durs("mc.sample", workers=2), durs("mc.sample", workers=1)
    solve_mc = med(durs("linalg.solve", n=inp.X_mc.shape[0]))
    m["mc.sample_s"] = (med(mc2), "s")
    m["mc.draw_us"] = ((med(mc1) / spec["draws"] - derive - solve_mc) * 1e6, "us")
    m["mc.workers_speedup"] = (med(mc1) / med(mc2), "ratio")
    m["mc.draws"] = (spec["draws"], "count")
    m["mc.worker_mismatches"] = (per_round("mc.worker_mismatches"), "count")
    m["dmr.fit_us"] = (med(durs("dmr.fit"), 1e6), "us")
    m["hyper.grid_s"] = (med(durs("hyper.grid")), "s")
    m["hyper.grid_cells"] = (per_round("hyper.grid_cells"), "count")
    m["hyper.grid_valid_cells"] = (per_round("hyper.grid_valid_cells"), "count")
    m["hyper.search_budget"] = (per_round("hyper.search_budget"), "count")
    m["hyper.search_skipped"] = (per_round("hyper.search_skipped"), "count")
    m["simlab.generate_s"] = (generate_s, "s")
    m["simlab.experiment_attempted"] = (per_round("simlab.experiment_attempted"), "count")
    for method in inp.exp_config.methods:
        m[f"simlab.experiment_failed.{method}"] = (per_round(f"simlab.experiment_failed.{method}"), "count")
    harness = durs("partition.harness")
    m["partition.shard_stats_ms"] = (med(durs("partition.shard_stats"), 1e3), "ms")
    m["partition.encode_us"] = (med(durs("partition.encode"), 1e6), "us")
    m["partition.decode_us"] = (med(durs("partition.decode"), 1e6), "us")
    m["partition.frame_bytes"] = (med(rec.values.get("partition.frame_bytes", [])), "bytes")
    m["partition.aggregate_ms"] = (med(durs("partition.aggregate"), 1e3), "ms")
    m["partition.duplicates_dropped"] = (per_round("partition.duplicates_dropped"), "count")
    m["partition.shards"] = (med(rec.values.get("partition.shards", [])), "count")
    mono = durs("glm.fit", role="main", label="logit")
    m["partition.over_monolithic"] = (med(harness) / med(mono), "ratio")
    m["gp.kernel_ms"] = (med(durs("gp.kernel"), 1e3), "ms")
    m["gp.fit_ms"] = ((med(durs("gp.fit_binary")) + med(durs("gp.fit_multiclass"))) * 1e3, "ms")
    m["gp.predict_binary_ms"] = (med(durs("gp.predict_binary"), 1e3), "ms")
    m["gp.predict_multiclass_ms"] = (med(durs("gp.predict_multiclass"), 1e3), "ms")
    load_csv = med(durs("modelio.load_csv"))
    m["modelio.load_csv_s"] = (load_csv, "s")
    m["modelio.rows"] = (med(rec.values.get("modelio.rows", [])), "count")
    m["modelio.bytes"] = (med(rec.values.get("modelio.bytes", [])), "bytes")
    m["modelio.model_save_ms"] = (med(durs("modelio.model_save"), 1e3), "ms")
    m["modelio.model_load_ms"] = (med(durs("modelio.model_load"), 1e3), "ms")
    m["cli.import_s"] = (med(durs("cli.import")), "s")
    m["cli.fit_inproc_s"] = (med(durs("cli.fit_inproc")), "s")
    predict_inproc = med(durs("cli.predict_inproc"))
    m["cli.predict_inproc_s"] = (predict_inproc, "s")
    m["cli.predict_write_s"] = (predict_inproc - load_csv - med(durs("glm.predict", role="cli")), "s")
    m["round.fits"] = (per_round("fits"), "count")
    m["round.rhs_solved"] = (per_round("rhs"), "count")
    by_layer = self_time_by_layer(spans, rec.visits)
    for layer in LAYERS:
        m[f"self_ms.{layer}"] = (by_layer.get(layer, 0.0) * 1e3, "ms")
    for k, (v, _) in m.items():
        if not np.isfinite(v):
            raise ValueError(f"per-layer metric {k} is not finite: {v}")
    return m


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "jacobiprior")):
        print(f"error: library sources not found under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    import jacobiprior  # noqa: F401

    import_s = time.perf_counter() - T_START
    import bench
    from spans import Tracer, check_nesting

    if args.workload not in bench.SPECS:
        print(f"error: unknown workload {args.workload!r}, expected one of {sorted(bench.SPECS)}", file=sys.stderr)
        return 2
    workdir = os.path.join(ROOT, ".perfbench_work", f"{args.workload}-{args.seed}-{args.trace}")
    os.makedirs(workdir, exist_ok=True)

    setup_times, generate_times = [], []
    warm = bench.Recorder()
    ref = {}
    wl = inp = None
    for i in range(SETUP_REPEATS):
        wl = inp = None  # release the previous inputs before building new ones
        t0 = time.perf_counter()
        inp = bench.Inputs(args.workload, args.seed, ROOT, workdir)
        generate_times.append(time.perf_counter() - t0)
        inp.write_csv()
        wl = bench.Workload(inp, warm, ref)
        wl.round(warmup=True)
        setup_times.append(time.perf_counter() - t0)
        if i == 0:
            wl.verify_reference()

    rec_u = bench.Recorder()
    rec_t = bench.Recorder()
    tracer = Tracer() if args.trace else None
    spent = dict.fromkeys(wl.GROUPS, 0.0)  # untraced seconds per group
    # A traced run makes half the visits, each twice (untraced, then traced).
    for group in schedule(wl.GROUPS, inp.spec["visits"], args.seconds / (2 if tracer else 1)):
        wl.rec = rec_u
        t0 = time.perf_counter()
        wl.visit(group)
        spent[group] += time.perf_counter() - t0
        if tracer is not None:
            wl.rec = rec_t
            wl.visit(group, tracer)

    measured = [rec_u, rec_t] if tracer is not None else [rec_u]
    attempted = sum(r.attempted for r in measured)
    failed = sum(r.failed for r in measured)
    check_failures = warm.check_failures + [c for r in measured for c in r.check_failures]
    errors = {}
    for r in [warm] + measured:
        for k, v in r.errors.items():
            errors[k] = errors.get(k, 0) + v

    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    setup_s = import_s + statistics.median(setup_times)

    if tracer is None:
        metrics = {k: v for k, v in timed_metrics(rec_u).items() if k not in UNGATED}
        metrics["setup_s"] = (setup_s, "s")
        metrics["peak_rss_mb"] = (peak_kb / 1024.0, "MB")
        metrics["success_rate"] = (1.0 - rec_u.failed / rec_u.attempted, "fraction")
    else:
        problems = check_nesting(tracer.spans)
        check_failures += problems
        metrics = layer_metrics(tracer.spans, rec_t, inp, statistics.median(generate_times))
        metrics["fit_p99_ms"] = (fit_p99_ms(rec_u), "ms")
        untraced, traced = timed_metrics(rec_u), timed_metrics(rec_t)
        for name in UNGATED:
            metrics[name] = untraced[name]
        for name, (value, unit) in traced.items():
            metrics[f"trace_overhead.{name}"] = (value - untraced[name][0], unit)

    details = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "env": environment(inp),
        "visits": {"untraced": rec_u.visits, "traced": rec_t.visits},
        "seconds_per_group": spent,
        "samples": {k: len(v) for k, v in rec_u.samples.items()},
        "setup_s": {"import": import_s, "repeats": setup_times, "generate": generate_times},
        "outcomes_per_round": rec_u.round_counts(),
        "errors": errors,
        "check_failures": check_failures,
    }
    report = dict(details, metrics={k: v for k, (v, _) in metrics.items()}, visit_values={
        name: reduced_visits(rec_u, key) for name, (_, key, _, _) in TIMED.items()})
    for name in os.listdir(workdir):  # drop the CSV, model and prediction files
        os.remove(os.path.join(workdir, name))
    with open(os.path.join(workdir, "report.json"), "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
    if tracer is not None:
        with open(os.path.join(workdir, "spans.jsonl"), "w", encoding="utf-8") as fh:
            for s in tracer.spans:
                fh.write(json.dumps(s) + "\n")
    print(json.dumps(details))
    correct = not check_failures
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    # One BLAS thread per process, so that the library's 2-worker pools stay
    # on 2 cores instead of oversubscribing them. Must precede the numpy import.
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[_var] = "1"
    sys.exit(main())
