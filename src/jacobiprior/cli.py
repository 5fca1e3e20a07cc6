"""Command-line interface.

Subcommands: fit, predict, experiment, sensitivity, search, shards,
uncertainty, generate. Each subcommand accepts only the flags it reads
and imports only the modules it runs (fit and predict load no GP code).
Exit codes: 0 success; 2 a usage error, ConfigError (bad config, CSV or model file)
or InvalidHyperError; 1 any other JacobiPriorError or OSError. An error is one stderr line.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from .dmr import CountTable
from .errors import ConfigError, InvalidHyperError, JacobiPriorError
from .glm import FAMILIES, JacobiHyper, default_hyper, fit_jacobi
from .modelio import StoredModel, load_csv_dataset, read_json, write_csv, write_text


def _hyper_from_args(args, family: str) -> JacobiHyper:
    schedule = "one_over_n" if args.schedule == "one-over-n" else "fixed"
    if args.a is None and args.b is None:
        base = default_hyper(family)
        return JacobiHyper(base.a, base.b, schedule)
    if args.a is None or args.b is None:
        raise ConfigError("--a and --b must be given together")
    return JacobiHyper(args.a, args.b, schedule)


def _bounded(name: str, convert, ok, need: str):
    """An argparse type: convert(text), a usage error unless ok(value), which says ``need``."""
    def parse(text: str):
        value = convert(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {need}, got {value}")
        return value

    parse.__name__ = name  # argparse reports a failed conversion as "invalid <name> value"
    return parse


index = _bounded("index", int, lambda v: v >= 0, "an integer >= 0")
count = _bounded("count", int, lambda v: v >= 1, "an integer >= 1")
two_or_more = _bounded("two_or_more", int, lambda v: v >= 2, "an integer >= 2")
scale = _bounded("scale", float, lambda v: 0.0 <= v < np.inf, "a finite number >= 0")
level = _bounded("level", float, lambda v: 0.0 < v < 1.0, "a number in (0, 1)")


def floats(text: str) -> list:
    """argparse type for a comma-separated list of numbers."""
    return [float(v) for v in text.split(",")]


def cmd_fit(args) -> int:
    family = args.family
    if family == "multinomial":
        if args.classes is None:
            raise ConfigError("--family multinomial requires --classes")
        data = load_csv_dataset(args.train, classes=args.classes)
        # Classes sorted lexically; the fit is the poisson fit of the n x K count table.
        class_names, idx = np.unique(np.array(data.labels, dtype=object), return_inverse=True)
        y, fit_family = CountTable.from_labels(idx, len(class_names)).counts, "poisson"
    else:
        if args.target is None:
            raise ConfigError("--target is required for single-response families")
        data = load_csv_dataset(args.train, target=args.target)
        y, fit_family, class_names = data.y, family, []
    model = fit_jacobi(data.X, y, fit_family, _hyper_from_args(args, fit_family))
    StoredModel.from_glm(model, data.feature_names, class_names).save(args.model_out)
    a, b = model.hyper.resolve(model.n_train)
    print(f"fitted {family} model on n={model.n_train} (a={a:g}, b={b:g}) -> {args.model_out}")
    return 0


def cmd_predict(args) -> int:
    stored = StoredModel.load(args.model)
    data = load_csv_dataset(args.data, features=stored.feature_names)
    preds = stored.predict_mean(data)
    if stored.kind == "glm":
        write_csv(args.out, ["prediction"], zip(preds.tolist()))
    else:
        header = [f"prob_{c}" for c in stored.class_names] + ["class"]
        names = [stored.class_names[k] for k in np.argmax(preds, axis=1)]
        write_csv(args.out, header, (row + [c] for row, c in zip(preds.tolist(), names)))
    print(f"wrote {data.n} predictions -> {args.out}")
    return 0


def cmd_experiment(args) -> int:
    from .simlab import ExperimentConfig, run_experiment

    config = ExperimentConfig.from_dict(read_json(args.config))
    report = run_experiment(config)
    os.makedirs(args.out, exist_ok=True)
    texts = {"csv": report.to_csv_text(), "table": report.to_table_text()}
    for fmt, ext in (("csv", "csv"), ("table", "txt")):
        write_text(os.path.join(args.out, f"{config.name}.{ext}"), texts[fmt])
    print(texts[args.format], end="")
    failed = sum(r.n_failed for r in report.rows)
    return 1 if failed == config.n_reps * len(config.methods) else 0


def cmd_sensitivity(args) -> int:
    from .hyper import sensitivity_grid

    train = load_csv_dataset(args.train, target=args.target)
    test = load_csv_dataset(args.test, target=args.target)
    default = np.linspace(args.grid_min, args.grid_max, args.grid_steps).tolist()
    a_values, b_values = args.a_values or default, args.b_values or default
    report = sensitivity_grid(
        train.X, train.y, test.X, test.y, args.family, a_values, b_values
    )
    write_text(args.out, report.to_csv_text())
    a, b, score = report.best()
    print(f"best cell a={a:g} b={b:g} score={score:.6f} -> {args.out}")
    return 0


def cmd_search(args) -> int:
    from .hyper import stochastic_search
    from .rng import SeedSpec

    train = load_csv_dataset(args.train, target=args.target)
    val = load_csv_dataset(
        args.val, target=args.target, disbursement=args.disbursement
    )
    result = stochastic_search(
        train.X,
        train.y,
        val.X,
        val.y,
        args.family,
        budget=args.budget,
        seed=SeedSpec(args.seed, args.stream),
        objective=args.objective,
        disbursement=val.disbursement,
    )
    write_csv(args.out, ["a", "b", "score"], result.trace)
    print(
        f"best a={result.best_a:g} b={result.best_b:g} score={result.best_score:.6f} "
        f"({len(result.trace)} evaluated, {result.skipped} skipped) -> {args.out}"
    )
    return 0


def cmd_shards(args) -> int:
    from .partition import run_harness, shard_message_json

    data = load_csv_dataset(args.data, target=args.target)
    hyper = _hyper_from_args(args, args.family)
    result = run_harness(
        data.X,
        data.y,
        args.shards,
        args.family,
        hyper,
        max_workers=args.threads,
    )
    if args.emit_partials:
        dump = [shard_message_json(s) for s in result.partials]
        write_text(args.emit_partials, json.dumps(dump, indent=2) + "\n")
    if args.out:
        write_csv(args.out, ["feature", "coefficient"], zip(data.feature_names, result.beta))
    print(f"pooled fit over {result.n_shards} shards (dropped {result.duplicates_dropped} duplicates)")
    for m, dt in enumerate(result.shard_seconds):
        print(f"  shard {m}: {dt * 1e3:.3f} ms")
    print("beta:", " ".join(f"{v:.10g}" for v in result.beta))
    return 0


def cmd_uncertainty(args) -> int:
    from .mc import sample_beta, summarize
    from .rng import SeedSpec

    data = load_csv_dataset(args.data, target=args.target)
    hyper = _hyper_from_args(args, args.family)
    draws = sample_beta(
        data.X,
        data.y,
        args.family,
        hyper,
        n_draws=args.draws,
        seed=SeedSpec(args.seed, args.stream),
        workers=args.threads,
    )
    summary = summarize(draws, level=args.level)
    columns = (summary.mean, summary.sd, summary.lower, summary.upper)
    write_csv(
        args.out, ["feature", "mean", "sd", "lower", "upper"], zip(data.feature_names, *columns)
    )
    print(f"{args.draws} draws, {args.level:.0%} intervals -> {args.out}")
    return 0


def cmd_generate(args) -> int:
    from . import simlab
    from .rng import SeedSpec, derive_rng

    rng = derive_rng(SeedSpec(args.seed, args.stream), 0)
    if args.kind == "logistic":
        X, y = simlab.gen_logistic(args.n, simlab.EXP_LOGISTIC_BETA, 3.0, 0.5, rng)
    elif args.kind == "poisson":
        X, y = simlab.gen_poisson(args.n, simlab.EXP_POISSON_BETA, 1.0, 0.5, rng)
    elif args.kind == "dmr":
        X, counts, _ = simlab.gen_dmr(args.n, args.n_features, args.n_classes, rng)
        # Drop the generator's intercept column; the CSV carries raw features.
        X, y = X[:, 1:], counts.counts
    elif args.kind == "sinc":
        X, y = simlab.gen_sinc(args.n, rng, noise_sd=args.noise_sd)
    else:
        X, y = simlab.gen_circular(args.n, rng)
    y = y.reshape(args.n, -1).astype(np.int64)
    x_names = ["x"] if args.kind == "sinc" else [f"x{j + 1}" for j in range(X.shape[1])]
    y_names = [f"count_{k}" for k in range(y.shape[1])] if args.kind == "dmr" else ["y"]
    write_csv(args.out, x_names + y_names, (x + c for x, c in zip(X.tolist(), y.tolist())))
    print(f"wrote {args.n} rows -> {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    seed_flags = argparse.ArgumentParser(add_help=False)
    seed_flags.add_argument("--seed", type=int, default=0, help="root seed")
    seed_flags.add_argument("--stream", type=index, default=0, help="seed stream id")

    threads_flag = argparse.ArgumentParser(add_help=False)
    threads_flag.add_argument("--threads", type=count, default=1, help="worker threads")

    hyper_flags = argparse.ArgumentParser(add_help=False)
    hyper_flags.add_argument("--a", type=float, default=None, help="prior shape a")
    hyper_flags.add_argument("--b", type=float, default=None, help="prior shape b")
    hyper_flags.add_argument(
        "--schedule", choices=("fixed", "one-over-n"), default="fixed"
    )

    response_flags = argparse.ArgumentParser(add_help=False)
    response_flags.add_argument("--target", required=True)
    response_flags.add_argument("--family", choices=FAMILIES, default="logit")

    parser = argparse.ArgumentParser(
        prog="jacobiprior",
        description="Closed-form posterior-mode GLM toolkit and experiment harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fit", parents=[hyper_flags], help="fit a model from CSV")
    p.add_argument("--train", required=True)
    p.add_argument("--target", default=None, help="numeric response column")
    p.add_argument("--classes", default=None, help="class label column (multinomial)")
    p.add_argument(
        "--family",
        choices=FAMILIES + ("multinomial",),
        default="logit",
    )
    p.add_argument("--model-out", required=True)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("predict", help="predict from a stored model")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("experiment", help="run a replication experiment")
    p.add_argument("--config", required=True, help="JSON experiment config")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--format", choices=("csv", "table"), default="csv")
    p.set_defaults(func=cmd_experiment)

    p = sub.add_parser("sensitivity", parents=[response_flags], help="shape-pair sensitivity grid")
    p.add_argument("--train", required=True)
    p.add_argument("--test", required=True)
    p.add_argument("--grid-min", type=float, default=0.05)
    p.add_argument("--grid-max", type=float, default=2.0)
    p.add_argument("--grid-steps", type=count, default=12)
    p.add_argument("--a-values", type=floats, default=None, help="comma-separated a grid")
    p.add_argument("--b-values", type=floats, default=None, help="comma-separated b grid")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sensitivity)

    p = sub.add_parser(
        "search", parents=[seed_flags, response_flags], help="stochastic shape-pair search"
    )
    p.add_argument("--train", required=True)
    p.add_argument("--val", required=True)
    p.add_argument("--budget", type=count, default=50)
    p.add_argument("--objective", choices=("rmse", "accuracy", "utility"), default="rmse")
    p.add_argument("--disbursement", default=None, help="loan amount column (utility)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_search)

    p = sub.add_parser(
        "shards",
        parents=[threads_flag, hyper_flags, response_flags],
        help="partitioned distributed fit",
    )
    p.add_argument("--data", required=True)
    p.add_argument("--shards", type=count, required=True)
    p.add_argument("--emit-partials", default=None, help="JSON debug dump path")
    p.add_argument("--out", default=None, help="coefficient CSV path")
    p.set_defaults(func=cmd_shards)

    p = sub.add_parser(
        "uncertainty",
        parents=[seed_flags, threads_flag, hyper_flags, response_flags],
        help="Monte Carlo coefficient draws",
    )
    p.add_argument("--data", required=True)
    p.add_argument("--draws", type=two_or_more, default=1000)  # an interval needs two
    p.add_argument("--level", type=level, default=0.9)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_uncertainty)

    p = sub.add_parser("generate", parents=[seed_flags], help="write synthetic datasets")
    p.add_argument(
        "--kind",
        choices=("logistic", "poisson", "dmr", "sinc", "circular"),
        required=True,
    )
    p.add_argument("--n", type=count, required=True)
    p.add_argument("--noise-sd", type=scale, default=0.1)
    p.add_argument("--n-features", type=count, default=3)
    p.add_argument("--n-classes", type=two_or_more, default=4)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_generate)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (JacobiPriorError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, (ConfigError, InvalidHyperError)) else 1


if __name__ == "__main__":
    sys.exit(main())
