"""Replicated benchmark experiments producing method-comparison tables.

Each replication draws a training set and a fresh evaluation design
from its own derived stream, fits every enabled method, and records
three prediction-error columns:

* ``rmse_y_train``  - training responses vs predictions on the training design
* ``rmse_y_out``    - training responses vs predictions on a freshly drawn
                      design of the same size (the benchmark tables'
                      out-of-sample convention)
* ``rmse_y_holdout``- freshly drawn responses vs predictions on the fresh design

plus coefficient recovery and per-fit wall time. Metric columns are
bit-reproducible in the seed; only timing varies between runs.

Every method is one row of ``METHODS`` (its kind, family and fit
call), and every kind runs through the same replication loop; only
the data generator and the prediction scale (inverse link for GLMs,
softmax probabilities for dmr) depend on the kind.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, fields

import numpy as np

from ..errors import (
    ConfigError,
    RankDeficientError,
    SeparationError,
)
from ..glm import JacobiHyper, default_hyper, fit_jacobi, inverse_link
from ..dmr import predict_proba
from ..mle import fit_mle
from ..rng import SeedSpec, derive_rng
from .generators import (
    EXP_LOGISTIC_BETA,
    EXP_POISSON_BETA,
    contaminate_flip,
    contaminate_poisson,
    gen_dmr,
    gen_logistic,
    gen_poisson,
)
from .metrics import beta_rmse, bootstrap_median_se, proportion_rmse, surrogate_rmse

KINDS = ("logit", "poisson", "dmr")


def _fit_mle(X, y, family, hyper):
    return fit_mle(X, y, family)  # IRLS has no prior


# method -> (kind, family, fit); fit(X, y, family, hyper) returns the model.
METHODS = {
    "jacobi_logit": ("logit", "logit", fit_jacobi),
    "jacobi_probit": ("logit", "probit", fit_jacobi),
    "mle_logit": ("logit", "logit", _fit_mle),
    "jacobi_poisson": ("poisson", "poisson", fit_jacobi),
    "mle_poisson": ("poisson", "poisson", _fit_mle),
    "jacobi_dmr": ("dmr", "poisson", fit_jacobi),  # the n x K count table
}
DEFAULT_METHODS = {
    kind: tuple(m for m, (k, _, _) in METHODS.items() if k == kind) for kind in KINDS
}
# Offset separating bootstrap streams from replication streams.
_BOOT_TASK_BASE = 1_000_000


@dataclass
class ExperimentConfig:
    name: str = "experiment"
    kind: str = "logit"
    n: int = 100
    n_reps: int = 500
    beta0: np.ndarray | None = None
    sigma: float | None = None
    rho: float = 0.5
    flip_fraction: float = 0.0
    replace_fraction: float = 0.0
    replace_rate: float = 20.0
    # "refit" contaminates the responses the methods are fit on (standard
    # robustness protocol); "eval_only" fits on clean responses and applies
    # the contamination to the evaluation copies only, which is the protocol
    # the published benchmark tables are consistent with (every method's
    # score moves by <= 0.01 under 10% flips there, impossible under refit).
    contamination_mode: str = "refit"
    n_features: int = 3
    n_classes: int = 4
    hyper: JacobiHyper | None = None
    methods: tuple[str, ...] | None = None
    seed: SeedSpec = SeedSpec(20240501, 0)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ConfigError(f"$.kind: {self.kind!r} not in {KINDS}")
        if self.n < 2:
            raise ConfigError("$.n: need n >= 2")
        if self.n_reps < 1:
            raise ConfigError("$.n_reps: need n_reps >= 1")
        if self.contamination_mode not in ("refit", "eval_only"):
            raise ConfigError(
                f"$.contamination_mode: {self.contamination_mode!r} not in ('refit', 'eval_only')"
            )
        if self.beta0 is None and self.kind == "logit":
            self.beta0 = EXP_LOGISTIC_BETA.copy()
        if self.beta0 is None and self.kind == "poisson":
            self.beta0 = EXP_POISSON_BETA.copy()
        if self.beta0 is not None:
            self.beta0 = np.asarray(self.beta0, dtype=float)
        if self.sigma is None:
            self.sigma = 3.0 if self.kind == "logit" else 1.0
        if self.methods is None:
            self.methods = DEFAULT_METHODS[self.kind]
        else:
            self.methods = tuple(self.methods)
            bad = [m for m in self.methods if m not in METHODS]
            if bad:
                raise ConfigError(f"$.methods: unknown methods {bad}")
        for m in self.methods:
            if METHODS[m][0] != self.kind:
                raise ConfigError(f"$.methods: {m!r} is not a {self.kind!r} method")

    @classmethod
    def from_dict(cls, doc: dict) -> "ExperimentConfig":
        """Build from a JSON document, reporting violations with JSON paths."""
        if not isinstance(doc, dict):
            raise ConfigError("$: config must be a JSON object")
        known = {f.name for f in fields(cls)}
        kwargs = {}
        for key, value in doc.items():
            if key == "seed":
                if not isinstance(value, dict):
                    raise ConfigError("$.seed: must be an object with root_seed/stream_id")
                extra = set(value) - {"root_seed", "stream_id"}
                if extra:
                    raise ConfigError(f"$.seed: unknown keys {sorted(extra)}")
                kwargs["seed"] = SeedSpec(
                    int(value.get("root_seed", 0)), int(value.get("stream_id", 0))
                )
            elif key == "hyper":
                if not isinstance(value, dict):
                    raise ConfigError("$.hyper: must be an object")
                try:
                    kwargs["hyper"] = JacobiHyper(
                        float(value.get("a", 0.5)),
                        float(value.get("b", 0.5)),
                        value.get("schedule", "fixed"),
                    )
                except Exception as exc:
                    raise ConfigError(f"$.hyper: {exc}") from exc
            elif key in known:
                kwargs[key] = value
            else:
                raise ConfigError(f"$.{key}: unknown configuration key")
        try:
            return cls(**kwargs)
        except ConfigError:
            raise
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"$: {exc}") from exc


@dataclass
class ReportRow:
    method: str
    n_used: int
    n_failed: int
    rmse_y_out: float
    rmse_y_out_se: float
    rmse_y_train: float
    rmse_y_train_se: float
    rmse_y_holdout: float
    rmse_y_holdout_se: float
    rmse_beta: float
    rmse_beta_se: float
    time_us: float
    time_multiple: float


REPORT_COLUMNS = [f.name for f in fields(ReportRow)]
# Multiples are meaningful across runs; absolute microseconds are not.
TIMING_COLUMNS = ("time_us", "time_multiple")


@dataclass
class ExperimentReport:
    name: str
    kind: str
    rows: list = field(default_factory=list)

    def row(self, method: str) -> ReportRow:
        for r in self.rows:
            if r.method == method:
                return r
        raise KeyError(method)

    def to_csv_text(self) -> str:
        lines = [",".join(REPORT_COLUMNS)]
        for r in self.rows:
            cells = []
            for c in REPORT_COLUMNS:
                v = getattr(r, c)
                cells.append(repr(v) if isinstance(v, float) else str(v))
            lines.append(",".join(cells))
        return "\n".join(lines) + "\n"

    def to_table_text(self) -> str:
        header = ["method", "rmse_y_out", "SE", "rmse_beta", "SE", "time_us", "multiple"]
        rows = [header]
        for r in self.rows:
            rows.append(
                [
                    r.method,
                    f"{r.rmse_y_out:.4f}",
                    f"{r.rmse_y_out_se:.4f}",
                    f"{r.rmse_beta:.4f}" if np.isfinite(r.rmse_beta) else "NA",
                    f"{r.rmse_beta_se:.4f}" if np.isfinite(r.rmse_beta_se) else "NA",
                    f"{r.time_us:.1f}",
                    f"{r.time_multiple:.2f}",
                ]
            )
        widths = [max(len(row[j]) for row in rows) for j in range(len(header))]
        out = []
        for row in rows:
            out.append("  ".join(cell.rjust(w) for cell, w in zip(row, widths)))
        return "\n".join(out) + "\n"


def _generate_rep(config: ExperimentConfig, rng):
    """Returns (X, y_fit, y_eval, X_out, y_out); y_fit differs from y_eval
    only under eval_only contamination."""
    gen = gen_logistic if config.kind == "logit" else gen_poisson
    X, y = gen(config.n, config.beta0, config.sigma, config.rho, rng)
    X_out, y_out = gen(config.n, config.beta0, config.sigma, config.rho, rng)
    y_eval, y_out_eval = y, y_out
    if config.flip_fraction > 0:
        y_eval = contaminate_flip(y, config.flip_fraction, rng)
        y_out_eval = contaminate_flip(y_out, config.flip_fraction, rng)
    if config.replace_fraction > 0:
        y_eval = contaminate_poisson(y_eval, config.replace_fraction, rng, config.replace_rate)
        y_out_eval = contaminate_poisson(
            y_out_eval, config.replace_fraction, rng, config.replace_rate
        )
    y_fit = y if config.contamination_mode == "eval_only" else y_eval
    return X, y_fit, y_eval, X_out, y_out_eval


def run_experiment(config: ExperimentConfig) -> ExperimentReport:
    """Run every replication and method in the config; see module docstring."""
    traces = {m: {"out": [], "train": [], "holdout": [], "beta": [], "ns": []} for m in config.methods}
    failures = {m: 0 for m in config.methods}
    for rep in range(config.n_reps):
        rng = derive_rng(config.seed, rep)
        if config.kind == "dmr":
            # Fit on the count matrix; score the count matrices.
            X, counts, beta0 = gen_dmr(config.n, config.n_features, config.n_classes, rng)
            X_out, counts_out, _ = gen_dmr(config.n, config.n_features, config.n_classes, rng)
            y_fit, y_eval, y_out = counts.counts, counts.counts, counts_out.counts
        else:
            X, y_fit, y_eval, X_out, y_out = _generate_rep(config, rng)
            beta0 = config.beta0
        for method in config.methods:
            _, family, fit = METHODS[method]
            hyper = config.hyper if config.hyper is not None else default_hyper(family)
            try:
                t0 = time.perf_counter_ns()
                model = fit(X, y_fit, family, hyper)
                dt = time.perf_counter_ns() - t0
            except (SeparationError, RankDeficientError):
                failures[method] += 1
                continue
            if config.kind == "dmr":
                score = proportion_rmse
                preds_train, preds_out = predict_proba(model, X), predict_proba(model, X_out)
            else:
                score = surrogate_rmse
                preds_train = inverse_link(X @ model.beta, family)
                preds_out = inverse_link(X_out @ model.beta, family)
            t = traces[method]
            t["train"].append(score(y_eval, preds_train))
            # Training responses scored against fresh-design predictions.
            t["out"].append(score(y_eval, preds_out))
            t["holdout"].append(score(y_out, preds_out))
            t["beta"].append(beta_rmse(model.beta.ravel(), beta0.ravel()))
            t["ns"].append(dt)
    return _assemble(config, traces, failures)


def _assemble(config: ExperimentConfig, traces, failures) -> ExperimentReport:
    report = ExperimentReport(name=config.name, kind=config.kind)
    reference = next(
        (m for m in config.methods if m.startswith("jacobi")), config.methods[0]
    )
    ref_time = None
    medians_time = {}
    for method in config.methods:
        ns = traces[method]["ns"]
        medians_time[method] = float(np.median(ns)) / 1e3 if ns else float("nan")
    ref_time = medians_time[reference]
    for i, method in enumerate(config.methods):
        t = traces[method]
        boot_rng = derive_rng(config.seed, _BOOT_TASK_BASE + i)

        def med_se(values):
            if not values:
                return float("nan"), float("nan")
            arr = np.asarray(values)
            if arr.size < 2:
                return float(arr[0]), float("nan")
            return float(np.median(arr)), bootstrap_median_se(arr, boot_rng)

        out_m, out_se = med_se(t["out"])
        train_m, train_se = med_se(t["train"])
        hold_m, hold_se = med_se(t["holdout"])
        beta_m, beta_se = med_se(t["beta"])
        time_us = medians_time[method]
        report.rows.append(
            ReportRow(
                method=method,
                n_used=len(t["out"]),
                n_failed=failures[method],
                rmse_y_out=out_m,
                rmse_y_out_se=out_se,
                rmse_y_train=train_m,
                rmse_y_train_se=train_se,
                rmse_y_holdout=hold_m,
                rmse_y_holdout_se=hold_se,
                rmse_beta=beta_m,
                rmse_beta_se=beta_se,
                time_us=time_us,
                time_multiple=time_us / ref_time if ref_time else float("nan"),
            )
        )
    return report


def run_consistency(
    schedule: str,
    ns: tuple[int, ...] = (200, 500, 1000, 2000, 5000),
    n_reps: int = 200,
    seed: SeedSpec = SeedSpec(20240502, 0),
    beta0=EXP_LOGISTIC_BETA,
    sigma: float = 3.0,
    rho: float = 0.5,
) -> dict[int, float]:
    """Median coefficient RMSE of the logit fit across training sizes.

    Under the one_over_n schedule the medians shrink with n; under any
    fixed shape pair they plateau at the shrinkage bias.
    """
    hyper = JacobiHyper(0.5, 0.5, schedule) if schedule == "one_over_n" else JacobiHyper(0.5, 0.5)
    beta0 = np.asarray(beta0, dtype=float)
    results = {}
    for i, n in enumerate(ns):
        errors = []
        for rep in range(n_reps):
            rng = derive_rng(seed, i * n_reps + rep)
            X, y = gen_logistic(n, beta0, sigma, rho, rng)
            model = fit_jacobi(X, y, "logit", hyper)
            errors.append(beta_rmse(model.beta, beta0))
        results[n] = float(np.median(errors))
    return results
