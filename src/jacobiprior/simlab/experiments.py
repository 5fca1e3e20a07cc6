"""Replicated benchmark experiments producing method-comparison tables.

One path runs every kind: JSON -> ``ExperimentConfig.from_dict`` (every
field checked against one table, ``_checks``) -> one replication loop ->
``ExperimentReport``. Each replication draws a training set and a fresh
evaluation design from its own derived stream, fits every method, and
records three prediction-error columns:

* ``rmse_y_train``  - training responses vs predictions on the training design
* ``rmse_y_out``    - training responses vs predictions on a freshly drawn
                      design of the same size (the benchmark tables'
                      out-of-sample convention)
* ``rmse_y_holdout``- freshly drawn responses vs predictions on the fresh design

plus coefficient recovery and per-fit wall time. Metric columns are
bit-reproducible in the seed; only timing varies between runs.

Every method is one row of ``METHODS`` (its kind, family and fit call).
The kind picks only the generator (``dmr`` draws its coefficients per
replication), the contamination it admits (flips for ``logit``, count
replacement for ``poisson``, none for ``dmr``) and the scoring:
``surrogate_rmse`` of the inverse link for GLMs, ``proportion_rmse`` of
the softmax probabilities for ``dmr``.

The consistency sweep is one ``jacobi_logit`` config per n, under
``JacobiHyper(0.5, 0.5, "one_over_n")`` or a fixed pair: replication r draws
from ``derive_rng(seed, r)`` at every n, and a fit that raises
``SeparationError`` or ``RankDeficientError`` counts in ``n_failed``.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import astuple, dataclass, field, fields

import numpy as np

from ..errors import MAX_COUNT, ConfigError, JacobiPriorError, RankDeficientError, SeparationError, is_count, real
from ..glm import JacobiHyper, default_hyper, fit_jacobi, inverse_link
from ..dmr import predict_proba
from ..mle import fit_mle
from ..modelio import csv_text
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
DEFAULT_METHODS = {kind: tuple(m for m in METHODS if METHODS[m][0] == kind) for kind in KINDS}
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
        if self.beta0 is None and self.kind in ("logit", "poisson"):
            self.beta0 = EXP_LOGISTIC_BETA if self.kind == "logit" else EXP_POISSON_BETA
        if self.sigma is None:
            self.sigma = 3.0 if self.kind == "logit" else 1.0
        if self.methods is None and self.kind in KINDS:
            self.methods = DEFAULT_METHODS[self.kind]
        for key, (test, need) in _checks(self.kind).items():
            value = getattr(self, key)
            if not test(value):
                raise ConfigError(f"$.{key}: need {need}, got {value!r}")
        if self.beta0 is not None:
            self.beta0 = np.array(self.beta0, dtype=float)
        self.methods = tuple(self.methods)

    @classmethod
    def from_dict(cls, doc: dict) -> "ExperimentConfig":
        """Build from a JSON document, reporting violations with JSON paths."""
        if not isinstance(doc, dict):
            raise ConfigError("$: config must be a JSON object")
        kwargs = {}
        for key, value in doc.items():
            if key not in cls.__dataclass_fields__:
                raise ConfigError(f"$.{key}: unknown configuration key")
            if key in ("seed", "hyper"):
                try:
                    value = (SeedSpec if key == "seed" else JacobiHyper)(**value)
                except (TypeError, ValueError, JacobiPriorError) as exc:
                    raise ConfigError(f"$.{key}: {exc}") from exc
            kwargs[key] = value
        return cls(**kwargs)


def _integer(lo):
    return (lambda v: is_count(v, lo), f"an integer >= {lo}")


def _fraction(kind, own):
    return (lambda v: 0 <= real(v) <= 1 and (v == 0 or kind == own),
            f"a number in [0, 1], and 0 unless kind is {own!r}")


def _vector(v) -> bool:
    return (isinstance(v, (list, tuple, np.ndarray)) and getattr(v, "ndim", 1) == 1 and len(v) > 0
            and all(math.isfinite(real(x)) for x in v))


def _checks(kind):
    """field -> (test, requirement) for every field a JSON config can set."""
    own = DEFAULT_METHODS[kind] if kind in KINDS else ()
    return {
        "name": (lambda v: isinstance(v, str) and v not in ("", ".", "..") and os.path.basename(v) == v,
                 "a bare file name"),
        "kind": (lambda v: v in KINDS, f"one of {KINDS}"),
        "n": (lambda v: is_count(v, 2) and v <= MAX_COUNT, f"an integer in [2, {MAX_COUNT}]"),
        "n_reps": _integer(1),
        "n_features": _integer(1),
        "n_classes": _integer(2),
        "beta0": (lambda v: v is None or _vector(v), "a non-empty 1-d list of finite numbers"),
        "sigma": (lambda v: real(v) > 0, "a finite number > 0"),
        "rho": (lambda v: -1 < real(v) < 1, "a number in (-1, 1)"),
        "flip_fraction": _fraction(kind, "logit"),
        "replace_fraction": _fraction(kind, "poisson"),
        "replace_rate": (lambda v: real(v) >= 0, "a finite number >= 0"),
        "contamination_mode": (lambda v: v in ("refit", "eval_only"), "'refit' or 'eval_only'"),
        "methods": (
            lambda v: isinstance(v, (list, tuple)) and v and all(m in own for m in v)
            and len(set(v)) == len(v),
            f"a non-empty list of distinct {kind!r} methods from {own}",
        ),
        "hyper": (lambda v: v is None or isinstance(v, JacobiHyper), "a JacobiHyper"),
        "seed": (lambda v: isinstance(v, SeedSpec), "a SeedSpec"),
    }


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
        return csv_text(REPORT_COLUMNS, (astuple(r) for r in self.rows))

    def to_table_text(self) -> str:
        header = ["method", "rmse_y_out", "SE", "rmse_beta", "SE", "time_us", "multiple"]
        rows = [header] + [
            [r.method, f"{r.rmse_y_out:.4f}", f"{r.rmse_y_out_se:.4f}"]
            + [f"{v:.4f}" if np.isfinite(v) else "NA" for v in (r.rmse_beta, r.rmse_beta_se)]
            + [f"{r.time_us:.1f}", f"{r.time_multiple:.2f}"]
            for r in self.rows
        ]
        widths = [max(map(len, column)) for column in zip(*rows)]
        return "".join("  ".join(c.rjust(w) for c, w in zip(row, widths)) + "\n" for row in rows)


def _generate_rep(config: ExperimentConfig, rng):
    """Returns (X, y_fit, y_eval, X_out, y_out, beta0); y_fit differs from
    y_eval only under eval_only contamination."""
    if config.kind == "dmr":
        # Fit on the count matrix; score the count matrices.
        X, counts, beta0 = gen_dmr(config.n, config.n_features, config.n_classes, rng)
        X_out, counts_out, _ = gen_dmr(config.n, config.n_features, config.n_classes, rng)
        return X, counts.counts, counts.counts, X_out, counts_out.counts, beta0
    gen = gen_logistic if config.kind == "logit" else gen_poisson
    X, y = gen(config.n, config.beta0, config.sigma, config.rho, rng)
    X_out, y_out = gen(config.n, config.beta0, config.sigma, config.rho, rng)
    y_eval, y_out_eval = y, y_out
    if config.flip_fraction > 0:
        y_eval = contaminate_flip(y, config.flip_fraction, rng)
        y_out_eval = contaminate_flip(y_out, config.flip_fraction, rng)
    if config.replace_fraction > 0:
        y_eval = contaminate_poisson(y, config.replace_fraction, rng, config.replace_rate)
        y_out_eval = contaminate_poisson(y_out, config.replace_fraction, rng, config.replace_rate)
    y_fit = y if config.contamination_mode == "eval_only" else y_eval
    return X, y_fit, y_eval, X_out, y_out_eval, config.beta0


def run_experiment(config: ExperimentConfig) -> ExperimentReport:
    """Run every replication and method in the config; see module docstring."""
    dmr = config.kind == "dmr"
    score = proportion_rmse if dmr else surrogate_rmse
    # method -> one (out, train, holdout, beta, ns) record per successful fit
    records = {m: [] for m in config.methods}
    for rep in range(config.n_reps):
        X, y_fit, y_eval, X_out, y_out, beta0 = _generate_rep(config, derive_rng(config.seed, rep))
        for method, fits in records.items():
            _, family, fit = METHODS[method]
            hyper = config.hyper or default_hyper(family)
            try:
                t0 = time.perf_counter_ns()
                model = fit(X, y_fit, family, hyper)
                dt = time.perf_counter_ns() - t0
            except (SeparationError, RankDeficientError):
                continue
            train, out = (
                predict_proba(model, Z) if dmr else inverse_link(Z @ model.beta, family)
                for Z in (X, X_out)
            )
            # rmse_y_out scores the training responses against fresh-design predictions.
            beta = beta_rmse(model.beta.ravel(), beta0.ravel())
            fits.append((score(y_eval, out), score(y_eval, train), score(y_out, out), beta, dt))
    return _assemble(config, records)


def _median_se(values, boot_rng) -> tuple[float, float]:
    if len(values) < 2:
        return (float(values[0]) if values else float("nan")), float("nan")
    arr = np.asarray(values)
    return float(np.median(arr)), bootstrap_median_se(arr, boot_rng)


def _assemble(config: ExperimentConfig, records) -> ExperimentReport:
    times = {
        m: float(np.median([r[-1] for r in fits])) / 1e3 if fits else float("nan")
        for m, fits in records.items()
    }
    ref_time = times[next((m for m in config.methods if m.startswith("jacobi")), config.methods[0])]
    report = ExperimentReport(name=config.name, kind=config.kind)
    for i, (method, fits) in enumerate(records.items()):
        # Each method owns a bootstrap stream, drawn in out, train, holdout, beta order.
        boot_rng = derive_rng(config.seed, _BOOT_TASK_BASE + i)
        columns = list(zip(*fits))[:4] or [()] * 4
        cells = [c for values in columns for c in _median_se(values, boot_rng)]
        time_us = times[method]
        multiple = time_us / ref_time if ref_time else float("nan")
        report.rows.append(
            ReportRow(method, len(fits), config.n_reps - len(fits), *cells, time_us, multiple)
        )
    return report
