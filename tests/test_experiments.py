import json
import re
from pathlib import Path

import pytest

from jacobiprior.cli import main
from jacobiprior.dmr import fit_dmr, predict_proba
from jacobiprior.errors import ConfigError
from jacobiprior.glm import JacobiHyper, fit_jacobi, inverse_link, predict_linear
from jacobiprior.mle import fit_mle
from jacobiprior.rng import SeedSpec, derive_rng
from jacobiprior.simlab import (
    ExperimentConfig,
    beta_rmse,
    gen_dmr,
    gen_logistic,
    gen_poisson,
    proportion_rmse,
    run_experiment,
    surrogate_rmse,
)
from jacobiprior.simlab.experiments import REPORT_COLUMNS, TIMING_COLUMNS

README = Path(__file__).resolve().parents[1] / "README.md"


def metric_cells(report):
    """All non-timing cells, as repr strings, for bit-reproducibility checks."""
    cells = []
    for row in report.rows:
        for col in REPORT_COLUMNS:
            if col in TIMING_COLUMNS:
                continue
            cells.append(repr(getattr(row, col)))
    return cells


@pytest.mark.parametrize(
    "method", ["jacobi_logit", "mle_logit", "jacobi_poisson", "mle_poisson", "jacobi_dmr"]
)
def test_single_rep_single_method_equals_direct_call(method):
    kind = method.split("_")[1]
    # At n = 60 this stream separates the logit sample, so mle_logit would have no fit.
    N, seed = 100, SeedSpec(31415, 0)
    config = ExperimentConfig(name="tiny", kind=kind, n=N, n_reps=1, methods=(method,), seed=seed)
    row = run_experiment(config).rows[0]

    rng = derive_rng(seed, 0)
    if kind == "dmr":
        X, table, beta0 = gen_dmr(N, config.n_features, config.n_classes, rng)
        X_out, table_out, _ = gen_dmr(N, config.n_features, config.n_classes, rng)
        model = fit_dmr(X, table)
        y, y_out, score = table.counts, table_out.counts, proportion_rmse
        pred_train, pred_out = predict_proba(model, X), predict_proba(model, X_out)
    else:
        gen = gen_logistic if kind == "logit" else gen_poisson
        X, y = gen(N, config.beta0, config.sigma, config.rho, rng)
        X_out, y_out = gen(N, config.beta0, config.sigma, config.rho, rng)
        fit = fit_jacobi if method.startswith("jacobi") else fit_mle
        model, beta0, score = fit(X, y, kind), config.beta0, surrogate_rmse
        pred_train, pred_out = (inverse_link(predict_linear(model, Z), kind) for Z in (X, X_out))
    assert row.rmse_y_train == pytest.approx(score(y, pred_train), abs=1e-12)
    assert row.rmse_y_out == pytest.approx(score(y, pred_out), abs=1e-12)
    assert row.rmse_y_holdout == pytest.approx(score(y_out, pred_out), abs=1e-12)
    assert row.rmse_beta == beta_rmse(model.beta.ravel(), beta0.ravel())
    assert row.n_used == 1 and row.n_failed == 0


def test_metric_columns_bit_reproducible():
    config = ExperimentConfig(name="rep", kind="logit", n=40, n_reps=8, seed=SeedSpec(7, 7))
    a = run_experiment(config)
    b = run_experiment(config)
    assert metric_cells(a) == metric_cells(b)


def test_poisson_and_dmr_kinds_run():
    pois = run_experiment(
        ExperimentConfig(name="p", kind="poisson", n=50, n_reps=3, seed=SeedSpec(1, 1))
    )
    assert {r.method for r in pois.rows} == {"jacobi_poisson", "mle_poisson"}
    dmr = run_experiment(
        ExperimentConfig(name="d", kind="dmr", n=30, n_reps=3, seed=SeedSpec(1, 2))
    )
    assert dmr.rows[0].rmse_y_out > 0


def test_time_multiple_uses_jacobi_reference():
    config = ExperimentConfig(name="t", kind="logit", n=50, n_reps=5, seed=SeedSpec(2, 2))
    report = run_experiment(config)
    assert report.row("jacobi_logit").time_multiple == pytest.approx(1.0)
    assert report.row("mle_logit").time_multiple > 1.0


def test_contamination_modes_differ_for_fitting_only():
    base = dict(name="c", kind="logit", n=50, n_reps=5, flip_fraction=0.2, seed=SeedSpec(3, 3))
    refit = run_experiment(ExperimentConfig(contamination_mode="refit", **base))
    ev = run_experiment(ExperimentConfig(contamination_mode="eval_only", **base))
    # same evaluation labels, different fits
    assert refit.row("jacobi_logit").rmse_y_out != ev.row("jacobi_logit").rmse_y_out


def test_csv_text_round_trip_structure():
    report = run_experiment(
        ExperimentConfig(name="csv", kind="logit", n=40, n_reps=2, seed=SeedSpec(4, 4))
    )
    text = report.to_csv_text()
    lines = text.strip().split("\n")
    assert lines[0] == ",".join(REPORT_COLUMNS)
    assert len(lines) == 1 + len(report.rows)
    table = report.to_table_text()
    assert "rmse_y_out" in table and "jacobi_logit" in table


class TestConfigValidation:
    def test_unknown_key_path(self):
        with pytest.raises(ConfigError, match=r"\$\.bogus"):
            ExperimentConfig.from_dict({"bogus": 1})

    def test_bad_kind_path(self):
        with pytest.raises(ConfigError, match=r"\$\.kind"):
            ExperimentConfig.from_dict({"kind": "linear"})

    def test_bad_method_for_kind(self):
        with pytest.raises(ConfigError, match=r"\$\.methods"):
            ExperimentConfig.from_dict({"kind": "poisson", "methods": ["jacobi_logit"]})

    def test_seed_object(self):
        config = ExperimentConfig.from_dict(
            {"kind": "logit", "n": 30, "n_reps": 1, "seed": {"root_seed": 9, "stream_id": 2}}
        )
        assert config.seed == SeedSpec(9, 2)
        with pytest.raises(ConfigError, match=r"\$\.seed"):
            ExperimentConfig.from_dict({"seed": {"root": 1}})

    def test_hyper_object(self):
        config = ExperimentConfig.from_dict(
            {"kind": "logit", "hyper": {"a": 1.0, "b": 2.0}}
        )
        assert config.hyper == JacobiHyper(1.0, 2.0)
        with pytest.raises(ConfigError, match=r"\$\.hyper"):
            ExperimentConfig.from_dict({"kind": "logit", "hyper": {"a": -1.0}})

    def test_bad_contamination_mode(self):
        with pytest.raises(ConfigError, match=r"\$\.contamination_mode"):
            ExperimentConfig.from_dict({"kind": "logit", "contamination_mode": "maybe"})

    @pytest.mark.parametrize("doc", [[{"n": 30}], "logit", None, 3])
    def test_config_must_be_an_object(self, doc):
        with pytest.raises(ConfigError, match=r"^\$: config must be a JSON object$"):
            ExperimentConfig.from_dict(doc)


# Each of these crashed with a raw exception or gave a silently wrong table.
BAD_CONFIGS = [
    ({"n_reps": 2.5}, "n_reps"),
    ({"n": 50.5}, "n"),
    ({"n": 10**20}, "n"),
    ({"sigma": -1}, "sigma"),
    ({"rho": 1.5}, "rho"),
    ({"flip_fraction": 2}, "flip_fraction"),
    ({"kind": "poisson", "replace_fraction": 0.1, "replace_rate": -3}, "replace_rate"),
    ({"methods": []}, "methods"),
    ({"beta0": []}, "beta0"),
    ({"beta0": [[1, 2], [3, 4]]}, "beta0"),
    ({"beta0": ["1.0", 2]}, "beta0"),
    ({"seed": {"root_seed": "x"}}, "seed"),
    ({"seed": {"stream_id": -1}}, "seed"),
    ({"methods": ["jacobi_logit", "jacobi_logit"]}, "methods"),
    ({"kind": "poisson", "flip_fraction": 0.2, "contamination_mode": "eval_only"}, "flip_fraction"),
    ({"kind": "logit", "replace_fraction": 0.1}, "replace_fraction"),
    ({"kind": "dmr", "flip_fraction": 0.1}, "flip_fraction"),
    ({"kind": "dmr", "replace_fraction": 0.1}, "replace_fraction"),
    ({"n_reps": True}, "n_reps"),
    ({"hyper": {"a": 1, "c": 5}}, "hyper"),
    ({"seed": {"root_seed": 1.7}}, "seed"),
    ({"hyper": {"a": "0.5"}}, "hyper"),
    ({"hyper": {"schedule": "one-over-n"}}, "hyper"),
    ({"name": "../escaped"}, "name"),
    ({"name": ""}, "name"),
]


@pytest.mark.parametrize("doc, key", BAD_CONFIGS, ids=[json.dumps(d) for d, _ in BAD_CONFIGS])
def test_bad_config_names_its_key(doc, key, tmp_path, capsys):
    with pytest.raises(ConfigError, match=rf"^\$\.{key}: "):
        ExperimentConfig.from_dict({"n": 30, "n_reps": 3, **doc})
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"n": 30, "n_reps": 3, **doc}))
    assert main(["experiment", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: $.{key}: ") and err.count("\n") == 1, err
    assert {p.name for p in tmp_path.iterdir()} <= {"cfg.json", "out"}  # nothing escaped --out


HUGE = 10**400  # a 401-digit integer: too large for a float
HUGE_CONFIGS = {
    "sigma": {"sigma": HUGE},
    "replace_rate": {"kind": "poisson", "replace_fraction": 0.1, "replace_rate": HUGE},
    "beta0": {"beta0": [1.0, HUGE]},
    "hyper": {"hyper": {"a": HUGE}},
}


@pytest.mark.parametrize("key", HUGE_CONFIGS)
def test_integer_too_large_for_a_float_exits_2(key, tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"n": 30, "n_reps": 3, **HUGE_CONFIGS[key]}))
    assert main(["experiment", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: $.{key}: ") and err.count("\n") == 1, err


def test_readme_example_config_runs():
    """The README's example config builds and runs (with n_reps cut to 2)."""
    section = README.read_text(encoding="utf-8").split("### Experiment harness", 1)[1]
    doc = json.loads(re.search(r"```json\n(.*?)```", section, re.S).group(1))
    config = ExperimentConfig.from_dict({**doc, "n_reps": 2})
    report = run_experiment(config)
    assert [r.method for r in report.rows] == list(config.methods)
    assert all(r.n_used + r.n_failed == 2 for r in report.rows)


def test_consistency_sweep_shapes():
    """The consistency sweep: one one_over_n experiment per training size."""
    for n in (50, 100):
        config = ExperimentConfig(kind="logit", n=n, n_reps=5, methods=("jacobi_logit",),
                                  hyper=JacobiHyper(0.5, 0.5, "one_over_n"), seed=SeedSpec(5, 5))
        row = run_experiment(config).row("jacobi_logit")
        assert row.n_used == 5 and row.rmse_beta > 0
