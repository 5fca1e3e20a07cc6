import csv
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from jacobiprior import modelio
from jacobiprior.cli import main
from jacobiprior.dmr import CountTable, fit_dmr, predict_proba, softmax_rows
from jacobiprior.errors import ConfigError
from jacobiprior.glm import JacobiHyper, default_hyper, fit_jacobi, inverse_link, predict
from jacobiprior.hyper import sensitivity_grid, stochastic_search
from jacobiprior.linalg import BLOCK_ROWS
from jacobiprior.mc import sample_beta, summarize
from jacobiprior.modelio import StoredModel, load_csv_dataset
from jacobiprior.partition import PartialStats, aggregate_and_solve, run_harness
from jacobiprior.rng import SeedSpec, derive_rng
from jacobiprior.simlab import (
    EXP_LOGISTIC_BETA,
    EXP_POISSON_BETA,
    ExperimentConfig,
    gen_circular,
    gen_dmr,
    gen_logistic,
    gen_poisson,
    gen_sinc,
    run_experiment,
)
from jacobiprior.simlab.experiments import REPORT_COLUMNS, TIMING_COLUMNS


def write_csv(path, header, rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


@pytest.fixture()
def train_csv(tmp_path):
    path = tmp_path / "train.csv"
    rc = main(["generate", "--kind", "logistic", "--n", "120", "--seed", "5",
               "--out", str(path)])
    assert rc == 0
    return path


def read_predictions(path):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    return rows


class TestFitPredict:
    def test_round_trip_matches_in_memory(self, tmp_path, train_csv):
        model_path = tmp_path / "model.json"
        rc = main(["fit", "--train", str(train_csv), "--target", "y",
                   "--family", "logit", "--model-out", str(model_path)])
        assert rc == 0
        out_path = tmp_path / "preds.csv"
        rc = main(["predict", "--model", str(model_path), "--data", str(train_csv),
                   "--out", str(out_path)])
        assert rc == 0

        data = load_csv_dataset(train_csv, target="y")
        direct = predict(fit_jacobi(data.X, data.y, "logit"), data.X)
        got = np.array([float(r["prediction"]) for r in read_predictions(out_path)])
        np.testing.assert_array_equal(got, direct)

    def test_model_file_round_trips_exactly(self, tmp_path, train_csv):
        model_path = tmp_path / "model.json"
        main(["fit", "--train", str(train_csv), "--target", "y",
              "--a", "0.25", "--b", "0.75", "--model-out", str(model_path)])
        stored = StoredModel.load(model_path)
        data = load_csv_dataset(train_csv, target="y")
        direct = fit_jacobi(data.X, data.y, "logit", JacobiHyper(0.25, 0.75))
        np.testing.assert_array_equal(stored.beta, direct.beta)
        assert stored.hyper == JacobiHyper(0.25, 0.75)

    def test_schedule_records_effective_values(self, tmp_path, train_csv):
        model_path = tmp_path / "model.json"
        main(["fit", "--train", str(train_csv), "--target", "y",
              "--schedule", "one-over-n", "--model-out", str(model_path)])
        doc = json.loads(model_path.read_text())
        assert doc["schedule"] == "one_over_n"
        assert doc["a_effective"] == pytest.approx(1.0 / 120.0)
        assert doc["b_effective"] == pytest.approx(1.0 / 120.0)

    @pytest.mark.parametrize("kind, flags, shapes", [
        ("logistic", ["--family", "logit"], (0.5, 0.5, "fixed", 0.5, 0.5)),
        ("logistic", ["--family", "probit", "--schedule", "one-over-n"],
         (0.5, 0.5, "one_over_n", 1 / 120, 1 / 120)),
        ("poisson", ["--family", "poisson"], (1.0, 1.0, "fixed", 1.0, 1.0)),
    ])
    def test_glm_model_file_bytes(self, tmp_path, kind, flags, shapes):
        train, model_path = tmp_path / "train.csv", tmp_path / "model.json"
        assert main(["generate", "--kind", kind, "--n", "120", "--seed", "5", "--out", str(train)]) == 0
        assert main(["fit", "--train", str(train), "--target", "y", *flags,
                     "--model-out", str(model_path)]) == 0
        data = load_csv_dataset(train, target="y")
        family, (a, b, schedule, a_eff, b_eff) = flags[1], shapes
        fit = fit_jacobi(data.X, data.y, family, JacobiHyper(a, b, schedule))
        # A literal version-1 glm document, keys in the written order.
        doc = {
            "format": "jacobiprior-model", "version": 1, "kind": "glm", "family": family,
            "a": a, "b": b, "schedule": schedule, "a_effective": a_eff, "b_effective": b_eff,
            "feature_names": [f"x{j}" for j in range(1, 9)], "n_train": 120,
            "beta": fit.beta.tolist(),
        }
        assert model_path.read_text() == json.dumps(doc, indent=2) + "\n"
        stored = StoredModel.load(model_path)
        stored.save(tmp_path / "again.json")
        assert (tmp_path / "again.json").read_bytes() == model_path.read_bytes()
        assert stored.eta_hat.size == 0 and stored.family == family
        np.testing.assert_array_equal(stored.predict_mean(data), predict(fit, data.X))

    def test_permuted_columns_same_predictions(self, tmp_path, train_csv):
        model_path = tmp_path / "model.json"
        main(["fit", "--train", str(train_csv), "--target", "y",
              "--model-out", str(model_path)])
        with open(train_csv, newline="") as fh:
            rows = list(csv.reader(fh))
        header = rows[0]
        order = list(reversed(range(len(header))))
        permuted = tmp_path / "permuted.csv"
        write_csv(permuted, [header[i] for i in order],
                  [[r[i] for i in order] for r in rows[1:]])
        out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["predict", "--model", str(model_path), "--data", str(train_csv), "--out", str(out_a)])
        main(["predict", "--model", str(model_path), "--data", str(permuted), "--out", str(out_b)])
        assert out_a.read_text() == out_b.read_text()

    def test_permuted_columns_same_predictions_across_row_blocks(self):
        n, names, order = 2 * BLOCK_ROWS + 1, ["x1", "x2", "x3", "x4"], [2, 0, 3, 1]
        rng = np.random.default_rng(11)
        X = rng.standard_normal((n, 4)) * [1e-3, 1.0, 1e3, 10.0]
        plain = modelio.CsvDataset(names, X)
        permuted = modelio.CsvDataset([names[i] for i in order], X[:, order])
        for family, beta, classes in (
            ("logit", rng.standard_normal(4), []),
            ("poisson", rng.standard_normal((4, 3)), ["a", "b", "c"]),
        ):
            stored = StoredModel(beta, family, JacobiHyper(), np.empty(0), 100, names, classes)
            # The reference is one einsum per class column over the whole C-ordered X, in model order.
            cols = [np.einsum("ij,j->i", X, np.ascontiguousarray(b)) for b in np.atleast_2d(beta.T)]
            eta = np.column_stack(cols) if classes else cols[0]
            want = softmax_rows(eta) if classes else inverse_link(eta, family)
            np.testing.assert_array_equal(stored.predict_mean(plain), want)
            np.testing.assert_array_equal(stored.predict_mean(permuted), want)

    def test_extra_columns_ignored(self, tmp_path, train_csv):
        model_path = tmp_path / "model.json"
        main(["fit", "--train", str(train_csv), "--target", "y",
              "--model-out", str(model_path)])
        with open(train_csv, newline="") as fh:
            rows = list(csv.reader(fh))
        extra = tmp_path / "extra.csv"
        write_csv(extra, rows[0] + ["junk"], [r + ["9.9"] for r in rows[1:]])
        out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["predict", "--model", str(model_path), "--data", str(train_csv), "--out", str(out_a)])
        main(["predict", "--model", str(model_path), "--data", str(extra), "--out", str(out_b)])
        assert out_a.read_text() == out_b.read_text()

    def test_missing_feature_is_runtime_error(self, tmp_path, train_csv):
        model_path = tmp_path / "model.json"
        main(["fit", "--train", str(train_csv), "--target", "y",
              "--model-out", str(model_path)])
        small = tmp_path / "small.csv"
        write_csv(small, ["x1", "x2"], [["0.1", "0.2"]])
        rc = main(["predict", "--model", str(model_path), "--data", str(small),
                   "--out", str(tmp_path / "nope.csv")])
        assert rc == 1

    def test_multiclass_fit_predict(self, tmp_path, capsys):
        data = tmp_path / "mc.csv"
        rng = np.random.default_rng(0)
        rows = []
        for i in range(60):
            x1, x2 = rng.random(2)
            label = "red" if x1 > 0.5 else ("green" if x2 > 0.5 else "blue")
            rows.append([f"{x1}", f"{x2}", label])
        write_csv(data, ["x1", "x2", "color"], rows)
        model_path = tmp_path / "mc.json"
        rc = main(["fit", "--train", str(data), "--family", "multinomial",
                   "--classes", "color", "--model-out", str(model_path)])
        assert rc == 0
        out = tmp_path / "mcp.csv"
        rc = main(["predict", "--model", str(model_path), "--data", str(data),
                   "--out", str(out)])
        assert rc == 0
        preds = read_predictions(out)
        assert set(preds[0]) == {"prob_blue", "prob_green", "prob_red", "class"}
        probs = np.array(
            [[float(r["prob_blue"]), float(r["prob_green"]), float(r["prob_red"])]
             for r in preds]
        )
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)

        # A literal version-1 multinomial document, keys in the written order:
        # the writer reproduces it byte for byte and it predicts the same CSV.
        betas = json.loads(model_path.read_text())["betas"]
        old_doc = {
            "format": "jacobiprior-model", "version": 1, "kind": "dmr",
            "family": "multinomial", "a": 1.0, "b": 1.0, "schedule": "fixed",
            "a_effective": 1.0, "b_effective": 1.0, "feature_names": ["x1", "x2"],
            "n_train": 60, "betas": betas, "class_names": ["blue", "green", "red"],
        }
        assert model_path.read_text() == json.dumps(old_doc, indent=2) + "\n"
        stored = StoredModel.load(model_path)
        stored.save(tmp_path / "again.json")
        assert (tmp_path / "again.json").read_bytes() == model_path.read_bytes()
        assert stored.family == "poisson" and stored.beta.shape == (2, 3)
        csv_data = load_csv_dataset(data, classes="color")
        idx = np.unique(np.array(csv_data.labels, dtype=object), return_inverse=True)[1]
        fit = fit_dmr(csv_data.X, CountTable.from_labels(idx, 3), JacobiHyper(1.0, 1.0))
        np.testing.assert_array_equal(stored.beta, fit.beta)
        np.testing.assert_array_equal(stored.predict_mean(csv_data), predict_proba(fit, csv_data.X))
        old_path, old_out = tmp_path / "old.json", tmp_path / "old.csv"
        old_path.write_text(json.dumps(old_doc))
        rc = main(["predict", "--model", str(old_path), "--data", str(data), "--out", str(old_out)])
        assert rc == 0 and old_out.read_text() == out.read_text()
        old_doc["class_names"] = ["blue", "green"]
        old_path.write_text(json.dumps(old_doc))
        capsys.readouterr()
        rc = main(["predict", "--model", str(old_path), "--data", str(data), "--out", str(old_out)])
        assert rc == 2 and "key 'betas' has shape (2, 3), expected (2, 2)" in capsys.readouterr().err


class TestUsageErrors:
    def test_unknown_family_exits_2(self, train_csv, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["fit", "--train", str(train_csv), "--target", "y",
                  "--family", "tobit", "--model-out", str(tmp_path / "m.json")])
        assert exc.value.code == 2

    def test_multinomial_without_classes_is_config_error(self, train_csv, tmp_path):
        rc = main(["fit", "--train", str(train_csv), "--family", "multinomial",
                   "--model-out", str(tmp_path / "m.json")])
        assert rc == 2

    def test_missing_value_reports_row(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        write_csv(bad, ["x1", "y"], [["0.5", "1"], ["", "0"]])
        rc = main(["fit", "--train", str(bad), "--target", "y",
                   "--model-out", str(tmp_path / "m.json")])
        assert rc == 2
        assert "row 2" in capsys.readouterr().err
        # Each malformed file names its first bad cell: an empty cell before a
        # non-numeric one in the same row. A padded cell is not missing.
        label = ["--family", "multinomial", "--classes", "c"]
        cases = [
            ("", [], "empty file, header row required"),
            ("x1,x2,y\n", [], "no data rows"),
            ("x1,x2\n1,2\n", [], "column 'y' not found in header ['x1', 'x2']"),
            ("x1,x2,y\n1,2,1\n1,2\n", [], "row 2: expected 3 fields, got 2"),
            ("x1,x2,y\n1,2,1\n1,,0\n", [], "row 2: missing value in column 'x2'"),
            ("x1,x2,y\n1,2,1\n1,  ,0\n", [], "row 2: missing value in column 'x2'"),
            ("x1,x2,y\n1,2,1\nabc,2,\n", [], "row 2: missing value in column 'y'"),
            ("x1,x2,y\n1,2,1\n1,abc,0\n", [], "row 2: column 'x2' has non-numeric value 'abc'"),
            ("x1,x2,c\n1,2,a\n1,2, \n", label, "row 2: missing value in column 'c'"),
            ("x1 , x2,y\n 1 , 2.5 ,1\n3,4 , 0\n5,6,1\n", [], None),
        ]
        for text, flags, message in cases:
            bad.write_text(text)
            argv = ["fit", "--train", str(bad), "--model-out", str(tmp_path / "m.json")]
            rc = main(argv + (flags or ["--target", "y"]))
            err = capsys.readouterr().err
            if message is None:
                assert rc == 0, err
            else:
                assert rc == 2 and message in err, (text, err)

    @pytest.mark.parametrize("header", [["x1", "x1", "y"], ["x1", "y", "y"]], ids=",".join)
    def test_repeated_header_name_exits_2(self, tmp_path, capsys, header):
        bad = tmp_path / "dup.csv"
        write_csv(bad, header, [["1", "2", "1"], ["3", "4", "0"], ["5", "7", "1"]])
        rc = main(["fit", "--train", str(bad), "--target", "y",
                   "--model-out", str(tmp_path / "m.json")])
        assert rc == 2
        assert f"column {header[1]!r} appears more than once in header" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["generate", "--kind", "logistic", "--n", "0"],
        ["generate", "--kind", "logistic", "--n", "-5"],
        ["generate", "--kind", "dmr", "--n", "10", "--n-features", "0"],
        ["generate", "--kind", "dmr", "--n", "10", "--n-classes", "0"],
        ["shards", "--data", "d.csv", "--target", "y", "--shards", "2", "--threads", "0"],
        ["shards", "--data", "d.csv", "--target", "y", "--shards", "0"],
        ["uncertainty", "--data", "d.csv", "--target", "y", "--threads", "-3"],
        ["uncertainty", "--data", "d.csv", "--target", "y", "--draws", "0"],
        ["uncertainty", "--data", "d.csv", "--target", "y", "--draws", "1"],
        ["uncertainty", "--data", "d.csv", "--target", "y", "--level", "1.5"],
        ["uncertainty", "--data", "d.csv", "--target", "y", "--level", "0"],
        ["uncertainty", "--data", "d.csv", "--target", "y", "--level", "nan"],
        ["uncertainty", "--data", "d.csv", "--target", "y", "--level", "high"],
        ["sensitivity", "--train", "t.csv", "--test", "t.csv", "--target", "y",
         "--grid-steps", "0"],
        ["sensitivity", "--train", "t.csv", "--test", "t.csv", "--target", "y",
         "--a-values", "0.5,x"],
        ["generate", "--kind", "poisson", "--n", "5", "--stream", "-1"],
        ["search", "--train", "t.csv", "--val", "t.csv", "--target", "y", "--stream", "-1"],
        ["generate", "--kind", "sinc", "--n", "5", "--noise-sd", "-1"],
        ["generate", "--kind", "sinc", "--n", "5", "--noise-sd", "nan"],
        ["generate", "--kind", "dmr", "--n", "10", "--n-classes", "1"],
        ["search", "--train", "t.csv", "--val", "t.csv", "--target", "y", "--budget", "0"],
    ], ids=lambda argv: f"{argv[0]} {argv[-2]} {argv[-1]}")
    def test_bad_number_exits_2_naming_its_flag(self, tmp_path, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--out", str(tmp_path / "o.csv")])
        assert exc.value.code == 2
        flag = next(a for a in reversed(argv) if a.startswith("--"))
        assert f"argument {flag}: " in capsys.readouterr().err
        assert not (tmp_path / "o.csv").exists()

    @pytest.mark.parametrize("text", ["nan", "inf", "-inf", "1e400"])
    def test_non_finite_value_reports_row_and_column(self, tmp_path, capsys, text):
        bad = tmp_path / "bad.csv"
        write_csv(bad, ["x1", "x2", "y"], [["0.5", "1.0", "1"], ["0.25", text, "0"]])
        rc = main(["fit", "--train", str(bad), "--target", "y",
                   "--model-out", str(tmp_path / "m.json")])
        assert rc == 2
        assert "row 2: column 'x2'" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["fit", "--train", "{train}", "--target", "y", "--model-out", "{tmp}/m.json", "--threads", "2"],
        # shards delivers its frames in a seeded order, which no output depends on
        ["shards", "--data", "{train}", "--target", "y", "--shards", "2", "--out", "{tmp}/c.csv", "--seed", "1"],
        ["shards", "--data", "{train}", "--target", "y", "--shards", "2", "--out", "{tmp}/c.csv", "--stream", "1"],
    ], ids=lambda argv: f"{argv[0]} {argv[-2]} {argv[-1]}")
    def test_flag_the_subcommand_does_not_read_exits_2(self, train_csv, tmp_path, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main([a.format(train=train_csv, tmp=tmp_path) for a in argv])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {argv[-2]} {argv[-1]}" in capsys.readouterr().err
        assert not {"m.json", "c.csv"} & {p.name for p in tmp_path.iterdir()}


class TestPredictBadModelFile:
    @pytest.fixture()
    def model_doc(self, tmp_path, train_csv):
        path = tmp_path / "model.json"
        main(["fit", "--train", str(train_csv), "--target", "y", "--model-out", str(path)])
        return json.loads(path.read_text())

    def predict_with(self, tmp_path, train_csv, text):
        path = tmp_path / "broken.json"
        path.write_text(text)
        return main(["predict", "--model", str(path), "--data", str(train_csv),
                     "--out", str(tmp_path / "p.csv")])

    def test_missing_key(self, tmp_path, train_csv, model_doc, capsys):
        del model_doc["kind"]
        rc = self.predict_with(tmp_path, train_csv, json.dumps(model_doc))
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error: ") and "broken.json" in err and "'kind'" in err

    def test_truncated_json(self, tmp_path, train_csv, model_doc, capsys):
        rc = self.predict_with(tmp_path, train_csv, json.dumps(model_doc)[:-20])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error: ") and "broken.json" in err and "invalid JSON" in err

    @pytest.mark.parametrize("family", ["multinomial", "tobit"])
    def test_kind_must_match_family(self, tmp_path, train_csv, model_doc, capsys, family):
        model_doc["family"] = family
        rc = self.predict_with(tmp_path, train_csv, json.dumps(model_doc))
        err = capsys.readouterr().err
        assert rc == 2
        assert "broken.json" in err and f"kind 'glm' does not match family '{family}'" in err

    def test_beta_rows_must_match_feature_names(self, tmp_path, train_csv, model_doc, capsys):
        model_doc["beta"] = model_doc["beta"][:-1]
        rc = self.predict_with(tmp_path, train_csv, json.dumps(model_doc))
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error: ") and "broken.json" in err and "'beta'" in err

    @pytest.mark.parametrize("key, value", [
        ("a", -1.0), ("b", "x"), ("schedule", "bogus"),
        ("feature_names", "x1"), ("feature_names", [1, 2]), ("feature_names", ["x1", "x1"]),
        ("n_train", 2.7), ("n_train", -5),
        ("a_effective", "x"), ("a_effective", None), ("a_effective", True), ("b_effective", -3.0),
        ("b_effective", 0.25), ("feature_names", []),
    ])
    def test_bad_field_names_its_key(self, tmp_path, train_csv, model_doc, capsys, key, value):
        model_doc[key] = value
        rc = self.predict_with(tmp_path, train_csv, json.dumps(model_doc))
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error: ") and "broken.json" in err and f"key '{key}'" in err, err
        assert err.count("\n") == 1, err

    @pytest.mark.parametrize("classes", [[], ["blue"]])
    def test_multinomial_needs_two_class_names(self, tmp_path, train_csv, capsys, classes):
        # No fit writes such a file: with no class predict_proba fails, with one every
        # probability is 1.
        names = [f"x{j}" for j in range(1, 9)]
        doc = StoredModel(np.zeros((8, len(classes))), "poisson", JacobiHyper(1.0, 1.0),
                          np.empty(0), 60, names, classes).to_json()
        rc = self.predict_with(tmp_path, train_csv, json.dumps(doc))
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error: ") and "broken.json" in err and "key 'class_names'" in err

    def test_non_finite_coefficient_names_its_index(self, tmp_path, train_csv, model_doc, capsys):
        model_doc["beta"][1] = float("nan")  # json writes NaN, which json.load reads back
        rc = self.predict_with(tmp_path, train_csv, json.dumps(model_doc))
        err = capsys.readouterr().err
        assert rc == 2
        path = tmp_path / "broken.json"
        assert err == f"error: {path}: key 'beta' contains a non-finite entry at index 1: nan\n"
        names, classes = ["x1", "x2"], ["a", "b", "c"]
        doc = StoredModel(np.zeros((2, 3)), "poisson", JacobiHyper(1.0, 1.0), np.empty(0), 60,
                          names, classes).to_json()
        for bad in (float("inf"), None):
            doc["betas"][1][2] = bad
            with pytest.raises(ConfigError, match=r"key 'betas' contains a non-finite "
                               r"entry at row 1, column 2: (inf|nan)$"):
                StoredModel.from_json(json.loads(json.dumps(doc)))


class TestShardsCommand:
    def test_shard_counts_agree(self, tmp_path, train_csv):
        outs = []
        for m in ("1", "8"):
            out = tmp_path / f"beta_{m}.csv"
            rc = main(["shards", "--data", str(train_csv), "--target", "y",
                       "--family", "logit", "--shards", m, "--out", str(out)])
            assert rc == 0
            with open(out, newline="") as fh:
                outs.append([float(r["coefficient"]) for r in csv.DictReader(fh)])
        np.testing.assert_allclose(outs[0], outs[1], rtol=1e-10, atol=1e-12)

    def test_emit_partials_schema(self, tmp_path, train_csv):
        dump = tmp_path / "partials.json"
        rc = main(["shards", "--data", str(train_csv), "--target", "y",
                   "--shards", "3", "--emit-partials", str(dump)])
        assert rc == 0
        doc = json.loads(dump.read_text())
        assert len(doc) == 3
        assert {d["shard_id"] for d in doc} == {0, 1, 2}
        assert all(d["schema_version"] == 2 for d in doc)
        assert sum(d["n_shard"] for d in doc) == 120

    def test_emitted_partials_reproduce_out_exactly(self, tmp_path, train_csv):
        dump, out = tmp_path / "partials.json", tmp_path / "beta.csv"
        rc = main(["shards", "--data", str(train_csv), "--target", "y", "--shards", "5",
                   "--emit-partials", str(dump), "--out", str(out)])
        assert rc == 0
        doc = json.loads(dump.read_text())
        assert [d["shard_id"] for d in doc] == [0, 1, 2, 3, 4]
        stats = [PartialStats(d["shard_id"], d["n_shard"], np.array(d["r"]), np.array(d["qteta"]))
                 for d in doc]
        with open(out, newline="") as fh:
            written = [float(r["coefficient"]) for r in csv.DictReader(fh)]
        assert np.array_equal(aggregate_and_solve(stats), written)


class TestUncertaintyCommand:
    def test_summary_csv(self, tmp_path, train_csv):
        out = tmp_path / "unc.csv"
        rc = main(["uncertainty", "--data", str(train_csv), "--target", "y",
                   "--draws", "64", "--level", "0.8", "--seed", "3",
                   "--out", str(out)])
        assert rc == 0
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 8
        for r in rows:
            assert float(r["lower"]) <= float(r["mean"]) <= float(r["upper"])

    def test_worker_flag_does_not_change_output(self, tmp_path, train_csv):
        texts = []
        for w in ("1", "4"):
            out = tmp_path / f"unc_{w}.csv"
            main(["uncertainty", "--data", str(train_csv), "--target", "y",
                  "--draws", "32", "--seed", "9", "--threads", w, "--out", str(out)])
            texts.append(out.read_text())
        assert texts[0] == texts[1]


class TestExperimentCommand:
    def config(self, tmp_path, **overrides):
        doc = {
            "name": "cli_exp",
            "kind": "logit",
            "n": 40,
            "n_reps": 3,
            "seed": {"root_seed": 77, "stream_id": 1},
        }
        doc.update(overrides)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc))
        return path

    def test_runs_and_writes_outputs(self, tmp_path):
        cfg = self.config(tmp_path)
        out_dir = tmp_path / "out"
        rc = main(["experiment", "--config", str(cfg), "--out", str(out_dir)])
        assert rc == 0
        assert (out_dir / "cli_exp.csv").exists()
        assert (out_dir / "cli_exp.txt").exists()

    def test_rerun_metric_columns_identical(self, tmp_path):
        cfg = self.config(tmp_path)
        texts = []
        for d in ("o1", "o2"):
            out_dir = tmp_path / d
            main(["experiment", "--config", str(cfg), "--out", str(out_dir)])
            lines = (out_dir / "cli_exp.csv").read_text().strip().splitlines()
            header = lines[0].split(",")
            keep = [i for i, c in enumerate(header) if not c.startswith("time_")]
            texts.append([",".join(line.split(",")[i] for i in keep) for line in lines])
        assert texts[0] == texts[1]

    def test_bad_config_exits_2(self, tmp_path, capsys):
        cfg = self.config(tmp_path, bogus=1)
        rc = main(["experiment", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "$.bogus" in capsys.readouterr().err


class TestSensitivityAndSearch:
    def test_sensitivity_csv(self, tmp_path, train_csv):
        test_csv = tmp_path / "test.csv"
        main(["generate", "--kind", "logistic", "--n", "80", "--seed", "6",
              "--out", str(test_csv)])
        out = tmp_path / "grid.csv"
        rc = main(["sensitivity", "--train", str(train_csv), "--test", str(test_csv),
                   "--target", "y", "--a-values", "0.1,0.5", "--b-values", "0.1,0.5",
                   "--out", str(out)])
        assert rc == 0
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 4

    def test_search_trace(self, tmp_path, train_csv):
        val_csv = tmp_path / "val.csv"
        main(["generate", "--kind", "logistic", "--n", "80", "--seed", "8",
              "--out", str(val_csv)])
        out = tmp_path / "trace.csv"
        rc = main(["search", "--train", str(train_csv), "--val", str(val_csv),
                   "--target", "y", "--budget", "6", "--seed", "12", "--out", str(out)])
        assert rc == 0
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 6


    def test_search_bad_disbursement_is_a_typed_error(self, tmp_path, capsys):
        val_csv = tmp_path / "val.csv"
        rows = [[0.1 * i, 1.0 - 0.02 * i, i % 2, 100.0 if i != 4 else -5.0] for i in range(20)]
        write_csv(val_csv, ["x1", "x2", "y", "amt"], rows)
        train = tmp_path / "train2.csv"
        write_csv(train, ["x1", "x2", "y"], [[0.1 * i, 0.5 + 0.03 * i, (i // 2) % 2] for i in range(30)])
        out = tmp_path / "trace.csv"
        rc = main(["search", "--train", str(train), "--val", str(val_csv), "--target", "y",
                   "--objective", "utility", "--disbursement", "amt", "--budget", "4",
                   "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: disbursement must be finite and >= 0; offending index 4: -5.0")
        assert not out.exists()


class TestGenerate:
    @pytest.mark.parametrize("kind,cols", [
        ("poisson", 9), ("dmr", 7), ("sinc", 2), ("circular", 3),
    ])
    def test_kinds_write_expected_columns(self, tmp_path, kind, cols):
        out = tmp_path / f"{kind}.csv"
        rc = main(["generate", "--kind", kind, "--n", "30", "--out", str(out)])
        assert rc == 0
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert len(rows[0]) == cols
        assert len(rows) == 31


class TestNonFiniteShapeFlag:
    @pytest.mark.parametrize("family", ["logit", "probit"])
    def test_tiny_b_exits_2_in_both_binary_families(self, train_csv, tmp_path, capsys, family):
        model_path = tmp_path / "m.json"
        rc = main(["fit", "--train", str(train_csv), "--target", "y", "--family", family,
                   "--a", "1", "--b", "1e-17", "--model-out", str(model_path)])
        assert rc == 2
        assert capsys.readouterr().err == "error: need y + a > 0 and b + 1 - y > 0, got 2.0, 0.0\n"
        assert not model_path.exists()

    def test_infinite_a_exits_2(self, train_csv, tmp_path, capsys):
        model_path = tmp_path / "m.json"
        rc = main(["fit", "--train", str(train_csv), "--target", "y",
                   "--a", "inf", "--b", "0.5", "--model-out", str(model_path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "a=inf" in err
        assert not model_path.exists()

    def test_underflowing_poisson_ratio_exits_2(self, tmp_path, capsys):
        train = tmp_path / "counts.csv"
        write_csv(train, ["x1", "y"], [[0.5, 0], [1.5, 2], [-1.0, 1], [2.0, 4]])
        model_path = tmp_path / "m.json"
        rc = main(["fit", "--train", str(train), "--target", "y", "--family", "poisson",
                   "--a", "1e-300", "--b", "1e300", "--model-out", str(model_path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err == "error: need (y + a) / (1 + b) in (0, inf), got a=1e-300, b=1e+300\n"
        assert not model_path.exists()


def dmr_columns(n, rng):
    X, counts, _ = gen_dmr(n, 3, 4, rng)
    return X[:, 1:], counts.counts  # the CSV drops the intercept column


# (X, y) as `jacobiprior generate --kind <kind>` draws them with its default flags.
GENERATORS = {
    "logistic": lambda n, rng: gen_logistic(n, EXP_LOGISTIC_BETA, 3.0, 0.5, rng),
    "poisson": lambda n, rng: gen_poisson(n, EXP_POISSON_BETA, 1.0, 0.5, rng),
    "dmr": dmr_columns,
    "sinc": lambda n, rng: gen_sinc(n, rng, noise_sd=0.1),
    "circular": lambda n, rng: gen_circular(n, rng),
}


class TestCsvOutput:
    """Every CSV the CLI writes ends lines in LF, and its cells are the library's values."""

    @pytest.fixture()
    def inputs(self, tmp_path, train_csv):
        val, labelled, glm, mc = (tmp_path / f for f in ("val.csv", "mc.csv", "glm.json", "mc.json"))
        main(["generate", "--kind", "logistic", "--n", "80", "--seed", "6", "--out", str(val)])
        rng = np.random.default_rng(0)
        write_csv(labelled, ["x1", "x2", "c"], [
            [repr(float(a)), repr(float(b)), "in,side" if a > 0.5 else ("green" if b > 0.5 else "blue")]
            for a, b in rng.random((60, 2))
        ])
        main(["fit", "--train", str(train_csv), "--target", "y", "--model-out", str(glm)])
        main(["fit", "--train", str(labelled), "--family", "multinomial", "--classes", "c",
              "--model-out", str(mc)])
        config = tmp_path / "exp.json"
        config.write_text(json.dumps({"name": "e", "kind": "logit", "n": 40, "n_reps": 2}))
        return {"train": train_csv, "val": val, "labelled": labelled, "glm": glm, "mc": mc,
                "config": config}

    def expected(self, command, f):
        """(argv without --out, rows the library gives for the same inputs)."""
        train = load_csv_dataset(f["train"], target="y")
        val = load_csv_dataset(f["val"], target="y")
        hyper, seed = default_hyper("logit"), SeedSpec(0, 0)
        xy = ["--target", "y"]
        if command in ("predict", "predict-multinomial"):
            model, data = (f["glm"], f["train"]) if command == "predict" else (f["mc"], f["labelled"])
            stored = StoredModel.load(model)
            preds = stored.predict_mean(load_csv_dataset(data, features=stored.feature_names))
            rows = [[p] for p in preds] if preds.ndim == 1 else [
                list(p) + [stored.class_names[int(np.argmax(p))]] for p in preds
            ]
            return ["predict", "--model", str(model), "--data", str(data)], rows
        if command == "sensitivity":
            grid = sensitivity_grid(train.X, train.y, val.X, val.y, "logit", [0.1, 0.5], [0.2, 0.7])
            rows = [[a, b, grid.scores[i, j]] for i, a in enumerate(grid.a_values)
                    for j, b in enumerate(grid.b_values)]
            return ["sensitivity", "--train", str(f["train"]), "--test", str(f["val"]), *xy,
                    "--a-values", "0.1,0.5", "--b-values", "0.2,0.7"], rows
        if command == "search":
            result = stochastic_search(train.X, train.y, val.X, val.y, "logit", budget=6, seed=seed)
            return ["search", "--train", str(f["train"]), "--val", str(f["val"]), *xy,
                    "--budget", "6"], [list(t) for t in result.trace]
        if command == "shards":
            beta = run_harness(train.X, train.y, 3, "logit", hyper, seed=seed).beta
            return ["shards", "--data", str(f["train"]), *xy, "--shards", "3"], [
                list(r) for r in zip(train.feature_names, beta)
            ]
        if command == "uncertainty":
            draws = sample_beta(train.X, train.y, "logit", hyper, n_draws=32, seed=seed)
            s = summarize(draws)
            return ["uncertainty", "--data", str(f["train"]), *xy, "--draws", "32"], [
                list(r) for r in zip(train.feature_names, s.mean, s.sd, s.lower, s.upper)
            ]
        if command == "experiment":
            report = run_experiment(ExperimentConfig.from_dict(json.loads(f["config"].read_text())))
            rows = [[None if c in TIMING_COLUMNS else getattr(r, c) for c in REPORT_COLUMNS]
                    for r in report.rows]
            return ["experiment", "--config", str(f["config"])], rows
        kind = command.split("-")[1]
        X, y = GENERATORS[kind](30, derive_rng(SeedSpec(0, 0), 0))
        y = np.asarray(y).reshape(30, -1)
        rows = [list(x) + [int(c) for c in cs] for x, cs in zip(X, y)]
        return ["generate", "--kind", kind, "--n", "30"], rows

    @pytest.mark.parametrize("command", [
        "predict", "predict-multinomial", "sensitivity", "search", "shards", "uncertainty",
        "experiment", *(f"generate-{kind}" for kind in GENERATORS),
    ])
    def test_lf_line_ends_and_cells_equal_library_values(self, tmp_path, inputs, command):
        argv, expected = self.expected(command, inputs)
        out = tmp_path / "out"
        assert main(argv + ["--out", str(out)]) == 0
        path = out / "e.csv" if command == "experiment" else out
        assert b"\r" not in path.read_bytes()
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))[1:]
        assert len(rows) == len(expected)
        for got, want in zip(rows, expected):
            assert len(got) == len(want)
            for cell, value in zip(got, want):
                if isinstance(value, (str, int)):
                    assert cell == str(value)
                elif value is not None:  # a timing column
                    assert np.float64(cell).tobytes() == np.float64(value).tobytes(), (cell, value)


@settings(max_examples=60, deadline=None)
@given(hnp.arrays(
    np.float64,
    hnp.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=6),
    elements=st.one_of(
        st.floats(allow_nan=False, allow_infinity=False),
        st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308]),
    ),
))
def test_write_then_load_round_trips_exactly(tmp_path_factory, M):
    path = tmp_path_factory.mktemp("rt") / "m.csv"
    names = [f"c{j}" for j in range(M.shape[1])]
    modelio.write_csv(path, names, M.tolist())
    data = load_csv_dataset(path)
    assert data.feature_names == names
    assert np.array_equal(data.X, M) and np.array_equal(np.signbit(data.X), np.signbit(M))


def test_byte_order_mark_is_skipped(tmp_path):
    # A spreadsheet's "CSV UTF-8" export starts with a BOM, here before the target column.
    path = tmp_path / "bom.csv"
    path.write_bytes("y,x1,x2\n1,0.5,-1.0\n0,2.0,0.25\n".encode("utf-8-sig"))
    data = load_csv_dataset(path, target="y")
    assert data.feature_names == ["x1", "x2"]
    np.testing.assert_array_equal(data.y, [1.0, 0.0])
    np.testing.assert_array_equal(data.X, [[0.5, -1.0], [2.0, 0.25]])


class TestFreshInterpreter:
    """The CLI as it is run: one new process per call."""

    def test_import_loads_only_what_fit_and_predict_run(self, fresh_python):
        loaded = fresh_python("-c", "import sys, jacobiprior.cli; print(*sys.modules)").split()
        unused = [f"jacobiprior.{m}" for m in ("gp", "hyper", "mc", "mle", "partition", "simlab")]
        assert [m for m in loaded if m in unused or m.split(".")[0] == "scipy"] == []

    # Runs one CLI call, then prints the scipy modules it loaded as its last line.
    RUN_LISTING_SCIPY = (
        "import sys; from jacobiprior.cli import main; rc = main(sys.argv[1:]); "
        "print(*sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')); sys.exit(rc)"
    )

    @pytest.mark.parametrize("family", ["logit", "poisson", "multinomial"])
    def test_predict_loads_no_scipy_and_fit_no_scipy_special(self, family, tmp_path, fresh_python, capsys):
        kind, response = {
            "logit": ("logistic", ["--target", "y"]),
            "poisson": ("poisson", ["--target", "y", "--family", "poisson"]),
            "multinomial": ("circular", ["--family", "multinomial", "--classes", "y"]),
        }[family]
        data, model = tmp_path / "data.csv", tmp_path / "model.json"
        assert main(["generate", "--kind", kind, "--n", "60", "--seed", "4", "--out", str(data)]) == 0
        printed = fresh_python("-c", self.RUN_LISTING_SCIPY, "fit", "--train", str(data), *response,
                               "--model-out", str(model))
        fitted = printed.splitlines()[-1].split()
        assert fitted == ["scipy.linalg._flapack"]  # one extension module, no scipy package
        predict_args = ["predict", "--model", str(model), "--data", str(data), "--out"]
        printed = fresh_python("-c", self.RUN_LISTING_SCIPY, *predict_args, str(tmp_path / "fresh.csv"))
        assert printed.splitlines()[-1] == ""
        assert main(predict_args + [str(tmp_path / "here.csv")]) == 0
        capsys.readouterr()
        assert (tmp_path / "fresh.csv").read_bytes() == (tmp_path / "here.csv").read_bytes()

    def test_generate_fit_predict_match_in_process(self, tmp_path, fresh_python, capsys):
        steps = [
            ["generate", "--kind", "logistic", "--n", "100", "--seed", "3", "--out", "{}/data.csv"],
            ["fit", "--train", "{}/data.csv", "--target", "y", "--model-out", "{}/model.json"],
            ["predict", "--model", "{}/model.json", "--data", "{}/data.csv", "--out", "{}/preds.csv"],
        ]
        fresh, here = tmp_path / "fresh", tmp_path / "here"
        fresh.mkdir()
        here.mkdir()
        for step in steps:
            printed = fresh_python("-m", "jacobiprior.cli", *(arg.format(fresh) for arg in step))
            assert main([arg.format(here) for arg in step]) == 0
            assert printed.replace(str(fresh), "D") == capsys.readouterr().out.replace(str(here), "D")
        for name in ("data.csv", "model.json", "preds.csv"):
            assert (fresh / name).read_bytes() == (here / name).read_bytes()
