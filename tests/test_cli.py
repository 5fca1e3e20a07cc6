import csv
import json

import numpy as np
import pytest

from jacobiprior.cli import main
from jacobiprior.glm import JacobiHyper, fit_jacobi, predict
from jacobiprior.modelio import StoredModel, load_csv_dataset
from jacobiprior.partition import PartialStats, aggregate_and_solve


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

    def test_multiclass_fit_predict(self, tmp_path):
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

    @pytest.mark.parametrize("text", ["nan", "inf", "-inf"])
    def test_non_finite_value_reports_row_and_column(self, tmp_path, capsys, text):
        bad = tmp_path / "bad.csv"
        write_csv(bad, ["x1", "x2", "y"], [["0.5", "1.0", "1"], ["0.25", text, "0"]])
        rc = main(["fit", "--train", str(bad), "--target", "y",
                   "--model-out", str(tmp_path / "m.json")])
        assert rc == 2
        assert "row 2: column 'x2'" in capsys.readouterr().err

    def test_flag_the_subcommand_does_not_read_exits_2(self, train_csv, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["fit", "--train", str(train_csv), "--target", "y", "--threads", "2",
                  "--model-out", str(tmp_path / "m.json")])
        assert exc.value.code == 2


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

    def test_beta_rows_must_match_feature_names(self, tmp_path, train_csv, model_doc, capsys):
        model_doc["beta"] = model_doc["beta"][:-1]
        rc = self.predict_with(tmp_path, train_csv, json.dumps(model_doc))
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error: ") and "broken.json" in err and "'beta'" in err


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
                   "--seed", "3", "--emit-partials", str(dump), "--out", str(out)])
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
    def test_infinite_a_exits_2(self, train_csv, tmp_path, capsys):
        model_path = tmp_path / "m.json"
        rc = main(["fit", "--train", str(train_csv), "--target", "y",
                   "--a", "inf", "--b", "0.5", "--model-out", str(model_path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "a=inf" in err
        assert not model_path.exists()
