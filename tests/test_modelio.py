"""modelio, the one module that opens a file: its text writer, its CSV intake and its
model-file checks."""

import json
import re

import numpy as np
import pytest

from jacobiprior.errors import ConfigError, MissingFeatureError
from jacobiprior.glm import JacobiHyper
from jacobiprior.modelio import CsvDataset, StoredModel, load_csv_dataset, write_text


def test_write_text_is_utf8_with_line_ends_as_given(tmp_path):
    path = tmp_path / "t.txt"
    write_text(path, "a,é\nb\r\nc")
    assert path.read_bytes() == "a,é\nb\r\nc".encode("utf-8")


def test_csv_needs_a_feature_column(tmp_path):
    path = tmp_path / "y.csv"
    path.write_text("y\n1\n0\n")
    with pytest.raises(ConfigError, match=f"^{re.escape(str(path))}: need at least one feature column$"):
        load_csv_dataset(path, target="y")


def stored():
    return StoredModel(np.array([0.5, -1.0]), "logit", JacobiHyper(0.5, 0.5), np.empty(0), 10,
                       ["x1", "x2"])


def test_prediction_needs_every_feature():
    data = CsvDataset(["x2", "x3"], np.ones((3, 2)))
    with pytest.raises(MissingFeatureError, match="^data is missing feature column 'x1'$"):
        stored().predict_mean(data)


# case -> (the model document, made from a valid one, and the ConfigError text from_json gives)
BAD_MODELS = {
    "a list": (lambda doc: [doc], "model file must hold a JSON object"),
    "other format": (lambda doc: {**doc, "format": "other-model"}, "not a jacobiprior-model file"),
    "version 2": (lambda doc: {**doc, "version": 2}, "unsupported model version 2"),
    "beta text": (lambda doc: {**doc, "beta": ["a", 1.0]},
                  "malformed value: could not convert string to float: 'a'"),
}


@pytest.mark.parametrize("case", sorted(BAD_MODELS))
def test_bad_model_file_is_one_config_error(tmp_path, case):
    edit, message = BAD_MODELS[case]
    doc = edit(stored().to_json())
    with pytest.raises(ConfigError) as raised:
        StoredModel.from_json(doc)
    assert str(raised.value) == message
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ConfigError) as raised:
        StoredModel.load(path)
    assert str(raised.value) == f"{path}: {message}"

