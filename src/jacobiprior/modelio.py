"""CSV dataset ingestion and JSON model persistence for the CLI.

The CSV dialect is deliberately strict: comma-separated, UTF-8, '.'
decimal point, header row required, no missing values. Model files are
JSON; coefficient values survive a save/load round trip bit-exactly
because Python renders floats with shortest-exact repr. A stored
``FittedGLM`` keeps its p-vector ``beta`` under the key ``beta`` (kind
``glm``), or its multinomial p x K ``beta`` under ``betas`` (kind ``dmr``).
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field

import numpy as np

from .dmr import softmax_rows
from .errors import ConfigError, MissingFeatureError
from .glm import FAMILIES, FittedGLM, JacobiHyper, inverse_link
from .linalg import as_matrix, stable_matvec

MODEL_FORMAT = "jacobiprior-model"
MODEL_VERSION = 1
KIND_OF_FAMILY = {**dict.fromkeys(FAMILIES, "glm"), "multinomial": "dmr"}


@dataclass
class CsvDataset:
    feature_names: list
    X: np.ndarray
    y: np.ndarray | None = None
    labels: list | None = None  # raw class labels for multiclass targets
    disbursement: np.ndarray | None = None

    @property
    def n(self) -> int:
        return self.X.shape[0]


def _parse_float(text: str, row: int, col: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise ConfigError(f"row {row}: column {col!r} has non-numeric value {text!r}") from None


def load_csv_dataset(
    path,
    target: str | None = None,
    classes: str | None = None,
    disbursement: str | None = None,
    features: list | None = None,
) -> CsvDataset:
    """Read a strict CSV file into a feature matrix plus optional columns.

    ``target`` names a numeric response column, ``classes`` a
    (possibly non-numeric) class label column, ``disbursement`` a
    numeric loan-amount column; the remaining columns are features
    unless ``features`` restricts them explicitly (columns outside the
    subset are ignored entirely). Missing and non-finite values (``nan``,
    ``inf``) are rejected with the offending row index and column.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ConfigError(f"{path}: empty file, header row required") from None
        header = [h.strip() for h in header]
        special = {c for c in (target, classes, disbursement) if c is not None}
        for col in special:
            if col not in header:
                raise ConfigError(f"{path}: column {col!r} not found in header {header}")
        if features is None:
            feature_names = [h for h in header if h not in special]
        else:
            missing = [f for f in features if f not in header]
            if missing:
                raise MissingFeatureError(f"data is missing feature column {missing[0]!r}")
            feature_names = list(features)
        if not feature_names:
            raise ConfigError(f"{path}: need at least one feature column")
        used = set(feature_names) | special
        rows, y, labels, v = [], [], [], []
        for i, rec in enumerate(reader, start=1):
            if len(rec) != len(header):
                raise ConfigError(f"row {i}: expected {len(header)} fields, got {len(rec)}")
            record = dict(zip(header, (c.strip() for c in rec)))
            empty = [k for k, val in record.items() if val == "" and k in used]
            if empty:
                raise ConfigError(f"row {i}: missing value in column {empty[0]!r}")
            rows.append([_parse_float(record[c], i, c) for c in feature_names])
            if target is not None:
                y.append(_parse_float(record[target], i, target))
            if classes is not None:
                labels.append(record[classes])
            if disbursement is not None:
                v.append(_parse_float(record[disbursement], i, disbursement))
    if not rows:
        raise ConfigError(f"{path}: no data rows")
    data = CsvDataset(
        feature_names=feature_names,
        X=np.asarray(rows, dtype=float),
        y=np.asarray(y, dtype=float) if target is not None else None,
        labels=labels if classes is not None else None,
        disbursement=np.asarray(v, dtype=float) if disbursement is not None else None,
    )
    names = feature_names + [c for c in (target, disbursement) if c is not None]
    parsed = np.column_stack([data.X] + [c for c in (data.y, data.disbursement) if c is not None])
    if not np.isfinite(parsed).all():
        # Rescan only on failure, to name the first offending cell.
        row, j = np.argwhere(~np.isfinite(parsed))[0]
        raise ConfigError(
            f"row {row + 1}: column {names[j]!r} has non-finite value {float(parsed[row, j])!r}"
        )
    return data


@dataclass
class StoredModel:
    """On-disk form of a fitted model plus the metadata predict needs."""

    family: str  # a GLM family, or "multinomial" for a p x K count fit
    hyper: JacobiHyper
    a_effective: float
    b_effective: float
    feature_names: list
    n_train: int
    beta: np.ndarray  # p-vector, or p x K (one column per class name)
    class_names: list = field(default_factory=list)

    @property
    def kind(self) -> str:
        return KIND_OF_FAMILY[self.family]

    @classmethod
    def from_glm(cls, model: FittedGLM, feature_names, class_names=()) -> "StoredModel":
        """A p x K fit is stored as a multinomial model over ``class_names``."""
        a, b = model.hyper.resolve(model.n_train)
        return cls(
            family="multinomial" if model.beta.ndim == 2 else model.family,
            hyper=model.hyper,
            a_effective=a,
            b_effective=b,
            feature_names=list(feature_names),
            n_train=model.n_train,
            beta=model.beta,
            class_names=list(class_names),
        )

    def to_json(self) -> dict:
        doc = {
            "format": MODEL_FORMAT,
            "version": MODEL_VERSION,
            "kind": self.kind,
            "family": self.family,
            "a": self.hyper.a,
            "b": self.hyper.b,
            "schedule": self.hyper.schedule,
            "a_effective": self.a_effective,
            "b_effective": self.b_effective,
            "feature_names": self.feature_names,
            "n_train": self.n_train,
        }
        doc["beta" if self.kind == "glm" else "betas"] = self.beta.tolist()
        if self.kind == "dmr":
            doc["class_names"] = self.class_names
        return doc

    @classmethod
    def from_json(cls, doc: dict) -> "StoredModel":
        if not isinstance(doc, dict):
            raise ConfigError("model file must hold a JSON object")
        if doc.get("format") != MODEL_FORMAT:
            raise ConfigError(f"not a {MODEL_FORMAT} file")
        if doc.get("version") != MODEL_VERSION:
            raise ConfigError(f"unsupported model version {doc.get('version')}")
        try:
            kind, family = doc["kind"], doc["family"]
            if KIND_OF_FAMILY.get(family) != kind:
                raise ConfigError(f"model kind {kind!r} does not match family {family!r}")
            key = "beta" if kind == "glm" else "betas"
            coef = np.asarray(doc[key], dtype=float)
            feature_names = list(doc["feature_names"])
            class_names = list(doc["class_names"]) if kind == "dmr" else []
            shape = (len(feature_names), len(class_names)) if kind == "dmr" else (len(feature_names),)
            if coef.shape != shape:
                raise ConfigError(
                    f"key {key!r} has shape {coef.shape}, expected {shape}: one row per "
                    "feature name and, for a multinomial model, one column per class name"
                )
            return cls(
                family=family,
                hyper=JacobiHyper(doc["a"], doc["b"], doc["schedule"]),
                a_effective=doc["a_effective"],
                b_effective=doc["b_effective"],
                feature_names=feature_names,
                n_train=int(doc["n_train"]),
                beta=coef,
                class_names=class_names,
            )
        except KeyError as exc:
            raise ConfigError(f"missing key {exc.args[0]!r}") from None
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"malformed value: {exc}") from None

    def save(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_json(), fh, indent=2)
            fh.write("\n")

    @classmethod
    def load(cls, path) -> "StoredModel":
        """Read a model file; a malformed file raises ConfigError naming it."""
        with open(path, encoding="utf-8") as fh:
            try:
                doc = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"{path}: invalid JSON: {exc}") from None
        try:
            return cls.from_json(doc)
        except ConfigError as exc:
            raise ConfigError(f"{path}: {exc}") from None

    def design_from(self, data: CsvDataset) -> np.ndarray:
        """Feature columns in model order, joined by name; extras ignored."""
        missing = [f for f in self.feature_names if f not in data.feature_names]
        if missing:
            raise MissingFeatureError(f"data is missing feature column {missing[0]!r}")
        idx = [data.feature_names.index(f) for f in self.feature_names]
        return as_matrix(data.X[:, idx])

    def predict_mean(self, data: CsvDataset) -> np.ndarray:
        """Mean-scale predictions; class probabilities (n x K) for multinomial."""
        eta = stable_matvec(self.design_from(data), self.beta)
        return softmax_rows(eta) if self.kind == "dmr" else inverse_link(eta, self.family)
