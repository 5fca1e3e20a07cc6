"""CSV dataset ingestion and JSON model persistence for the CLI.

The CSV dialect is deliberately strict: comma-separated, UTF-8, '.'
decimal point, header row required, no missing values. Model files are
JSON; coefficient values survive a save/load round trip bit-exactly
because Python renders floats with shortest-exact repr.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field

import numpy as np

from .dmr import CountTable, DmrModel, predict_class, predict_proba
from .errors import ConfigError, MissingFeatureError
from .glm import FittedGLM, JacobiHyper, inverse_link
from .linalg import as_matrix, stable_matvec

MODEL_FORMAT = "jacobiprior-model"
MODEL_VERSION = 1


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


def labels_to_counts(labels: list) -> tuple[CountTable, list]:
    """One-hot counts for string class labels; classes sorted lexically."""
    class_names = sorted(set(labels))
    index = {c: k for k, c in enumerate(class_names)}
    table = CountTable.from_labels([index[c] for c in labels], n_classes=len(class_names))
    return table, class_names


@dataclass
class StoredModel:
    """On-disk form of a fitted model plus the metadata predict needs."""

    kind: str  # "glm" or "dmr"
    family: str
    hyper: JacobiHyper
    a_effective: float
    b_effective: float
    feature_names: list
    n_train: int
    beta: np.ndarray | None = None  # glm
    betas: np.ndarray | None = None  # dmr, p x K
    class_names: list = field(default_factory=list)

    @classmethod
    def from_glm(cls, model: FittedGLM, feature_names) -> "StoredModel":
        a, b = model.hyper.resolve(model.n_train)
        return cls(
            kind="glm",
            family=model.family,
            hyper=model.hyper,
            a_effective=a,
            b_effective=b,
            feature_names=list(feature_names),
            n_train=model.n_train,
            beta=model.beta,
        )

    @classmethod
    def from_dmr(cls, model: DmrModel, feature_names, class_names) -> "StoredModel":
        a, b = model.hyper.resolve(model.n_train)
        return cls(
            kind="dmr",
            family="multinomial",
            hyper=model.hyper,
            a_effective=a,
            b_effective=b,
            feature_names=list(feature_names),
            n_train=model.n_train,
            betas=model.betas,
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
        if self.kind == "glm":
            doc["beta"] = self.beta.tolist()
        else:
            doc["betas"] = self.betas.tolist()
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
            kind = doc["kind"]
            if kind not in ("glm", "dmr"):
                raise ConfigError(f"unknown model kind {kind!r}")
            key = "beta" if kind == "glm" else "betas"
            coef = np.asarray(doc[key], dtype=float)
            feature_names = list(doc["feature_names"])
            if coef.ndim != (1 if kind == "glm" else 2) or coef.shape[0] != len(feature_names):
                raise ConfigError(
                    f"key {key!r} has shape {coef.shape}, expected one row per "
                    f"feature name ({len(feature_names)})"
                )
            common = dict(
                kind=kind,
                family=doc["family"],
                hyper=JacobiHyper(doc["a"], doc["b"], doc["schedule"]),
                a_effective=doc["a_effective"],
                b_effective=doc["b_effective"],
                feature_names=feature_names,
                n_train=int(doc["n_train"]),
            )
            if kind == "glm":
                return cls(beta=coef, **common)
            return cls(betas=coef, class_names=list(doc["class_names"]), **common)
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
        X0 = self.design_from(data)
        if self.kind == "glm":
            return inverse_link(stable_matvec(X0, self.beta), self.family)
        model = DmrModel(betas=self.betas, hyper=self.hyper, n_train=self.n_train)
        return predict_proba(model, X0)

    def predict_class_names(self, data: CsvDataset) -> list:
        model = DmrModel(betas=self.betas, hyper=self.hyper, n_train=self.n_train)
        idx = predict_class(model, self.design_from(data))
        return [self.class_names[k] for k in idx]
