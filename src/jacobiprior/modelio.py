"""CSV reading and writing, and JSON model persistence, for the CLI.

This is the one module that opens a file, and the one that knows the CSV dialect. Input
is strict: comma-separated, UTF-8 (a leading byte-order mark is skipped), '.' decimal
point, a header row of distinct names, no missing values. JSON is read by ``read_json``;
every file is written by ``write_text``, as UTF-8 with LF line ends, and CSV text comes
from ``csv_text`` alone, with csv-module quoting. Model files are JSON; coefficient values
survive a save/load round trip bit-exactly because Python renders floats with
shortest-exact repr. A stored ``FittedGLM`` keeps its p-vector ``beta`` under the key
``beta`` (kind ``glm``), or its multinomial p x K ``beta`` under ``betas`` (kind ``dmr``).
"""

from __future__ import annotations

import csv
import io
import json
from array import array
from dataclasses import dataclass, field

import numpy as np

from .dmr import predict_proba
from .errors import (
    ConfigError, DimensionMismatchError, InvalidHyperError, MissingFeatureError, is_count,
)
from .glm import FAMILIES, FittedGLM, JacobiHyper, predict
from .linalg import as_finite

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


def _cell(v) -> str:
    """The one cell rule: a string as it is, an integer by str, else a float by repr."""
    if isinstance(v, str):
        return v
    if isinstance(v, (int, np.integer)):
        return str(v)
    return repr(float(v))


def csv_text(header, rows) -> str:
    """The CSV text of a header and rows of cells (each written by ``_cell``)."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([_cell(v) for v in row] for row in rows)
    return buf.getvalue()


def write_text(path, text: str) -> None:
    """Write ``text`` to ``path`` as UTF-8, with no line-end translation."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(text)


def write_csv(path, header, rows) -> None:
    """Write ``csv_text(header, rows)`` to ``path``."""
    write_text(path, csv_text(header, rows))


def read_json(path):
    """The JSON document in ``path``; invalid JSON raises ConfigError naming the file."""
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: invalid JSON: {exc}") from None
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{path}: not UTF-8: {exc}") from None


def _row_error(i, header, rec, used, numeric) -> ConfigError:
    """The error for the first bad cell of data row i: empty, then non-numeric."""
    cells = dict(zip(header, (c.strip() for c in rec)))
    empty = [k for k, val in cells.items() if val == "" and k in used]
    if empty:
        return ConfigError(f"row {i}: missing value in column {empty[0]!r}")
    for col in numeric:
        try:
            float(cells[col])
        except ValueError:
            return ConfigError(f"row {i}: column {col!r} has non-numeric value {cells[col]!r}")


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
    subset are ignored entirely). Header names must be distinct.
    Missing and non-finite values (``nan``, ``inf``) are rejected with
    the offending row index and column. ``X``, ``y`` and ``disbursement``
    are column blocks of one float matrix, filled one row at a time.
    """
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:  # a leading BOM is dropped
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise ConfigError(f"{path}: empty file, header row required") from None
            header = [h.strip() for h in header]
            repeated = [h for j, h in enumerate(header) if h in header[:j]]
            if repeated:
                raise ConfigError(f"{path}: column {repeated[0]!r} appears more than once in header")
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
            numeric = feature_names + [c for c in (target, disbursement) if c is not None]
            cols = [header.index(c) for c in numeric]
            label = header.index(classes) if classes is not None else None
            values, labels = array("d"), []
            for i, rec in enumerate(reader, start=1):
                if len(rec) != len(header):
                    raise ConfigError(f"row {i}: expected {len(header)} fields, got {len(rec)}")
                try:
                    values.extend([float(rec[j]) for j in cols])
                except ValueError:
                    raise _row_error(i, header, rec, used, numeric) from None
                if label is not None:
                    labels.append(rec[label].strip())
                    if not labels[-1]:
                        raise _row_error(i, header, rec, used, numeric)
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8: {exc}") from None
    if not values:
        raise ConfigError(f"{path}: no data rows")
    matrix = np.frombuffer(values, dtype=float).reshape(-1, len(numeric))
    if not np.isfinite(matrix).all():
        # Rescan only on failure, to name the first offending cell.
        row, j = np.argwhere(~np.isfinite(matrix))[0]
        raise ConfigError(
            f"row {row + 1}: column {numeric[j]!r} has non-finite value {float(matrix[row, j])!r}"
        )
    p = len(feature_names)
    return CsvDataset(
        feature_names=feature_names,
        X=matrix[:, :p],
        y=matrix[:, p] if target is not None else None,
        labels=labels if classes is not None else None,
        disbursement=matrix[:, -1] if disbursement is not None else None,
    )


def _take(doc: dict, key: str, test, need: str):
    """doc[key] if it passes test, else a ConfigError naming the key."""
    if not test(value := doc[key]):
        raise ConfigError(f"key {key!r}: need {need}, got {value!r}")
    return value


def _names(least: int):
    """``_take``'s test and need for a list of ``least`` or more distinct strings."""
    return (lambda v: isinstance(v, list) and len(v) >= least and len(set(v)) == len(v)
            and all(isinstance(x, str) for x in v)), f"a list of {least} or more distinct strings"


@dataclass
class StoredModel(FittedGLM):
    """A ``FittedGLM`` plus the column and class names its model file records.

    A p x K fit is written as family ``"multinomial"`` over ``class_names``
    and read back as the ``poisson`` fit ``fit_dmr`` returns. The file holds
    no training latents, so a loaded model's ``eta_hat`` is empty.
    """

    feature_names: list = field(default_factory=list)
    class_names: list = field(default_factory=list)

    @property
    def kind(self) -> str:
        return "dmr" if self.beta.ndim == 2 else "glm"

    @classmethod
    def from_glm(cls, model: FittedGLM, feature_names, class_names=()) -> "StoredModel":
        return cls(model.beta, model.family, model.hyper, model.eta_hat, model.n_train,
                   list(feature_names), list(class_names))

    def to_json(self) -> dict:
        a, b = self.hyper.resolve(self.n_train)
        doc = {
            "format": MODEL_FORMAT,
            "version": MODEL_VERSION,
            "kind": self.kind,
            "family": "multinomial" if self.kind == "dmr" else self.family,
            "a": self.hyper.a,
            "b": self.hyper.b,
            "schedule": self.hyper.schedule,
            "a_effective": a,
            "b_effective": b,
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
            feature_names = _take(doc, "feature_names", *_names(1))  # as a fit writes them
            class_names = _take(doc, "class_names", *_names(2)) if kind == "dmr" else []
            shape = (len(feature_names), len(class_names)) if kind == "dmr" else (len(feature_names),)
            if coef.shape != shape:
                raise ConfigError(
                    f"key {key!r} has shape {coef.shape}, expected {shape}: one row per "
                    "feature name and, for a multinomial model, one column per class name"
                )
            try:
                as_finite(coef, coef.ndim, f"key {key!r}")
            except DimensionMismatchError as exc:
                raise ConfigError(str(exc)) from None
            for name in ("a", "b", "schedule"):  # each key alone through JacobiHyper's check
                try:
                    JacobiHyper(**{name: doc[name]})
                except InvalidHyperError as exc:
                    raise ConfigError(f"key {name!r}: {exc}") from None
            hyper = JacobiHyper(doc["a"], doc["b"], doc["schedule"])
            n_train = _take(doc, "n_train", is_count, "an integer >= 1")
            a_eff, b_eff = hyper.resolve(n_train)  # what to_json writes; anything else contradicts a, b
            for name, want in (("a_effective", a_eff), ("b_effective", b_eff)):
                _take(doc, name, lambda v: type(v) in (int, float) and v == want,
                      f"{want!r}, the {hyper.schedule} value for n_train {n_train}")
            return cls(coef, "poisson" if kind == "dmr" else family, hyper, np.empty(0), n_train,
                       feature_names, class_names)
        except KeyError as exc:
            raise ConfigError(f"missing key {exc.args[0]!r}") from None
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"malformed value: {exc}") from None

    def save(self, path):
        write_text(path, json.dumps(self.to_json(), indent=2) + "\n")

    @classmethod
    def load(cls, path) -> "StoredModel":
        """Read a model file; a malformed file raises ConfigError naming it."""
        doc = read_json(path)
        try:
            return cls.from_json(doc)
        except ConfigError as exc:
            raise ConfigError(f"{path}: {exc}") from None

    def design_from(self, data: CsvDataset) -> np.ndarray:
        """Feature columns in model order, joined by name; extras ignored."""
        missing = [f for f in self.feature_names if f not in data.feature_names]
        if missing:
            raise MissingFeatureError(f"data is missing feature column {missing[0]!r}")
        return data.X.take([data.feature_names.index(f) for f in self.feature_names], axis=1)

    def predict_mean(self, data: CsvDataset) -> np.ndarray:
        """Mean-scale predictions; class probabilities (n x K) for multinomial."""
        return (predict_proba if self.kind == "dmr" else predict)(self, self.design_from(data))
