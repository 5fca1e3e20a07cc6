"""Distributed multinomial regression on category counts.

The multinomial likelihood factorizes into K independent Poisson
regressions sharing the design, so a multinomial fit is ``fit_jacobi``
with the ``poisson`` family on the n x K count table: one count-mode
latent map of the table and one projection of that latent matrix
against one QR factorization, giving a ``FittedGLM`` with a p x K
``beta``. Prediction is a row-wise softmax over ``predict_linear``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import MAX_COUNT, DimensionMismatchError, InvalidResponseError, is_count
from .glm import FittedGLM, JacobiHyper, _fit, check_response, predict_linear
from .linalg import as_array


@dataclass
class CountTable:
    """n x K table of non-negative integer category counts."""

    counts: np.ndarray

    def __post_init__(self):
        self.counts = check_response(self.counts, "poisson", ndims=(2,))
        if self.n_classes < 2:
            raise DimensionMismatchError(f"counts must be n x K with K >= 2, got {self.counts.shape}")

    @property
    def n(self) -> int:
        return self.counts.shape[0]

    @property
    def n_classes(self) -> int:
        return self.counts.shape[1]

    @property
    def totals(self) -> np.ndarray:
        """Per-row count totals; zero rows are valid observations."""
        return self.counts.sum(axis=1)

    @classmethod
    def from_labels(cls, labels, n_classes: int | None = None) -> "CountTable":
        """One-hot table for single-label data (each row total is 1), n_classes by default
        the largest label + 1, below 2**31 (the most columns one LP64 LAPACK call takes)."""
        labels = check_response(labels, "poisson", ndims=(1,))  # names a label that is not a count
        if labels.shape[0] == 0:
            raise DimensionMismatchError("labels must be non-empty")
        k = int(labels.max()) + 1 if n_classes is None else n_classes
        if not (is_count(k, 2) and k <= MAX_COUNT):
            raise DimensionMismatchError(f"need an integer 2 <= n_classes < 2**31, got {k!r}")
        if labels.max() >= k:
            raise InvalidResponseError(f"label {int(labels.max())} out of range for {k} classes")
        table = np.zeros((labels.shape[0], k))
        table[np.arange(labels.shape[0]), labels.astype(int)] = 1.0
        return cls(table)


def fit_dmr(X, Y: CountTable, hyper: JacobiHyper | None = None) -> FittedGLM:
    """Fit K independent count regressions against a shared factorization.

    Column k of the p x K ``beta`` is exactly the single-family count fit
    on (X, Y[:, k]); the shared QR only saves work, it cannot change the
    answer.
    """
    X = as_array(X, 2, "X")  # Y was checked when made; here only its type and rows
    if not isinstance(Y, CountTable):
        raise InvalidResponseError(f"Y must be a CountTable, got {type(Y).__name__}")
    if Y.n != X.shape[0]:
        raise DimensionMismatchError(f"y length {Y.n} != design rows {X.shape[0]}")
    return _fit(X, Y.counts, "poisson", hyper)


def softmax_rows(eta: np.ndarray) -> np.ndarray:
    shifted = eta - eta.max(axis=1, keepdims=True)
    w = np.exp(shifted)
    return w / w.sum(axis=1, keepdims=True)


def predict_proba(model: FittedGLM, X0) -> np.ndarray:
    """Row-wise softmax of the n x K linear predictor; rows sum to 1."""
    if model.beta.ndim != 2:
        raise DimensionMismatchError(f"predict_proba needs a p x K beta, got {model.beta.shape}")
    return softmax_rows(predict_linear(model, X0))


def predict_class(model: FittedGLM, X0) -> np.ndarray:
    """Most probable class per row; ties break toward the lowest index."""
    return np.argmax(predict_proba(model, X0), axis=1)
