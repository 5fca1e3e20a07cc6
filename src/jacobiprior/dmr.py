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

from .errors import DimensionMismatchError, InvalidResponseError
from .glm import FittedGLM, JacobiHyper, check_response, fit_jacobi, predict_linear


@dataclass
class CountTable:
    """n x K table of non-negative integer category counts."""

    counts: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.counts, dtype=float)
        if c.ndim != 2 or c.shape[1] < 2:
            raise DimensionMismatchError(f"counts must be n x K with K >= 2, got {c.shape}")
        check_response(c, "poisson")
        self.counts = c

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
        """One-hot table for single-label data (each row total is 1)."""
        labels = np.asarray(labels)
        if labels.ndim != 1 or labels.shape[0] == 0:
            raise DimensionMismatchError(f"labels must be 1-d and non-empty, got {labels.shape}")
        idx = labels.astype(int)
        if np.any(idx != labels) or np.any(idx < 0):
            raise InvalidResponseError("labels must be non-negative integers")
        k = int(idx.max()) + 1 if n_classes is None else n_classes
        if np.any(idx >= k):
            raise InvalidResponseError(f"label {idx.max()} out of range for {k} classes")
        table = np.zeros((labels.shape[0], k))
        table[np.arange(labels.shape[0]), idx] = 1.0
        return cls(table)


def fit_dmr(X, Y: CountTable, hyper: JacobiHyper | None = None) -> FittedGLM:
    """Fit K independent count regressions against a shared factorization.

    Column k of the p x K ``beta`` is exactly the single-family count fit
    on (X, Y[:, k]); the shared QR only saves work, it cannot change the
    answer.
    """
    return fit_jacobi(X, Y.counts, "poisson", hyper)


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
