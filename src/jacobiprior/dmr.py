"""Distributed multinomial regression on category counts.

The multinomial likelihood factorizes into K independent Poisson
regressions sharing the design, so the whole fit is one count-mode
latent map of the n x K table followed by one projection of that
latent matrix against one QR factorization. Prediction is a row-wise
softmax over the per-class linear predictors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, InvalidResponseError
from .glm import JacobiHyper, check_response, default_hyper, latent_vector
from .linalg import LeastSquaresSolver, as_matrix, stable_matvec


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
        if labels.ndim != 1:
            raise DimensionMismatchError("labels must be 1-d")
        idx = labels.astype(int)
        if np.any(idx != labels) or np.any(idx < 0):
            raise InvalidResponseError("labels must be non-negative integers")
        k = int(idx.max()) + 1 if n_classes is None else n_classes
        if np.any(idx >= k):
            raise InvalidResponseError(f"label {idx.max()} out of range for {k} classes")
        table = np.zeros((labels.shape[0], k))
        table[np.arange(labels.shape[0]), idx] = 1.0
        return cls(table)


@dataclass
class DmrModel:
    """Per-class coefficient matrix; column k is the class-k Poisson fit."""

    betas: np.ndarray  # p x K
    hyper: JacobiHyper
    n_train: int
    eta_hat: np.ndarray | None = None  # n x K training latents; None when loaded from disk


def fit_dmr(X, Y: CountTable, hyper: JacobiHyper | None = None) -> DmrModel:
    """Fit K independent count regressions against a shared factorization.

    Column k of the result is exactly the single-family count fit on
    (X, Y[:, k]); the shared QR only saves work, it cannot change the
    answer.
    """
    solver = LeastSquaresSolver(X)
    if hyper is None:
        hyper = default_hyper("poisson")
    eta_hat = latent_vector(Y.counts, "poisson", hyper)
    return DmrModel(betas=solver.solve(eta_hat), hyper=hyper, n_train=solver.n, eta_hat=eta_hat)


def latent_matrix(model: DmrModel, X0) -> np.ndarray:
    X0 = as_matrix(X0, "X0")
    if X0.shape[1] != model.betas.shape[0]:
        raise DimensionMismatchError(
            f"X0 has {X0.shape[1]} columns, model expects {model.betas.shape[0]}"
        )
    return np.column_stack(
        [stable_matvec(X0, model.betas[:, k]) for k in range(model.betas.shape[1])]
    )


def softmax_rows(eta: np.ndarray) -> np.ndarray:
    shifted = eta - eta.max(axis=1, keepdims=True)
    w = np.exp(shifted)
    return w / w.sum(axis=1, keepdims=True)


def predict_proba(model: DmrModel, X0) -> np.ndarray:
    """Row-wise softmax of the latent matrix; rows sum to 1."""
    return softmax_rows(latent_matrix(model, X0))


def predict_class(model: DmrModel, X0) -> np.ndarray:
    """Most probable class per row; ties break toward the lowest index."""
    return np.argmax(predict_proba(model, X0), axis=1)
