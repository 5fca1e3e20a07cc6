"""Evaluation metrics used by the benchmark harness and the CLI."""

from __future__ import annotations

import numpy as np

from ..errors import DimensionMismatchError, InsufficientDataError, is_count


def _paired(y, p_hat):
    y = np.asarray(y, dtype=float)
    p_hat = np.asarray(p_hat, dtype=float)
    if y.shape != p_hat.shape:
        raise DimensionMismatchError(f"shape mismatch: {y.shape} vs {p_hat.shape}")
    return y, p_hat


def surrogate_rmse(y, p_hat) -> float:
    """Root mean squared deviation between responses and mean-scale predictions.

    For binary y this penalizes low-confidence correct predictions: a
    correct label predicted at 0.7 still contributes 0.3 of error.
    """
    y, p_hat = _paired(y, p_hat)
    return float(np.sqrt(((y - p_hat) ** 2).mean()))


def beta_rmse(beta_hat, beta0, kind: str = "per_coefficient") -> float:
    """Coefficient recovery error.

    ``per_coefficient`` (default) is the root mean square over
    coefficients, i.e. the Euclidean distance divided by sqrt(p);
    ``euclidean`` is the plain distance.
    """
    beta_hat, beta0 = _paired(beta_hat, beta0)
    if kind == "per_coefficient":
        return float(np.sqrt(np.mean((beta_hat - beta0) ** 2)))
    if kind == "euclidean":
        return float(np.linalg.norm(beta_hat - beta0))
    raise ValueError(f"unknown kind {kind!r}")


def accuracy(y, p_hat, threshold: float = 0.5) -> float:
    """Binary accuracy of thresholded probability predictions."""
    y, p_hat = _paired(y, p_hat)
    return float(np.mean((p_hat >= threshold) == (y == 1.0)))


def multiclass_accuracy(labels, predicted) -> float:
    labels = np.asarray(labels)
    predicted = np.asarray(predicted)
    if labels.shape != predicted.shape:
        raise DimensionMismatchError(f"shape mismatch: {labels.shape} vs {predicted.shape}")
    return float(np.mean(labels == predicted))


def proportion_rmse(counts: np.ndarray, probs: np.ndarray) -> float:
    """RMSE between observed category proportions and predicted probabilities.

    Rows with a zero count total carry no proportion information and
    are excluded (from both sides, by row index).
    """
    counts = np.asarray(counts, dtype=float)
    probs = np.asarray(probs, dtype=float)
    if counts.shape != probs.shape:
        raise DimensionMismatchError(f"shape mismatch: {counts.shape} vs {probs.shape}")
    totals = counts.sum(axis=1)
    keep = totals > 0
    if not np.any(keep):
        raise InsufficientDataError("all rows have zero count totals")
    observed = counts[keep] / totals[keep, None]
    return float(np.sqrt(np.mean((observed - probs[keep]) ** 2)))


# Loan-decision payoff fractions applied to the gross disbursement,
# keyed by (defaulted, approved).
UTILITY_CELLS = {
    (1, 0): 0.1,
    (1, 1): -0.7,
    (0, 0): -0.1,
    (0, 1): 0.5,
}


def utility_total(y_default, approve, disbursement) -> float:
    """Total decision utility over loans, additive per loan."""
    y_default = np.asarray(y_default, dtype=float)
    approve = np.asarray(approve, dtype=float)
    v = np.asarray(disbursement, dtype=float)
    if not (y_default.shape == approve.shape == v.shape):
        raise DimensionMismatchError("y_default, approve, disbursement must share shape")
    if np.any(v < 0):
        raise ValueError("disbursement must be non-negative")
    payoff = np.where(
        y_default == 1.0,
        np.where(approve == 1.0, UTILITY_CELLS[1, 1], UTILITY_CELLS[1, 0]),
        np.where(approve == 1.0, UTILITY_CELLS[0, 1], UTILITY_CELLS[0, 0]),
    )
    return float(np.sum(payoff * v))


def bootstrap_median_se(values, rng, n_boot: int = 1000) -> float:
    """SD of n_boot resampled medians; 0 by definition for a single resample."""
    values = np.asarray(values, dtype=float)
    if values.shape[0] < 2:
        raise InsufficientDataError("need at least 2 values")
    if not is_count(n_boot):
        raise InsufficientDataError(f"need an integer n_boot >= 1, got {n_boot!r}")
    n = values.shape[0]
    medians = np.median(values[rng.integers(0, n, size=(n_boot, n))], axis=1)
    if n_boot < 2 or np.ptp(medians) == 0.0:
        return 0.0
    return float(np.std(medians, ddof=1))
