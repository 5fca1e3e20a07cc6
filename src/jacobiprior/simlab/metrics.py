"""Evaluation metrics used by the benchmark harness and the CLI."""

from __future__ import annotations

import numpy as np

from ..errors import (MAX_COUNT, ConfigError, DimensionMismatchError, InsufficientDataError,
                      InvalidResponseError, is_count)
from ..linalg import as_array


def _paired(y, p_hat, names=("y", "p_hat"), stack: bool = False):
    """(y, p_hat) as float arrays of one shape, a non-number named by ``names``; with
    ``stack``, p_hat may be a stack of such rows, each scored bit for bit as the row alone."""
    y, p_hat = as_array(y, None, names[0]), as_array(p_hat, None, names[1])
    if y.shape != (p_hat.shape[p_hat.ndim - y.ndim :] if stack else p_hat.shape):
        raise DimensionMismatchError(f"shape mismatch: {y.shape} vs {p_hat.shape}")
    return y, p_hat


def _per_row(score: np.ndarray):
    return float(score) if score.ndim == 0 else score


def surrogate_rmse(y, p_hat) -> float | np.ndarray:
    """Root mean squared deviation between responses and mean-scale predictions.

    For binary y this penalizes low-confidence correct predictions: a
    correct label predicted at 0.7 still contributes 0.3 of error.
    """
    y, p_hat = _paired(y, p_hat, stack=True)
    return _per_row(np.sqrt(((y - p_hat) ** 2).mean(axis=-1)))


def beta_rmse(beta_hat, beta0, kind: str = "per_coefficient") -> float:
    """Coefficient recovery error.

    ``per_coefficient`` (default) is the root mean square over
    coefficients, i.e. the Euclidean distance divided by sqrt(p);
    ``euclidean`` is the plain distance.
    """
    beta_hat, beta0 = _paired(beta_hat, beta0, ("beta_hat", "beta0"))
    if kind == "per_coefficient":
        return float(np.sqrt(np.mean((beta_hat - beta0) ** 2)))
    if kind == "euclidean":
        return float(np.linalg.norm(beta_hat - beta0))
    raise ConfigError(f"unknown kind {kind!r}")


def accuracy(y, p_hat, threshold: float = 0.5) -> float | np.ndarray:
    """Binary accuracy of thresholded probability predictions."""
    y, p_hat = _paired(y, p_hat, stack=True)
    return _per_row(np.mean((p_hat >= threshold) == (y == 1.0), axis=-1))


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
    counts, probs = _paired(as_array(counts, 2, "counts"), probs, ("counts", "probs"))
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


def check_disbursement(disbursement, rows: int) -> np.ndarray:
    """The loan amounts as ``rows`` finite values >= 0; the first bad one is named by index."""
    v = as_array(disbursement, 1, "disbursement")
    if v.shape[0] != rows:
        raise DimensionMismatchError(f"disbursement length {v.shape[0]} != rows {rows}")
    bad = np.flatnonzero(~np.isfinite(v) | (v < 0))
    if bad.size:
        i = bad[0]
        raise InvalidResponseError(f"disbursement must be finite and >= 0; offending index {i}: {v[i]}")
    return v


def utility_total(y_default, approve, disbursement) -> float | np.ndarray:
    """Total decision utility over loans, additive per loan; one total per row of ``approve``."""
    y_default, approve = _paired(as_array(y_default, 1, "y_default"), approve, ("y_default", "approve"),
                                 stack=True)
    v = check_disbursement(disbursement, y_default.shape[0])
    payoff = np.where(
        y_default == 1.0,
        np.where(approve == 1.0, UTILITY_CELLS[1, 1], UTILITY_CELLS[1, 0]),
        np.where(approve == 1.0, UTILITY_CELLS[0, 1], UTILITY_CELLS[0, 0]),
    )
    return _per_row(np.sum(payoff * v, axis=-1))


def bootstrap_median_se(values, rng, n_boot: int = 1000) -> float:
    """SD of n_boot resampled medians; 0 by definition for a single resample.

    Each resample is sorted and its median is the mean of its middle one or two
    entries, which is what ``np.median`` takes after its partition, so the medians
    are bit-identical to ``np.median``'s at about a sixth of the cost. A NaN sorts
    last, and a resample that holds one has a NaN median, as ``np.median`` gives.
    """
    values = np.asarray(values, dtype=float)
    if values.shape[0] < 2:
        raise InsufficientDataError("need at least 2 values")
    if not (is_count(n_boot) and n_boot <= MAX_COUNT):
        raise InsufficientDataError(f"need an integer n_boot in [1, {MAX_COUNT}], got {n_boot!r}")
    n = values.shape[0]
    resamples = values[rng.integers(0, n, size=(n_boot, n))]
    resamples.sort(axis=1)
    medians = np.mean(resamples[:, (n - 1) // 2 : n // 2 + 1], axis=1)
    medians[np.isnan(resamples[:, -1])] = np.nan
    if n_boot < 2 or np.ptp(medians) == 0.0:
        return 0.0
    return float(np.std(medians, ddof=1))
