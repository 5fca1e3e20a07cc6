"""Fisher-scoring (IRLS) maximum likelihood for logistic and Poisson regression.

This is the internal baseline the benchmark harness compares against.
Any standard convergent IRLS qualifies; step-halving on a deviance
increase keeps it convergent, and a coefficient-norm cap converts
perfect separation into an explicit error instead of garbage medians.

At n = 100 a fit costs its per-iteration numpy calls more than its
flops, so the loop makes as few as it can without moving a bit: the
accepted trial's ``X @ beta`` is the next iteration's linear predictor,
the Poisson deviance's ``xlogy(y, y)`` is formed once per fit, and the
norm cap is ``math.sqrt(beta @ beta)``, which is what ``np.linalg.norm``
computes for a vector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import expit, xlogy

from .errors import DimensionMismatchError, InvalidResponseError, RankDeficientError, SeparationError
from .glm import check_response
from .linalg import as_array, as_matrix

TOL = 1e-8  # IRLS has converged when the score's max-abs is <= TOL
MAX_ITER = 100  # IRLS steps before fit_mle returns converged=False
SEPARATION_LIMIT = 1e4  # a coefficient norm above this raises SeparationError


@dataclass
class MleFit:
    beta: np.ndarray
    converged: bool
    iterations: int
    deviance: float


def _deviance(y, family: str):
    """-2 loglik of the responses y as a function of eta; the saturated loglik is 0 for a
    Bernoulli y and xlogy(y, y) for counts, formed once per fit."""
    if family == "logit":
        return lambda eta: 2.0 * float((np.logaddexp(0.0, eta) - y * eta).sum())
    ylogy = xlogy(y, y)
    return lambda eta: 2.0 * float((ylogy - y * eta - y + np.exp(eta)).sum())


def _intake(X, y, family: str, caller: str):  # X, then y against its rows, then the family
    X = as_matrix(X)
    y = check_response(y, family, X.shape[0], (1,))
    if family not in ("logit", "poisson"):
        raise InvalidResponseError(f"{caller} supports logit and poisson, got {family!r}")
    return X, y


def fit_mle(X, y, family: str) -> MleFit:
    """IRLS until the score's max-abs is <= TOL or MAX_ITER is hit.

    Raises SeparationError when the coefficient norm exceeds
    ``SEPARATION_LIMIT`` during iteration (perfect separation for the
    logit family, or a wildly misspecified Poisson fit).
    """
    X, y = _intake(X, y, family, "fit_mle")
    n, p = X.shape
    if n < p:
        raise RankDeficientError(f"need n >= p, got n={n} < p={p}")
    deviance = _deviance(y, family)

    beta = np.zeros(p)
    eta = X @ beta
    dev = deviance(eta)
    converged = False
    iterations = 0
    for iterations in range(1, MAX_ITER + 1):
        if family == "logit":
            mu = expit(eta)
            w = mu * (1.0 - mu)
            # Every observation saturated AND near-zero deviance means the
            # current hyperplane classifies the labels perfectly, i.e. the
            # data are separated; the score criterion would otherwise
            # declare this a converged fit. (A single confidently wrong
            # point contributes >= 32 to the deviance, so dev < 1 rules
            # out transiently saturated misfits.)
            if iterations > 1 and w.max() < 1e-7 and dev < 1.0:
                raise SeparationError(
                    "all fitted probabilities saturated at 0 or 1 (perfect separation)"
                )
        else:
            mu = np.exp(eta)
            w = mu
        score = X.T @ (y - mu)
        if np.abs(score).max() <= TOL:
            converged = True
            iterations -= 1
            break
        Xw = X * w[:, None]
        A = X.T @ Xw
        rhs = Xw.T @ eta + score
        try:
            beta_new = np.linalg.solve(A, rhs)
        except np.linalg.LinAlgError as exc:
            raise RankDeficientError(f"weighted normal equations singular: {exc}") from exc
        # Step-halving keeps the deviance non-increasing; the accepted trial's
        # linear predictor is the next iteration's eta.
        step = beta_new - beta
        trial = beta + step
        eta = X @ trial
        dev_new = deviance(eta)
        halvings = 0
        while dev_new > dev + 1e-10 and halvings < 30:
            step *= 0.5
            trial = beta + step
            eta = X @ trial
            dev_new = deviance(eta)
            halvings += 1
        beta = trial
        norm = math.sqrt(beta @ beta)
        if norm > SEPARATION_LIMIT:
            raise SeparationError(f"coefficient norm {norm:.3e} exceeded {SEPARATION_LIMIT:.0e}")
        dev = dev_new
    return MleFit(beta=beta, converged=converged, iterations=iterations, deviance=dev)


def mle_score(X, y, beta, family: str) -> np.ndarray:
    """Gradient of the log-likelihood at beta; zero at the optimum. X, y and the family are
    checked as ``fit_mle`` checks them, then beta's length against X's columns."""
    X, y = _intake(X, y, family, "mle_score")
    beta = as_array(beta, 1, "beta")
    if beta.shape[0] != X.shape[1]:
        raise DimensionMismatchError(f"beta length {beta.shape[0]} != design columns {X.shape[1]}")
    eta = X @ beta
    mu = expit(eta) if family == "logit" else np.exp(eta)
    return X.T @ (y - mu)
