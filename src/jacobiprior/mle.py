"""Fisher-scoring (IRLS) maximum likelihood for logistic and Poisson regression.

This is the internal baseline the benchmark harness compares against.
Any standard convergent IRLS qualifies; step-halving on a deviance
increase keeps it convergent, and a coefficient-norm cap converts
perfect separation into an explicit error instead of garbage medians.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import expit, xlogy

from .errors import InvalidResponseError, RankDeficientError, SeparationError
from .glm import check_response
from .linalg import as_matrix

TOL = 1e-8  # IRLS has converged when the score's max-abs is <= TOL
MAX_ITER = 100  # IRLS steps before fit_mle returns converged=False
SEPARATION_LIMIT = 1e4  # a coefficient norm above this raises SeparationError


@dataclass
class MleFit:
    beta: np.ndarray
    converged: bool
    iterations: int
    deviance: float


def _logit_deviance(y, eta):
    # -2 loglik; saturated Bernoulli loglik is 0.
    return 2.0 * float(np.sum(np.logaddexp(0.0, eta) - y * eta))


def _poisson_deviance(y, eta):
    mu = np.exp(eta)
    return 2.0 * float(np.sum(xlogy(y, y) - y * eta - y + mu))


def fit_mle(X, y, family: str) -> MleFit:
    """IRLS until the score's max-abs is <= TOL or MAX_ITER is hit.

    Raises SeparationError when the coefficient norm exceeds
    ``SEPARATION_LIMIT`` during iteration (perfect separation for the
    logit family, or a wildly misspecified Poisson fit).
    """
    X = as_matrix(X)
    n, p = X.shape
    y = check_response(y, family, n, (1,))
    if family not in ("logit", "poisson"):
        raise InvalidResponseError(f"fit_mle supports logit and poisson, got {family!r}")
    if n < p:
        raise RankDeficientError(f"need n >= p, got n={n} < p={p}")
    deviance = _logit_deviance if family == "logit" else _poisson_deviance

    beta = np.zeros(p)
    eta = X @ beta
    dev = deviance(y, eta)
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
            if iterations > 1 and np.max(w) < 1e-7 and dev < 1.0:
                raise SeparationError(
                    "all fitted probabilities saturated at 0 or 1 (perfect separation)"
                )
        else:
            mu = np.exp(eta)
            w = mu
        score = X.T @ (y - mu)
        if np.max(np.abs(score)) <= TOL:
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
        # Step-halving keeps the deviance non-increasing.
        step = beta_new - beta
        dev_new = deviance(y, X @ (beta + step))
        halvings = 0
        while dev_new > dev + 1e-10 and halvings < 30:
            step *= 0.5
            dev_new = deviance(y, X @ (beta + step))
            halvings += 1
        beta = beta + step
        if np.linalg.norm(beta) > SEPARATION_LIMIT:
            raise SeparationError(
                f"coefficient norm {np.linalg.norm(beta):.3e} exceeded {SEPARATION_LIMIT:.0e}"
            )
        eta = X @ beta
        dev = dev_new
    return MleFit(beta=beta, converged=converged, iterations=iterations, deviance=dev)


def mle_score(X, y, beta, family: str) -> np.ndarray:
    """Gradient of the log-likelihood at beta; zero at the optimum."""
    X = as_matrix(X)
    eta = X @ np.asarray(beta, dtype=float)
    mu = expit(eta) if family == "logit" else np.exp(eta)
    return X.T @ (np.asarray(y, dtype=float) - mu)
