"""Seeded synthetic-data generators and contamination operators.

All generators take an explicit numpy Generator so callers control
stream derivation; nothing here touches global random state.
"""

from __future__ import annotations

import numpy as np
from scipy.special import expit

from ..dmr import CountTable, softmax_rows
from ..errors import ConfigError, RateOverflowError, real

# Benchmark coefficient vectors for the regression experiments.
EXP_LOGISTIC_BETA = np.array([3.0, 1.5, 0.0, 0.0, 2.0, 0.0, 0.0, 0.0])
EXP_POISSON_BETA = np.array([0.3, 0.15, 0.0, 0.0, 0.2, 0.0, 0.0, 0.0])

RATE_LIMIT = 1e6
DMR_SPARSITY = 0.5  # gen_dmr zeroes each coefficient with this probability
DMR_TOTAL_RATE = 10.0  # and draws row totals from Poisson(DMR_TOTAL_RATE)


def ar1_covariance(p: int, sigma: float, rho: float) -> np.ndarray:
    """Covariance sigma * rho^|i-j| over p features."""
    idx = np.arange(p)
    return sigma * rho ** np.abs(idx[:, None] - idx[None, :])


def gen_design(n: int, sigma: float, rho: float, p: int, rng) -> np.ndarray:
    """Zero-mean Gaussian design with AR(1)-style feature covariance."""
    L = np.linalg.cholesky(ar1_covariance(p, sigma, rho))
    return rng.standard_normal((n, p)) @ L.T


def gen_logistic(n: int, beta0, sigma: float, rho: float, rng):
    """Binary responses from an inverse-logit mean on a correlated design."""
    beta0 = np.asarray(beta0, dtype=float)
    X = gen_design(n, sigma, rho, beta0.shape[0], rng)
    p = expit(X @ beta0)
    y = (rng.random(n) < p).astype(float)
    return X, y


def gen_poisson(n: int, beta0, sigma: float, rho: float, rng):
    """Count responses with a log-link rate; errors out on absurd rates."""
    beta0 = np.asarray(beta0, dtype=float)
    X = gen_design(n, sigma, rho, beta0.shape[0], rng)
    rate = np.exp(X @ beta0)
    if rate.max() > RATE_LIMIT:
        raise RateOverflowError(f"rate {rate.max():.3e} exceeds {RATE_LIMIT:.0e}")
    y = rng.poisson(rate).astype(float)
    return X, y


def gen_dmr(n: int, n_features: int, n_classes: int, rng):
    """Multinomial count data with a sparse random coefficient matrix.

    Coefficients are standard normal, independently zeroed with
    probability DMR_SPARSITY. Features are uniform on (0, 1) with an
    intercept column; row totals are Poisson(DMR_TOTAL_RATE), so
    zero-total rows are possible and valid.
    """
    beta0 = rng.standard_normal((n_features + 1, n_classes))
    beta0[rng.random(beta0.shape) < DMR_SPARSITY] = 0.0
    X = np.column_stack([np.ones(n), rng.random((n, n_features))])
    probs = softmax_rows(X @ beta0)
    totals = rng.poisson(DMR_TOTAL_RATE, size=n)
    counts = np.empty((n, n_classes))
    for i in range(n):
        counts[i] = rng.multinomial(totals[i], probs[i])
    return X, CountTable(counts), beta0


def gen_sinc(n: int, rng, noise_sd: float = 0.1):
    """1-d threshold labels from a noisy sinc curve on (-15, 15)."""
    x = rng.uniform(-15.0, 15.0, n)
    z = np.sinc(x / np.pi) + (rng.normal(0.0, noise_sd, n) if noise_sd > 0 else 0.0)
    y = (z > 0).astype(float)
    return x[:, None], y


def gen_circular(n: int, rng):
    """Points in polar coordinates labeled by radius < 1."""
    r = rng.uniform(0.0, 2.0, n)
    theta = rng.uniform(-np.pi, np.pi, n)
    X = np.column_stack([r * np.sin(theta), r * np.cos(theta)])
    y = (r < 1.0).astype(float)
    return X, y


def _contamination_count(n: int, fraction: float) -> int:
    if not 0.0 <= (f := real(fraction)) <= 1.0:
        raise ConfigError(f"fraction must be in [0, 1], got {fraction}")
    return int(round(f * n))


def contaminate_flip(y, fraction: float, rng) -> np.ndarray:
    """Flip exactly round(fraction * n) distinct binary labels."""
    y = np.asarray(y, dtype=float).copy()
    k = _contamination_count(y.shape[0], fraction)
    if k:
        idx = rng.choice(y.shape[0], size=k, replace=False)
        y[idx] = 1.0 - y[idx]
    return y


def contaminate_poisson(y, fraction: float, rng, rate: float = 20.0) -> np.ndarray:
    """Replace exactly round(fraction * n) counts with Poisson(rate) draws."""
    y = np.asarray(y, dtype=float).copy()
    k = _contamination_count(y.shape[0], fraction)
    if k:
        idx = rng.choice(y.shape[0], size=k, replace=False)
        y[idx] = rng.poisson(rate, size=k)
    return y
