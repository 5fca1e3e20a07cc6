"""Gaussian-process latent classification with projection-estimated latents.

The latent field is a linear mean plus a GP draw plus white noise;
marginally eta ~ N(X beta, S + sigma^2 I). Instead of optimizing the
latent field, the training latents are set to their per-observation
posterior modes (probit modes for binary labels, log modes for
counts), beta to their projection, and prediction is the usual GP
conditional mean through the kernel system.

The latents and their projection come from the GLM and multinomial
fits themselves (``fit_jacobi`` with the probit family, ``fit_dmr``);
this module adds only the kernel system. Probability and class
prediction build the cross-kernel once per call and no covariance;
only ``gp_predict_latent`` returns a predictive covariance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
from scipy.spatial.distance import cdist
from scipy.special import ndtr

from .dmr import CountTable, fit_dmr, softmax_rows
from .errors import (
    DimensionMismatchError,
    InvalidHyperError,
    NotPositiveDefiniteError,
)
from .glm import JacobiHyper, fit_jacobi
from .linalg import as_matrix

KERNEL_KINDS = ("exponential", "squared_exponential")


@dataclass(frozen=True)
class KernelParams:
    """Signal scale tau, inverse length scale rho, latent noise SD sigma."""

    tau: float = 1.0
    rho: float = 1.0
    sigma: float = 0.1
    kind: str = "exponential"

    def __post_init__(self):
        if not (self.tau > 0 and self.rho > 0):
            raise InvalidHyperError(f"need tau > 0 and rho > 0, got {self.tau}, {self.rho}")
        if self.sigma < 0:
            raise InvalidHyperError(f"need sigma >= 0, got {self.sigma}")
        if self.kind not in KERNEL_KINDS:
            raise InvalidHyperError(f"unknown kernel kind {self.kind!r}")


def kernel_matrix(A, B, params: KernelParams) -> np.ndarray:
    """Covariance block between row sets A and B.

    The default kind uses the unsquared Euclidean distance,
    tau * exp(-rho * ||a - b||); ``squared_exponential`` squares the
    distance instead.
    """
    A = as_matrix(A, "A")
    B = as_matrix(B, "B")
    if A.shape[1] != B.shape[1]:
        raise DimensionMismatchError(f"column counts differ: {A.shape[1]} vs {B.shape[1]}")
    d = cdist(A, B)
    if params.kind == "squared_exponential":
        d = d * d
    return params.tau * np.exp(-params.rho * d)


@dataclass
class GPModel:
    X_train: np.ndarray
    beta: np.ndarray
    eta_hat: np.ndarray
    params: KernelParams
    chol: tuple  # cho_factor of S(X, X) + sigma^2 I
    alpha: np.ndarray  # solves (S + sigma^2 I) alpha = eta_hat - X beta


def _factor_gram(X, params: KernelParams):
    K = kernel_matrix(X, X, params)
    K[np.diag_indices_from(K)] += params.sigma**2
    try:
        return scipy.linalg.cho_factor(K, lower=True, check_finite=False)
    except scipy.linalg.LinAlgError as exc:
        raise NotPositiveDefiniteError(
            f"kernel system not positive definite (sigma={params.sigma}): {exc}"
        ) from exc


def gp_fit_binary(
    X, y, hyper: JacobiHyper | None = None, params: KernelParams = KernelParams()
) -> GPModel:
    """Binary GP classifier: the probit projection fit plus a cached kernel solve."""
    X = as_matrix(X)
    fit = fit_jacobi(X, y, "probit", hyper)
    chol = _factor_gram(X, params)
    alpha = scipy.linalg.cho_solve(chol, fit.eta_hat - X @ fit.beta, check_finite=False)
    return GPModel(
        X_train=X, beta=fit.beta, eta_hat=fit.eta_hat, params=params, chol=chol, alpha=alpha
    )


def _cross_kernel(model: GPModel, X0) -> tuple[np.ndarray, np.ndarray]:
    """Validated X0 and the cross-kernel block S(X0, X_train)."""
    X0 = as_matrix(X0, "X0")
    if X0.shape[1] != model.X_train.shape[1]:
        raise DimensionMismatchError(
            f"X0 has {X0.shape[1]} columns, model expects {model.X_train.shape[1]}"
        )
    return X0, kernel_matrix(X0, model.X_train, model.params)


def _latent_mean(model: GPModel, X0: np.ndarray, Ks: np.ndarray) -> np.ndarray:
    return X0 @ model.beta + Ks @ model.alpha


def gp_predict_latent(
    model: GPModel, X0, include_prior_var: bool = True
) -> tuple[np.ndarray, np.ndarray]:
    """Predictive mean and covariance of the latent field at X0.

    The covariance defaults to the standard conditional form
    S(X0, X0) - S(X0, X) [S + sigma^2 I]^{-1} S(X, X0); passing
    ``include_prior_var=False`` returns only the subtracted cross term,
    which some replication targets use. This is the only prediction
    path that builds a covariance.
    """
    X0, Ks = _cross_kernel(model, X0)
    cross = Ks @ scipy.linalg.cho_solve(model.chol, Ks.T, check_finite=False)
    if include_prior_var:
        cov = kernel_matrix(X0, X0, model.params) - cross
    else:
        cov = cross
    return _latent_mean(model, X0, Ks), cov


def gp_predict_proba(model: GPModel, X0) -> np.ndarray:
    """P(y = 1) at each test point: probit link applied to the latent mean."""
    return ndtr(_latent_mean(model, *_cross_kernel(model, X0)))


@dataclass
class GPMulticlass:
    """K binary-style GP latents sharing one design and one kernel factorization."""

    models: list  # list[GPModel], one per class

    @property
    def n_classes(self) -> int:
        return len(self.models)

    def predict_latent_means(self, X0) -> np.ndarray:
        X0, Ks = _cross_kernel(self.models[0], X0)
        return np.column_stack([_latent_mean(m, X0, Ks) for m in self.models])

    def predict_proba(self, X0) -> np.ndarray:
        return softmax_rows(self.predict_latent_means(X0))

    def predict_class(self, X0) -> np.ndarray:
        return np.argmax(self.predict_proba(X0), axis=1)


def gp_fit_multiclass(
    X,
    Y: CountTable,
    hyper: JacobiHyper | None = None,
    params: KernelParams = KernelParams(),
) -> GPMulticlass:
    """Per-class count-mode latents and fits from ``fit_dmr``, one shared Gram solve."""
    X = as_matrix(X)
    fit = fit_dmr(X, Y, hyper)
    chol = _factor_gram(X, params)
    alphas = scipy.linalg.cho_solve(chol, fit.eta_hat - X @ fit.beta, check_finite=False)
    return GPMulticlass(
        models=[
            GPModel(X_train=X, beta=beta, eta_hat=eta, params=params, chol=chol, alpha=alpha)
            for beta, eta, alpha in zip(fit.beta.T.copy(), fit.eta_hat.T.copy(), alphas.T.copy())
        ]
    )
