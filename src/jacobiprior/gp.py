"""Gaussian-process latent classification with projection-estimated latents.

The latent field is a linear mean plus a GP draw plus white noise;
marginally eta ~ N(X beta, S + sigma^2 I). Instead of optimizing the
latent field, the training latents are set to their per-observation
posterior modes (probit modes for binary labels, log modes for
counts), beta to their projection, and prediction is the usual GP
conditional mean through the kernel system.

The latents and their projection come from the GLM and multinomial
fits themselves (``fit_jacobi`` with the probit family, ``fit_dmr``);
this module adds only the kernel system, which LAPACK factors in the
Gram's own buffer into the ``(c, lower)`` Cholesky pair SciPy solves with.
Probability and class prediction build the cross-kernel once per call
and no covariance; only ``gp_predict_latent`` returns a covariance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist
from scipy.special import ndtr

from .dmr import CountTable, fit_dmr, softmax_rows
from .errors import DimensionMismatchError, InvalidHyperError, NotPositiveDefiniteError, real
from .glm import FittedGLM, JacobiHyper, fit_jacobi, shown
from .linalg import as_array, as_matrix, lapack

KERNEL_KINDS = ("exponential", "squared_exponential")


@dataclass(frozen=True)
class KernelParams:
    """Signal scale tau, inverse length scale rho, latent noise SD sigma."""

    tau: float = 1.0
    rho: float = 1.0
    sigma: float = 0.1
    kind: str = "exponential"

    def __post_init__(self):
        for name, rule in (("tau", ">"), ("rho", ">"), ("sigma", ">=")):
            if not (real(value := getattr(self, name)) > 0 or rule == ">=" and real(value) == 0):
                raise InvalidHyperError(f"need finite {name} {rule} 0, got {name}={shown(value)}")
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
    return _kernel(A, B, params)


def _kernel(A: np.ndarray, B: np.ndarray, params: KernelParams) -> np.ndarray:
    """``kernel_matrix`` of finite matrices with equal column counts, unchecked."""
    d = cdist(A, B)  # the one n x m buffer; every step below is in place
    if params.kind == "squared_exponential":
        d *= d
    d *= -params.rho
    np.exp(d, out=d)
    d *= params.tau
    return d


@dataclass
class GPModel:
    X_train: np.ndarray
    beta: np.ndarray
    eta_hat: np.ndarray
    params: KernelParams
    chol: tuple  # (c, True): lower Cholesky factor of S(X, X) + sigma^2 I, c's upper part kept
    alpha: np.ndarray  # solves (S + sigma^2 I) alpha = eta_hat - X beta


def _factor_gram(X: np.ndarray, params: KernelParams, fit: FittedGLM) -> tuple[tuple, np.ndarray]:
    """(chol, alpha): S(X, X) + sigma^2 I factored in place and solved for eta_hat - X beta."""
    K = _kernel(X, X, params)  # exactly symmetric: K.T is K in the F order potrf factors in place
    K.flat[:: len(K) + 1] += params.sigma**2  # the diagonal, strided
    c, info = lapack.dpotrf(K.T, lower=1, clean=0, overwrite_a=1)  # clean=0 keeps K's upper triangle
    if info < 0:
        raise ValueError(f"dpotrf: illegal value in argument {-info}")
    if info > 0:
        raise NotPositiveDefiniteError(
            f"kernel system not positive definite (sigma={params.sigma}): "
            f"{info}-th leading minor of the array is not positive definite"
        )
    return (c, True), _solve((c, True), fit.eta_hat - X @ fit.beta)


def _solve(chol: tuple, b: np.ndarray) -> np.ndarray:
    """chol's solve of an n-vector or n x m b, through dpotrs."""
    x, info = lapack.dpotrs(chol[0], b, lower=1)
    if info:
        raise ValueError(f"dpotrs: illegal value in argument {-info}")
    return x


def gp_fit_binary(
    X, y, hyper: JacobiHyper | None = None, params: KernelParams = KernelParams()
) -> GPModel:
    """Binary GP classifier: the probit projection fit plus a cached kernel solve."""
    X = as_array(X, 2, "X")  # the fit checks X's values
    fit = fit_jacobi(X, y, "probit", hyper)
    chol, alpha = _factor_gram(X, params, fit)
    return GPModel(X, fit.beta, fit.eta_hat, params, chol, alpha)


def _cross_kernel(model: GPModel, X0) -> tuple[np.ndarray, np.ndarray]:
    """Validated X0 and the cross-kernel block S(X0, X_train)."""
    X0 = as_matrix(X0, "X0", model.X_train.shape[1])
    return X0, _kernel(X0, model.X_train, model.params)


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
    cross = Ks @ _solve(model.chol, Ks.T)
    cov = _kernel(X0, X0, model.params) - cross if include_prior_var else cross
    return _latent_mean(model, X0, Ks), cov


def gp_predict_proba(model: GPModel, X0) -> np.ndarray:
    """P(y = 1) at each test point: probit link applied to the latent mean."""
    return ndtr(_latent_mean(model, *_cross_kernel(model, X0)))


@dataclass
class GPMulticlass:
    """K binary-style GP latents sharing one design and one kernel factorization."""

    models: list  # list[GPModel], one per class

    def predict_latent_means(self, X0) -> np.ndarray:
        X0, Ks = _cross_kernel(self.models[0], X0)
        return np.column_stack([_latent_mean(m, X0, Ks) for m in self.models])

    def predict_proba(self, X0) -> np.ndarray:
        return softmax_rows(self.predict_latent_means(X0))

    def predict_class(self, X0) -> np.ndarray:
        return np.argmax(self.predict_proba(X0), axis=1)


def gp_fit_multiclass(
    X, Y: CountTable, hyper: JacobiHyper | None = None, params: KernelParams = KernelParams()
) -> GPMulticlass:
    """Per-class count-mode latents and fits from ``fit_dmr``, one shared Gram solve."""
    X = as_array(X, 2, "X")  # the fit checks X's values
    fit = fit_dmr(X, Y, hyper)
    chol, alphas = _factor_gram(X, params, fit)
    columns = zip(fit.beta.T.copy(), fit.eta_hat.T.copy(), alphas.T.copy())
    return GPMulticlass([GPModel(X, beta, eta, params, chol, a) for beta, eta, a in columns])
