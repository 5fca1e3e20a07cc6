"""Closed-form latent posterior modes and the projection GLM fit.

The estimator works per observation: a conjugate prior on the natural
parameter induces a posterior on the linear predictor eta_i through
the link's Jacobian, whose mode has a closed form for the logit and
log links and is a cheap 1-D optimization for the probit link. The
coefficient vector is then the least-squares projection of the latent
mode vector onto the column space of the design, so fitting costs one
QR factorization and no iterative optimization over beta.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import expit, log_ndtr, ndtr

from .errors import (
    DimensionMismatchError,
    ImproperPosteriorError,
    InvalidHyperError,
    InvalidResponseError,
    NoConvergenceError,
)
from .linalg import LeastSquaresSolver, as_array, as_matrix, project, stable_matvec

FAMILIES = ("logit", "probit", "poisson")

_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)
PROBIT_TOL = 1e-10  # probit_mode stops at |grad| <= PROBIT_TOL
PROBIT_MAX_ITER = 200  # Newton steps before NoConvergenceError
PROBIT_BRACKET = 12.0  # the mode is sought on [-PROBIT_BRACKET, PROBIT_BRACKET]


def valid_shape(x) -> bool:
    """True for a prior shape parameter in (0, inf): ``JacobiHyper``'s test of a and b."""
    return 0 < x < math.inf


def validate_family(family: str) -> str:
    if family not in FAMILIES:
        raise InvalidResponseError(f"unknown family {family!r}, expected one of {FAMILIES}")
    return family


@dataclass(frozen=True)
class JacobiHyper:
    """Prior shape pair (a, b), either fixed or resolved to (1/n, 1/n) at fit time.

    The vanishing schedule is what makes the estimator consistent: the
    normalized log-prior contribution is O(1/n) and drops out of the
    limiting objective, while any fixed (a, b) leaves a persistent
    shrinkage bias.
    """

    a: float = 0.5
    b: float = 0.5
    schedule: str = "fixed"

    def __post_init__(self):
        if self.schedule not in ("fixed", "one_over_n"):
            raise InvalidHyperError(f"unknown schedule {self.schedule!r}")
        if not (0 < self.a < math.inf and 0 < self.b < math.inf):  # valid_shape, inlined for speed
            name, value = ("b", self.b) if valid_shape(self.a) else ("a", self.a)
            raise InvalidHyperError(f"need finite {name} > 0, got {name}={value}")

    def resolve(self, n: int) -> tuple[float, float]:
        """Effective (a, b) for a training set of size n."""
        if self.schedule == "one_over_n":
            if n < 1:
                raise InvalidHyperError("one_over_n schedule needs n >= 1")
            return (1.0 / n, 1.0 / n)
        return (self.a, self.b)


def default_hyper(family: str) -> JacobiHyper:
    """Library defaults: (1/2, 1/2) for binary families, (1, 1) for counts."""
    validate_family(family)
    if family == "poisson":
        return JacobiHyper(1.0, 1.0)
    return JacobiHyper(0.5, 0.5)


@dataclass
class FittedGLM:
    """Projection fit: beta is the least-squares image of the latent modes.

    ``beta`` is p x K and ``eta_hat`` n x K for an n x K count matrix.
    """

    beta: np.ndarray
    family: str
    hyper: JacobiHyper
    eta_hat: np.ndarray
    n_train: int

    @property
    def betas(self) -> np.ndarray:
        """Read-only ``beta``, kept only for ``perfbench/bench.py``; goes at its next change."""
        return self.beta


def _posterior_shapes(y, a: float, b: float) -> tuple[int, float, float]:
    """(y, y + a, b + 1 - y): y checked, and the binary posterior's Beta shapes, both > 0."""
    if y not in (0, 1, 0.0, 1.0):
        raise InvalidResponseError(f"binary response must be 0 or 1, got {y!r}")
    y = int(y)
    num = y + a
    den = b + 1.0 - y
    if num <= 0 or den <= 0:
        raise ImproperPosteriorError(f"need y + a > 0 and b + 1 - y > 0, got {num}, {den}")
    return y, num, den


def logit_mode(y, a: float, b: float) -> float:
    """Posterior mode of eta for a Bernoulli observation under the logit link.

    Equals log((y + a) / (b + 1 - y)); a Beta(a, b) prior on the
    success probability updated by y, transported to the log-odds
    scale.
    """
    _, num, den = _posterior_shapes(y, a, b)
    ratio = num / den
    if not 0 < ratio < math.inf:  # 1e-300 / 1e300 underflows, 1e300 / 1e-10 overflows
        raise InvalidHyperError(f"need (y + a) / (b + 1 - y) in (0, inf), got {num} / {den}")
    return math.log(ratio)


def poisson_mode(y, a: float, b: float) -> float:
    """Posterior mode of eta for a Poisson count under the log link.

    Equals log((y + a) / (1 + b)); a Gamma(a, rate b) prior on the
    rate updated by y, transported to the log scale.
    """
    if y < 0 or y != int(y):
        raise InvalidResponseError(f"count response must be a non-negative integer, got {y!r}")
    if y + a <= 0:
        raise InvalidHyperError(f"need y + a > 0, got {y + a}")
    if 1.0 + b <= 0:
        raise InvalidHyperError(f"need 1 + b > 0, got {1.0 + b}")
    return math.log(_count_ratio(y, a, b))


def _count_ratio(y, a: float, b: float):
    """(y + a) / (1 + b) for a count or count array, the count mode's argument of log, checked
    to lie in (0, inf); a valid shape pair need not give that: 1e-300 / (1 + 1e300) is 0."""
    ratio = (y + a) / (1.0 + b)
    # Two reductions cost half of a (0 < ratio) & (ratio < inf) mask at n = 100.
    lo = np.minimum.reduce(ratio, axis=None, initial=1.0)  # initial=1.0: an empty y passes
    hi = np.maximum.reduce(ratio, axis=None, initial=1.0)
    if not 0 < lo <= hi < math.inf:
        raise InvalidHyperError(f"need (y + a) / (1 + b) in (0, inf), got a={a}, b={b}")
    return ratio


def _probit_grad_hess(eta: float, c1: float, c2: float) -> tuple[float, float]:
    # log-posterior L(eta) = c1*log Phi(eta) + c2*log(1 - Phi(eta)) - eta^2/2
    log_phi = -0.5 * eta * eta - _LOG_SQRT_2PI
    r1 = math.exp(log_phi - log_ndtr(eta))       # phi/Phi
    r2 = math.exp(log_phi - log_ndtr(-eta))      # phi/(1 - Phi)
    grad = c1 * r1 - c2 * r2 - eta
    hess = -c1 * r1 * (eta + r1) - c2 * r2 * (r2 - eta) - 1.0
    return grad, hess


def probit_mode(y, a: float, b: float) -> float:
    """Posterior mode of eta for a Bernoulli observation under the probit link.

    Maximizes Phi(eta)^(y+a-1) * (1-Phi(eta))^(b-y) * phi(eta) by
    safeguarded Newton iteration started at 0. The squared-exponential
    factor phi(eta) forces the log-posterior to -inf at both ends, so
    a sign change of the gradient is guaranteed inside
    [-PROBIT_BRACKET, PROBIT_BRACKET] for any valid (y, a, b).
    """
    a, b = float(a), float(b)  # numpy-scalar arithmetic doubles the Newton's cost, same bits
    y, num, _ = _posterior_shapes(y, a, b)
    c1 = num - 1.0
    c2 = b - y
    lo, hi = -PROBIT_BRACKET, PROBIT_BRACKET
    g_lo, _ = _probit_grad_hess(lo, c1, c2)
    g_hi, _ = _probit_grad_hess(hi, c1, c2)
    if not (g_lo > 0 > g_hi):
        raise NoConvergenceError(
            f"gradient does not bracket a maximum on [{lo}, {hi}] for y={y}, a={a}, b={b}"
        )
    eta = 0.0
    for _ in range(PROBIT_MAX_ITER):
        grad, hess = _probit_grad_hess(eta, c1, c2)
        if abs(grad) <= PROBIT_TOL:
            return eta
        if grad > 0:
            lo = eta
        else:
            hi = eta
        if hess < 0:
            step = eta - grad / hess
        else:
            step = math.nan
        # Fall back to bisection whenever Newton leaves the bracket.
        eta = step if (lo < step < hi) else 0.5 * (lo + hi)
    raise NoConvergenceError(f"probit mode did not reach |grad| <= {PROBIT_TOL} "
                             f"in {PROBIT_MAX_ITER} iterations")


def binary_modes(family: str, a: float, b: float) -> tuple[float, float]:
    """Latent modes (m0, m1) of a binary family at y = 0 and y = 1."""
    mode = logit_mode if family == "logit" else probit_mode
    return mode(0, a, b), mode(1, a, b)


def check_response(y, family: str, rows: int | None = None, ndims=(1, 2)) -> np.ndarray:
    """The one response intake: y as a float array, checked for family in this order.

    The family; the ndim (binary families take a vector, ``poisson`` any
    of ``ndims``); the length against the design's ``rows``, "y length k
    != design rows n"; the values, naming the first bad (or NaN) entry
    by its index, or by row and column for a count matrix.
    """
    validate_family(family)
    y = np.asarray(y, dtype=float)
    ndims = ndims if family == "poisson" else (1,)
    if y.ndim not in ndims:
        raise DimensionMismatchError(f"{family} response must have ndim in {ndims}, got {y.ndim}")
    if rows is not None and y.shape[0] != rows:
        raise DimensionMismatchError(f"y length {y.shape[0]} != design rows {rows}")
    if family == "poisson":
        bad = ~np.isfinite(y) | (y < 0) | (y != np.floor(y))
        what = "count response must be a non-negative integer"
    else:
        bad = (y != 0.0) & (y != 1.0)
        what = "binary response must be 0 or 1"
    if bad.any():
        idx = tuple(int(i) for i in np.argwhere(bad)[0])
        where = f"row {idx[0]}, column {idx[1]}" if len(idx) == 2 else f"index {idx[0]}"
        raise InvalidResponseError(f"{what}; offending {where}: {float(y[idx])!r}")
    return y


def latent_vector(
    y, family: str, hyper: JacobiHyper | None = None, rows: int | None = None, ndims=(1, 2)
) -> np.ndarray:
    """Element-wise posterior modes for a response vector or count matrix.

    y goes through ``check_response``, against ``rows`` design rows if
    given and the allowed ``ndims``. ``poisson`` also takes an n x K count
    matrix and maps every column at once. Resolves the one_over_n schedule
    using the row count n. Binary families only take two distinct values,
    so the probit optimization runs at most twice regardless of n.
    """
    y = check_response(y, family, rows, ndims)
    return _latents(y, family, hyper or default_hyper(family))


def _latents(y: np.ndarray, family: str, hyper: JacobiHyper) -> np.ndarray:
    """``latent_vector`` of a y that has been through ``check_response``."""
    a, b = hyper.resolve(y.shape[0])
    if family == "poisson":
        return np.log(_count_ratio(y, a, b))
    mode0, mode1 = binary_modes(family, a, b)
    return np.where(y == 1.0, mode1, mode0)


def fit_jacobi(X, y, family: str, hyper: JacobiHyper | None = None) -> FittedGLM:
    """Fit the projection estimator: beta solves min ||X beta - eta_hat||.

    Checks X's shape, then y (``check_response``), then X's values and rank.
    """
    X = as_array(X, 2, "X")
    return _fit(X, check_response(y, family, X.shape[0]), family, hyper)


def _fit(X: np.ndarray, y: np.ndarray, family: str, hyper: JacobiHyper | None) -> FittedGLM:
    """``fit_jacobi`` on a 2-d X and its checked y: one latent map, one projection."""
    hyper = hyper or default_hyper(family)
    eta_hat = _latents(y, family, hyper)
    S, c = project(X, eta_hat)  # a tall X streams through one block buffer
    beta = LeastSquaresSolver(S).solve(c)
    return FittedGLM(beta=beta, family=family, hyper=hyper, eta_hat=eta_hat, n_train=X.shape[0])


def predict_linear(model: FittedGLM, X0) -> np.ndarray:
    """X0 @ beta: an n-vector, or n x K for a p x K fit."""
    return stable_matvec(as_matrix(X0, "X0", model.beta.shape[0]), model.beta)


def inverse_link(eta: np.ndarray, family: str) -> np.ndarray:
    validate_family(family)
    if family == "logit":
        return expit(eta)
    if family == "probit":
        return ndtr(eta)
    return np.exp(eta)


def predict(model: FittedGLM, X0) -> np.ndarray:
    """Mean-scale predictions: probabilities for binary families, rates for counts."""
    return inverse_link(predict_linear(model, X0), model.family)
