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

import functools
import math
import numbers
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatchError,
    ImproperPosteriorError,
    InvalidHyperError,
    InvalidResponseError,
    JacobiPriorError,
    NoConvergenceError,
    real,
)
from .linalg import LazyModule, _check_finite, as_array, as_matrix, lstsq, stable_matvec

FAMILIES = ("logit", "probit", "poisson")

_special = LazyModule("scipy.special")  # the probit link only: logit and poisson need numpy alone
_EXP_MAX = math.log(np.finfo(float).max)  # exp(u) is finite up to here and overflows above

_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)
PROBIT_TOL = 1e-10  # a probit lane stops at |grad| <= PROBIT_TOL
PROBIT_MAX_ITER = 200  # Newton steps before NoConvergenceError
PROBIT_BRACKET = 12.0  # the least bracket half-width; see _probit_half_width


def valid_shape(x) -> bool:
    """True for a prior shape parameter, a finite real > 0: ``JacobiHyper``'s test of a and b."""
    return real(x) > 0


def shown(value) -> str:
    """value as a message shows it: a real number by its str, anything else by its repr."""
    return str(value) if isinstance(value, numbers.Real) else repr(value)


def validate_family(family: str) -> str:
    if not (isinstance(family, str) and family in FAMILIES):  # an array's == is elementwise
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
        for name, value in (("a", self.a), ("b", self.b)):
            if not valid_shape(value):
                raise InvalidHyperError(f"need finite {name} > 0, got {name}={shown(value)}")

    def resolve(self, n: int) -> tuple[float, float]:
        """Effective (a, b) for a training set of size n."""
        if self.schedule == "one_over_n":
            if n < 1:
                raise InvalidHyperError("one_over_n schedule needs n >= 1")
            return (1.0 / n, 1.0 / n)
        return (self.a, self.b)


_DEFAULT_HYPERS = dict(logit=JacobiHyper(0.5, 0.5), probit=JacobiHyper(0.5, 0.5),
                      poisson=JacobiHyper(1.0, 1.0))


def default_hyper(family: str) -> JacobiHyper:
    """Library defaults, one shared constant a family: (1/2, 1/2) binary, (1, 1) counts."""
    return _DEFAULT_HYPERS[validate_family(family)]


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


def _probit_grad_hess(eta, c1, c2):
    """Gradient and Hessian of c1*log Phi(eta) + c2*log(1 - Phi(eta)) - eta^2/2, element-wise."""
    log_phi = -0.5 * eta * eta - _LOG_SQRT_2PI
    r1 = np.exp(log_phi - _special.log_ndtr(eta))   # phi/Phi
    r2 = np.exp(log_phi - _special.log_ndtr(-eta))  # phi/(1 - Phi)
    grad = c1 * r1 - c2 * r2 - eta
    hess = -c1 * r1 * (eta + r1) - c2 * r2 * (r2 - eta) - 1.0
    return grad, hess


def _probit_half_width(m):
    """The probit mode's bracket half-width for the lane's own shape m (a at y = 0, which
    a small value pushes down; b at y = 1, which a small value pushes up):
    max(PROBIT_BRACKET, 4 sqrt((1 + m) / m)), which is PROBIT_BRACKET for m >= 1/8 (and for
    m = inf) and grows as m shrinks (the mode is about -14 at y = 0, a = b = 1/200)."""
    return np.fmax(PROBIT_BRACKET, 4.0 * np.sqrt((1.0 + m) / m))


def _probit_lanes(y, a, b) -> tuple[np.ndarray, np.ndarray]:
    """The probit Newton loop over float arrays of lanes (y, a, b): (mode, ok), where ok
    is the shape check (y + a > 0 and b + 1 - y > 0) and the bracket test (grad > 0 at -w,
    < 0 at w). An ok lane steps from 0, bisects whenever a step leaves its shrinking bracket
    and stops at |grad| <= PROBIT_TOL; mode is NaN for a lane that is not ok or, if ok, ran
    out of iterations. Each lane's float operations are its own, whatever the others do."""
    num = y + a
    c1 = num - 1.0
    c2 = b - y
    mode = np.full(y.shape, np.nan)
    with np.errstate(all="ignore"):  # a tiny shape's wide bracket may overflow; a test fails
        hi = _probit_half_width(np.where(y == 1.0, b, a))
        lo = -hi
        ok = (num > 0) & (b + 1.0 - y > 0)
        ok &= (_probit_grad_hess(lo, c1, c2)[0] > 0) & (0 > _probit_grad_hess(hi, c1, c2)[0])
        lanes = np.flatnonzero(ok)
        eta = np.zeros(lanes.size)
        lo, hi, c1, c2 = lo[lanes], hi[lanes], c1[lanes], c2[lanes]
        for _ in range(PROBIT_MAX_ITER):
            grad, hess = _probit_grad_hess(eta, c1, c2)
            done = np.abs(grad) <= PROBIT_TOL
            mode[lanes[done]] = eta[done]
            if done.all():
                break
            go = ~done
            lanes, eta, grad, hess, lo, hi, c1, c2 = (
                v[go] for v in (lanes, eta, grad, hess, lo, hi, c1, c2))
            up = grad > 0
            lo = np.where(up, eta, lo)
            hi = np.where(up, hi, eta)
            step = np.where(hess < 0, eta - grad / hess, np.nan)
            eta = np.where((lo < step) & (step < hi), step, 0.5 * (lo + hi))
    return mode, ok


def lanes(family: str, y, a, b) -> tuple[np.ndarray, np.ndarray]:
    """The modes of eta over float arrays or scalars of lanes (y, a, b), broadcast; NaN where
    ok is False. a and b enter as given: a float32 b gives a poisson lane its float32 1 + b.
    logit: log((y + a) / (b + 1 - y)) by ``math.log``, which numpy's log differs from in the
    last bit on a few inputs in 1e5; poisson: log((y + a) / (1 + b)); probit: ``_probit_lanes``.
    ok is one True for a poisson call whose lanes all pass; y is taken to be in the support."""
    y = np.asarray(y, dtype=float)
    if family == "poisson" and isinstance(b, float) and 0.0 <= b < math.inf:  # a fit's shapes
        ratio = (y + a) / (1.0 + b)
        # Two reductions cost half of a (0 < ratio) & (ratio < inf) mask at n = 100.
        lo = np.minimum.reduce(ratio, axis=None, initial=1.0)  # initial=1.0: no lanes pass
        hi = np.maximum.reduce(ratio, axis=None, initial=1.0)
        if 0 < lo <= hi < math.inf:
            return np.log(ratio), np.True_
    if family == "probit":
        y, a, b = np.broadcast_arrays(y, a, b)
        mode = _probit_lanes(*(v.ravel() for v in (y, a, b)))[0].reshape(y.shape)
        return mode, ~np.isnan(mode)
    num = y + a
    den = b + 1.0 - y if family == "logit" else 1.0 + b
    with np.errstate(all="ignore"):  # a zero den, or a ratio that overflows or is undefined
        ratio = num / den
    ok = (num > 0) & (den > 0) & (0 < ratio) & (ratio < math.inf)
    mode = np.full(ok.shape, np.nan)
    mode[ok] = [math.log(r) for r in ratio[ok].tolist()] if family == "logit" else np.log(ratio[ok])
    return mode, ok


def _first_error(family: str, y, a, b, ok) -> JacobiPriorError | None:
    """The error of the first lane, in C order, that has a y outside the support or is not ok,
    as a loop over single lanes gives it, or None. A lane checks y; y + a and b + 1 - y (1 + b,
    poisson) > 0; log's argument in (0, inf), or the probit bracket, then iteration cap."""
    y, a, b, ok = np.broadcast_arrays(y, a, b, ok)
    outside, what = _outside(y, family)
    bad = np.flatnonzero(outside | ~ok)
    if not bad.size:
        return None
    y, a, b = (float(v.flat[bad[0]]) for v in (y, a, b))
    if outside.flat[bad[0]]:
        return InvalidResponseError(f"{what}, got {y!r}")
    if family == "poisson":
        for name, value in (("y + a", y + a), ("1 + b", 1.0 + b)):
            if value <= 0:
                return InvalidHyperError(f"need {name} > 0, got {value}")
        if not 0 < (y + a) / (1.0 + b) < math.inf:  # 1e-300 / (1 + 1e300) underflows to 0
            return InvalidHyperError(f"need (y + a) / (1 + b) in (0, inf), got a={a}, b={b}")
        return None
    num, den = y + a, b + 1.0 - y
    if num <= 0 or den <= 0:  # a b below about 1.1e-16 rounds b + 1 - 1 to 0
        return ImproperPosteriorError(f"need y + a > 0 and b + 1 - y > 0, got {num}, {den}")
    if family == "logit":  # 1e-300 / 1e300 underflows, 1e300 / 1e-10 overflows
        return None if 0 < num / den < math.inf else InvalidHyperError(
            f"need (y + a) / (b + 1 - y) in (0, inf), got {num} / {den}")
    (mode,), (bracketed,) = _probit_lanes(*(np.array([v]) for v in (y, a, b)))
    if not bracketed:
        with np.errstate(all="ignore"):  # a tiny shape's half-width overflows to inf
            hi = float(_probit_half_width(b if y else a))
        return NoConvergenceError(
            f"gradient does not bracket a maximum on [{-hi}, {hi}] for y={int(y)}, a={a}, b={b}")
    if math.isnan(mode):
        return NoConvergenceError(f"probit mode did not reach |grad| <= {PROBIT_TOL} "
                                  f"in {PROBIT_MAX_ITER} iterations")
    return None


def _scalar_mode(family: str, y, a, b) -> float:
    """One lane's mode as a float, or its error; y, a and b are real numbers (``errors.real``)
    or floats, inf and NaN included, and anything else is its role's typed error."""
    for name, value in zip("yab", (y, a, b)):
        if not isinstance(value, (float, np.floating)) and math.isnan(real(value)):
            raise (InvalidResponseError if name == "y" else InvalidHyperError)(
                f"{name} must be a real number, got {name}={value!r}")
    lane = [float(v) for v in (y, a, b)]
    mode, ok = lanes(family, *(np.array([v]) for v in lane))
    if (error := _first_error(family, *lane, ok)) is not None:
        raise error
    return float(mode[0])


def logit_mode(y, a: float, b: float) -> float:
    """Posterior mode of eta for a Bernoulli observation under the logit link: one lane."""
    return _scalar_mode("logit", y, a, b)


def probit_mode(y, a: float, b: float) -> float:
    """Posterior mode of eta for a Bernoulli observation under the probit link: one lane."""
    return _scalar_mode("probit", y, a, b)


def poisson_mode(y, a: float, b: float) -> float:
    """Posterior mode of eta for a Poisson count under the log link: one lane."""
    return _scalar_mode("poisson", y, a, b)


@functools.lru_cache(maxsize=256)  # every fit at one shape pair asks for the same two modes
def _fit_modes(family: str, a: float, b: float) -> tuple[float, float]:
    """The binary modes (m0, m1) for fits, on float shapes; an error is not cached. Grids and
    searches call ``lanes``: their many pairs would push the fits' pairs out."""
    mode, ok = lanes(family, (1.0, 0.0), a, b)  # y = 1 first, as a pair is checked
    if not ok.all():
        raise _first_error(family, (1.0, 0.0), a, b, ok)
    return tuple(mode.tolist()[::-1])


def _outside(y: np.ndarray, family: str) -> tuple[np.ndarray, str]:
    """Where y is outside the family's support, and the rule it breaks there."""
    if family == "poisson":
        what = "count response must be a non-negative integer"
        return ~np.isfinite(y) | (y < 0) | (y != np.floor(y)), what
    return (y != 0.0) & (y != 1.0), "binary response must be 0 or 1"


def as_response(y) -> np.ndarray:
    """y as a float array; an entry that is not a number, None too, is InvalidResponseError."""
    try:
        return as_array(y, None, "response y")
    except DimensionMismatchError as exc:
        raise InvalidResponseError(str(exc)) from None


def check_response(y, family: str, rows: int | None = None, ndims=(1, 2)) -> np.ndarray:
    """The one response intake: y as a float array, checked for family in this order.

    The family; numbers (``as_response``); the ndim (binary families take a
    vector, ``poisson`` any of ``ndims``); the length against the design's ``rows``,
    "y length k != design rows n"; the values, naming the first bad (or NaN) entry
    by its index, or by row and column for a count matrix.
    """
    validate_family(family)
    y = as_response(y)
    ndims = ndims if family == "poisson" else (1,)
    if y.ndim not in ndims:
        raise DimensionMismatchError(f"{family} response must have ndim in {ndims}, got {y.ndim}")
    if rows is not None and y.shape[0] != rows:
        raise DimensionMismatchError(f"y length {y.shape[0]} != design rows {rows}")
    bad, what = _outside(y, family)
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
    so one ``lanes`` call of two lanes serves every n.
    """
    y = check_response(y, family, rows, ndims)
    return _latents(y, family, hyper or default_hyper(family))


def _latents(y: np.ndarray, family: str, hyper: JacobiHyper) -> np.ndarray:
    """``latent_vector`` of a y that has been through ``check_response``."""
    a, b = hyper.resolve(y.shape[0])
    if family == "poisson":
        eta, ok = lanes(family, y, a, b)
        if not (ok is np.True_ or ok.all()):  # np.True_.all() costs 1.3 us of a 25 us fit
            raise _first_error(family, y, a, b, ok)
        return eta
    # y holds only 0.0 and 1.0 (check_response), so it indexes the pair (m0, m1)
    return np.array(_fit_modes(family, float(a), float(b))).take(y.astype(np.intp))


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
    beta = lstsq(X, eta_hat)  # a tall X is reduced block by block (TSQR)
    return FittedGLM(beta=beta, family=family, hyper=hyper, eta_hat=eta_hat, n_train=X.shape[0])


def predict_linear(model: FittedGLM, X0) -> np.ndarray:
    """X0 @ beta: an n-vector, or n x K for a p x K fit. The sum is X0's finiteness test: X0 is
    scanned, to name a NaN or inf cell, only if the sum is not finite; if X0 is finite, it warns."""
    beta = model.beta
    X0 = as_array(X0, 2, "X0")
    if X0.shape[1] != beta.shape[0]:
        as_matrix(X0, "X0", beta.shape[0])  # names a non-finite cell before the column count
    eta = stable_matvec(X0, beta)
    if not np.vdot(v := eta.ravel(), v) < np.inf:  # or v'v overflowed: the scan passes
        _check_finite(X0, "X0")
        if not np.isfinite(eta).all():
            warnings.warn("overflow encountered in the prediction sum", RuntimeWarning)
    return eta


def logistic(eta: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-eta)) as a float array, as scipy's ``expit`` computes it, within a few ulp
    and equal in the tails (0 where exp(-eta) overflows, 1 at the top, NaN for NaN). An
    overflowing exp(-eta) is set to inf first: no overflow warning, and no ``np.errstate``."""
    u = np.negative(eta, dtype=float)  # ints and bools too
    if not u.ndim:  # a scalar's negative is a numpy scalar, which takes no masked assignment
        u = np.array(u)
    u[u > _EXP_MAX] = np.inf  # NaN compares false and stays NaN
    np.exp(u, out=u)
    u += 1.0
    return np.reciprocal(u, out=u)


def inverse_link(eta: np.ndarray, family: str) -> np.ndarray:
    validate_family(family)
    if family == "logit":
        return logistic(eta)
    if family == "probit":
        return _special.ndtr(eta)
    return np.exp(eta)


def predict(model: FittedGLM, X0) -> np.ndarray:
    """Mean-scale predictions: probabilities for binary families, rates for counts."""
    return inverse_link(predict_linear(model, X0), model.family)
