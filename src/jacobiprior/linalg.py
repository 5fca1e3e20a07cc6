"""Dense least-squares and Cholesky kernels.

All estimators in this library reduce to one of two solves: the
orthogonal projection of latent values onto the column space of the
design (via QR, never via an explicit normal-equations inverse), and a
symmetric positive definite solve for kernel systems. The projection
is one call, ``LeastSquaresSolver.solve``, for a single latent vector
(GLM fits, Monte Carlo draws) and for an n x K latent matrix
(multinomial and multiclass GP fits) alike.
"""

from __future__ import annotations

import threading

import numpy as np
import scipy.linalg
from scipy.linalg.lapack import dgeqrf, dormqr, dtrcon, dtrtrs

from .errors import (
    DimensionMismatchError,
    NotPositiveDefiniteError,
    RankDeficientError,
)

# Condition estimate above this means the design is treated as collinear.
COND_LIMIT = 1e12


def as_matrix(X, name: str = "X") -> np.ndarray:
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise DimensionMismatchError(f"{name} must be 2-d, got ndim={X.ndim}")
    if not np.all(np.isfinite(X)):
        raise DimensionMismatchError(f"{name} contains non-finite entries")
    return X


def as_vector(v, name: str = "v") -> np.ndarray:
    v = np.asarray(v, dtype=float)
    if v.ndim != 1:
        raise DimensionMismatchError(f"{name} must be 1-d, got ndim={v.ndim}")
    if not np.all(np.isfinite(v)):
        raise DimensionMismatchError(f"{name} contains non-finite entries")
    return v


class LeastSquaresSolver:
    """QR factorization of a design matrix, reusable across right-hand sides.

    Factoring once and reusing the factor is what makes the Monte
    Carlo sampler and the per-class multinomial fits cheap: each
    additional right-hand side costs one reflector application and one
    small triangular solve. Q is never formed explicitly.

    One solver may serve ``solve`` calls from many threads at once; each
    returns exactly what the same call returns when run alone.
    """

    def __init__(self, X):
        X = as_matrix(X)
        n, p = X.shape
        if n < max(p, 1):
            raise RankDeficientError(f"need n >= p and n >= 1, got n={n}, p={p}")
        self.X = X
        self.n = n
        self.p = p
        self._lock = threading.Lock()
        # dgeqrf with the workspace scipy.linalg.qr queries gives its exact
        # factor without the wrapper's repeated checks and second copy of X,
        # which cost more than the factorization itself at n = 100.
        qr = np.array(X, order="F")
        lwork = max(1, int(dgeqrf(qr, lwork=-1, overwrite_a=1)[2][0]))
        self._qr, self._tau, _, info = dgeqrf(qr, lwork=lwork, overwrite_a=1)
        if info != 0:
            raise RankDeficientError(f"dgeqrf failed with info={info}")
        self.R = np.triu(self._qr[:p, :])
        # cond(X) == cond(R) because Q has orthonormal columns; dtrcon's
        # reciprocal 1-norm estimate on the small triangular factor is
        # far cheaper than an SVD and accurate to a modest factor.
        rcond, info = dtrcon(self.R, norm="1")
        self.cond = float(1.0 / rcond) if rcond > 0 else float("inf")
        if info != 0 or not np.isfinite(self.cond) or self.cond > COND_LIMIT:
            raise RankDeficientError(
                f"design condition estimate {self.cond:.3e} exceeds {COND_LIMIT:.0e}"
            )

    def solve(self, t: np.ndarray) -> np.ndarray:
        """Return argmin over beta of ||X beta - t||_2, column by column.

        ``t`` is an n-vector (returns p values) or an n x K matrix
        (returns p x K). Column k of a matrix result is bit-identical to
        ``solve(t[:, k])``: each column gets its own reflector
        application and triangular solve, because one blocked
        multi-column LAPACK call rounds differently.
        """
        t = np.asarray(t, dtype=float)
        if t.ndim not in (1, 2) or t.shape[0] != self.n:
            raise DimensionMismatchError(
                f"rhs shape {t.shape} does not have design rows {self.n}"
            )
        cols = t.reshape(self.n, -1)
        betas = []
        # dormqr sets each reflector's diagonal entry in the stored factor
        # to 1 and restores it afterwards; the lock keeps concurrent solves
        # from reading the factor in between.
        with self._lock:
            for k in range(cols.shape[1]):
                c = cols[:, k : k + 1].copy()
                cq, _, info = dormqr("L", "T", self._qr, self._tau, c, 64, overwrite_c=1)
                if info != 0:
                    raise RankDeficientError(f"dormqr failed with info={info}")
                beta, info = dtrtrs(self.R, cq[: self.p], lower=0)
                if info != 0:
                    raise RankDeficientError(f"triangular solve failed with info={info}")
                betas.append(beta)
        return betas[0][:, 0] if t.ndim == 1 else np.hstack(betas)


def stable_matvec(X: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """X @ beta with a fixed left-to-right column accumulation.

    BLAS gemv results can differ by a few ULPs between equal-valued
    buffers at different alignments; prediction surfaces promise
    bit-identical output for equal inputs (model files round-trip,
    column order in CSVs is irrelevant), so they avoid gemv.
    """
    out = X[:, 0] * beta[0]
    for j in range(1, X.shape[1]):
        out += X[:, j] * beta[j]
    return out


def solve_normal_equations(X, t) -> np.ndarray:
    """Least-squares projection of t onto the column space of X.

    Raises RankDeficientError when the condition estimate of X exceeds
    ``COND_LIMIT`` (collinear design) and DimensionMismatchError on
    shape errors or non-finite input.
    """
    t = as_vector(t, "t")
    return LeastSquaresSolver(X).solve(t)


def cholesky_solve(A, B) -> np.ndarray:
    """Solve A Z = B for symmetric positive definite A.

    A must be symmetric within 1e-10 relative; failure of the Cholesky
    factorization raises NotPositiveDefiniteError (typical causes:
    zero noise variance with duplicated rows, or invalid kernel
    parameters).
    """
    A = as_matrix(A, "A")
    n, m = A.shape
    if n != m:
        raise DimensionMismatchError(f"A must be square, got {A.shape}")
    B = np.asarray(B, dtype=float)
    if B.shape[0] != n:
        raise DimensionMismatchError(f"B has {B.shape[0]} rows, expected {n}")
    scale = np.max(np.abs(A)) if n else 0.0
    if scale > 0 and np.max(np.abs(A - A.T)) > 1e-10 * scale:
        raise NotPositiveDefiniteError("A is not symmetric within 1e-10 relative")
    try:
        c, low = scipy.linalg.cho_factor(A, lower=True, check_finite=False)
    except scipy.linalg.LinAlgError as exc:
        raise NotPositiveDefiniteError(str(exc)) from exc
    return scipy.linalg.cho_solve((c, low), B, check_finite=False)
