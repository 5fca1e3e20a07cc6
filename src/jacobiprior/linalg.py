"""Dense least-squares and Cholesky kernels.

All estimators in this library reduce to one of two solves: the
orthogonal projection of latent values onto the column space of the
design (via QR, never via an explicit normal-equations inverse), and a
symmetric positive definite solve for kernel systems. ``HouseholderQR``
is the only QR code (blocked by rows for tall designs); ``LeastSquaresSolver``
adds the rank check, and its ``solve`` is the one projection call for a
latent vector (GLM fits, MC draws, stacked shard factors) or an n x K matrix.
"""

from __future__ import annotations

import threading

import numpy as np
import scipy.linalg
from scipy.linalg.lapack import dgeqrf, dgeqrf_lwork, dormqr, dtrcon, dtrtrs

from .errors import (
    DimensionMismatchError,
    NotPositiveDefiniteError,
    RankDeficientError,
)

# Condition estimate above this means the design is treated as collinear.
COND_LIMIT = 1e12
BLOCK_ROWS = 16384  # rows per block of a tall design's QR: 1 MB at p = 8, held in L2


def _as_finite(a, ndim: int, name: str) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if a.ndim != ndim:
        raise DimensionMismatchError(f"{name} must be {ndim}-d, got ndim={a.ndim}")
    # v'v < inf fails iff an entry is non-finite or v'v overflows; ravel views a contiguous a
    fast = a.size and a.flags.forc and scipy.linalg.blas.ddot(v := a.ravel(order="K"), v) < np.inf
    if not fast and not np.isfinite(a).all():
        idx = tuple(int(i) for i in np.argwhere(~np.isfinite(a))[0])
        where = f"row {idx[0]}, column {idx[1]}" if ndim == 2 else f"index {idx[0]}"
        raise DimensionMismatchError(
            f"{name} contains a non-finite entry at {where}: {float(a[idx])!r}"
        )
    return a


def as_matrix(X, name: str = "X") -> np.ndarray:
    return _as_finite(X, 2, name)


def as_vector(v, name: str = "v") -> np.ndarray:
    return _as_finite(v, 1, name)


def _geqrf(A):
    """(factor, tau, lock) of F-ordered A, overwritten: R on and above the diagonal."""
    # dgeqrf with the workspace scipy.linalg.qr queries gives its exact
    # factor without the wrapper's repeated checks and second copy of X,
    # which cost more than the factorization itself at n = 100.
    lwork = max(1, int(dgeqrf_lwork(*A.shape)[0]))
    qr, tau, _, info = dgeqrf(A, lwork=lwork, overwrite_a=1)
    if info != 0:
        raise RankDeficientError(f"dgeqrf failed with info={info}")
    return qr, tau, threading.Lock()


def _apply_qt(qr, tau, lock, c: np.ndarray) -> np.ndarray:
    # dormqr sets each reflector's diagonal entry in the stored factor
    # to 1 and restores it afterwards; the lock keeps concurrent calls
    # from reading the factor in between.
    with lock:
        cq, _, info = dormqr("L", "T", qr, tau, c, 64)
    if info != 0:
        raise RankDeficientError(f"dormqr failed with info={info}")
    return cq


class HouseholderQR:
    """Householder QR of any matrix with n >= 1 rows, with no rank check.

    ``R`` (p x p) and ``qt(t)`` (first p entries of Q't) are zero-padded
    to p rows when n < p; R'R = X'X and R' qt(t) = X't. Q is never
    formed, and concurrent ``qt`` calls return what each returns alone.
    With n >= 2 m rows, m = max(BLOCK_ROWS, 8 p), n // m row blocks are factored,
    then their stacked R factors (TSQR); fewer rows take one dgeqrf, bit for bit.
    """

    def __init__(self, X):
        X = as_matrix(X)
        n, p = X.shape
        if n < 1 or p < 1:
            raise RankDeficientError(f"need n >= 1 and p >= 1, got n={n}, p={p}")
        self.n, self.p = n, p
        n_blocks = n // max(BLOCK_ROWS, 8 * p)
        self._blocks = []
        if n_blocks >= 2:  # one F-ordered copy for all blocks; a copy per block churns the heap
            blocks = np.array_split(X, n_blocks)
            flat = np.concatenate([b.T for b in blocks], axis=None)
            ends = np.cumsum([b.size for b in blocks])[:-1]
            self._blocks = [_geqrf(f.reshape(p, -1).T) for f in np.split(flat, ends)]
            X = np.vstack([np.triu(f[:p]) for f, _, _ in self._blocks])  # p reflectors each
        self._factor, self._tau, self._lock = _geqrf(np.array(X, order="F"))
        self._qr = self._factor[:, : self._tau.shape[0]]  # the k = min(n, p) reflectors dormqr applies

    @property
    def R(self) -> np.ndarray:
        k = self._qr.shape[1]
        R = np.zeros((self.p, self.p))
        with self._lock:  # a concurrent qt may have a diagonal entry set to 1
            R[:k] = np.triu(self._factor[:k])
        return R

    def qt(self, t: np.ndarray) -> np.ndarray:
        """First p entries of Q't: p values for an n-vector, p x K for n x K."""
        t = np.asarray(t, dtype=float)
        if t.ndim not in (1, 2) or t.shape[0] != self.n:
            raise DimensionMismatchError(
                f"rhs shape {t.shape} does not have design rows {self.n}"
            )
        cols = _as_finite(t, t.ndim, "t").reshape(self.n, -1)  # names a global row, not a block's
        k = self._qr.shape[1]
        out = np.zeros((self.p, cols.shape[1]))
        for j in range(cols.shape[1]):
            c = cols[:, j]
            if self._blocks:  # stack each block's first p entries as its R rows are stacked
                parts = zip(self._blocks, np.array_split(c, len(self._blocks)))
                c = np.concatenate([_apply_qt(*b, cb)[: self.p] for b, cb in parts])
            out[:k, j] = _apply_qt(self._qr, self._tau, self._lock, c)[:k]
        return out[:, 0] if t.ndim == 1 else out


class LeastSquaresSolver(HouseholderQR):
    """QR of a full-rank design (n >= p, condition estimate <= COND_LIMIT).

    Each further right-hand side costs one reflector application and
    one small triangular solve, which keeps the Monte Carlo sampler and
    the multinomial fits cheap.
    """

    def __init__(self, X):
        super().__init__(X)
        if self.n < self.p:
            raise RankDeficientError(f"need n >= p, got n={self.n}, p={self.p}")
        # dtrcon and dtrtrs read only the upper triangle of these rows. They
        # are a private copy: dormqr rewrites the factor's diagonal under the lock.
        self._r = self._qr[: self.p].copy(order="F")
        # cond(X) == cond(R) because Q has orthonormal columns; dtrcon's
        # reciprocal 1-norm estimate on the small triangular factor is
        # far cheaper than an SVD and accurate to a modest factor.
        rcond, info = dtrcon(self._r, norm="1")
        self.cond = float(1.0 / rcond) if rcond > 0 else float("inf")
        if info != 0 or not np.isfinite(self.cond) or self.cond > COND_LIMIT:
            raise RankDeficientError(
                f"design condition estimate {self.cond:.3e} exceeds {COND_LIMIT:.0e}"
            )

    def solve(self, t: np.ndarray) -> np.ndarray:
        """argmin over beta of ||X beta - t||_2 for an n-vector or n x K matrix t.

        Column k of a matrix result is bit-identical to ``solve(t[:, k])``:
        each column gets its own ``qt`` and triangular solve, because one
        blocked multi-column LAPACK call rounds differently.
        """
        c = self.qt(t)
        betas = []
        for col in c.T if c.ndim == 2 else [c]:
            beta, info = dtrtrs(self._r, col, lower=0)
            if info != 0:
                raise RankDeficientError(f"triangular solve failed with info={info}")
            betas.append(beta)
        return betas[0] if c.ndim == 1 else np.column_stack(betas)


def stable_matvec(X: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """X @ beta with a fixed left-to-right column accumulation.

    ``beta`` is a p-vector (n-vector result) or a p x K matrix (n x K
    result, column k bit-identical to ``stable_matvec(X, beta[:, k])``).
    BLAS gemv/gemm results can differ by a few ULPs between equal-valued
    buffers at different alignments; prediction surfaces promise
    bit-identical output for equal inputs (model files round-trip,
    column order in CSVs is irrelevant), so they avoid BLAS.
    """
    mul = np.multiply if beta.ndim == 1 else np.multiply.outer
    out = mul(X[:, 0], beta[0])
    for j in range(1, X.shape[1]):
        out += mul(X[:, j], beta[j])
    return out


def solve_normal_equations(X, t) -> np.ndarray:
    """Least-squares projection of t onto the column space of X.

    Raises RankDeficientError when the condition estimate of X exceeds
    ``COND_LIMIT`` (collinear design) and DimensionMismatchError on
    shape errors or non-finite input.
    """
    return LeastSquaresSolver(X).solve(as_vector(t, "t"))


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
