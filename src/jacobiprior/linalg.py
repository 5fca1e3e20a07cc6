"""Dense least-squares kernels.

Every estimator in this library has one projection: latent values onto
the column space of the design, via QR, never via an explicit
normal-equations inverse. ``HouseholderQR`` is the only QR code;
``LeastSquaresSolver`` adds the rank check, and its ``solve`` is the one
projection call for a latent vector or an n x K matrix. A tall design is
reduced by row blocks (TSQR) in one block walker, ``project``, which
streams it through one block-sized buffer: no n x p copy, no Q. A fit
projects its latents in the walk that factors X; a tall solver walks X
again for each ``solve``, so callers with many right-hand sides batch
them. The symmetric positive definite kernel solve of the GP classifiers
lives in ``gp``, which likewise calls LAPACK (``dpotrf``, ``dpotrs``)
directly on a buffer it owns.

LAPACK is bound on first use: the first QR imports ``scipy.linalg`` for
its ``lapack`` wrappers (through ``LazyModule``), and each routine is
then an attribute lookup. Checking and predicting
(``as_matrix``, ``stable_matvec``) need only numpy, so a prediction loads
no scipy module.
"""

from __future__ import annotations

import functools
import importlib
import threading

import numpy as np

from .errors import DimensionMismatchError, RankDeficientError

# Condition estimate above this means the design is treated as collinear.
COND_LIMIT = 1e12
# Rows per block of a tall design, for both the QR and stable_matvec's
# prediction sum: 1 MB at p = 8, held in L2.
BLOCK_ROWS = 16384
# stable_matvec forms at most this many products in one broadcast multiply (32 KB, in L1);
# beyond about twice this, at p = 8, the column-by-column sum is faster.
SMALL_PRODUCTS = 4096


class LazyModule:
    """A module's attributes, the module imported on first use: each attribute is then
    cached on this object, so a later use costs an attribute lookup, not an import."""

    def __init__(self, name: str):
        self._name = name

    def __getattr__(self, attr):
        value = getattr(importlib.import_module(self._name), attr)
        setattr(self, attr, value)
        return value


_lapack = LazyModule("scipy.linalg.lapack")


def as_array(a, ndim: int | None, name: str) -> np.ndarray:
    """a as a float array of ``ndim`` dims (any, if None); its values are not checked, but
    must be numbers."""
    try:
        a = np.asarray(a, dtype=float)
    except (TypeError, ValueError) as exc:
        raise DimensionMismatchError(f"{name} must be numeric: {exc}") from None
    if ndim is not None and a.ndim != ndim:
        raise DimensionMismatchError(f"{name} must be {ndim}-d, got ndim={a.ndim}")
    return a


def _check_finite(a: np.ndarray, name: str, row0: int = 0) -> np.ndarray:
    """a, unless an entry is non-finite: the first is named, its row offset by row0."""
    # v'v < inf fails iff an entry is non-finite or v'v overflows; ravel views a contiguous a.
    # np.vdot, since v.dot(v) and v @ v warn when v'v overflows.
    fast = a.size and a.flags.forc and np.vdot(v := a.ravel(order="K"), v) < np.inf
    if not fast and not np.isfinite(a).all():
        idx = tuple(int(i) for i in np.argwhere(~np.isfinite(a))[0])
        where = f"row {row0 + idx[0]}, column {idx[1]}" if a.ndim == 2 else f"index {idx[0]}"
        raise DimensionMismatchError(
            f"{name} contains a non-finite entry at {where}: {float(a[idx])!r}"
        )
    return a


def as_finite(a, ndim: int, name: str) -> np.ndarray:
    """a as a finite float array of ``ndim`` dims; the first non-finite entry is named."""
    return _check_finite(as_array(a, ndim, name), name)


def as_matrix(X, name: str = "X", cols: int | None = None) -> np.ndarray:
    """X as a finite float matrix; with ``cols``, the column count a fitted model expects."""
    X = as_finite(X, 2, name)
    if cols is not None and X.shape[1] != cols:
        raise DimensionMismatchError(f"{name} has {X.shape[1]} columns, model expects {cols}")
    return X


@functools.lru_cache(maxsize=128)
def _geqrf_lwork(m: int, n: int) -> int:
    # The query is a LAPACK call, 2-3% of a 100 x 8 fit; a tall fit repeats two block shapes.
    return max(1, int(_lapack.dgeqrf_lwork(m, n)[0]))


def _geqrf(A):
    """(factor, tau) of F-ordered A, overwritten: R on and above the diagonal."""
    # dgeqrf with the workspace scipy.linalg.qr queries gives its exact
    # factor without the wrapper's repeated checks and second copy of X,
    # which cost more than the factorization itself at n = 100.
    qr, tau, _, info = _lapack.dgeqrf(A, lwork=_geqrf_lwork(*A.shape), overwrite_a=1)
    if info != 0:
        raise RankDeficientError(f"dgeqrf failed with info={info}")
    return qr, tau


def _apply_qt(qr, tau, c: np.ndarray) -> np.ndarray:
    # dormqr sets each reflector's diagonal entry in the stored factor to 1
    # and restores it afterwards: a factor shared across threads needs a lock.
    cq, _, info = _lapack.dormqr("L", "T", qr, tau, c, 64)
    if info != 0:
        raise RankDeficientError(f"dormqr failed with info={info}")
    return cq


def project(X: np.ndarray, T: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(S, C) such that ``HouseholderQR(S).qt(C)`` is ``HouseholderQR(X).qt(T)``, bit for bit.

    T is a finite n-vector or n x K (K = 0: S alone). Below two TSQR row blocks (of
    n // max(BLOCK_ROWS, 8 p) rows) X comes back as it is; else each block is copied
    F-ordered into one buffer, checked finite there (naming a global row), factored in
    place, and S stacks its triu(R_b) and C the first p entries of its Q_b'T_b.
    """
    n, p = X.shape
    k = n // max(BLOCK_ROWS, 8 * p) if n >= 2 * BLOCK_ROWS and p >= 1 else 0  # max() costs a small fit
    if k < 2:
        return X, T
    cols = T if T.ndim == 2 else T[:, None]
    S, C = np.empty((k * p, p)), np.empty((k * p, cols.shape[1]))
    blocks = np.array_split(X, k)
    buf = np.empty(blocks[0].size)  # the first block is a largest one
    start = 0
    for b, block in enumerate(blocks):
        a = buf[: block.size].reshape(p, -1).T
        np.copyto(a, block)
        qr, tau = _geqrf(_check_finite(a, "X", start))
        top = slice(b * p, (b + 1) * p)
        S[top] = np.triu(qr[:p])
        for j, t in enumerate(cols.T):
            C[top, j] = _apply_qt(qr, tau, t[start : start + len(block)])[:p]
        start += len(block)
    return S, C.reshape(k * p, *T.shape[1:])


class HouseholderQR:
    """Householder QR of any matrix with n >= 1 rows, with no rank check.

    ``R`` (p x p) and ``qt(t)`` (first p entries of Q't) are zero-padded
    to p rows when n < p; R'R = X'X and R' qt(t) = X't. Q is never
    formed, and concurrent ``qt`` calls return what each returns alone.
    A design below two TSQR row blocks takes one dgeqrf; a taller one, one
    dgeqrf of the R factors one ``project`` pass stacks, and ``qt`` walks X
    again (``project(X, t)``). It keeps a reference to X, not a copy: X
    must not change while the solver is in use.
    """

    def __init__(self, X):
        X = as_array(X, 2, "X")
        n, p = X.shape
        if n < 1 or p < 1:
            raise RankDeficientError(f"need n >= 1 and p >= 1, got n={n}, p={p}")
        self.n, self.p = n, p
        S = project(X, np.empty((n, 0)))[0]
        self._X = X if S is not X else None  # a tall X, walked again by each qt
        self._factor, self._tau = _geqrf(np.array(_check_finite(S, "X"), order="F"))
        self._lock = threading.Lock()  # for dormqr on the shared factor; see _apply_qt
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
        t = as_array(t, None, "t")
        if t.ndim not in (1, 2) or t.shape[0] != self.n:
            raise DimensionMismatchError(
                f"rhs shape {t.shape} does not have design rows {self.n}"
            )
        cols = _check_finite(t, "t").reshape(self.n, -1)  # names a global row, not a block's
        if self._X is not None:  # one walk of X for all K columns
            cols = project(self._X, cols)[1]
        k = self._qr.shape[1]
        out = np.zeros((self.p, cols.shape[1]))
        for j in range(cols.shape[1]):
            with self._lock:
                out[:k, j] = _apply_qt(self._qr, self._tau, cols[:, j])[:k]
        return out[:, 0] if t.ndim == 1 else out


class LeastSquaresSolver(HouseholderQR):
    """QR of a full-rank design (n >= p, condition estimate <= COND_LIMIT).

    Each further right-hand side costs one reflector application and one
    small triangular solve (and a tall X one walk per call, for all its
    columns), which keeps the Monte Carlo sampler and multinomial fits cheap.
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
        rcond, info = _lapack.dtrcon(self._r, norm="1")
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
            beta, info = _lapack.dtrtrs(self._r, col, lower=0)
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

    A small product (n p K <= ``SMALL_PRODUCTS``, a 100-row predict) is
    formed whole by one broadcast multiply and summed over its p columns:
    p ufunc calls in place of 2p - 1, where a call costs more than its
    arithmetic. A larger one is summed one row block of ``BLOCK_ROWS`` rows
    at a time into a preallocated output, with one reused buffer for the
    products: each block's columns are read while the block sits in L2, so
    a tall C-ordered design is read from memory once, not once per column.
    Every output element gets the same multiplies and adds in the same
    column order either way, so neither changes a bit.
    """
    n, p = X.shape
    if n * beta.size <= SMALL_PRODUCTS:
        terms = np.multiply(X.T if beta.ndim == 1 else X.T[:, :, None], beta[:, None])
        out = terms[0] + terms[1] if p > 1 else terms[0].copy()
        for j in range(2, p):
            out += terms[j]
        return out
    mul = np.multiply if beta.ndim == 1 else np.multiply.outer
    out = np.empty((n,) + beta.shape[1:])
    scratch = np.empty((min(n, BLOCK_ROWS),) + beta.shape[1:])
    for start in range(0, n, BLOCK_ROWS):
        block, acc = X[start : start + BLOCK_ROWS], out[start : start + BLOCK_ROWS]
        term = scratch[: len(block)]
        mul(block[:, 0], beta[0], out=acc)
        for j in range(1, p):
            acc += mul(block[:, j], beta[j], out=term)
    return out
