"""Dense least-squares kernels.

Every estimator in this library has one projection: latent values onto
the column space of the design, via QR, never via an explicit
normal-equations inverse. ``project(X, T)`` reduces X and T to the p x p
triangular R and the first p rows of Q'T at every n, and keeps no Q. Its
one QR body factors a copy of X whole; a tall X is TSQR, that body on
each row block and the reduction again on the stacked (R_b, Q_b'T_b)
pairs, as the shards' pooled fit is. X is read once: a non-finite cell
makes R non-finite, so X is scanned for it only then. ``lstsq`` is the
one solve: ``project``, the rank check, the back solve; it reduces X
again on each call, so a caller passes max(p, BLOCK_ROWS p // n)
right-hand sides a call (``rhs_width``): the Monte Carlo's draw blocks,
the poisson grid's values of a. No factor outlives its call, so threads
share no state. The solver class is kept only for perfbench. The GP
kernel solve lives in ``gp``, which calls LAPACK (``dpotrf``,
``dpotrs``) through ``lapack``. ``stable_matvec``, the one prediction
sum, is one ``einsum`` per class column over C-ordered row blocks.

``lapack`` is the one LAPACK binding, made on first use: the first call
loads scipy's compiled wrappers, ``scipy.linalg._flapack``, from their
file without running the ``scipy`` or ``scipy.linalg`` ``__init__``, and
each routine is then an attribute lookup. The routines are the objects
``scipy.linalg.lapack`` exports. Checking and predicting (``as_matrix``,
``stable_matvec``) need only numpy, so a prediction loads no scipy
module, and a QR one extension module and no scipy package.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import os
import sys

import numpy as np

from .errors import DimensionMismatchError, RankDeficientError

# Condition estimate above this means the design is treated as collinear.
COND_LIMIT = 1e12
# Rows per block of a tall design, for both the QR and stable_matvec's
# prediction sum: 1 MB at p = 8, held in L2.
BLOCK_ROWS = 16384


class LazyModule:
    """A module's attributes, the module loaded on first use by ``load`` (an import, by
    default): each attribute is then cached on this object, so a later use costs an
    attribute lookup, not an import."""

    def __init__(self, name: str, load=importlib.import_module):
        self._name, self._load = name, load

    def __getattr__(self, attr):
        value = getattr(self._load(self._name), attr)
        setattr(self, attr, value)
        return value


def _load_extension(name: str):
    """The compiled module ``name`` (``package.sub._ext``), loaded from its file with no
    package ``__init__`` run, and registered so that a later import reuses it."""
    if name in sys.modules:
        return sys.modules[name]
    top, *subdirs, _ = name.split(".")
    package = importlib.util.find_spec(top)  # locates the package, imports nothing
    if package is None:
        raise ImportError(f"package {top} not found, for {name}", name=name)
    where = os.path.join(os.path.dirname(package.origin), *subdirs)
    spec = importlib.machinery.PathFinder.find_spec(name, [where])
    if spec is None:
        raise ImportError(f"extension module {name} not found in {where}", name=name)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    sys.modules[name] = module
    return module


# scipy's LAPACK wrappers, without the ~100 ms of ``import scipy.linalg``.
lapack = LazyModule("scipy.linalg._flapack", _load_extension)


def as_array(a, ndim: int | None, name: str) -> np.ndarray:
    """a as a float array of ``ndim`` dims (any, if None); its values are not checked, but
    must be numbers: NaN is one; None, which numpy reads as NaN, is not."""
    try:
        arr = np.asarray(a, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:  # OverflowError: an int past 1.8e308
        raise DimensionMismatchError(f"{name} must be numeric: {exc}") from None
    if arr is not a and np.isnan(arr).any() and None in np.asarray(a, dtype=object).flat:
        raise DimensionMismatchError(f"{name} must be numeric: got None")
    if ndim is not None and arr.ndim != ndim:
        raise DimensionMismatchError(f"{name} must be {ndim}-d, got ndim={arr.ndim}")
    return arr


def _check_finite(a: np.ndarray, name: str) -> np.ndarray:
    """a, unless an entry is non-finite: the first, in C order, is named."""
    # v'v < inf fails iff an entry is non-finite or v'v overflows; ravel views a contiguous a.
    # np.vdot, since v.dot(v) and v @ v warn when v'v overflows.
    fast = a.size and a.flags.forc and np.vdot(v := a.ravel(order="K"), v) < np.inf
    if not fast and not np.isfinite(a).all():
        idx = tuple(int(i) for i in np.argwhere(~np.isfinite(a))[0])
        where = f"row {idx[0]}, column {idx[1]}" if a.ndim == 2 else f"index {idx[0]}"
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


def rhs_width(n: int, p: int) -> int:
    """Right-hand sides per ``lstsq`` call of an n x p X: about one row block of values, >= p."""
    return max(1, p, BLOCK_ROWS * p // max(1, n))  # an empty X reaches lstsq and its error


@functools.lru_cache(maxsize=128)
def _geqrf_lwork(m: int, n: int) -> int:
    # The query is a LAPACK call, 2-3% of a 100 x 8 fit; a tall fit repeats two block shapes.
    return max(1, int(lapack.dgeqrf_lwork(m, n)[0]))


def _geqrf(A):
    """(factor, tau) of F-ordered A, overwritten: R on and above the diagonal."""
    # dgeqrf with the workspace scipy.linalg.qr queries gives its exact
    # factor without the wrapper's repeated checks and second copy of X,
    # which cost more than the factorization itself at n = 100.
    qr, tau, _, info = lapack.dgeqrf(A, lwork=_geqrf_lwork(*A.shape), overwrite_a=1)
    if info != 0:
        raise RankDeficientError(f"dgeqrf failed with info={info}")
    return qr, tau


@functools.lru_cache(maxsize=16)
def _upper(p: int) -> np.ndarray:  # R's mask in a factor: np.triu costs more than a 100 x 8 dgeqrf
    return np.triu(np.ones((p, p), dtype=bool))


def _apply_qt(qr, tau, c: np.ndarray) -> np.ndarray:
    # dormqr sets each reflector's diagonal entry in qr to 1 and restores it
    # afterwards; every factor is local to one ``project`` call, so none is shared.
    cq, _, info = lapack.dormqr("L", "T", qr, tau, c, 64)
    if info != 0:
        raise RankDeficientError(f"dormqr failed with info={info}")
    return cq


def project(X: np.ndarray, T: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(R, C): the p x p triangular R of X = QR (R'R = X'X) and the first p rows of Q'T.

    X is a float matrix, n, p >= 1; T a finite n-vector or n x K (K = 0: R alone). R is
    F-ordered and zero below row min(n, p); C, a p-vector or p x K, is padded likewise.
    Below two TSQR row blocks (of n // max(BLOCK_ROWS, 8 p) rows) X is reduced whole. A
    taller X is TSQR: each row block is reduced alone and the stacked (R_b, C_b) pairs are
    reduced again. Only one block's copy is alive at a time; no n x p copy is made. The
    reduction is X's finiteness test: a NaN or inf cell makes R non-finite, and only then
    is X scanned, to name its first non-finite cell.
    """
    n, p = X.shape
    if n < 1 or p < 1:
        raise RankDeficientError(f"need n >= 1 and p >= 1, got n={n}, p={p}")
    R, C = _tsqr(X, T)
    if not np.vdot(v := R.ravel(order="K"), v) < np.inf:  # or R'R overflowed: the scan passes
        _check_finite(X, "X")
    return R, C


def _tsqr(X: np.ndarray, T: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``project``'s reduction of X and T, by row blocks for a tall X; R is not checked."""
    n, p = X.shape
    k = n // max(BLOCK_ROWS, 8 * p) if n >= 2 * BLOCK_ROWS else 0  # max() costs a small fit
    if k < 2:
        return _reduce(X, T)
    pairs = [_reduce(block, t) for block, t in zip(np.array_split(X, k), np.array_split(T, k))]
    return _tsqr(np.vstack([R for R, _ in pairs]), np.concatenate([C for _, C in pairs]))


def _reduce(X: np.ndarray, T: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """X and T reduced whole: an F-ordered copy of X, factored in place. Each column of T
    gets its own dormqr, since one multi-column call rounds differently."""
    qr, tau = _geqrf(np.array(X, order="F"))
    m, p = tau.shape[0], X.shape[1]  # min(n, p) reflectors
    cols = T if T.ndim == 2 else T[:, None]
    R, C = np.zeros((p, p), order="F"), np.zeros((p, cols.shape[1]))
    np.copyto(R[:m], qr[:m], where=_upper(p)[:m])
    qr = qr[:, :m]
    for j, t in enumerate(cols.T):
        C[:m, j] = _apply_qt(qr, tau, t)[:m]
    return R, C if T.ndim == 2 else C[:, 0]


def _check_rank(n: int, R: np.ndarray) -> float:
    """The condition estimate of X = QR, once it has n >= p rows and cond <= COND_LIMIT."""
    p = R.shape[0]
    if n < p:
        raise RankDeficientError(f"need n >= p, got n={n}, p={p}")
    # cond(X) == cond(R) because Q has orthonormal columns; dtrcon's
    # reciprocal 1-norm estimate on the small triangular factor is
    # far cheaper than an SVD and accurate to a modest factor.
    rcond, info = lapack.dtrcon(R, norm="1")
    cond = float(1.0 / rcond) if rcond > 0 else float("inf")
    if info != 0 or not np.isfinite(cond) or cond > COND_LIMIT:
        raise RankDeficientError(f"design condition estimate {cond:.3e} exceeds {COND_LIMIT:.0e}")
    return cond


def lstsq(X: np.ndarray, T: np.ndarray) -> np.ndarray:
    """argmin over beta of ||X beta - T||_2 for a float matrix X of full rank and a finite
    n-vector or n x K T: ``project``, the rank rule, the back solve."""
    R, C = project(X, T)
    _check_rank(X.shape[0], R)
    if C.ndim == 1:
        return _back_solve(R, C)
    beta = np.empty(C.shape)  # one dtrtrs per column of a p x K C, so each keeps its own bits
    for j in range(C.shape[1]):
        beta[:, j] = _back_solve(R, C[:, j])
    return beta


def _back_solve(R: np.ndarray, c: np.ndarray) -> np.ndarray:
    beta, info = lapack.dtrtrs(R, c, lower=0)
    if info != 0:
        raise RankDeficientError(f"triangular solve failed with info={info}")
    return beta


class LeastSquaresSolver:
    """A full-rank design X (n >= p, ``cond`` <= COND_LIMIT) and its p x p ``R``; no library
    code uses it, and it is kept only until perfbench stops building one. It keeps a
    reference to X, which must not change while it is in use; ``solve`` is ``lstsq``."""

    def __init__(self, X):
        X = as_array(X, 2, "X")
        self.n, self.p = X.shape
        self.R = project(X, np.empty((self.n, 0)))[0]
        self.cond = _check_rank(self.n, self.R)
        self._X = X

    def solve(self, t) -> np.ndarray:
        """argmin ||X beta - t||_2 for an n-vector or n x K t; column k is ``solve(t[:, k])``."""
        t = as_array(t, None, "t")
        if t.ndim not in (1, 2) or t.shape[0] != self.n:
            raise DimensionMismatchError(f"rhs shape {t.shape} does not have design rows {self.n}")
        return lstsq(self._X, _check_finite(t, "t"))


def stable_matvec(X: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """X @ beta without BLAS, whose sums vary with buffer alignment, row offset and threads.

    ``beta`` is a p-vector (n-vector result) or p x K (n x K result, column k bit-identical
    to ``stable_matvec(X, beta[:, k])``). Each class column is one ``einsum`` per C-ordered
    row block of about 1 MB (``BLOCK_ROWS`` rows at p = 8; a copy if X is not C-ordered), so
    a row's bits follow from its own p values. einsum warns of no overflow.
    """
    n, p = X.shape
    cols = [np.ascontiguousarray(b) for b in beta.reshape(p, -1).T]
    out = np.empty((n, len(cols)))
    step = max(1, BLOCK_ROWS * 8 // p)
    for start in range(0, n, step):
        block = np.ascontiguousarray(X[start : start + step])
        for k, b in enumerate(cols):
            np.einsum("ij,j->i", block, b, out=out[start : start + step, k])
    return out if beta.ndim == 2 else out[:, 0]
