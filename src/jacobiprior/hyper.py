"""Hyperparameter study tools: shape-pair sensitivity grids and stochastic search.

The projection is linear in eta and the modes depend on (a, b) only
through scalars. With u = X_eval solve(1), logit and probit give
X_eval beta(a, b) = m0 u + (m1 - m0) X_eval solve(y) for the modes m0, m1
at y = 0, 1, and poisson X_eval solve(log(y + a)) - log(1 + b) u. So a
grid or a search costs one ``lstsq`` (binary), or one plus one per ``rhs_width(n, p)``
distinct a (poisson); each pair is then mode work (one ``glm.lanes`` call for all binary
pairs) and an O(n_eval) combination. ``_surface`` returns one score per pair, NaN where
the pair's shapes or modes are refused or its score is not finite (a poisson rate past
1e308); a grid reshapes it, a search keeps its finite scores. Cells are scored in batches
of at most ``linalg.BLOCK_ROWS`` predictions (``BLOCK_ROWS // n_eval`` cells, at least
one): one array pass forms a batch's block and the objective reduces each row, so every score
is bit-identical to its cell's alone.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import MAX_COUNT, DimensionMismatchError, InvalidHyperError, is_count, real
from .glm import _first_error, check_response, inverse_link, lanes, valid_shape
from .linalg import BLOCK_ROWS, as_array, as_matrix, lstsq, rhs_width, stable_matvec
from .modelio import csv_text
from .rng import SeedSpec, derive_rng
from .simlab.metrics import accuracy, check_disbursement, surrogate_rmse, utility_total

SEARCH_LO = 1e-3
SEARCH_HI = 2.0
OBJECTIVES = ("rmse", "accuracy", "utility")


@dataclass
class GridReport:
    """Scores over a cartesian (a, b) grid; NaN marks an invalid cell."""

    a_values: np.ndarray
    b_values: np.ndarray
    scores: np.ndarray  # len(a_values) x len(b_values)

    def best(self) -> tuple[float, float, float]:
        """(a, b, score) of the minimizing cell, ignoring missing cells."""
        if np.all(np.isnan(self.scores)):
            raise InvalidHyperError("every grid cell failed")
        i, j = np.unravel_index(np.nanargmin(self.scores), self.scores.shape)
        return float(self.a_values[i]), float(self.b_values[j]), float(self.scores[i, j])

    def to_csv_text(self) -> str:
        a, b = np.meshgrid(self.a_values, self.b_values, indexing="ij")
        return csv_text(["a", "b", "score"], zip(a.flat, b.flat, self.scores.flat))


def _surface(X_train, y_train, X_eval, y_eval, family: str, pairs, score) -> np.ndarray:
    """One float per (a, b) in pairs: score(y_eval, P) of its predictions P on X_eval from
    ``lstsq`` calls on X_train, or NaN where its shapes or modes are refused or its score is
    not finite. The inputs are checked first, and every mode is found before the first batch
    is scored, so the first error is that of a pair-at-a-time loop; score reduces each row
    of a batch's predictions."""
    X_train = as_array(X_train, 2, "X")
    y = check_response(y_train, family, X_train.shape[0], (1,))
    n, p = X_train.shape
    poisson = family == "poisson"
    basis = lstsq(X_train, np.column_stack([np.ones(n)] + ([] if poisson else [y])))
    X_eval = as_matrix(X_eval, "X_eval", p)
    y_eval = check_response(y_eval, family, X_eval.shape[0], (1,))
    u, *v = stable_matvec(X_eval, basis).T
    step = max(1, BLOCK_ROWS // max(1, u.shape[0]))  # cells a batch: at most BLOCK_ROWS predictions
    kept = [k for k, (a, b) in enumerate(pairs) if valid_shape(a) and valid_shape(b)]
    if poisson:
        cells = np.array([(pairs[k][0], math.log(1.0 + pairs[k][1])) for k in kept]).reshape(-1, 2)
    else:
        a, b = np.array([pairs[k] for k in kept]).reshape(-1, 2).T[:, :, None]  # pairs x 1
        mode, ok = lanes(family, (1.0, 0.0), a, b)  # pairs x 2: a pair's lanes y = 1, y = 0
        solved = ok.all(axis=1)
        for i in np.flatnonzero(~solved).tolist():  # a pair's first failing lane decides
            error = _first_error(family, (1.0, 0.0), a[i], b[i], ok[i])
            if not isinstance(error, InvalidHyperError):  # an improper pair is dropped
                raise error
        kept, cells = list(itertools.compress(kept, solved.tolist())), mode[solved, ::-1]
    coef = {}  # a -> the p coefficients of log(y + a), poisson
    distinct = list(dict.fromkeys(cells[:, 0].tolist())) if poisson else []
    width = rhs_width(n, p)  # values of a per lstsq: one QR, one walk of X
    for i in range(0, len(distinct), width):
        group = distinct[i : i + width]
        T = np.add.outer(group, y).T  # F-ordered, column j a_j + y: its log as for one a
        coef.update(zip(group, lstsq(X_train, np.log(T, out=T)).T))

    @functools.lru_cache(maxsize=1)  # a grid visits each a in one run of cells
    def count_part(a):
        return stable_matvec(X_eval, coef[a])

    scores = np.full(len(pairs), np.nan)
    for i in range(0, len(cells), step):
        m = cells[i : i + step]
        with np.errstate(over="ignore", invalid="ignore"):  # a rate past 1e308: NaN below
            if poisson:
                eta = np.array([count_part(a) for a in m[:, 0].tolist()]) - m[:, 1:] * u
            else:
                eta = m[:, :1] * u
                eta += (m[:, 1:] - m[:, :1]) * v[0]
            scores[kept[i : i + step]] = score(y_eval, inverse_link(eta, family))
    return np.where(np.isfinite(scores), scores, np.nan)


def sensitivity_grid(
    X_train,
    y_train,
    X_test,
    y_test,
    family: str,
    a_values,
    b_values,
) -> GridReport:
    """Out-of-sample surrogate RMSE for every (a, b) cell.

    Cells whose shape pair violates a mode precondition are recorded
    as NaN instead of aborting the grid. Evaluation order has no
    effect on the scores.
    """
    try:
        a_values = np.sort(as_array(a_values, 1, "a_values"))
        b_values = np.sort(as_array(b_values, 1, "b_values"))
    except DimensionMismatchError as exc:
        raise InvalidHyperError(str(exc)) from None
    pairs = list(itertools.product(a_values.tolist(), b_values.tolist()))
    scores = _surface(X_train, y_train, X_test, y_test, family, pairs, surrogate_rmse)
    return GridReport(a_values, b_values, scores.reshape(len(a_values), len(b_values)))


@dataclass
class SearchResult:
    best_a: float
    best_b: float
    best_score: float
    trace: list = field(default_factory=list)  # (a, b, score) in sampling order
    skipped: int = 0


def stochastic_search(
    X_train,
    y_train,
    X_val,
    y_val,
    family: str,
    budget: int,
    seed: SeedSpec = SeedSpec(),
    objective: str = "rmse",
    disbursement=None,
    lo: float = SEARCH_LO,
    hi: float = SEARCH_HI,
) -> SearchResult:
    """Log-uniform random search over the shape pair on [lo, hi]^2.

    Candidates come from one derived stream in a fixed order, so a
    larger budget with the same seed extends the trace rather than
    reshuffling it, and the incumbent score is non-increasing along
    the trace.
    """
    if not (is_count(budget) and budget <= MAX_COUNT):
        raise InvalidHyperError(f"budget must be an integer in [1, {MAX_COUNT}], got {budget!r}")
    if not 0 < real(lo) <= real(hi):
        raise InvalidHyperError(f"need finite 0 < lo <= hi, got lo={lo!r}, hi={hi!r}")
    if objective not in OBJECTIVES:
        raise InvalidHyperError(f"unknown objective {objective!r}, expected one of {OBJECTIVES}")
    if objective == "utility":
        if disbursement is None:
            raise InvalidHyperError("utility objective needs a disbursement vector")
        disbursement = check_disbursement(disbursement, as_array(X_val, 2, "X_eval").shape[0])
    rng = derive_rng(seed, 0)
    lo, hi = (float(v) if isinstance(v, int) else v for v in (lo, hi))  # np.log(2**64) fails
    pairs = np.exp(rng.uniform(np.log(lo), np.log(hi), size=(budget, 2))).tolist()
    score = {
        "rmse": surrogate_rmse,
        "accuracy": lambda y, P: -accuracy(y, P),
        # Approving predicted non-defaulters: defaults are the positive class.
        "utility": lambda y, P: -utility_total(y, 1.0 - (P >= 0.5), disbursement),
    }[objective]
    scores = _surface(X_train, y_train, X_val, y_val, family, pairs, score).tolist()
    trace = [(a, b, s) for (a, b), s in zip(pairs, scores) if math.isfinite(s)]
    if not trace:
        raise InvalidHyperError("every search candidate failed")
    best = min(trace, key=lambda t: t[2])  # the first of equal scores, as the trace runs
    return SearchResult(*best, trace=trace, skipped=int(budget) - len(trace))
