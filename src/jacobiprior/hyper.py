"""Hyperparameter study tools: shape-pair sensitivity grids and stochastic search.

The projection is linear in eta and the modes depend on (a, b) only
through scalars. With u = X_eval solve(1), logit and probit give
X_eval beta(a, b) = m0 u + (m1 - m0) X_eval solve(y) for the modes m0, m1
at y = 0, 1, and poisson X_eval solve(log(y + a)) - log(1 + b) u. So a
grid or a search costs one QR plus two solves (binary) or one solve per
distinct a plus one (poisson); each pair is then scalar mode work and an
O(n_eval) combination.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidHyperError, is_count
from .glm import JacobiHyper, binary_modes, check_response, inverse_link
from .linalg import LeastSquaresSolver, as_array, as_matrix, stable_matvec
from .modelio import csv_text
from .rng import SeedSpec, derive_rng
from .simlab.metrics import accuracy, surrogate_rmse, utility_total

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


def _objective_score(objective, y_val, preds, disbursement):
    if objective == "rmse":
        return surrogate_rmse(y_val, preds)
    if objective == "accuracy":
        return -accuracy(y_val, preds)
    approve = (preds >= 0.5).astype(float)
    # Approving predicted non-defaulters: defaults are the positive class.
    return -utility_total(y_val, 1.0 - approve, disbursement)


def _surface(X_train, y_train, X_eval, y_eval, family: str):
    """(predict_at, checked y_eval); predict_at(a, b) predicts on X_eval from one QR of
    X_train. Every input is checked once, before any cell."""
    X_train = as_array(X_train, 2, "X")
    y = check_response(y_train, family, X_train.shape[0], (1,))
    solver = LeastSquaresSolver(X_train)
    X_eval = as_matrix(X_eval, "X_eval", solver.p)
    y_eval = check_response(y_eval, family, X_eval.shape[0], (1,))
    basis = [np.ones(solver.n)] + ([] if family == "poisson" else [y])
    u, *v = (stable_matvec(X_eval, beta) for beta in solver.solve(np.column_stack(basis)).T)

    @functools.lru_cache(maxsize=1)  # a grid visits each a in one run of cells
    def count_part(a):
        return stable_matvec(X_eval, solver.solve(np.log(y + a)))

    def predict_at(a, b):
        hyper = JacobiHyper(a, b)
        if family != "poisson":
            m0, m1 = binary_modes(family, hyper.a, hyper.b)
            return inverse_link(m0 * u + (m1 - m0) * v[0], family)
        return inverse_link(count_part(hyper.a) - math.log(1.0 + hyper.b) * u, family)

    return predict_at, y_eval


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
    a_values = np.sort(np.asarray(a_values, dtype=float))
    b_values = np.sort(np.asarray(b_values, dtype=float))
    scores = np.full((a_values.shape[0], b_values.shape[0]), np.nan)
    predict_at, y_test = _surface(X_train, y_train, X_test, y_test, family)
    for i, a in enumerate(a_values):
        for j, b in enumerate(b_values):
            try:
                scores[i, j] = surrogate_rmse(y_test, predict_at(a, b))
            except InvalidHyperError:
                continue
    return GridReport(a_values=a_values, b_values=b_values, scores=scores)


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
    if not is_count(budget):
        raise InvalidHyperError(f"budget must be an integer >= 1, got {budget!r}")
    if not 0 < lo <= hi < math.inf:
        raise InvalidHyperError(f"need finite 0 < lo <= hi, got lo={lo!r}, hi={hi!r}")
    if objective not in OBJECTIVES:
        raise InvalidHyperError(f"unknown objective {objective!r}, expected one of {OBJECTIVES}")
    if objective == "utility" and disbursement is None:
        raise InvalidHyperError("utility objective needs a disbursement vector")
    predict_at, y_val = _surface(X_train, y_train, X_val, y_val, family)
    rng = derive_rng(seed, 0)
    candidates = np.exp(rng.uniform(np.log(lo), np.log(hi), size=(budget, 2)))
    trace = []
    for a, b in candidates:
        try:
            score = _objective_score(objective, y_val, predict_at(a, b), disbursement)
        except InvalidHyperError:
            continue
        trace.append((float(a), float(b), float(score)))
    if not trace:
        raise InvalidHyperError("every search candidate failed")
    best = min(trace, key=lambda t: t[2])  # the first of equal scores, as the trace runs
    return SearchResult(*best, trace=trace, skipped=int(budget) - len(trace))
