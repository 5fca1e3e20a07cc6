"""Hyperparameter study tools: shape-pair sensitivity grids and stochastic search."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidHyperError
from .glm import JacobiHyper, fit_jacobi, predict
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
        lines = ["a,b,score"]
        for i, a in enumerate(self.a_values):
            for j, b in enumerate(self.b_values):
                lines.append(f"{a!r},{b!r},{self.scores[i, j]!r}")
        return "\n".join(lines) + "\n"


def _objective_score(objective, y_val, preds, disbursement):
    if objective == "rmse":
        return surrogate_rmse(y_val, preds)
    if objective == "accuracy":
        return -accuracy(y_val, preds)
    if objective == "utility":
        if disbursement is None:
            raise InvalidHyperError("utility objective needs a disbursement vector")
        approve = (preds >= 0.5).astype(float)
        # Approving predicted non-defaulters: defaults are the positive class.
        return -utility_total(y_val, 1.0 - approve, disbursement)
    raise InvalidHyperError(f"unknown objective {objective!r}, expected one of {OBJECTIVES}")


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
    for i, a in enumerate(a_values):
        for j, b in enumerate(b_values):
            try:
                model = fit_jacobi(X_train, y_train, family, JacobiHyper(a, b))
                scores[i, j] = surrogate_rmse(y_test, predict(model, X_test))
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
    if budget < 1:
        raise InvalidHyperError("budget must be >= 1")
    if objective not in OBJECTIVES:
        raise InvalidHyperError(f"unknown objective {objective!r}, expected one of {OBJECTIVES}")
    rng = derive_rng(seed, 0)
    candidates = np.exp(rng.uniform(np.log(lo), np.log(hi), size=(budget, 2)))
    trace = []
    skipped = 0
    best = None
    for a, b in candidates:
        try:
            model = fit_jacobi(X_train, y_train, family, JacobiHyper(a, b))
            score = _objective_score(objective, y_val, predict(model, X_val), disbursement)
        except InvalidHyperError:
            skipped += 1
            continue
        trace.append((float(a), float(b), float(score)))
        if best is None or score < best[2]:
            best = (float(a), float(b), float(score))
    if best is None:
        raise InvalidHyperError("every search candidate failed")
    return SearchResult(
        best_a=best[0], best_b=best[1], best_score=best[2], trace=trace, skipped=skipped
    )
