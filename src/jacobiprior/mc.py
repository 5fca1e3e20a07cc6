"""Parallelizable Monte Carlo sampling of the coefficient vector.

Each draw samples the natural parameters from their per-observation
conjugate posteriors, maps them through the link, and projects the
resulting latent vector with a factorization of the design computed
once. Draw r uses its own counter-based stream derived from
(seed, r), so any partition of the draw range across workers produces
byte-identical output.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from .errors import DimensionMismatchError, InsufficientDrawsError
from .glm import JacobiHyper, check_response, default_hyper, validate_family
from .linalg import LeastSquaresSolver, as_matrix, as_vector
from .rng import SeedSpec, derive_rng

# Keep sampled probabilities strictly inside (0, 1) so links stay finite.
_P_FLOOR = 1e-300
_P_CEIL = 1.0 - 1e-16


@dataclass
class BetaDraws:
    """N x p matrix of projected coefficient draws, deterministic in seed."""

    draws: np.ndarray
    seed: SeedSpec
    family: str

    @property
    def n_draws(self) -> int:
        return self.draws.shape[0]

    @property
    def p(self) -> int:
        return self.draws.shape[1]


@dataclass
class DrawSummary:
    mean: np.ndarray
    sd: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    level: float


def _draw_eta(rng, y, family, a, b):
    if family == "poisson":
        theta = rng.gamma(shape=y + a, scale=1.0 / (1.0 + b))
        return np.log(np.maximum(theta, _P_FLOOR))
    theta = np.clip(rng.beta(y + a, 1.0 - y + b), _P_FLOOR, _P_CEIL)
    if family == "logit":
        return np.log(theta) - np.log1p(-theta)
    return ndtri(theta)


def sample_beta(
    X,
    y,
    family: str,
    hyper: JacobiHyper | None = None,
    n_draws: int = 1000,
    seed: SeedSpec = SeedSpec(),
    workers: int = 1,
) -> BetaDraws:
    """Draw n_draws coefficient vectors from the induced posterior.

    The conjugate posterior is Beta(y + a, 1 - y + b) for the binary
    families (log-odds or probit inverse-CDF applied to the draw) and
    Gamma(y + a, rate 1 + b) for counts (log applied). The projection
    reuses one QR factorization across all draws.
    """
    validate_family(family)
    X = as_matrix(X)
    y = as_vector(y, "y")
    if y.shape[0] != X.shape[0]:
        raise DimensionMismatchError(f"y length {y.shape[0]} != design rows {X.shape[0]}")
    if n_draws < 1:
        raise InsufficientDrawsError("n_draws must be >= 1")
    check_response(y, family)
    if hyper is None:
        hyper = default_hyper(family)
    a, b = hyper.resolve(y.shape[0])
    solver = LeastSquaresSolver(X)
    out = np.empty((n_draws, X.shape[1]))

    def run_range(lo, hi):
        for r in range(lo, hi):
            rng = derive_rng(seed, r)
            out[r] = solver.solve(_draw_eta(rng, y, family, a, b))

    if workers <= 1:
        run_range(0, n_draws)
    else:
        bounds = np.linspace(0, n_draws, workers + 1).astype(int)
        with ThreadPoolExecutor(max_workers=workers) as pool:
            futures = [
                pool.submit(run_range, bounds[i], bounds[i + 1]) for i in range(workers)
            ]
            for f in futures:
                f.result()
    return BetaDraws(draws=out, seed=seed, family=family)


def summarize(draws: BetaDraws, level: float = 0.9) -> DrawSummary:
    """Per-coefficient mean, SD, and equal-tailed interval at the given level."""
    if not 0.0 < level < 1.0:
        raise InsufficientDrawsError(f"level must be in (0, 1), got {level}")
    if draws.n_draws < 2:
        raise InsufficientDrawsError("need at least 2 draws to summarize")
    d = draws.draws
    tail = 0.5 * (1.0 - level)
    lower, upper = np.quantile(d, [tail, 1.0 - tail], axis=0)
    return DrawSummary(
        mean=d.mean(axis=0),
        sd=d.std(axis=0, ddof=1),
        lower=lower,
        upper=upper,
        level=level,
    )
