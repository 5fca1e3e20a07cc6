"""Parallelizable Monte Carlo sampling of the coefficient vector.

Each draw samples the natural parameters from their per-observation conjugate
posteriors, maps them through the link, and projects the latent vectors in fixed
blocks of draws, one ``lstsq`` a block. Draw r uses its own counter-based stream
from (seed, r) and keeps its bits in any block, so any worker count gives the same bytes.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from .errors import MAX_COUNT, ConfigError, InsufficientDrawsError, is_count, real
from .glm import JacobiHyper, check_response, default_hyper
from .linalg import as_array, lstsq, rhs_width
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
    Gamma(y + a, rate 1 + b) for counts (log applied). ``workers`` threads map fixed,
    near-equal blocks of draw indices, a multiple of ``workers`` of them cut before any
    draw; a block is one ``lstsq`` of at most ``linalg.rhs_width(n, p)`` draws.
    """
    if not (is_count(n_draws) and n_draws <= MAX_COUNT):
        raise InsufficientDrawsError(f"n_draws must be an integer in [1, {MAX_COUNT}], got {n_draws!r}")
    if not is_count(workers):
        raise ConfigError(f"workers must be an integer >= 1, got {workers!r}")
    n_draws, workers = int(n_draws), int(workers)  # the block arithmetic overflows an np.int8
    X = as_array(X, 2, "X")
    y = check_response(y, family, X.shape[0], (1,))
    lstsq(X, np.empty((len(y), 0)))  # a design lstsq rejects raises here, before any draw
    a, b = (hyper or default_hyper(family)).resolve(len(y))
    workers = min(workers, n_draws)
    per_worker = -(-n_draws // (workers * rhs_width(*X.shape)))  # blocks a worker
    blocks = np.array_split(range(n_draws), min(n_draws, workers * per_worker))

    def solve_block(block):
        etas = np.empty((len(y), len(block)), order="F")
        for j, r in enumerate(block.tolist()):
            etas[:, j] = _draw_eta(derive_rng(seed, r), y, family, a, b)
        return lstsq(X, etas).T  # column k: its own dormqr and dtrtrs, so its own bits

    with ThreadPoolExecutor(max_workers=workers) as pool:  # the map re-raises a block's error
        return BetaDraws(np.vstack(list(pool.map(solve_block, blocks))), seed, family)


def summarize(draws: BetaDraws, level: float = 0.9) -> DrawSummary:
    """Per-coefficient mean, SD, and equal-tailed interval at the given level."""
    if not 0.0 < real(level) < 1.0:
        raise InsufficientDrawsError(f"level must be a number in (0, 1), got {level!r}")
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
