"""Closed-form posterior-mode estimators for GLMs, with GP classification,
Monte Carlo uncertainty, partitioned fitting, and a benchmark harness."""

from . import errors
from .glm import (
    FAMILIES,
    FittedGLM,
    JacobiHyper,
    default_hyper,
    fit_jacobi,
    latent_vector,
    logit_mode,
    poisson_mode,
    predict,
    probit_mode,
)
from .dmr import CountTable, fit_dmr, predict_class, predict_proba
from .gp import (
    GPModel,
    GPMulticlass,
    KernelParams,
    gp_fit_binary,
    gp_fit_multiclass,
    gp_predict_latent,
    gp_predict_proba,
    kernel_matrix,
)
from .hyper import GridReport, SearchResult, sensitivity_grid, stochastic_search
from .linalg import LeastSquaresSolver, cholesky_solve, solve_normal_equations
from .mc import BetaDraws, sample_beta, summarize
from .mle import MleFit, fit_mle
from .partition import (
    PartialStats,
    aggregate_and_solve,
    run_harness,
    shard_stats,
)
from .rng import SeedSpec, derive_rng

__version__ = "0.1.0"

__all__ = [
    "errors",
    "FAMILIES",
    "FittedGLM",
    "JacobiHyper",
    "default_hyper",
    "fit_jacobi",
    "latent_vector",
    "logit_mode",
    "poisson_mode",
    "predict",
    "probit_mode",
    "CountTable",
    "fit_dmr",
    "predict_class",
    "predict_proba",
    "GPModel",
    "GPMulticlass",
    "KernelParams",
    "gp_fit_binary",
    "gp_fit_multiclass",
    "gp_predict_latent",
    "gp_predict_proba",
    "kernel_matrix",
    "GridReport",
    "SearchResult",
    "sensitivity_grid",
    "stochastic_search",
    "LeastSquaresSolver",
    "cholesky_solve",
    "solve_normal_equations",
    "BetaDraws",
    "sample_beta",
    "summarize",
    "MleFit",
    "fit_mle",
    "PartialStats",
    "aggregate_and_solve",
    "run_harness",
    "shard_stats",
    "SeedSpec",
    "derive_rng",
    "__version__",
]
