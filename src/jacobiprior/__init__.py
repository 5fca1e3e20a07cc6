"""Closed-form posterior-mode estimators for GLMs, with GP classification,
Monte Carlo uncertainty, partitioned fitting, and a benchmark harness.

Importing the package loads only ``errors``; every other export is
imported from its home module on first access (PEP 562).
"""

import importlib

from . import errors

__version__ = "0.1.0"

_HOMES = {  # home module -> the names the package exports from it
    "glm": "FAMILIES FittedGLM JacobiHyper default_hyper fit_jacobi latent_vector "
           "logit_mode poisson_mode predict probit_mode",
    "dmr": "CountTable fit_dmr predict_class predict_proba",
    "gp": "GPModel GPMulticlass KernelParams gp_fit_binary gp_fit_multiclass "
          "gp_predict_latent gp_predict_proba kernel_matrix",
    "hyper": "GridReport SearchResult sensitivity_grid stochastic_search",
    "linalg": "LeastSquaresSolver",
    "mc": "BetaDraws sample_beta summarize",
    "mle": "MleFit fit_mle",
    "partition": "PartialStats aggregate_and_solve run_harness shard_stats",
    "rng": "SeedSpec derive_rng",
}
_EXPORTS = {name: module for module, names in _HOMES.items() for name in names.split()}

__all__ = ["errors", *_EXPORTS, "__version__"]


def __getattr__(name):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})
