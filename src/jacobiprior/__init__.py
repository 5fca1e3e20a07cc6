"""Closed-form posterior-mode estimators for GLMs, with GP classification,
Monte Carlo uncertainty, partitioned fitting, and a benchmark harness.

Importing the package loads only ``errors``; every other export is
imported from its home module on first access (PEP 562).
"""

import importlib

from . import errors

__version__ = "0.1.0"


def _lazy_exports(namespace: dict, homes: dict, *also: str) -> None:
    """Install PEP 562 exports in a package's ``namespace``: ``_EXPORTS`` (name -> home module,
    from ``homes``), ``__all__`` (plus ``also``), ``__dir__`` and a first-use ``__getattr__``."""
    exports = {name: module for module, names in homes.items() for name in names.split()}
    package = namespace["__name__"]

    def __getattr__(name):
        if name not in exports:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = namespace[name] = getattr(importlib.import_module(f".{exports[name]}", package), name)
        return value

    def __dir__():
        return sorted({*namespace, *exports, *also})

    namespace.update(_EXPORTS=exports, __all__=[*also, *exports], __getattr__=__getattr__,
                     __dir__=__dir__)


_lazy_exports(globals(), {  # home module -> the names the package exports from it
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
}, "errors", "__version__")
