"""Seeded data generators, metrics, and the benchmark experiment harness.

Each export is imported from its home module on first access (PEP 562), so
a module that needs only ``simlab.metrics`` loads neither the generators nor
the experiment harness and its IRLS baseline.
"""

import importlib

_HOMES = {  # home module -> the names the package exports from it
    "generators": "EXP_LOGISTIC_BETA EXP_POISSON_BETA contaminate_flip contaminate_poisson "
                  "gen_circular gen_dmr gen_logistic gen_poisson gen_sinc",
    "metrics": "accuracy beta_rmse bootstrap_median_se multiclass_accuracy proportion_rmse "
               "surrogate_rmse utility_total",
    "experiments": "ExperimentConfig ExperimentReport ReportRow run_consistency run_experiment",
}
_EXPORTS = {name: module for module, names in _HOMES.items() for name in names.split()}

__all__ = list(_EXPORTS)


def __getattr__(name):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})
