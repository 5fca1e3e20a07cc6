"""Seeded data generators, metrics, and the benchmark experiment harness.

Each export is imported from its home module on first access (PEP 562), so
a module that needs only ``simlab.metrics`` loads neither the generators nor
the experiment harness and its IRLS baseline.
"""

from .. import _lazy_exports

_lazy_exports(globals(), {  # home module -> the names the package exports from it
    "generators": "EXP_LOGISTIC_BETA EXP_POISSON_BETA contaminate_flip contaminate_poisson "
                  "gen_circular gen_dmr gen_logistic gen_poisson gen_sinc",
    "metrics": "accuracy beta_rmse bootstrap_median_se multiclass_accuracy proportion_rmse "
               "surrogate_rmse utility_total",
    "experiments": "ExperimentConfig ExperimentReport ReportRow run_consistency run_experiment",
})
