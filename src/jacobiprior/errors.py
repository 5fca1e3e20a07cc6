"""Exception types shared across the library.

Every failure mode that callers are expected to handle gets its own
class so that CLI and harness code can map errors to exit codes and
per-replication failure counts without string matching.
"""

import math
import numbers
import sys

MAX_COUNT = 2**31 - 1  # the most rows or columns one LP64 LAPACK call takes: the cap of a count


def is_count(value, lo: int = 1) -> bool:
    """True for an integer >= lo that is not a bool: the test of every count argument."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool) and value >= lo


def real(value) -> float:
    """value as a float if it is a finite real number, else NaN, which fails any range test
    (``real(v) > 0``). Real: an int or float but not a bool, or a numpy integer or floating
    scalar or 0-d array; not a Fraction or Decimal, which numpy's arrays do not mix with."""
    if not isinstance(value, float):  # np.float64 is one: one type test, one finiteness test
        numpy_real = getattr(getattr(value, "dtype", None), "kind", None) in ("i", "u", "f")
        fits = numpy_real and value.ndim == 0 or type(value) is int and abs(value) <= sys.float_info.max
        value = float(value) if fits else math.nan  # 10**400 does not fit
    return value if math.isfinite(value) else math.nan


class JacobiPriorError(Exception):
    """Base class for all library errors."""


class DimensionMismatchError(JacobiPriorError):
    """Array shapes are inconsistent with the operation's contract."""


class RankDeficientError(JacobiPriorError):
    """Design matrix is (numerically) rank deficient; the projection is not unique."""


class NotPositiveDefiniteError(JacobiPriorError):
    """Matrix passed to a Cholesky-based solve is not symmetric positive definite."""


class InvalidHyperError(JacobiPriorError):
    """Prior shape parameters violate the positivity constraints of a mode formula."""


class InvalidResponseError(JacobiPriorError):
    """A response value (or a per-row amount such as a loan disbursement) is outside its support."""


class ImproperPosteriorError(InvalidHyperError):
    """Posterior exponents make the per-observation density non-integrable: a shape pair too small."""


class NoConvergenceError(JacobiPriorError):
    """Iterative routine hit its iteration cap before reaching tolerance."""


class SeparationError(JacobiPriorError):
    """Logistic coefficients diverged during IRLS, indicating perfect separation."""


class InsufficientDrawsError(JacobiPriorError):
    """Too few Monte Carlo draws to compute the requested summary."""


class InsufficientDataError(JacobiPriorError):
    """Too few values for a resampling-based estimate."""


class SchemaMismatchError(JacobiPriorError):
    """Serialized shard payloads disagree on schema version or dimensions."""


class RateOverflowError(JacobiPriorError):
    """A generated Poisson rate exceeded the configured safety bound."""


class MissingFeatureError(JacobiPriorError):
    """A column required by a stored model is absent from the input data."""


class ConfigError(JacobiPriorError):
    """An experiment or CLI configuration document is invalid."""
