"""One rule for a real number from outside: every intake of one gives each kind of value
one verdict, accepted or the intake's own typed error in its own message format."""

import math
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from jacobiprior.dmr import CountTable
from jacobiprior.errors import (
    ConfigError,
    DimensionMismatchError,
    InsufficientDrawsError,
    InvalidHyperError,
    InvalidResponseError,
    real,
)
from jacobiprior.glm import JacobiHyper, fit_jacobi, shown
from jacobiprior.gp import KernelParams
from jacobiprior.hyper import sensitivity_grid, stochastic_search
from jacobiprior.mc import BetaDraws, summarize
from jacobiprior.rng import SeedSpec, derive_rng
from jacobiprior.simlab import contaminate_flip, contaminate_poisson
from jacobiprior.simlab.experiments import ExperimentConfig

# kind -> the value of that kind, from an intake's in-range float f and integer i.
REAL = {
    "int": lambda f, i: i,
    "float": lambda f, i: f,
    "np.float64": lambda f, i: np.float64(f),
    "np.float32": lambda f, i: np.float32(f),
    "np.int64": lambda f, i: np.int64(i),
    "np.uint8": lambda f, i: np.uint8(i),
    "0-d float array": lambda f, i: np.array(f),
    "0-d int array": lambda f, i: np.array(i),
}
INTEGER_KINDS = ("int", "np.int64", "np.uint8", "0-d int array")
NOT_REAL = {
    "bool": True,
    "np.bool_": np.True_,
    "str": "0.5",
    "bytes": b"0.5",
    "None": None,
    "complex": 0.5 + 0j,
    "Fraction": Fraction(1, 2),
    "Decimal": Decimal("0.5"),
    "list": [0.5],
    "1-d array": np.array([0.5]),
    "2-d array": np.array([[0.5]]),
    "nan": math.nan,
    "inf": math.inf,
    "-inf": -math.inf,
    "int too large for a float": 10**400,
}

X = np.column_stack([np.ones(8), np.arange(8.0)])
Y = np.array([0.0, 1.0, 0.0, 1.0, 1.0, 0.0, 1.0, 0.0])


def _config(key, need, **also):
    """build(v), stored(config) and message(v) of one ExperimentConfig field."""
    return (lambda v: ExperimentConfig(**also, **{key: v}), lambda c: getattr(c, key),
            lambda v: f"$.{key}: need {need}, got {v!r}")


def _search(lo, hi):
    """build(v) and message(v) of one search bound: lo or hi is None, the one v takes."""
    def bounds(v):
        return (v, hi) if lo is None else (lo, v)

    def build(v):
        low, high = bounds(v)
        return stochastic_search(X, Y, X, Y, "logit", 1, SeedSpec(1, 1), lo=low, hi=high)
    return build, None, lambda v: "need finite 0 < lo <= hi, got lo={!r}, hi={!r}".format(*bounds(v))


def _fraction(key, kind):
    return _config(key, f"a number in [0, 1], and 0 unless kind is {kind!r}", kind=kind)


# intake -> (its error, in-range float, in-range integer, build(v), stored(built) or None,
# message(v)). No integer lies in (0, 1), so summarize rejects the integer kinds by range.
INTAKES = {
    "JacobiHyper.a": (InvalidHyperError, 0.5, 1, lambda v: JacobiHyper(v, 0.5), lambda h: h.a,
                      lambda v: f"need finite a > 0, got a={shown(v)}"),
    "JacobiHyper.b": (InvalidHyperError, 0.5, 1, lambda v: JacobiHyper(0.5, v), lambda h: h.b,
                      lambda v: f"need finite b > 0, got b={shown(v)}"),
    "KernelParams.tau": (InvalidHyperError, 0.5, 1, lambda v: KernelParams(tau=v), lambda k: k.tau,
                         lambda v: f"need finite tau > 0, got tau={shown(v)}"),
    "KernelParams.rho": (InvalidHyperError, 0.5, 1, lambda v: KernelParams(rho=v), lambda k: k.rho,
                         lambda v: f"need finite rho > 0, got rho={shown(v)}"),
    "KernelParams.sigma": (InvalidHyperError, 0.5, 1, lambda v: KernelParams(sigma=v),
                           lambda k: k.sigma, lambda v: f"need finite sigma >= 0, got sigma={shown(v)}"),
    "ExperimentConfig.sigma": (ConfigError, 0.5, 1, *_config("sigma", "a finite number > 0")),
    "ExperimentConfig.rho": (ConfigError, 0.5, 0, *_config("rho", "a number in (-1, 1)")),
    "ExperimentConfig.flip_fraction": (ConfigError, 0.5, 1, *_fraction("flip_fraction", "logit")),
    "ExperimentConfig.replace_fraction": (ConfigError, 0.5, 1,
                                          *_fraction("replace_fraction", "poisson")),
    "ExperimentConfig.replace_rate": (ConfigError, 0.5, 1, *_config(
        "replace_rate", "a finite number >= 0", kind="poisson", replace_fraction=0.1)),
    "ExperimentConfig.beta0 entry": (
        ConfigError, 0.5, 1, lambda v: ExperimentConfig(beta0=[v, 1.0]), None,
        lambda v: f"$.beta0: need a non-empty 1-d list of finite numbers, got {[v, 1.0]!r}"),
    "stochastic_search.lo": (InvalidHyperError, 0.5, 1, *_search(None, 2.0)),
    "stochastic_search.hi": (InvalidHyperError, 0.5, 1, *_search(1e-3, None)),
    "contaminate_flip.fraction": (
        ConfigError, 0.5, 1, lambda v: contaminate_flip(Y, v, derive_rng(SeedSpec(), 0)), None,
        lambda v: f"fraction must be in [0, 1], got {v}"),
    "contaminate_poisson.fraction": (
        ConfigError, 0.5, 1, lambda v: contaminate_poisson(Y, v, derive_rng(SeedSpec(), 0)), None,
        lambda v: f"fraction must be in [0, 1], got {v}"),
    "summarize.level": (
        InsufficientDrawsError, 0.5, 1,
        lambda v: summarize(BetaDraws(np.array([[0.0, 1.0], [1.0, 3.0]]), SeedSpec(), "logit"), v),
        lambda s: s.level, lambda v: f"level must be a number in (0, 1), got {v!r}"),
}

CASES = [(intake, kind) for intake in INTAKES for kind in [*REAL, *NOT_REAL]]
ACCEPTED = {(intake, kind) for intake, kind in CASES if kind in REAL} - {
    ("summarize.level", kind) for kind in INTEGER_KINDS}
ACCEPTED.add(("ExperimentConfig.sigma", "None"))  # the field's default: the kind's own sigma


@pytest.mark.parametrize("intake, kind", CASES, ids=[f"{intake}-{kind}" for intake, kind in CASES])
def test_one_verdict_per_kind(intake, kind):
    error, f, i, build, stored, message = INTAKES[intake]
    value = REAL[kind](f, i) if kind in REAL else NOT_REAL[kind]
    if (intake, kind) in ACCEPTED:
        built = build(value)
        assert stored is None or value is None or stored(built) is value  # kept, so used as before
    else:
        with pytest.raises(error) as raised:
            build(value)
        assert str(raised.value) == message(value)


def test_real_is_the_float_or_nan():
    for kind, make in REAL.items():
        value = make(0.25, 3)
        assert real(value) == float(value) and isinstance(real(value), float), kind
    assert real(2**1000) == 2.0**1000
    assert [kind for kind, value in NOT_REAL.items() if not math.isnan(real(value))] == []


def test_huge_integer_hyper_is_rejected_before_any_fit():
    with pytest.raises(InvalidHyperError, match=r"^need finite a > 0, got a=10{400}$"):
        JacobiHyper(10**400, 1.0)


# An int too large for a float, inside a list the array intakes convert: the intake's own error.
HUGE_IN_A_LIST = {
    "fit_jacobi design": (lambda: fit_jacobi([[10**400, 1.0], [1.0, 2.0], [3.0, 1.0]], [0, 1, 0], "logit"),
                          DimensionMismatchError, "X must be numeric: "),
    "fit_jacobi response": (lambda: fit_jacobi([[1.0, 1.0], [1.0, 2.0], [3.0, 1.0]], [0, 10**400, 0], "logit"),
                            InvalidResponseError, "response y must be numeric: "),
    "sensitivity_grid a_values": (lambda: sensitivity_grid(X, Y, X, Y, "logit", [10**400], [1.0]),
                                  InvalidHyperError, "a_values must be numeric: "),
    "CountTable.from_labels": (lambda: CountTable.from_labels([10**400, 1]),
                               InvalidResponseError, "response y must be numeric: "),
}


@pytest.mark.parametrize("case", sorted(HUGE_IN_A_LIST))
def test_huge_integer_in_a_list_is_the_intakes_error(case):
    call, error, prefix = HUGE_IN_A_LIST[case]
    with pytest.raises(error) as raised:
        call()
    assert str(raised.value) == prefix + "int too large to convert to float"


@pytest.mark.parametrize("lo, hi", [(2**64, 2**65), (1e-3, 2**70)])
def test_search_bounds_past_int64_are_taken_as_floats(lo, hi):
    got = stochastic_search(X, Y, X, Y, "logit", 3, SeedSpec(1, 1), lo=lo, hi=hi)
    want = stochastic_search(X, Y, X, Y, "logit", 3, SeedSpec(1, 1), lo=float(lo), hi=float(hi))
    assert got.trace == want.trace and len(got.trace) == 3


def test_a_float32_search_bound_keeps_its_own_log():
    lo = np.float32(0.01)
    got = stochastic_search(X, Y, X, Y, "logit", 4, SeedSpec(1, 1), lo=lo)
    want = np.exp(derive_rng(SeedSpec(1, 1), 0).uniform(np.log(lo), np.log(2.0), size=(4, 2)))
    assert [(a, b) for a, b, _ in got.trace] == [tuple(c) for c in want.tolist()]


def test_zero_d_beta0_is_a_config_error():
    with pytest.raises(ConfigError) as raised:
        ExperimentConfig(beta0=np.array(1.0))
    assert str(raised.value) == "$.beta0: need a non-empty 1-d list of finite numbers, got array(1.)"
