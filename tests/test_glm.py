import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.special import expit

from jacobiprior.errors import (
    DimensionMismatchError,
    InvalidHyperError,
    InvalidResponseError,
)
from jacobiprior.dmr import predict_proba
from jacobiprior.glm import (
    FittedGLM,
    JacobiHyper,
    _fit_modes,
    default_hyper,
    fit_jacobi,
    inverse_link,
    latent_vector,
    logistic,
    predict,
    predict_linear,
    validate_family,
)
from jacobiprior.gp import gp_fit_binary, gp_predict_proba
from jacobiprior.hyper import sensitivity_grid, stochastic_search
from jacobiprior.linalg import BLOCK_ROWS
from jacobiprior.mc import sample_beta
from jacobiprior.mle import fit_mle
from jacobiprior.partition import run_harness, shard_stats


class TestJacobiHyper:
    def test_positivity_enforced(self):
        with pytest.raises(InvalidHyperError):
            JacobiHyper(0.0, 1.0)
        with pytest.raises(InvalidHyperError):
            JacobiHyper(1.0, -1.0)

    def test_schedule_resolution(self):
        assert JacobiHyper(2.0, 3.0).resolve(100) == (2.0, 3.0)
        assert JacobiHyper(2.0, 3.0, "one_over_n").resolve(100) == (0.01, 0.01)

    def test_one_over_n_needs_a_row(self):
        with pytest.raises(InvalidHyperError, match="^one_over_n schedule needs n >= 1$"):
            fit_jacobi(np.empty((0, 2)), np.empty(0), "logit", JacobiHyper(schedule="one_over_n"))

    def test_unknown_schedule(self):
        with pytest.raises(InvalidHyperError):
            JacobiHyper(1.0, 1.0, "sqrt_n")

    @pytest.mark.parametrize("a, b, shown", [
        ("0.5", 0.5, "a='0.5'"), (None, 0.5, "a=None"), (0.5, [1.0], "b=[1.0]"), ("x", "y", "a='x'"),
    ])
    def test_non_number_names_its_field(self, a, b, shown):
        name = shown.split("=")[0]
        with pytest.raises(InvalidHyperError, match=f"^need finite {name} > 0, got {re.escape(shown)}$"):
            JacobiHyper(a, b)

    def test_defaults_per_family(self):
        assert default_hyper("logit") == JacobiHyper(0.5, 0.5)
        assert default_hyper("probit") == JacobiHyper(0.5, 0.5)
        assert default_hyper("poisson") == JacobiHyper(1.0, 1.0)


class TestNonFiniteShapes:
    @pytest.mark.parametrize("family", ["logit", "probit", "poisson"])
    @pytest.mark.parametrize("a, b, shown", [
        (math.inf, 0.5, "a=inf"), (0.5, math.inf, "b=inf"), (math.nan, 0.5, "a=nan"),
    ])
    def test_rejected_before_fitting(self, family, a, b, shown):
        X = np.column_stack([np.ones(6), np.arange(6.0)])
        y = np.array([0.0, 1.0, 0.0, 1.0, 1.0, 0.0])
        if family == "poisson":
            y = np.array([0.0, 2.0, 1.0, 5.0, 3.0, 0.0])
        with pytest.raises(InvalidHyperError, match=shown):
            fit_jacobi(X, y, family, JacobiHyper(a, b))

    @pytest.mark.parametrize("family, a, b", [
        ("logit", 1e-300, 1e300), ("logit", 1e300, 1e-10), ("logit", 1.0, 1e-17),
        ("probit", 1.0, 1e-17), ("probit", 1.0, 8e-17),
    ])
    def test_shapes_no_mode_can_use_are_invalid_hyper(self, family, a, b):
        X = np.column_stack([np.ones(6), np.arange(6.0)])
        y = np.array([0.0, 1.0, 0.0, 1.0, 1.0, 0.0])
        with pytest.raises(InvalidHyperError, match=r"^need "):
            fit_jacobi(X, y, family, JacobiHyper(a, b))

    def test_poisson_ratio_underflow_is_invalid_hyper(self):
        # (0 + 1e-300) / (1 + 1e300) underflows to 0, which has no log.
        X = np.column_stack([np.ones(6), np.arange(6.0)])
        y = np.array([0.0, 2.0, 1.0, 5.0, 3.0, 0.0])
        message = r"^need \(y \+ a\) / \(1 \+ b\) in \(0, inf\), got a=1e-300, b=1e\+300$"
        with pytest.raises(InvalidHyperError, match=message):
            fit_jacobi(X, y, "poisson", JacobiHyper(1e-300, 1e300))
        with pytest.raises(InvalidHyperError, match=message):
            latent_vector(np.column_stack([y + 1.0, y]), "poisson", JacobiHyper(1e-300, 1e300))

    def test_poisson_ratio_near_the_ends_keeps_its_bits(self):
        y = np.array([0.0, 1.0, 7.0])
        out = latent_vector(y, "poisson", JacobiHyper(1e-150, 1e150))
        assert np.array_equal(out, np.log((y + 1e-150) / (1.0 + 1e150)))
        assert latent_vector([], "poisson").shape == (0,)


class TestLatentVector:
    def test_logit_elementwise(self):
        out = latent_vector([1.0, 0.0], "logit", JacobiHyper(0.5, 0.5))
        np.testing.assert_allclose(out, [math.log(3.0), -math.log(3.0)], atol=1e-12)

    def test_poisson_elementwise(self):
        out = latent_vector([0.0, 5.0], "poisson", JacobiHyper(1.0, 1.0))
        np.testing.assert_allclose(out, [math.log(0.5), math.log(3.0)], atol=1e-12)

    def test_one_over_n_uses_length(self):
        out = latent_vector([1.0], "logit", JacobiHyper(9.0, 9.0, "one_over_n"))
        # n = 1 gives effective a = b = 1, so the mode is log 2
        np.testing.assert_allclose(out, [math.log(2.0)], atol=1e-12)

    def test_offending_index_reported(self):
        with pytest.raises(InvalidResponseError, match="index 2"):
            latent_vector([0.0, 1.0, 3.0], "logit")

    def test_count_matrix_equals_per_column_calls_exactly(self):
        rng = np.random.default_rng(1)
        Y = rng.poisson(3.0, size=(25, 4)).astype(float)
        X = np.column_stack([np.ones(25), rng.standard_normal((25, 2))])
        X0 = rng.standard_normal((7, 3))
        for hyper in (JacobiHyper(0.7, 1.3), JacobiHyper(schedule="one_over_n")):
            out = latent_vector(Y, "poisson", hyper)
            fit = fit_jacobi(X, Y, "poisson", hyper)
            eta0 = predict_linear(fit, X0)
            assert fit.beta.shape == (3, 4) and eta0.shape == (7, 4)
            for k in range(4):
                np.testing.assert_array_equal(out[:, k], latent_vector(Y[:, k], "poisson", hyper))
                single = fit_jacobi(X, Y[:, k], "poisson", hyper)
                np.testing.assert_array_equal(fit.beta[:, k], single.beta)
                np.testing.assert_array_equal(eta0[:, k], predict_linear(single, X0))

    def test_bad_count_names_row_and_column(self):
        Y = np.zeros((4, 3))
        Y[2, 1] = 2.5
        with pytest.raises(InvalidResponseError, match="row 2, column 1: 2.5"):
            latent_vector(Y, "poisson")
        with pytest.raises(InvalidResponseError, match="index 3: -1.0"):
            latent_vector([0.0, 1.0, 2.0, -1.0], "poisson")

    def test_binary_family_rejects_matrix(self):
        with pytest.raises(DimensionMismatchError):
            latent_vector(np.zeros((3, 2)), "logit")

    def test_probit_uses_two_values(self):
        out = latent_vector([1.0, 0.0, 1.0], "probit", JacobiHyper(1.0, 1.0))
        assert out[0] == out[2] == -out[1]


class TestFitJacobi:
    def test_identity_design_returns_latents(self):
        y = np.array([1.0, 0.0, 1.0])
        model = fit_jacobi(np.eye(3), y, "logit")
        np.testing.assert_allclose(model.beta, model.eta_hat, atol=1e-12)

    def test_intercept_only_balanced(self):
        X = np.ones((4, 1))
        model = fit_jacobi(X, np.array([1.0, 1.0, 0.0, 0.0]), "logit", JacobiHyper(0.5, 0.5))
        np.testing.assert_allclose(model.beta, [0.0], atol=1e-12)

    def test_matches_pinv_oracle(self):
        rng = np.random.default_rng(5)
        X = rng.standard_normal((30, 4))
        y = (rng.random(30) < 0.5).astype(float)
        model = fit_jacobi(X, y, "logit")
        eta = latent_vector(y, "logit")
        oracle = np.linalg.pinv(X) @ eta
        np.testing.assert_allclose(model.beta, oracle, atol=1e-10)

    def test_row_permutation_invariance(self):
        rng = np.random.default_rng(6)
        X = rng.standard_normal((25, 3))
        y = (rng.random(25) < 0.5).astype(float)
        perm = rng.permutation(25)
        a = fit_jacobi(X, y, "logit").beta
        b = fit_jacobi(X[perm], y[perm], "logit").beta
        np.testing.assert_allclose(a, b, atol=1e-10)

    def test_column_scaling_covariance(self):
        rng = np.random.default_rng(8)
        X = rng.standard_normal((40, 3))
        y = (rng.random(40) < 0.5).astype(float)
        base = fit_jacobi(X, y, "logit")
        Xs = X.copy()
        Xs[:, 1] *= 10.0
        scaled = fit_jacobi(Xs, y, "logit")
        assert scaled.beta[1] == pytest.approx(base.beta[1] / 10.0, abs=1e-10)
        np.testing.assert_allclose(predict(scaled, Xs), predict(base, X), atol=1e-10)

    def test_length_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            fit_jacobi(np.eye(3), np.array([1.0, 0.0]), "logit")


class TestPredict:
    def test_zero_beta_gives_half(self):
        model = fit_jacobi(np.ones((4, 1)), np.array([1.0, 1.0, 0.0, 0.0]), "logit")
        np.testing.assert_allclose(predict(model, np.ones((3, 1))), 0.5, atol=1e-12)

    def test_intercept_logit_three_quarters(self):
        X = np.ones((2, 1))
        model = fit_jacobi(X, np.array([1.0, 1.0]), "logit", JacobiHyper(0.5, 0.5))
        # both latents are log 3, so the intercept is log 3
        np.testing.assert_allclose(predict(model, X), 0.75, atol=1e-12)

    def test_intercept_poisson_rate(self):
        X = np.ones((3, 1))
        model = fit_jacobi(X, np.array([1.0, 1.0, 1.0]), "poisson", JacobiHyper(1.0, 1.0))
        np.testing.assert_allclose(predict(model, X), 1.0, atol=1e-12)
        model.beta = np.array([math.log(2.0)])
        np.testing.assert_allclose(predict(model, X), 2.0, atol=1e-12)

    def test_prediction_ranges(self):
        rng = np.random.default_rng(13)
        X = rng.standard_normal((50, 4))
        yb = (rng.random(50) < 0.5).astype(float)
        yc = rng.poisson(2.0, 50).astype(float)
        for family, y in (("logit", yb), ("probit", yb), ("poisson", yc)):
            p = predict(fit_jacobi(X, y, family), X)
            if family == "poisson":
                assert np.all(p > 0)
            else:
                assert np.all((p > 0) & (p < 1))

    def test_column_count_checked(self):
        model = fit_jacobi(np.ones((4, 1)), np.array([1.0, 0.0, 1.0, 0.0]), "logit")
        with pytest.raises(DimensionMismatchError):
            predict(model, np.ones((2, 2)))


def ulps(a, b):
    """Units in the last place between two arrays of floats >= 0 (the order of their bits)."""
    return np.abs(a.view(np.int64) - b.view(np.int64))


class TestLogistic:
    """``glm.logistic``, the logit inverse link in numpy, against scipy's ``expit``."""

    @settings(max_examples=300, deadline=None)
    @given(hnp.arrays(np.float64, st.integers(1, 40),
                      elements=st.floats(allow_nan=False, allow_infinity=False)))
    def test_within_4_ulp_of_expit(self, x):
        assert ulps(logistic(x), expit(x)).max() <= 4

    def test_within_4_ulp_of_expit_on_draws(self):
        rng = np.random.default_rng(22)
        for x in (rng.normal(0.0, 5.0, 200_000), rng.uniform(-720.0, 40.0, 200_000)):
            assert ulps(logistic(x), expit(x)).max() <= 4

    def test_tails_and_special_values_are_exact(self):
        edge = math.log(np.finfo(float).max)  # exp(-x) overflows for x below -edge
        x = np.array([-800.0, -709.79, -np.nextafter(edge, np.inf), 0.0, 800.0, np.inf, -np.inf, np.nan])
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the suite does so too; no overflow warning here
            got = logistic(x)
        np.testing.assert_array_equal(got, [0.0, 0.0, 0.0, 0.5, 1.0, 1.0, 0.0, np.nan])
        np.testing.assert_array_equal(got, expit(x))
        assert 0.0 < logistic(np.array([-edge]))[0] < 1e-308  # the last finite exp(-x)

    def test_keeps_shape_and_input(self):
        x = np.array([[-1.0, 0.0], [2.0, -800.0]])
        before = x.copy()
        got = logistic(x)
        assert got.shape == (2, 2)
        np.testing.assert_array_equal(x, before)
        assert ulps(got, expit(x)).max() <= 4

    @pytest.mark.parametrize("eta", [0.0, -800.0, 3, np.array(2.5), np.array([0, 1, -1000]),
                                     np.array([True, False]), [[-1.0, 700.0]]])
    def test_takes_scalars_ints_and_lists(self, eta):
        got = inverse_link(eta, "logit")
        assert got.dtype == np.float64 and got.shape == np.shape(eta)
        assert ulps(got, expit(np.asarray(eta, dtype=float))).max() <= 4


def _intake_data():
    rng = np.random.default_rng(21)
    X = np.column_stack([np.ones(100), rng.standard_normal((100, 2))])
    y = np.tile([0.0, 1.0], 50)
    return X, y


# Every entry point that takes (X, y, family), called so that y is the one bad input.
ENTRY_POINTS = {
    "latent_vector": lambda X, y, good, f: latent_vector(y, f, None, X.shape[0]),
    "fit_jacobi": lambda X, y, good, f: fit_jacobi(X, y, f),
    "sample_beta": lambda X, y, good, f: sample_beta(X, y, f, n_draws=2),
    "fit_mle": lambda X, y, good, f: fit_mle(X, y, f),
    "shard_stats": lambda X, y, good, f: shard_stats(X, y, f),
    "run_harness": lambda X, y, good, f: run_harness(X, y, 4, f),
    "gp_fit_binary": lambda X, y, good, f: gp_fit_binary(X, y),
    "sensitivity_grid.y_train": lambda X, y, good, f: sensitivity_grid(X, y, X, good, f, [0.5], [0.5]),
    "sensitivity_grid.y_test": lambda X, y, good, f: sensitivity_grid(X, good, X, y, f, [0.5], [0.5]),
    "stochastic_search.y_train": lambda X, y, good, f: stochastic_search(X, y, X, good, f, budget=2),
    "stochastic_search.y_val": lambda X, y, good, f: stochastic_search(
        X, good, X, y, f, budget=2, objective="accuracy"
    ),
}


def _bad_response(case, y):
    """(y, family, error type, message) of one bad-input case."""
    if case == "short":
        return y[:99], "logit", DimensionMismatchError, "y length 99 != design rows 100"
    bad = y.copy()
    if case == "nan":
        bad[5] = np.nan
        return bad, "logit", InvalidResponseError, "binary response must be 0 or 1; offending index 5: nan"
    if case == "out_of_support":
        bad[7] = 2.0
        return bad, "logit", InvalidResponseError, "binary response must be 0 or 1; offending index 7: 2.0"
    if case == "strings":
        return [*y[:3], "a", *y[4:]], "logit", InvalidResponseError, "response y must be numeric: "
    if case == "dicts":
        return [{}] * len(y), "poisson", InvalidResponseError, "response y must be numeric: "
    return y, "gamma", InvalidResponseError, "unknown family 'gamma'"


INTAKE_CASES = [
    (entry, case)
    for entry in sorted(ENTRY_POINTS)
    for case in ("short", "nan", "out_of_support", "strings", "dicts", "unknown_family")
    if (entry, case) != ("gp_fit_binary", "unknown_family")  # it has no family argument
]


class TestOneResponseIntake:
    @pytest.mark.parametrize("entry, case", INTAKE_CASES)
    def test_same_error_everywhere(self, entry, case):
        X, y = _intake_data()
        bad, family, error, message = _bad_response(case, y)
        with pytest.raises(error, match=re.escape(message)):
            ENTRY_POINTS[entry](X, bad, y, family)

    @pytest.mark.parametrize(
        "entry", ["fit_jacobi", "sample_beta", "shard_stats", "run_harness", "sensitivity_grid.y_train", "gp_fit_binary"]
    )
    @pytest.mark.parametrize("n", [100, 2 * BLOCK_ROWS + 5])
    def test_response_checked_before_design_values(self, n, entry):
        # One order for every n, streamed or not: X's shape, then y, then X's values and rank.
        rng = np.random.default_rng(n)
        X = np.column_stack([np.ones(n), rng.standard_normal((n, 2))])
        y = np.tile([0.0, 1.0], n)[:n]
        X[3, 1], bad = np.nan, y.copy()
        bad[7] = 2.0
        with pytest.raises(InvalidResponseError, match=re.escape("binary response must be 0 or 1; offending index 7: 2.0")):
            ENTRY_POINTS[entry](X, bad, y, "logit")
        with pytest.raises(DimensionMismatchError, match=re.escape("X contains a non-finite entry at row 3, column 1: nan")):
            ENTRY_POINTS[entry](X, y, y, "logit")

    def test_grid_and_search_score_nothing_for_bad_labels(self):
        X, y = _intake_data()
        for bad in (2.0 * y, 3.0 * y):
            with pytest.raises(InvalidResponseError, match="offending index 1: "):
                sensitivity_grid(X, y, X, bad, "logit", [0.5, 1.0], [0.5])
            with pytest.raises(InvalidResponseError, match="offending index 1: "):
                stochastic_search(X, y, X, bad, "logit", budget=3, objective="accuracy")

    @pytest.mark.parametrize("entry", ["predict", "gp_predict_proba", "sensitivity_grid"])
    def test_design_column_mismatch(self, entry):
        X, y = _intake_data()
        X0 = X[:, :2]
        if entry == "predict":
            call, name = lambda: predict(fit_jacobi(X, y, "logit"), X0), "X0"
        elif entry == "gp_predict_proba":
            call, name = lambda: gp_predict_proba(gp_fit_binary(X, y), X0), "X0"
        else:
            call, name = lambda: sensitivity_grid(X, y, X0, y, "logit", [0.5], [0.5]), "X_eval"
        with pytest.raises(DimensionMismatchError, match=f"^{name} has 2 columns, model expects 3$"):
            call()


class TestBinaryLatentsByGather:
    @settings(max_examples=200, deadline=None)
    @given(family=st.sampled_from(["logit", "probit"]),
           a=st.floats(0.01, 20.0), b=st.floats(0.01, 20.0),
           y=st.lists(st.sampled_from([0.0, -0.0, 1.0]), min_size=1, max_size=40))
    @example(family="logit", a=2.5, b=1.5, y=[0.0, 1.0, -0.0])  # m0 = log(a / (b + 1)) = 0
    @example(family="logit", a=0.5, b=1.5, y=[1.0, 0.0])  # m1 = log((1 + a) / b) = 0
    @example(family="probit", a=0.5, b=1.5, y=[1.0, 0.0])  # m1 = 0: a = b - 1
    @example(family="probit", a=1.5, b=0.5, y=[0.0, 1.0])  # m0 = 0: a = b + 1
    def test_bit_equal_to_where(self, family, a, b, y):
        # The modes are gathered by y: np.where's bits, zero modes and a y of -0.0 included.
        m0, m1 = _fit_modes(family, a, b)
        y = np.array(y)
        got = latent_vector(y, family, JacobiHyper(a, b))
        assert got.tobytes() == np.where(y == 1.0, m1, m0).tobytes()


class TestValidateFamily:
    @pytest.mark.parametrize("family", [np.array(["logit"]), np.array(["logit", "probit"]), ["logit"], None, 1.0])
    def test_non_string_family_is_unknown(self, family):
        X, y = np.column_stack([np.ones(4), [0.0, 1.0, 2.0, 3.0]]), np.array([0.0, 1.0, 1.0, 0.0])
        message = f"unknown family {family!r}, expected one of ('logit', 'probit', 'poisson')"
        for call in (lambda: validate_family(family), lambda: fit_jacobi(X, y, family)):
            with pytest.raises(InvalidResponseError, match=f"^{re.escape(message)}$"):
                call()


def _predict_entries():
    """(entry point, model) pairs on three columns, whose coefficients in column 2 are zero."""
    logit = FittedGLM(np.array([0.5, 0.25, 0.0]), "logit", JacobiHyper(), np.zeros(3), 3)
    counts = FittedGLM(np.array([[0.5, -0.1], [0.2, 0.3], [0.0, 0.0]]), "poisson",
                       JacobiHyper(1.0, 1.0), np.zeros((3, 2)), 3)
    return {"predict": (predict, logit), "predict_linear": (predict_linear, logit),
            "predict_linear.matrix": (predict_linear, counts), "predict_proba": (predict_proba, counts)}


class TestNonFinitePredictDesign:
    """A blocked prediction sum is X0's finiteness test, a small one checks X0 first: both
    raise the same message and warn of nothing."""

    CELLS = {  # the cells set in X0's last row, and the first of them in C order
        "inf_in_zero_coefficient_column": ({2: np.inf}, 2),
        "plus_and_minus_inf": ({0: np.inf, 1: -np.inf}, 0),  # inf - inf in the sum
        "nan": ({1: np.nan}, 1),
    }

    @pytest.mark.parametrize("entry", sorted(_predict_entries()))
    @pytest.mark.parametrize("case", sorted(CELLS))
    @pytest.mark.parametrize("n", [100, 2 * BLOCK_ROWS + 1])
    def test_names_the_cell(self, n, case, entry):
        call, model = _predict_entries()[entry]
        cells, first = self.CELLS[case]
        X0 = np.random.default_rng(n).standard_normal((n, 3))
        for j, value in cells.items():
            X0[n - 1, j] = value
        message = f"X0 contains a non-finite entry at row {n - 1}, column {first}: {cells[first]!r}"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DimensionMismatchError, match=f"^{re.escape(message)}$"):
                call(model, X0)
            # The NaN is named before a wrong column count.
            X0 = np.column_stack([X0, np.zeros(n)])
            with pytest.raises(DimensionMismatchError, match=f"^{re.escape(message)}$"):
                call(model, X0)

    @pytest.mark.parametrize("n", [100, 2 * BLOCK_ROWS + 1])
    def test_finite_design_that_overflows_still_warns(self, n):
        model = FittedGLM(np.array([1e200, 1e200, 0.0]), "logit", JacobiHyper(), np.zeros(3), 3)
        with pytest.warns(RuntimeWarning, match="overflow"):
            eta = predict_linear(model, np.full((n, 3), 1e200))
        assert np.array_equal(eta, np.full(n, np.inf))
