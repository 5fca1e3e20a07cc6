import math

import numpy as np
import pytest

from jacobiprior.dmr import (
    CountTable,
    fit_dmr,
    predict_class,
    predict_proba,
)
from jacobiprior.errors import DimensionMismatchError, InvalidResponseError
from jacobiprior.glm import JacobiHyper, fit_jacobi, predict_linear


def random_instance(seed=0, n=40, p=3, k=4):
    rng = np.random.default_rng(seed)
    X = np.column_stack([np.ones(n), rng.random((n, p - 1))])
    counts = rng.poisson(3.0, size=(n, k)).astype(float)
    return X, CountTable(counts)


class TestCountTable:
    def test_rejects_negative_and_fractional(self):
        with pytest.raises(InvalidResponseError):
            CountTable(np.array([[1.0, -1.0], [0.0, 2.0]]))
        with pytest.raises(InvalidResponseError):
            CountTable(np.array([[1.5, 1.0], [0.0, 2.0]]))
        with pytest.raises(InvalidResponseError, match="^response y must be numeric: "):
            CountTable([["a", "b"]])
        with pytest.raises(InvalidResponseError, match="^response y must be numeric: got None$"):
            CountTable([[1, None], [0, 2]])

    def test_needs_two_classes(self):
        with pytest.raises(DimensionMismatchError):
            CountTable(np.ones((3, 1)))

    def test_totals_allow_zero_rows(self):
        table = CountTable(np.array([[0.0, 0.0], [1.0, 2.0]]))
        np.testing.assert_array_equal(table.totals, [0.0, 3.0])

    def test_from_labels_rejects_empty(self):
        with pytest.raises(DimensionMismatchError, match="non-empty"):
            CountTable.from_labels([])

    def test_from_labels_one_hot(self):
        table = CountTable.from_labels([0, 2, 1, 2])
        assert table.n_classes == 3
        np.testing.assert_array_equal(table.totals, np.ones(4))
        np.testing.assert_array_equal(table.counts[1], [0.0, 0.0, 1.0])

    @pytest.mark.parametrize("labels, n_classes, error, message", [
        # A NaN must not reach a cast to int: the suite turns its RuntimeWarning into an error.
        ([0.0, np.nan, 1.0], None, InvalidResponseError, "non-negative integer; offending index 1: nan$"),
        ([0.0, np.nan, 1.0], 3, InvalidResponseError, "non-negative integer; offending index 1: nan$"),
        ([0.0, 1e20, 1.0], 3, InvalidResponseError, "^label 100000000000000000000 out of range for 3 classes$"),
        # Without n_classes, a label of 1e20 implies 1e20 + 1 classes.
        ([0.0, 1e20, 1.0], None, DimensionMismatchError, r"^need an integer 2 <= n_classes < 2\*\*31, got 1000"),
        (["a", "b"], None, InvalidResponseError, "^response y must be numeric: "),
        ([0, 1], 1.5, DimensionMismatchError, r"^need an integer 2 <= n_classes < 2\*\*31, got 1.5$"),
        ([0, 1], 1, DimensionMismatchError, r"^need an integer 2 <= n_classes < 2\*\*31, got 1$"),
        ([0, 1], True, DimensionMismatchError, r"^need an integer 2 <= n_classes < 2\*\*31, got True$"),
        ([0, None, 1], 2, InvalidResponseError, "^response y must be numeric: got None$"),
    ])
    def test_from_labels_edge_inputs_are_typed(self, labels, n_classes, error, message):
        with pytest.raises(error, match=message):
            CountTable.from_labels(labels, n_classes)


class TestFitDmr:
    def test_columns_equal_independent_fits_exactly(self):
        X, table = random_instance(seed=1)
        hyper = JacobiHyper(1.0, 1.0)
        model = fit_dmr(X, table, hyper)
        for k in range(table.n_classes):
            single = fit_jacobi(X, table.counts[:, k], "poisson", hyper)
            np.testing.assert_array_equal(model.beta[:, k], single.beta)

    def test_zero_count_class_on_centered_features(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal(30)
        X = np.column_stack([np.ones(30), x - x.mean()])
        counts = np.column_stack([rng.poisson(2.0, 30), np.zeros(30)])
        model = fit_dmr(X, CountTable(counts), JacobiHyper(1.0, 1.0))
        # constant latent log(1/2) projects onto the intercept alone
        assert model.beta[0, 1] == pytest.approx(math.log(0.5), abs=1e-10)
        assert model.beta[1, 1] == pytest.approx(0.0, abs=1e-10)

    def test_single_row_identity_design(self):
        model = fit_dmr(np.eye(1), CountTable(np.array([[0.0, 5.0]])), JacobiHyper(1.0, 1.0))
        np.testing.assert_allclose(
            model.beta[0], [math.log(0.5), math.log(3.0)], atol=1e-12
        )

    def test_row_count_mismatch(self):
        X, table = random_instance()
        with pytest.raises(DimensionMismatchError):
            fit_dmr(X[:-1], table)

    def test_plain_array_response_is_a_typed_error(self):
        X, _ = random_instance(n=20)
        with pytest.raises(InvalidResponseError, match="^Y must be a CountTable, got ndarray$"):
            fit_dmr(X, np.ones((20, 2)))


class TestPrediction:
    def test_zero_betas_uniform(self):
        X, table = random_instance(seed=3, k=3)
        model = fit_dmr(X, table)
        model.beta = np.zeros_like(model.beta)
        probs = predict_proba(model, X)
        np.testing.assert_allclose(probs, 1.0 / 3.0, atol=1e-12)

    def test_vector_fit_rejected(self):
        X, table = random_instance(seed=9)
        with pytest.raises(DimensionMismatchError, match="p x K beta"):
            predict_proba(fit_jacobi(X, table.counts[:, 0], "poisson"), X)

    def test_rows_sum_to_one(self):
        X, table = random_instance(seed=4)
        probs = predict_proba(fit_dmr(X, table), X)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)
        assert np.all((probs > 0) & (probs < 1))

    def test_binary_softmax_equals_logit_of_difference(self):
        X, table = random_instance(seed=5, k=2)
        model = fit_dmr(X, table)
        eta = predict_linear(model, X)
        probs = predict_proba(model, X)
        np.testing.assert_allclose(
            probs[:, 0], 1.0 / (1.0 + np.exp(-(eta[:, 0] - eta[:, 1]))), atol=1e-12
        )

    def test_shift_invariance(self):
        X, table = random_instance(seed=6)
        model = fit_dmr(X, table)
        shifted = fit_dmr(X, table)
        shifted.beta = model.beta.copy()
        shifted.beta[0, :] += 7.5  # constant latent shift via the intercept row
        np.testing.assert_allclose(
            predict_proba(model, X), predict_proba(shifted, X), atol=1e-12
        )

    def test_argmax_and_tie_breaking(self):
        X, table = random_instance(seed=7, k=3)
        model = fit_dmr(X, table)
        model.beta = np.zeros_like(model.beta)
        np.testing.assert_array_equal(predict_class(model, X[:5]), np.zeros(5, dtype=int))
        probs = np.array([[0.1, 0.7, 0.2]])
        assert int(np.argmax(probs, axis=1)[0]) == 1

    def test_argmax_invariant_to_monotone_latent_transform(self):
        X, table = random_instance(seed=8)
        model = fit_dmr(X, table)
        classes = predict_class(model, X)
        scaled = fit_dmr(X, table)
        scaled.beta = model.beta * 3.0  # strictly increasing latent map
        np.testing.assert_array_equal(classes, predict_class(scaled, X))
