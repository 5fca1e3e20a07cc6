import math

import numpy as np
import pytest

from jacobiprior.errors import (
    DimensionMismatchError,
    InvalidHyperError,
    InvalidResponseError,
)
from jacobiprior.glm import (
    JacobiHyper,
    default_hyper,
    fit_jacobi,
    latent_vector,
    predict,
    predict_linear,
)


class TestJacobiHyper:
    def test_positivity_enforced(self):
        with pytest.raises(InvalidHyperError):
            JacobiHyper(0.0, 1.0)
        with pytest.raises(InvalidHyperError):
            JacobiHyper(1.0, -1.0)

    def test_schedule_resolution(self):
        assert JacobiHyper(2.0, 3.0).resolve(100) == (2.0, 3.0)
        assert JacobiHyper(2.0, 3.0, "one_over_n").resolve(100) == (0.01, 0.01)

    def test_unknown_schedule(self):
        with pytest.raises(InvalidHyperError):
            JacobiHyper(1.0, 1.0, "sqrt_n")

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
