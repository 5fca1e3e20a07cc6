import re
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
import scipy.spatial.distance
from scipy.special import ndtr

from jacobiprior.dmr import CountTable
from jacobiprior.errors import (
    DimensionMismatchError,
    InvalidHyperError,
    InvalidResponseError,
    NotPositiveDefiniteError,
)
from jacobiprior.glm import JacobiHyper, latent_vector, probit_mode
from jacobiprior.gp import (
    GPModel,
    KernelParams,
    gp_fit_binary,
    gp_fit_multiclass,
    gp_predict_latent,
    gp_predict_proba,
    kernel_matrix,
)


class TestKernelMatrix:
    def test_identical_points_give_tau(self):
        A = np.array([[1.0, 2.0]])
        K = kernel_matrix(A, A, KernelParams(tau=3.5, rho=2.0))
        np.testing.assert_allclose(K, [[3.5]], atol=1e-14)

    def test_unit_distance(self):
        A = np.array([[0.0]])
        B = np.array([[1.0]])
        K = kernel_matrix(A, B, KernelParams(tau=1.0, rho=1.0))
        assert K[0, 0] == pytest.approx(np.exp(-1.0), abs=1e-14)

    def test_tiny_rho_saturates_at_tau(self):
        rng = np.random.default_rng(0)
        A = rng.standard_normal((4, 2))
        K = kernel_matrix(A, A, KernelParams(tau=2.0, rho=1e-12))
        np.testing.assert_allclose(K, 2.0, rtol=1e-9)

    def test_squared_exponential_squares_distance(self):
        A = np.array([[0.0]])
        B = np.array([[2.0]])
        k_exp = kernel_matrix(A, B, KernelParams(rho=0.5, kind="exponential"))[0, 0]
        k_sq = kernel_matrix(A, B, KernelParams(rho=0.5, kind="squared_exponential"))[0, 0]
        assert k_exp == pytest.approx(np.exp(-1.0))
        assert k_sq == pytest.approx(np.exp(-2.0))

    def test_symmetry_and_diagonal(self):
        rng = np.random.default_rng(1)
        A = rng.standard_normal((6, 3))
        K = kernel_matrix(A, A, KernelParams(tau=1.7, rho=0.8))
        np.testing.assert_allclose(K, K.T, atol=1e-14)
        np.testing.assert_allclose(np.diag(K), 1.7, atol=1e-14)

    @pytest.mark.parametrize("kind", ["exponential", "squared_exponential"])
    @pytest.mark.parametrize("m", [40, 17])
    def test_in_place_steps_equal_the_plain_expression(self, kind, m):
        rng = np.random.default_rng(2)
        A, B = rng.standard_normal((40, 3)), rng.standard_normal((m, 3))
        params = KernelParams(tau=1.7, rho=0.37, kind=kind)
        d = scipy.spatial.distance.cdist(A, B)
        if kind == "squared_exponential":
            d = d * d
        expected = params.tau * np.exp(-params.rho * d)
        assert np.array_equal(kernel_matrix(A, B, params), expected)

    def test_column_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            kernel_matrix(np.ones((2, 2)), np.ones((2, 3)), KernelParams())

    def test_param_validation(self):
        with pytest.raises(InvalidHyperError):
            KernelParams(tau=-1.0)
        with pytest.raises(InvalidHyperError):
            KernelParams(sigma=-0.1)
        with pytest.raises(InvalidHyperError):
            KernelParams(kind="matern")

    @pytest.mark.parametrize(
        "field, value, rule",
        [
            ("sigma", np.nan, ">="),
            ("sigma", np.inf, ">="),
            ("tau", np.inf, ">"),
            ("tau", np.nan, ">"),
            ("rho", np.inf, ">"),
            ("rho", -np.inf, ">"),
        ],
    )
    def test_non_finite_params_name_the_field(self, field, value, rule):
        message = f"need finite {field} {rule} 0, got {field}={value}"
        with pytest.raises(InvalidHyperError, match=f"^{re.escape(message)}$"):
            KernelParams(**{field: value})

    @pytest.mark.parametrize("field, value, rule", [
        ("tau", "1", ">"), ("rho", None, ">"), ("sigma", "0.1", ">="), ("tau", [1.0], ">"),
    ])
    def test_non_number_params_name_the_field(self, field, value, rule):
        message = f"need finite {field} {rule} 0, got {field}={value!r}"  # '1', not 1
        with pytest.raises(InvalidHyperError, match=f"^{re.escape(message)}$"):
            KernelParams(**{field: value})

    def test_zero_sigma_is_valid(self):
        assert KernelParams(sigma=0.0).sigma == 0.0


def small_fit(seed=0, n=12, sigma=0.1):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, 2))
    y = (rng.random(n) < 0.5).astype(float)
    params = KernelParams(tau=1.0, rho=1.0, sigma=sigma)
    return X, y, gp_fit_binary(X, y, JacobiHyper(0.5, 0.5), params)


class TestBinaryFit:
    def test_cached_solve_matches_oracle(self):
        X, y, model = small_fit(seed=2)
        K = kernel_matrix(X, X, model.params)
        K[np.diag_indices_from(K)] += model.params.sigma**2
        oracle = scipy.linalg.solve(K, model.eta_hat - X @ model.beta, assume_a="pos")
        np.testing.assert_allclose(model.alpha, oracle, atol=1e-8)

    def test_all_equal_labels_constant_latents(self):
        rng = np.random.default_rng(3)
        X = rng.standard_normal((8, 2))
        y = np.ones(8)
        model = gp_fit_binary(X, y, JacobiHyper(1.0, 1.0), KernelParams(sigma=0.2))
        assert np.ptp(model.eta_hat) == 0.0
        K = kernel_matrix(X, X, model.params)
        K[np.diag_indices_from(K)] += 0.04
        oracle = scipy.linalg.solve(K, model.eta_hat - X @ model.beta, assume_a="pos")
        np.testing.assert_allclose(model.alpha, oracle, atol=1e-8)

    def test_duplicate_rows_with_zero_noise_fail(self):
        X = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        y = np.array([1.0, 0.0, 1.0])
        message = (
            "kernel system not positive definite (sigma=0.0): "
            "2-th leading minor of the array is not positive definite"
        )
        with pytest.raises(NotPositiveDefiniteError, match=f"^{re.escape(message)}$"):
            gp_fit_binary(X, y, params=KernelParams(sigma=0.0))

    def test_single_point_alpha_formula(self):
        X = np.array([[2.0]])
        y = np.array([1.0])
        params = KernelParams(tau=1.3, rho=1.0, sigma=0.5)
        model = gp_fit_binary(X, y, JacobiHyper(1.0, 1.0), params)
        eta1 = probit_mode(1, 1.0, 1.0)
        beta = eta1 / 2.0  # exact 1-d projection
        expected_alpha = (eta1 - 2.0 * beta) / (params.tau + params.sigma**2)
        assert model.beta[0] == pytest.approx(beta, abs=1e-12)
        assert model.alpha[0] == pytest.approx(expected_alpha, abs=1e-12)


class TestPredictLatent:
    def test_interpolation_at_zero_noise(self):
        rng = np.random.default_rng(4)
        X = rng.standard_normal((10, 2))
        y = (rng.random(10) < 0.5).astype(float)
        model = gp_fit_binary(X, y, params=KernelParams(sigma=0.0))
        mean, _ = gp_predict_latent(model, X)
        np.testing.assert_allclose(mean, model.eta_hat, atol=1e-6)

    def test_far_point_reverts_to_linear_term(self):
        X, y, model = small_fit(seed=5)
        X0 = np.array([[500.0, -500.0]])
        mean, _ = gp_predict_latent(model, X0)
        assert mean[0] == pytest.approx((X0 @ model.beta)[0], abs=1e-10)

    def test_two_point_hand_solve(self):
        # one training point, one test point, worked by hand
        X = np.array([[1.0]])
        y = np.array([0.0])
        params = KernelParams(tau=1.0, rho=2.0, sigma=0.3)
        model = gp_fit_binary(X, y, JacobiHyper(1.0, 1.0), params)
        X0 = np.array([[1.5]])
        s0 = np.exp(-2.0 * 0.5)
        expected = 1.5 * model.beta[0] + s0 * (
            model.eta_hat[0] - 1.0 * model.beta[0]
        ) / (1.0 + 0.09)
        mean, _ = gp_predict_latent(model, X0)
        assert mean[0] == pytest.approx(expected, abs=1e-12)

    def test_covariance_properties(self):
        X, y, model = small_fit(seed=6, n=15)
        rng = np.random.default_rng(7)
        X0 = rng.standard_normal((7, 2))
        _, cov = gp_predict_latent(model, X0)
        np.testing.assert_allclose(cov, cov.T, atol=1e-8)
        assert np.all(np.diag(cov) >= -1e-8)
        assert np.all(np.diag(cov) <= model.params.tau + 1e-8)

    def test_cross_only_covariance_flag(self):
        X, y, model = small_fit(seed=8)
        X0 = np.array([[0.3, -0.2], [1.0, 0.5]])
        _, full = gp_predict_latent(model, X0)
        _, cross = gp_predict_latent(model, X0, include_prior_var=False)
        prior = kernel_matrix(X0, X0, model.params)
        np.testing.assert_allclose(full, prior - cross, atol=1e-10)

    def test_monotone_locality_single_training_point(self):
        X = np.array([[0.5]])
        y = np.array([1.0])
        X0 = np.array([[1.5]])
        gaps = []
        for rho in (0.5, 1.0, 2.0, 4.0):
            fitted = gp_fit_binary(
                X, y, JacobiHyper(0.5, 0.5), KernelParams(rho=rho, sigma=0.4)
            )
            # make the smoothing term visible: nonzero residual via manual latents
            model = GPModel(
                X_train=X,
                beta=np.array([0.1]),
                eta_hat=np.array([1.0]),
                params=fitted.params,
                chol=fitted.chol,
                alpha=scipy.linalg.cho_solve(fitted.chol, np.array([1.0 - 0.5 * 0.1])),
            )
            mean, _ = gp_predict_latent(model, X0)
            gaps.append(abs(mean[0] - (X0 @ model.beta)[0]))
        assert all(gaps[i + 1] < gaps[i] for i in range(len(gaps) - 1))


class TestProbaAndMulticlass:
    def test_zero_mean_gives_half(self):
        X, y, model = small_fit(seed=9)
        model.beta[:] = 0.0
        model.alpha[:] = 0.0
        np.testing.assert_allclose(gp_predict_proba(model, X), 0.5, atol=1e-12)

    def test_proba_is_normal_cdf_of_latent_mean_exactly(self):
        X, y, model = small_fit(seed=13, n=20)
        X0 = np.random.default_rng(14).standard_normal((9, 2))
        mean, _ = gp_predict_latent(model, X0)
        np.testing.assert_array_equal(gp_predict_proba(model, X0), ndtr(mean))

    def test_sinc_sign_recovery(self):
        from jacobiprior.rng import SeedSpec, derive_rng
        from jacobiprior.simlab import gen_sinc

        rng = derive_rng(SeedSpec(404, 0), 0)
        X, y = gen_sinc(500, rng, noise_sd=0.1)
        # sigma = 0.5 smooths the +/-0.5 probit latents instead of
        # interpolating their label noise
        model = gp_fit_binary(X, y, JacobiHyper(0.5, 0.5), KernelParams(1.0, 1.0, 0.5))
        grid = np.linspace(-15.0, 15.0, 601)[:, None]
        truth = np.sinc(grid[:, 0] / np.pi)
        keep = np.abs(truth) >= 0.05
        p = gp_predict_proba(model, grid)
        agree = np.mean(np.sign(p[keep] - 0.5) == np.sign(truth[keep]))
        assert agree >= 0.9

    def test_multiclass_matches_independent_fits(self):
        rng = np.random.default_rng(10)
        X = rng.standard_normal((12, 2))
        counts = CountTable(rng.poisson(2.0, size=(12, 3)).astype(float))
        params = KernelParams(tau=1.0, rho=1.5, sigma=0.2)
        hyper = JacobiHyper(1.0, 1.0)
        shared = gp_fit_multiclass(X, counts, hyper, params)
        K = kernel_matrix(X, X, params)
        K[np.diag_indices_from(K)] += params.sigma**2
        for k, m in enumerate(shared.models):
            eta_k = latent_vector(counts.counts[:, k], "poisson", hyper)
            beta_k = np.linalg.lstsq(X, eta_k, rcond=None)[0]
            alpha_k = scipy.linalg.solve(K, eta_k - X @ beta_k, assume_a="pos")
            np.testing.assert_allclose(m.eta_hat, eta_k, atol=1e-12)
            np.testing.assert_allclose(m.beta, beta_k, atol=1e-12)
            np.testing.assert_allclose(m.alpha, alpha_k, atol=1e-8)

    def test_constant_count_class_has_constant_latent_mean(self):
        rng = np.random.default_rng(11)
        X = np.column_stack([np.ones(10), rng.standard_normal(10)])
        counts = np.column_stack([rng.poisson(3.0, 10), np.full(10, 2.0)])
        model = gp_fit_multiclass(X, CountTable(counts), JacobiHyper(1.0, 1.0))
        X0 = np.column_stack([np.ones(5), rng.standard_normal(5)])
        means = model.predict_latent_means(X0)
        assert np.ptp(means[:, 1]) <= 1e-8

    def test_multiclass_probability_rows(self):
        rng = np.random.default_rng(12)
        X = rng.standard_normal((9, 2))
        counts = CountTable(rng.poisson(2.0, size=(9, 4)).astype(float))
        model = gp_fit_multiclass(X, counts)
        probs = model.predict_proba(X)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)
        classes = model.predict_class(X)
        np.testing.assert_array_equal(classes, np.argmax(probs, axis=1))


def _scipy_reference(X, params):
    """The Cholesky pair of S(X, X) + sigma^2 I from scipy's checked wrappers."""
    K = kernel_matrix(X, X, params)
    K[np.diag_indices_from(K)] += params.sigma**2
    return scipy.linalg.cho_factor(K, lower=True)


class TestLapackFactor:
    @pytest.mark.parametrize("kind", ["exponential", "squared_exponential"])
    @pytest.mark.parametrize("n", [3, 12, 100, 333])
    def test_bit_identical_to_scipy_wrappers(self, n, kind):
        rng = np.random.default_rng(n)
        X = rng.standard_normal((n, 3))
        y = (rng.random(n) < 0.5).astype(float)
        table = CountTable.from_labels(rng.integers(0, 3, n), 3)
        X0 = rng.standard_normal((11, 3))
        params = KernelParams(tau=1.3, rho=0.7, sigma=0.2, kind=kind)
        ref = _scipy_reference(X, params)

        binary = gp_fit_binary(X, y, params=params)
        assert binary.chol[1] is True
        assert np.array_equal(binary.chol[0], ref[0])  # the whole array, strict upper triangle too
        residual = binary.eta_hat - X @ binary.beta
        assert np.array_equal(binary.alpha, scipy.linalg.cho_solve(ref, residual))

        multi = gp_fit_multiclass(X, table, params=params)
        etas = np.column_stack([m.eta_hat for m in multi.models])
        betas = np.column_stack([m.beta for m in multi.models])
        alphas = scipy.linalg.cho_solve(ref, etas - X @ betas)
        for k, m in enumerate(multi.models):
            assert np.array_equal(m.chol[0], ref[0])
            assert np.array_equal(m.alpha, alphas[:, k])

        Ks = kernel_matrix(X0, X, params)
        cross = Ks @ scipy.linalg.cho_solve(ref, Ks.T)
        _, cov = gp_predict_latent(binary, X0)
        assert np.array_equal(cov, kernel_matrix(X0, X0, params) - cross)
        _, cov_cross = gp_predict_latent(binary, X0, include_prior_var=False)
        assert np.array_equal(cov_cross, cross)

    def test_callers_design_is_unchanged(self):
        rng = np.random.default_rng(21)
        X = rng.standard_normal((30, 2))
        y = (rng.random(30) < 0.5).astype(float)
        table = CountTable.from_labels(rng.integers(0, 3, 30), 3)
        before = X.copy()
        model = gp_fit_binary(X, y)
        gp_fit_multiclass(X, table)
        gp_predict_latent(model, X)
        assert np.array_equal(X, before)

    def test_fit_holds_one_gram_buffer(self):
        # The Gram is factored where the kernel made it: no second n x n copy.
        n = 1000
        rng = np.random.default_rng(22)
        X = rng.standard_normal((n, 2))
        y = (rng.random(n) < 0.5).astype(float)
        gp_fit_binary(X, y)  # first-call imports and memos stay out of the peak
        tracemalloc.start()
        try:
            gp_fit_binary(X, y)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * 8 * n * n

    def test_multiclass_needs_a_count_table(self):
        X = np.random.default_rng(23).standard_normal((20, 2))
        with pytest.raises(InvalidResponseError, match="^Y must be a CountTable, got ndarray$"):
            gp_fit_multiclass(X, np.ones((20, 2)))
