import math

import numpy as np
import pytest
from scipy.special import expit, xlogy

from jacobiprior.errors import DimensionMismatchError, InvalidResponseError, RankDeficientError, SeparationError
from jacobiprior.mle import MAX_ITER, SEPARATION_LIMIT, TOL, fit_mle, mle_score
from jacobiprior.rng import SeedSpec, derive_rng
from jacobiprior.simlab.generators import EXP_LOGISTIC_BETA, EXP_POISSON_BETA, gen_logistic, gen_poisson


def test_intercept_only_balanced_logit():
    X = np.ones((10, 1))
    y = np.array([1.0] * 5 + [0.0] * 5)
    fit = fit_mle(X, y, "logit")
    assert fit.converged
    np.testing.assert_allclose(fit.beta, [0.0], atol=1e-8)


def test_intercept_only_poisson_log_mean():
    X = np.ones((6, 1))
    y = np.array([4.0] * 6)
    fit = fit_mle(X, y, "poisson")
    assert fit.converged
    np.testing.assert_allclose(fit.beta, [math.log(4.0)], atol=1e-8)


def test_perfectly_separable_pair_raises():
    # intercept plus feature: any threshold between the two x values separates
    X = np.array([[1.0, 1.0], [1.0, 2.0]])
    y = np.array([0.0, 1.0])
    with pytest.raises(SeparationError):
        fit_mle(X, y, "logit")


def test_score_zero_at_convergence():
    rng = np.random.default_rng(21)
    X = rng.standard_normal((200, 3))
    y = (rng.random(200) < expit(X @ np.array([0.5, -0.3, 0.2]))).astype(float)
    fit = fit_mle(X, y, "logit")
    assert fit.converged
    assert np.max(np.abs(mle_score(X, y, fit.beta, "logit"))) <= 1e-8


def test_analytic_score_matches_finite_differences():
    rng = np.random.default_rng(22)
    X = rng.standard_normal((50, 3))
    y = (rng.random(50) < 0.5).astype(float)
    beta = np.array([0.1, -0.2, 0.3])

    def loglik(b):
        eta = X @ b
        return float(np.sum(y * eta - np.logaddexp(0.0, eta)))

    analytic = mle_score(X, y, beta, "logit")
    h = 1e-6
    fd = np.array([
        (loglik(beta + h * e) - loglik(beta - h * e)) / (2 * h)
        for e in np.eye(3)
    ])
    np.testing.assert_allclose(analytic, fd, rtol=1e-5)


def test_poisson_score_matches_finite_differences():
    rng = np.random.default_rng(23)
    X = rng.standard_normal((50, 2))
    y = rng.poisson(1.5, 50).astype(float)
    beta = np.array([0.2, -0.1])

    def loglik(b):
        eta = X @ b
        return float(np.sum(y * eta - np.exp(eta)))

    analytic = mle_score(X, y, beta, "poisson")
    h = 1e-6
    fd = np.array([
        (loglik(beta + h * e) - loglik(beta - h * e)) / (2 * h)
        for e in np.eye(2)
    ])
    np.testing.assert_allclose(analytic, fd, rtol=1e-5)


def test_consistency_on_large_sample():
    rng = np.random.default_rng(24)
    beta0 = np.array([0.8, -0.5, 0.3])
    X = rng.standard_normal((10_000, 3))
    y = (rng.random(10_000) < expit(X @ beta0)).astype(float)
    fit = fit_mle(X, y, "logit")
    assert fit.converged
    assert np.linalg.norm(fit.beta - beta0) / np.linalg.norm(beta0) <= 0.1


def test_invalid_family_and_response():
    with pytest.raises(InvalidResponseError):
        fit_mle(np.ones((3, 1)), np.array([0.0, 1.0, 0.0]), "probit")
    with pytest.raises(InvalidResponseError):
        fit_mle(np.ones((3, 1)), np.array([0.0, 2.0, 0.0]), "logit")
    # mle_score checks what fit_mle checks: it once returned the Poisson score for any
    # family other than logit, and raised raw errors on a bad y or beta.
    X, y, beta = np.ones((3, 1)), np.array([0.0, 1.0, 0.0]), np.zeros(1)
    with pytest.raises(InvalidResponseError, match="mle_score supports logit and poisson, got 'probit'"):
        mle_score(X, y, beta, "probit")
    with pytest.raises(InvalidResponseError, match="unknown family 'gaussian'"):
        mle_score(X, y, beta, "gaussian")
    with pytest.raises(InvalidResponseError, match="offending index 1: 2.0"):
        mle_score(X, np.array([0.0, 2.0, 0.0]), beta, "logit")
    with pytest.raises(InvalidResponseError, match="^response y must be numeric: "):
        mle_score(X, ["a", "b", "c"], beta, "logit")
    with pytest.raises(DimensionMismatchError, match=r"^y length 2 != design rows 3$"):
        mle_score(X, y[:2], beta, "poisson")
    with pytest.raises(DimensionMismatchError, match=r"^beta length 2 != design columns 1$"):
        mle_score(X, y, np.zeros(2), "logit")
    with pytest.raises(DimensionMismatchError, match="^beta must be numeric: "):
        mle_score(X, y, ["a"], "logit")
    with pytest.raises(DimensionMismatchError, match="^beta must be 1-d, got ndim=2"):
        mle_score(X, y, np.zeros((1, 1)), "logit")
    np.testing.assert_array_equal(mle_score(X, y, beta, "logit"), [-0.5])


def test_fewer_rows_than_columns_rejected():
    with pytest.raises(RankDeficientError, match=r"^need n >= p, got n=1 < p=2$"):
        fit_mle(np.ones((1, 2)), np.array([1.0]), "logit")


def test_deviance_decreases_to_optimum():
    rng = np.random.default_rng(25)
    X = np.column_stack([np.ones(80), rng.standard_normal(80)])
    y = (rng.random(80) < expit(0.3 + 0.7 * X[:, 1])).astype(float)
    fit = fit_mle(X, y, "logit")
    eta = X @ fit.beta
    saturated = 2.0 * float(np.sum(np.logaddexp(0.0, eta) - y * eta))
    assert fit.deviance == pytest.approx(saturated, rel=1e-10)
    null_dev = 2.0 * float(np.sum(np.logaddexp(0.0, np.zeros(80)) - y * 0.0))
    assert fit.deviance < null_dev


def reference_irls(X, y, family):
    """The plain IRLS loop fit_mle must reproduce bit for bit: it recomputes X @ beta after
    each accepted step, xlogy(y, y) in every Poisson deviance and the norm with
    np.linalg.norm. Returns (beta, converged, iterations, deviance, step-halvings)."""

    def deviance(eta):
        if family == "logit":
            return 2.0 * float(np.sum(np.logaddexp(0.0, eta) - y * eta))
        return 2.0 * float(np.sum(xlogy(y, y) - y * eta - y + np.exp(eta)))

    beta = np.zeros(X.shape[1])
    eta = X @ beta
    dev = deviance(eta)
    converged, iterations, total_halvings = False, 0, 0
    for iterations in range(1, MAX_ITER + 1):
        if family == "logit":
            mu = expit(eta)
            w = mu * (1.0 - mu)
            if iterations > 1 and np.max(w) < 1e-7 and dev < 1.0:
                raise SeparationError(
                    "all fitted probabilities saturated at 0 or 1 (perfect separation)"
                )
        else:
            mu = np.exp(eta)
            w = mu
        score = X.T @ (y - mu)
        if np.max(np.abs(score)) <= TOL:
            converged = True
            iterations -= 1
            break
        Xw = X * w[:, None]
        try:
            beta_new = np.linalg.solve(X.T @ Xw, Xw.T @ eta + score)
        except np.linalg.LinAlgError as exc:
            raise RankDeficientError(f"weighted normal equations singular: {exc}") from exc
        step = beta_new - beta
        dev_new = deviance(X @ (beta + step))
        halvings = 0
        while dev_new > dev + 1e-10 and halvings < 30:
            step *= 0.5
            dev_new = deviance(X @ (beta + step))
            halvings += 1
        total_halvings += halvings
        beta = beta + step
        if np.linalg.norm(beta) > SEPARATION_LIMIT:
            raise SeparationError(
                f"coefficient norm {np.linalg.norm(beta):.3e} exceeded {SEPARATION_LIMIT:.0e}"
            )
        eta = X @ beta
        dev = dev_new
    return beta, converged, iterations, dev, total_halvings


def outcome(fit, X, y, family):
    """(kind, value): the fit's (beta bytes, converged, iterations, deviance), or its error."""
    try:
        result = fit(X, y, family)
    except (SeparationError, RankDeficientError) as exc:
        return type(exc).__name__, str(exc)
    if isinstance(result, tuple):
        beta, *rest = result[:4]
    else:
        beta, rest = result.beta, [result.converged, result.iterations, result.deviance]
    return "fit", (beta.tobytes(), *rest)


class TestMatchesReferenceLoop:
    """fit_mle's iterates, checks and messages are those of the plain loop, bit for bit."""

    def test_benchmark_replications(self):
        # The bench's exp1 designs (sigma 3, so some are separated) and its Poisson ones.
        kinds = {"fit": 0, "SeparationError": 0}
        for task in range(60):
            for family, gen, beta0, sigma in (
                ("logit", gen_logistic, EXP_LOGISTIC_BETA, 3.0),
                ("poisson", gen_poisson, EXP_POISSON_BETA, 1.0),
            ):
                X, y = gen(100, beta0, sigma, 0.5, derive_rng(SeedSpec(20240501, 0), task))
                expected = outcome(reference_irls, X, y, family)
                assert outcome(fit_mle, X, y, family) == expected
                kinds[expected[0]] += 1
        assert min(kinds.values()) > 0

    @pytest.mark.parametrize("seed", [36, 72, 127])
    def test_step_halving_logit(self, seed):
        # A heavy-tailed design: Newton overshoots and the deviance check halves the step.
        rng = np.random.default_rng(seed)
        X = np.column_stack([np.ones(40), rng.standard_cauchy((40, 3)) ** 3 / 10.0])
        y = (rng.random(40) < expit(X @ np.array([0.3, -0.5, 0.8, 0.2]))).astype(float)
        expected = outcome(reference_irls, X, y, "logit")
        assert expected[0] == "fit" and reference_irls(X, y, "logit")[-1] > 0
        assert outcome(fit_mle, X, y, "logit") == expected

    def test_step_halving_poisson(self):
        rng = np.random.default_rng(0)
        X = np.column_stack([np.ones(50), rng.standard_normal((50, 2))])
        y = rng.poisson(np.exp(X @ np.array([0.5, 1.2, -0.8]))).astype(float)
        y[0] = 60.0  # an outlying count makes the first full step overshoot
        expected = outcome(reference_irls, X, y, "poisson")
        assert expected[0] == "fit" and reference_irls(X, y, "poisson")[-1] > 0
        assert outcome(fit_mle, X, y, "poisson") == expected

    @pytest.mark.parametrize("scale, message", [
        (1.0, "all fitted probabilities saturated at 0 or 1 (perfect separation)"),
        (1e-3, "coefficient norm 1.066e+04 exceeded 1e+04"),  # a narrow gap: beta grows first
    ])
    def test_separated_design_raises_the_same_error(self, scale, message):
        X = np.column_stack([np.ones(20), scale * np.arange(20.0)])
        y = (np.arange(20) >= 10).astype(float)
        expected = outcome(reference_irls, X, y, "logit")
        assert expected == ("SeparationError", message)
        assert outcome(fit_mle, X, y, "logit") == expected

    def test_singular_design_raises_the_same_error(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal(30)
        X = np.column_stack([np.ones(30), x, 2.0 * x])
        y = (rng.random(30) < 0.5).astype(float)
        expected = outcome(reference_irls, X, y, "logit")
        assert expected[0] == "RankDeficientError"
        assert outcome(fit_mle, X, y, "logit") == expected
