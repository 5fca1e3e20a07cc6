import numpy as np
import pytest
from scipy.special import ndtr

from jacobiprior.errors import ConfigError, InsufficientDrawsError
from jacobiprior.glm import JacobiHyper
from jacobiprior.linalg import BLOCK_ROWS, solve_normal_equations
from jacobiprior.mc import _draw_eta, sample_beta, summarize
from jacobiprior.rng import SeedSpec, derive_rng


def small_problem(seed=0, n=30, p=3):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, p))
    y = (rng.random(n) < 0.5).astype(float)
    return X, y


def test_each_row_is_projection_of_its_latent_draw():
    X, y = small_problem()
    seed = SeedSpec(99, 0)
    draws = sample_beta(X, y, "logit", JacobiHyper(0.5, 0.5), n_draws=20, seed=seed)
    for r in (0, 7, 19):
        rng = derive_rng(seed, r)
        eta = _draw_eta(rng, y, "logit", 0.5, 0.5)
        np.testing.assert_allclose(
            draws.draws[r], solve_normal_equations(X, eta), atol=1e-12
        )


def test_deterministic_in_seed_and_stream():
    X, y = small_problem(seed=1)
    a = sample_beta(X, y, "logit", n_draws=50, seed=SeedSpec(5, 1)).draws
    b = sample_beta(X, y, "logit", n_draws=50, seed=SeedSpec(5, 1)).draws
    c = sample_beta(X, y, "logit", n_draws=50, seed=SeedSpec(5, 2)).draws
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)


def test_worker_count_independence():
    seed = SeedSpec(7, 3)
    for n in (30, 2 * BLOCK_ROWS):  # the second design is factored in row blocks
        X, y = small_problem(seed=2, n=n)
        serial = sample_beta(X, y, "poisson", n_draws=64, seed=seed, workers=1)
        wide = sample_beta(X, y, "poisson", n_draws=64, seed=seed, workers=8)
        np.testing.assert_array_equal(serial.draws, wide.draws)


def test_poisson_worker_input_validation():
    X, _ = small_problem(seed=3)
    y = np.arange(30, dtype=float)  # counts
    draws = sample_beta(X, y, "poisson", n_draws=5, seed=SeedSpec(1, 0))
    assert draws.draws.shape == (5, 3)
    with pytest.raises(InsufficientDrawsError):
        sample_beta(X, y, "poisson", n_draws=0)
    with pytest.raises(ConfigError, match="workers must be >= 1, got -3"):
        sample_beta(X, y, "poisson", n_draws=5, workers=-3)


def test_beta_posterior_mean_for_success_label():
    # theta | y=1 with a=b=1/2 is Beta(1.5, 0.5), mean 0.75
    rng = derive_rng(SeedSpec(11, 0), 0)
    theta = rng.beta(1.5, 0.5, size=100_000)
    se = np.sqrt(theta.var() / theta.size)
    assert abs(theta.mean() - 0.75) <= 4 * se


def test_gamma_posterior_mean_for_count():
    # theta | y=3 with a=b=1 is Gamma(4, rate 2), mean 2
    rng = derive_rng(SeedSpec(11, 1), 0)
    theta = rng.gamma(shape=4.0, scale=0.5, size=100_000)
    se = np.sqrt(theta.var() / theta.size)
    assert abs(theta.mean() - 2.0) <= 4 * se


def test_probit_family_uses_inverse_normal_cdf():
    y = np.array([1.0, 0.0])
    rng1 = derive_rng(SeedSpec(3, 0), 0)
    eta = _draw_eta(rng1, y, "probit", 0.5, 0.5)
    rng2 = derive_rng(SeedSpec(3, 0), 0)
    theta = rng2.beta(y + 0.5, 1.0 - y + 0.5)
    np.testing.assert_allclose(ndtr(eta), theta, atol=1e-12)


def test_factorization_reuse_matches_per_draw_refactorization():
    X, y = small_problem(seed=4)
    seed = SeedSpec(21, 0)
    draws = sample_beta(X, y, "logit", n_draws=10, seed=seed)
    for r in range(10):
        rng = derive_rng(seed, r)
        eta = _draw_eta(rng, y, "logit", 0.5, 0.5)
        fresh = solve_normal_equations(X, eta)
        np.testing.assert_allclose(draws.draws[r], fresh, atol=1e-12)


def test_interval_coverage_on_well_specified_data():
    # Loose sanity bound: with modest true coefficients the 90% interval
    # covers each one in at least 70% of replications. Large coefficients
    # would fail this because the projection target is shrunken.
    beta0 = np.array([0.15, -0.1, 0.05])
    hits = np.zeros(3)
    n_reps = 200
    for rep in range(n_reps):
        rng = derive_rng(SeedSpec(880_001, 0), rep)
        X = rng.standard_normal((500, 3))
        p = 1.0 / (1.0 + np.exp(-(X @ beta0)))
        y = (rng.random(500) < p).astype(float)
        draws = sample_beta(
            X, y, "logit", JacobiHyper(0.5, 0.5), n_draws=300,
            seed=SeedSpec(880_002, rep),
        )
        s = summarize(draws, level=0.9)
        hits += (s.lower <= beta0) & (beta0 <= s.upper)
    assert np.all(hits / n_reps >= 0.70)


class TestSummarize:
    def test_constant_draws_collapse(self):
        X, y = small_problem(seed=5)
        draws = sample_beta(X, y, "logit", n_draws=5, seed=SeedSpec(1, 1))
        draws.draws[:] = 2.5
        s = summarize(draws, level=0.9)
        np.testing.assert_allclose(s.sd, 0.0, atol=1e-15)
        np.testing.assert_allclose(s.lower, 2.5, atol=1e-15)
        np.testing.assert_allclose(s.upper, 2.5, atol=1e-15)

    def test_interval_nesting(self):
        X, y = small_problem(seed=6)
        draws = sample_beta(X, y, "logit", n_draws=400, seed=SeedSpec(2, 2))
        narrow = summarize(draws, level=0.5)
        wide = summarize(draws, level=0.9)
        assert np.all(wide.lower <= narrow.lower)
        assert np.all(narrow.upper <= wide.upper)

    def test_endpoints_match_sequential_reference(self):
        rng = np.random.default_rng(31)
        X = rng.standard_normal((200, 3))
        y = (rng.random(200) < 0.5).astype(float)
        seed = SeedSpec(77, 0)
        ref = summarize(sample_beta(X, y, "logit", n_draws=300, seed=seed, workers=1))
        par = summarize(sample_beta(X, y, "logit", n_draws=300, seed=seed, workers=4))
        np.testing.assert_array_equal(ref.lower, par.lower)
        np.testing.assert_array_equal(ref.upper, par.upper)

    def test_level_and_count_validation(self):
        X, y = small_problem(seed=7)
        draws = sample_beta(X, y, "logit", n_draws=1, seed=SeedSpec(1, 0))
        with pytest.raises(InsufficientDrawsError):
            summarize(draws)
        draws2 = sample_beta(X, y, "logit", n_draws=5, seed=SeedSpec(1, 0))
        with pytest.raises(InsufficientDrawsError):
            summarize(draws2, level=1.5)
