import re

import numpy as np
import pytest

from jacobiprior.dmr import softmax_rows
from jacobiprior.errors import ConfigError, RateOverflowError
from jacobiprior.rng import SeedSpec, derive_rng
from jacobiprior.simlab import (
    contaminate_flip,
    contaminate_poisson,
    gen_circular,
    gen_dmr,
    gen_logistic,
    gen_poisson,
    gen_sinc,
)
from jacobiprior.simlab.generators import DMR_SPARSITY, DMR_TOTAL_RATE, ar1_covariance, gen_design


def rng_for(task):
    return derive_rng(SeedSpec(5150, 0), task)


def test_ar1_covariance_shape_and_values():
    cov = ar1_covariance(3, 2.0, 0.5)
    np.testing.assert_allclose(cov, [[2.0, 1.0, 0.5], [1.0, 2.0, 1.0], [0.5, 1.0, 2.0]])


def test_design_sample_covariance_close_to_target():
    cov = ar1_covariance(4, 3.0, 0.0)
    X = gen_design(100_000, 3.0, 0.0, 4, rng_for(0))
    sample = np.cov(X.T)
    assert np.linalg.norm(sample - cov) / np.linalg.norm(cov) <= 0.05


def test_correlated_design_matches_ar1_structure():
    X = gen_design(200_000, 1.0, 0.5, 3, rng_for(1))
    sample = np.cov(X.T)
    target = ar1_covariance(3, 1.0, 0.5)
    np.testing.assert_allclose(sample, target, atol=0.02)


def test_logistic_balance_under_null():
    _, y = gen_logistic(100_000, np.zeros(4), 1.0, 0.3, rng_for(2))
    se = 0.5 / np.sqrt(y.size)
    assert abs(y.mean() - 0.5) <= 4 * se


def test_logistic_deterministic_in_stream():
    X1, y1 = gen_logistic(50, np.ones(3), 1.0, 0.5, rng_for(3))
    X2, y2 = gen_logistic(50, np.ones(3), 1.0, 0.5, rng_for(3))
    np.testing.assert_array_equal(X1, X2)
    np.testing.assert_array_equal(y1, y2)


def test_logistic_accepts_0d_array_shapes_with_the_same_bits():
    X1, y1 = gen_logistic(50, np.ones(3), np.array(1.0), np.array(0.5), rng_for(3))
    X2, y2 = gen_logistic(50, np.ones(3), 1.0, 0.5, rng_for(3))
    assert X1.tobytes() == X2.tobytes()
    assert y1.tobytes() == y2.tobytes()


def test_poisson_unit_rate_under_null():
    _, y = gen_poisson(100_000, np.zeros(3), 1.0, 0.5, rng_for(4))
    se = np.sqrt(1.0 / y.size)
    assert abs(y.mean() - 1.0) <= 4 * se


def test_poisson_rate_overflow_guard():
    with pytest.raises(RateOverflowError):
        gen_poisson(100, np.array([30.0, 30.0]), 4.0, 0.0, rng_for(5))


def test_dmr_shapes_and_row_sums():
    X, counts, beta0 = gen_dmr(50, 3, 4, rng_for(6))
    assert X.shape == (50, 4)
    np.testing.assert_array_equal(X[:, 0], 1.0)
    assert beta0.shape == (4, 4)
    assert counts.n_classes == 4
    # row totals were drawn first, multinomial preserves them
    assert np.all(counts.totals >= 0)
    assert np.all(counts.counts.sum(axis=1) == counts.totals)


def dmr_row_loop(n, n_features, n_classes, rng):
    """The reference gen_dmr: the same draws, with one multinomial call per row."""
    beta0 = rng.standard_normal((n_features + 1, n_classes))
    beta0[rng.random(beta0.shape) < DMR_SPARSITY] = 0.0
    X = np.column_stack([np.ones(n), rng.random((n, n_features))])
    probs = softmax_rows(X @ beta0)
    totals = rng.poisson(DMR_TOTAL_RATE, size=n)
    counts = np.empty((n, n_classes))
    for i in range(n):
        counts[i] = rng.multinomial(totals[i], probs[i])
    return X, counts, beta0


@pytest.mark.parametrize("shape, tasks", [((1, 1, 2), 25), ((7, 2, 3), 25), ((300, 3, 5), 10),
                                          ((20_000, 7, 4), 3)])
def test_dmr_counts_equal_the_row_loop(shape, tasks):
    """One multinomial call over all rows draws the row loop's counts, and leaves the
    stream where the loop left it."""
    zero_rows = 0
    for task in range(tasks):
        rng, ref_rng = rng_for(3000 + task), rng_for(3000 + task)
        X, counts, beta0 = gen_dmr(*shape, rng)
        ref = dmr_row_loop(*shape, ref_rng)
        for got, want in zip((X, counts.counts, beta0), ref):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        assert rng.random() == ref_rng.random()
        zero_rows += int((counts.totals == 0).sum())
    if shape[0] == 20_000:
        assert zero_rows > 0  # Poisson(10) totals: about one zero row in 20,000


def test_multinomial_over_zero_total_rows_equals_the_row_loop():
    probs = softmax_rows(rng_for(9).standard_normal((60, 3)))
    totals = np.where(np.arange(60) % 3 == 0, 0, rng_for(10).poisson(5.0, 60))
    rng, ref_rng = rng_for(11), rng_for(11)
    counts = rng.multinomial(totals, probs)
    ref = np.array([ref_rng.multinomial(t, p) for t, p in zip(totals, probs)])
    np.testing.assert_array_equal(counts, ref)
    np.testing.assert_array_equal(counts[::3], 0)
    assert rng.random() == ref_rng.random()


def test_dmr_sparsity_fraction():
    zeros = 0
    total = 0
    for task in range(250):
        _, _, beta0 = gen_dmr(2, 3, 4, rng_for(1000 + task))
        zeros += np.sum(beta0 == 0.0)
        total += beta0.size
    frac = zeros / total
    se = np.sqrt(0.25 / total)
    assert abs(frac - 0.5) <= 4 * se


def test_sinc_noiseless_threshold():
    X, y = gen_sinc(2000, rng_for(7), noise_sd=0.0)
    truth = (np.sinc(X[:, 0] / np.pi) > 0).astype(float)
    np.testing.assert_array_equal(y, truth)
    assert np.all((X >= -15) & (X <= 15))


def test_circular_class_balance():
    X, y = gen_circular(100_000, rng_for(8))
    se = 0.5 / np.sqrt(y.size)
    assert abs(y.mean() - 0.5) <= 4 * se
    radii = np.hypot(X[:, 0], X[:, 1])
    np.testing.assert_array_equal(y, (radii < 1.0).astype(float))


class TestContamination:
    def test_flip_zero_fraction_identity(self):
        y = np.array([0.0, 1.0, 1.0, 0.0])
        np.testing.assert_array_equal(contaminate_flip(y, 0.0, rng_for(9)), y)

    def test_flip_full_fraction(self):
        y = np.array([0.0, 1.0, 1.0, 0.0])
        np.testing.assert_array_equal(contaminate_flip(y, 1.0, rng_for(10)), 1.0 - y)

    def test_flip_exact_count(self):
        y = np.zeros(100)
        flipped = contaminate_flip(y, 0.1, rng_for(11))
        assert int(np.sum(flipped != y)) == 10

    def test_replace_exact_count_and_identity(self):
        y = np.zeros(100)
        np.testing.assert_array_equal(contaminate_poisson(y, 0.0, rng_for(12)), y)
        replaced = contaminate_poisson(y, 0.25, rng_for(13), rate=20.0)
        # a Poisson(20) draw is almost surely nonzero
        assert int(np.sum(replaced != 0)) == 25

    def test_replaced_values_have_target_mean(self):
        y = np.full(200_000, -1.0)
        replaced = contaminate_poisson(y, 0.5, rng_for(14), rate=20.0)
        vals = replaced[replaced >= 0]
        se = np.sqrt(20.0 / vals.size)
        assert abs(vals.mean() - 20.0) <= 4 * se

    def test_fraction_validated(self):
        for contaminate, fraction in ((contaminate_flip, 1.5), (contaminate_flip, 2.0),
                                      (contaminate_flip, np.nan), (contaminate_poisson, -1.0)):
            with pytest.raises(ConfigError, match=re.escape(f"fraction must be in [0, 1], got {fraction}")):
                contaminate(np.zeros(5), fraction, rng_for(15))
