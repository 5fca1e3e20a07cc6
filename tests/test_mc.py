import re

import numpy as np
import pytest
from scipy.special import ndtr

import jacobiprior.linalg as linalg_module
import jacobiprior.mc as mc_module
from jacobiprior.errors import ConfigError, InsufficientDrawsError, RankDeficientError
from jacobiprior.glm import JacobiHyper, default_hyper
from jacobiprior.linalg import BLOCK_ROWS, lstsq
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
            draws.draws[r], np.linalg.lstsq(X, eta, rcond=None)[0], atol=1e-12
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


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_tall_design_draws_equal_per_draw_solves(workers):
    # p = 3: 7 draws are cut into blocks of 3, 2 and 2 for 1 and 3 workers, and 2, 2, 2
    # and 1 for 2 workers; one walk of the row blocks a draw block.
    X, y = small_problem(seed=5, n=2 * BLOCK_ROWS + 1)
    seed = SeedSpec(31, 2)
    draws = sample_beta(X, y, "logit", n_draws=7, seed=seed, workers=workers).draws
    a, b = default_hyper("logit").resolve(len(y))
    for r in range(7):
        eta = _draw_eta(derive_rng(seed, r), y, "logit", a, b)
        np.testing.assert_array_equal(draws[r], lstsq(X, eta))


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_short_design_draws_equal_per_draw_solves(workers):
    # n = 1,000, p = 3: blocks of at most BLOCK_ROWS p // n = 49 draws; 150 draws make 4
    # blocks of 38 or 37 for 1 and 2 workers, 6 of 25 for 3.
    X, y = small_problem(seed=6, n=1000)
    seed = SeedSpec(32, 1)
    draws = sample_beta(X, y, "probit", n_draws=150, seed=seed, workers=workers).draws
    a, b = default_hyper("probit").resolve(len(y))
    for r in range(150):
        eta = _draw_eta(derive_rng(seed, r), y, "probit", a, b)
        np.testing.assert_array_equal(draws[r], lstsq(X, eta))


@pytest.mark.parametrize("workers, widths", [(1, [38, 38, 37, 37]), (2, [38, 38, 37, 37]),
                                             (3, [25] * 6)])
def test_one_factorization_per_draw_block(monkeypatch, workers, widths):
    # One leading n x 0 projection checks X before any draw; then each block is one lstsq,
    # so one project and one dgeqrf of X.
    projected, factored = [], []
    project, geqrf = linalg_module.project, linalg_module._geqrf
    monkeypatch.setattr(linalg_module, "project", lambda X, T: projected.append(T.shape) or project(X, T))
    monkeypatch.setattr(linalg_module, "_geqrf", lambda A: factored.append(A.shape) or geqrf(A))
    X, y = small_problem(seed=6, n=1000)
    sample_beta(X, y, "logit", n_draws=150, seed=SeedSpec(32, 1), workers=workers)
    assert projected[0] == (1000, 0)
    assert sorted(projected[1:], reverse=True) == [(1000, k) for k in widths]
    assert factored == [(1000, 3)] * (1 + len(widths))
    if workers == 1:  # blocks in order, the first one first
        assert projected[1:] == [(1000, k) for k in widths]


@pytest.mark.parametrize("workers", [1, 2])
def test_a_rejected_design_makes_no_draw(monkeypatch, workers):
    calls = []
    monkeypatch.setattr(mc_module, "_draw_eta", lambda *args: calls.append(args) or _draw_eta(*args))
    X = np.column_stack([np.ones(1000), np.arange(1000.0), np.arange(1000.0)])  # collinear
    with pytest.raises(RankDeficientError):
        sample_beta(X, np.zeros(1000), "logit", n_draws=1000, workers=workers)
    assert calls == []


def _collinear():
    X = small_problem(seed=8)[0]
    return np.column_stack([X, X[:, 0] + X[:, 1]])


@pytest.mark.parametrize("X", [np.zeros((0, 3)), np.ones((30, 0)), np.ones((2, 3)), _collinear(),
                               np.where(np.arange(90).reshape(30, 3) == 40, np.inf, 1.0)],
                         ids=["empty", "no_columns", "n_below_p", "collinear", "non_finite"])
@pytest.mark.parametrize("workers", [1, 2])
def test_design_errors_are_lstsq_errors(X, workers):
    y = np.zeros(X.shape[0])
    with pytest.raises(Exception) as expected:
        lstsq(X, y)
    with pytest.raises(type(expected.value), match=f"^{re.escape(str(expected.value))}$"):
        sample_beta(X, y, "logit", n_draws=40, workers=workers)


def test_workers_capped_at_draw_count(monkeypatch):
    opened = []

    class RecordingPool:  # records its size and runs the ranges in the calling thread
        def __init__(self, max_workers):
            opened.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(mc_module, "ThreadPoolExecutor", RecordingPool)
    X, y = small_problem(seed=6)
    seed = SeedSpec(3, 3)
    capped = sample_beta(X, y, "logit", n_draws=3, seed=seed, workers=64)
    assert opened == [3]
    np.testing.assert_array_equal(capped.draws, sample_beta(X, y, "logit", n_draws=3, seed=seed).draws)


def test_poisson_worker_input_validation():
    X, _ = small_problem(seed=3)
    y = np.arange(30, dtype=float)  # counts
    draws = sample_beta(X, y, "poisson", n_draws=5, seed=SeedSpec(1, 0))
    assert draws.draws.shape == (5, 3)
    with pytest.raises(InsufficientDrawsError):
        sample_beta(X, y, "poisson", n_draws=0)
    with pytest.raises(ConfigError, match="workers must be an integer >= 1, got -3"):
        sample_beta(X, y, "poisson", n_draws=5, workers=-3)


@pytest.mark.parametrize("kwargs, error, message", [
    (dict(n_draws=2.5), InsufficientDrawsError, "n_draws must be an integer in [1, 2147483647], got 2.5"),
    (dict(n_draws=True), InsufficientDrawsError, "n_draws must be an integer in [1, 2147483647], got True"),
    (dict(workers=2.5), ConfigError, "workers must be an integer >= 1, got 2.5"),
    (dict(n_draws=2**64), InsufficientDrawsError, f"n_draws must be an integer in [1, 2147483647], got {2**64}"),
])
def test_non_integer_counts_are_typed(kwargs, error, message):
    X, y = small_problem(seed=3)
    with pytest.raises(error, match=re.escape(message)):
        sample_beta(X, y, "logit", **{"n_draws": 5, **kwargs})


@pytest.mark.parametrize("count", [np.int8, np.uint8])
def test_narrow_numpy_counts_draw_as_ints(count):
    # The block arithmetic once ran in the caller's type: np.int8 overflowed at 8192.
    X, y = small_problem(seed=3)
    want = sample_beta(X, y, "logit", n_draws=3, seed=SeedSpec(1, 1), workers=3).draws
    got = sample_beta(X, y, "logit", n_draws=count(3), seed=SeedSpec(1, 1), workers=count(3)).draws
    assert got.tobytes() == want.tobytes()


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
        fresh = np.linalg.lstsq(X, eta, rcond=None)[0]
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
        # A level that is not a real number gets the same typed error, not a raw TypeError.
        for bad in ("0.9", None, [0.9], float("nan")):
            with pytest.raises(InsufficientDrawsError, match=re.escape(f"level must be a number in (0, 1), got {bad!r}")):
                summarize(draws2, level=bad)
        assert summarize(draws2, level=np.float64(0.5)).level == 0.5
