import re
import sys
import threading
import tracemalloc

import numpy as np
import pytest
import scipy.linalg

from jacobiprior.errors import DimensionMismatchError, RankDeficientError
from jacobiprior.glm import fit_jacobi, latent_vector
from jacobiprior.linalg import BLOCK_ROWS, LeastSquaresSolver, stable_matvec
from jacobiprior.partition import shard_stats


def tall_design(n, p=8, seed=0):
    """n x p design with an intercept; n >= 2 BLOCK_ROWS is factored in row blocks."""
    X = np.random.default_rng(seed).standard_normal((n, p))
    X[:, 0] = 1.0
    return X


def rel_err(a, ref):
    return np.linalg.norm(a - ref) / np.linalg.norm(ref)


class TestSolveNormalEquations:
    def test_identity_design(self):
        beta = LeastSquaresSolver(np.eye(3)).solve(np.array([1.0, 2.0, 3.0]))
        np.testing.assert_allclose(beta, [1.0, 2.0, 3.0], atol=1e-14)

    def test_intercept_only_mean(self):
        X = np.ones((4, 1))
        beta = LeastSquaresSolver(X).solve(np.array([1.0, 1.0, -1.0, -1.0]))
        np.testing.assert_allclose(beta, [0.0], atol=1e-14)

    def test_exact_linear_fit(self):
        X = np.array([[1.0, 0.0], [1.0, 1.0], [1.0, 2.0]])
        beta = LeastSquaresSolver(X).solve(np.array([0.0, 1.0, 2.0]))
        np.testing.assert_allclose(beta, [0.0, 1.0], atol=1e-12)

    def test_matches_pinv_oracle_on_random_systems(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            X = rng.standard_normal((20, 5))
            t = rng.standard_normal(20)
            beta = LeastSquaresSolver(X).solve(t)
            oracle = np.linalg.pinv(X) @ t
            np.testing.assert_allclose(beta, oracle, rtol=1e-8, atol=1e-10)

    def test_normal_equation_residual_orthogonality(self):
        rng = np.random.default_rng(7)
        X = rng.standard_normal((30, 4))
        t = rng.standard_normal(30)
        beta = LeastSquaresSolver(X).solve(t)
        resid = X.T @ (t - X @ beta)
        assert np.max(np.abs(resid)) <= 1e-8 * max(np.max(np.abs(X.T @ t)), 1.0)

    def test_collinear_design_raises(self):
        X = np.column_stack([np.ones(5), np.ones(5)])
        with pytest.raises(RankDeficientError):
            LeastSquaresSolver(X).solve(np.zeros(5))
        X = tall_design(2 * BLOCK_ROWS + 3, p=4, seed=3)  # factored in row blocks
        X[:, 3] = 2.0 * X[:, 1] - X[:, 2]
        with pytest.raises(RankDeficientError):
            LeastSquaresSolver(X)

    def test_underdetermined_raises(self):
        with pytest.raises(RankDeficientError):
            LeastSquaresSolver(np.ones((2, 3))).solve(np.zeros(2))

    def test_shape_mismatch_raises(self):
        with pytest.raises(DimensionMismatchError):
            LeastSquaresSolver(np.eye(3)).solve(np.zeros(4))

    def test_non_finite_rejected(self):
        X = np.eye(3)
        X[0, 0] = np.nan
        with pytest.raises(DimensionMismatchError, match="X contains a non-finite entry at row 0, column 0: nan"):
            LeastSquaresSolver(X).solve(np.zeros(3))
        X[0, 0], X[2, 1], X[1, 2] = 1.0, -np.inf, np.inf
        with pytest.raises(DimensionMismatchError, match="at row 1, column 2: inf"):
            LeastSquaresSolver(X)
        with pytest.raises(DimensionMismatchError, match="t contains a non-finite entry at index 1: nan"):
            LeastSquaresSolver(np.eye(3)).solve([0.0, np.nan, np.inf])
        # The solver checks its right-hand side too, naming the global row
        # of a blocked design, never a row within its block.
        for n in (10, 2 * BLOCK_ROWS + 1):
            X, t = tall_design(n, p=3), np.zeros(n)
            t[4] = np.nan
            with pytest.raises(DimensionMismatchError, match="t contains a non-finite entry at index 4: nan"):
                LeastSquaresSolver(X).solve(t)
            with pytest.raises(DimensionMismatchError, match="at row 0, column 0: inf"):
                LeastSquaresSolver(X).solve(np.full((n, 2), np.inf))
            T = np.zeros((n, 2))
            T[n - 2, 1] = -np.inf
            with pytest.raises(DimensionMismatchError, match=f"t contains a non-finite entry at row {n - 2}, column 1: -inf"):
                LeastSquaresSolver(X).qt(T)
            X[n - 3, 2] = np.nan  # in the last block when blocked
            with pytest.raises(DimensionMismatchError, match=f"X contains a non-finite entry at row {n - 3}, column 2: nan"):
                LeastSquaresSolver(X)

    def test_solver_reuse_matches_single_shot(self):
        rng = np.random.default_rng(3)
        X = rng.standard_normal((15, 4))
        solver = LeastSquaresSolver(X)
        for _ in range(5):
            t = rng.standard_normal(15)
            np.testing.assert_array_equal(solver.solve(t), LeastSquaresSolver(X).solve(t))

    def test_factor_equals_scipy_qr_and_keeps_input(self):
        rng = np.random.default_rng(6)
        # 2 BLOCK_ROWS - 1 rows is the largest design factored in one piece.
        designs = (rng.standard_normal((60, 5)), np.asfortranarray(rng.standard_normal((80, 40))))
        for X in designs + (tall_design(2 * BLOCK_ROWS - 1),):
            before = X.copy()
            solver = LeastSquaresSolver(X)
            (_, tau), R = scipy.linalg.qr(X, mode="raw")
            np.testing.assert_array_equal(solver.R, R)
            np.testing.assert_array_equal(solver._tau, tau)
            np.testing.assert_array_equal(X, before)

    def test_empty_design_rejected(self):
        with pytest.raises(RankDeficientError):
            LeastSquaresSolver(np.zeros((0, 0)))

    def test_matrix_rhs_columns_equal_own_solves_exactly(self):
        rng = np.random.default_rng(4)
        solver = LeastSquaresSolver(rng.standard_normal((30, 4)))
        T = rng.standard_normal((30, 6))
        B = solver.solve(T)
        assert B.shape == (4, 6)
        for k in range(6):
            np.testing.assert_array_equal(B[:, k], solver.solve(T[:, k]))

    def test_matrix_rhs_row_mismatch_raises(self):
        solver = LeastSquaresSolver(np.eye(3))
        with pytest.raises(DimensionMismatchError):
            solver.solve(np.zeros((4, 2)))

    def test_shared_solver_is_thread_safe(self):
        # LAPACK's reflector application writes to the stored factor and
        # restores it; unguarded, this loop saw one or two of its 160,000
        # solves differ from the sequential result. The blocked solver
        # (n = 2 BLOCK_ROWS) has one such factor per block plus the top one,
        # and each of its solves takes about 0.3 ms, hence fewer of them.
        n_threads = 8
        rng = np.random.default_rng(5)
        for n, n_pool, per_thread in ((40, 512, 20_000), (2 * BLOCK_ROWS, 16, 150)):
            solver = LeastSquaresSolver(rng.standard_normal((n, 4)))
            pool = rng.standard_normal((n_pool, n))
            expected = np.array([solver.solve(t) for t in pool])
            start = threading.Barrier(n_threads)
            mismatches = [0] * n_threads

            def work(k):
                start.wait()
                for i in range(per_thread):
                    j = (k * 61 + i) % len(pool)
                    if not np.array_equal(solver.solve(pool[j]), expected[j]):
                        mismatches[k] += 1

            threads = [threading.Thread(target=work, args=(k,)) for k in range(n_threads)]
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-5)
            try:
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=120)
            finally:
                sys.setswitchinterval(interval)
            assert not any(t.is_alive() for t in threads)
            assert sum(mismatches) == 0, f"n={n}: {sum(mismatches)} of {n_threads * per_thread} solves differ"


# Row counts on both sides of the blocked factor's threshold, and a ragged last block.
TALL_ROWS = [2 * BLOCK_ROWS - 1, 2 * BLOCK_ROWS, 2 * BLOCK_ROWS + 1, 5 * BLOCK_ROWS + 7]


def responses(X, seed):
    """(binary y, count y, n x 3 count matrix) drawn from a design."""
    rng = np.random.default_rng(seed)
    eta = 0.5 * (X @ rng.standard_normal(X.shape[1]))
    y = (rng.random(len(X)) < 1.0 / (1.0 + np.exp(-eta))).astype(float)
    return y, rng.poisson(np.exp(np.clip(eta, -3, 3))).astype(float), rng.poisson(2.0, (len(X), 3)).astype(float)


class TestBlockedFactor:
    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("n", TALL_ROWS)
    def test_matches_lstsq_and_keeps_input(self, n, order):
        X = np.array(tall_design(n, seed=n), order=order)
        before = X.copy()
        T = np.random.default_rng(n + 1).standard_normal((n, 3))
        solver = LeastSquaresSolver(X)
        assert len(solver._blocks) == (n // BLOCK_ROWS if n >= 2 * BLOCK_ROWS else 0)
        B = solver.solve(T)
        assert rel_err(B, np.linalg.lstsq(X, T, rcond=None)[0]) <= 1e-12
        assert rel_err(solver.R.T @ solver.R, X.T @ X) <= 1e-12
        for k in range(3):
            np.testing.assert_array_equal(B[:, k], solver.solve(T[:, k]))
        np.testing.assert_array_equal(X, before)

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("n", TALL_ROWS)
    def test_streamed_fit_equals_retained_solver(self, n, order):
        # fit_jacobi streams a tall X through one block buffer and keeps no Q;
        # LeastSquaresSolver keeps every block's factor. Same bits either way.
        X = np.array(tall_design(n, seed=n + 2), order=order)
        before = X.copy()
        y, counts, table = responses(X, n)
        for family, t in (("logit", y), ("probit", y), ("poisson", counts)):
            expected = LeastSquaresSolver(X).solve(latent_vector(t, family))
            np.testing.assert_array_equal(fit_jacobi(X, t, family).beta, expected)
        beta = fit_jacobi(X, table, "poisson").beta
        for k in range(table.shape[1]):
            np.testing.assert_array_equal(beta[:, k], fit_jacobi(X, table[:, k], "poisson").beta)
        np.testing.assert_array_equal(X, before)

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("n", TALL_ROWS)
    def test_non_finite_cell_in_last_block_names_global_row(self, n, order):
        X = np.array(tall_design(n, seed=4), order=order)
        y = responses(X, 5)[0]
        X[n - 3, 2] = np.inf
        message = "X contains a non-finite entry at row {}, column 2: inf"
        with pytest.raises(DimensionMismatchError, match=re.escape(message.format(n - 3))):
            fit_jacobi(X, y, "logit")
        # A shard names the row within its own rows, after its id.
        with pytest.raises(DimensionMismatchError, match=re.escape("shard 6: " + message.format(n - 10))):
            shard_stats(X[7:], y[7:], "logit", shard_id=6)

    def test_streamed_fit_copies_no_design(self):
        X = tall_design(5 * BLOCK_ROWS, seed=6)
        y = responses(X, 7)[0]
        fit_jacobi(X, y, "logit")
        tracemalloc.start()
        try:
            fit_jacobi(X, y, "logit")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < X.nbytes / 2, f"fit allocated {peak} bytes at peak for a {X.nbytes}-byte design"

    def test_column_zero_throughout_first_block_fits(self):
        n = 3 * BLOCK_ROWS
        X = tall_design(n, p=4, seed=1)
        X[:, 3] = (np.arange(n) >= 20_000).astype(float)  # block 0 has rows 0..16383
        t = np.random.default_rng(2).standard_normal(n)
        beta = LeastSquaresSolver(X).solve(t)
        assert rel_err(beta, np.linalg.lstsq(X, t, rcond=None)[0]) <= 1e-12


def column_loop(X, beta):
    """The reference sum: whole columns of X, left to right, no row blocks."""
    mul = np.multiply if beta.ndim == 1 else np.multiply.outer
    out = mul(X[:, 0], beta[0])
    for j in range(1, X.shape[1]):
        out = out + mul(X[:, j], beta[j])
    return out


# Equal-valued designs in the memory layouts predictions meet.
LAYOUTS = {
    "C": np.ascontiguousarray,
    "F": np.asfortranarray,
    "row_strided": lambda A: np.repeat(A, 2, axis=0)[::2],
    "column_permuted": lambda A: np.ascontiguousarray(A[:, ::-1])[:, ::-1],
}


class TestStableMatvec:
    @pytest.mark.parametrize("layout", sorted(LAYOUTS))
    @pytest.mark.parametrize("n", [1, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1, 2 * BLOCK_ROWS + 3])
    def test_matches_column_loop_bit_for_bit(self, n, layout):
        rng = np.random.default_rng(n)
        p, k = 6, 3
        # Columns of very different scales, so a different order of adds shows in the bits.
        A = rng.standard_normal((n, p)) * 10.0 ** np.arange(-4, 2 * p - 4, 2)
        X = LAYOUTS[layout](A)
        assert np.array_equal(X, A)
        before = X.copy()
        beta, betas = rng.standard_normal(p), rng.standard_normal((p, k))
        got = stable_matvec(X, beta)
        assert got.shape == (n,)
        np.testing.assert_array_equal(got, column_loop(A, beta))
        got = stable_matvec(X, betas)
        assert got.shape == (n, k)
        np.testing.assert_array_equal(got, column_loop(A, betas))
        for j in range(k):
            np.testing.assert_array_equal(got[:, j], stable_matvec(X, betas[:, j]))
        np.testing.assert_array_equal(X, before)


# Prints the hex bytes of logit fits on seeded designs: p = 8 and 32 go through the
# row-blocked factor (n >= 2 BLOCK_ROWS), p = 200 through one dgeqrf.
THREAD_FITS = """
import numpy as np
from jacobiprior.glm import fit_jacobi
for n, p in ((40_000, 8), (40_000, 32), (2_000, 200)):
    rng = np.random.default_rng(p)
    X = rng.standard_normal((n, p))
    y = (rng.random(n) < 0.5).astype(float)
    print(fit_jacobi(X, y, "logit").beta.tobytes().hex())
"""


def test_fits_repeat_at_a_fixed_blas_thread_count(fresh_python):
    """README "Determinism": bits hold at a fixed BLAS thread count; across counts, dgeqrf
    may round differently, at about 1e-15 relative to the coefficient vector."""
    def fits(threads):
        out = fresh_python("-c", THREAD_FITS, OPENBLAS_NUM_THREADS=threads)
        return [np.frombuffer(bytes.fromhex(line)) for line in out.split()]

    one, again, two = fits("1"), fits("1"), fits("2")
    assert [b.shape for b in one] == [(8,), (32,), (200,)]
    for b1, b1_again, b2 in zip(one, again, two):
        assert np.array_equal(b1, b1_again)
        assert rel_err(b2, b1) <= 1e-12
