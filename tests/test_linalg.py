import sys
import threading

import numpy as np
import pytest
import scipy.linalg

from jacobiprior.errors import (
    DimensionMismatchError,
    NotPositiveDefiniteError,
    RankDeficientError,
)
from jacobiprior.linalg import (
    BLOCK_ROWS,
    LeastSquaresSolver,
    cholesky_solve,
    solve_normal_equations,
)


def tall_design(n, p=8, seed=0):
    """n x p design with an intercept; n >= 2 BLOCK_ROWS is factored in row blocks."""
    X = np.random.default_rng(seed).standard_normal((n, p))
    X[:, 0] = 1.0
    return X


def rel_err(a, ref):
    return np.linalg.norm(a - ref) / np.linalg.norm(ref)


class TestSolveNormalEquations:
    def test_identity_design(self):
        beta = solve_normal_equations(np.eye(3), np.array([1.0, 2.0, 3.0]))
        np.testing.assert_allclose(beta, [1.0, 2.0, 3.0], atol=1e-14)

    def test_intercept_only_mean(self):
        X = np.ones((4, 1))
        beta = solve_normal_equations(X, np.array([1.0, 1.0, -1.0, -1.0]))
        np.testing.assert_allclose(beta, [0.0], atol=1e-14)

    def test_exact_linear_fit(self):
        X = np.array([[1.0, 0.0], [1.0, 1.0], [1.0, 2.0]])
        beta = solve_normal_equations(X, np.array([0.0, 1.0, 2.0]))
        np.testing.assert_allclose(beta, [0.0, 1.0], atol=1e-12)

    def test_matches_pinv_oracle_on_random_systems(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            X = rng.standard_normal((20, 5))
            t = rng.standard_normal(20)
            beta = solve_normal_equations(X, t)
            oracle = np.linalg.pinv(X) @ t
            np.testing.assert_allclose(beta, oracle, rtol=1e-8, atol=1e-10)

    def test_normal_equation_residual_orthogonality(self):
        rng = np.random.default_rng(7)
        X = rng.standard_normal((30, 4))
        t = rng.standard_normal(30)
        beta = solve_normal_equations(X, t)
        resid = X.T @ (t - X @ beta)
        assert np.max(np.abs(resid)) <= 1e-8 * max(np.max(np.abs(X.T @ t)), 1.0)

    def test_collinear_design_raises(self):
        X = np.column_stack([np.ones(5), np.ones(5)])
        with pytest.raises(RankDeficientError):
            solve_normal_equations(X, np.zeros(5))
        X = tall_design(2 * BLOCK_ROWS + 3, p=4, seed=3)  # factored in row blocks
        X[:, 3] = 2.0 * X[:, 1] - X[:, 2]
        with pytest.raises(RankDeficientError):
            LeastSquaresSolver(X)

    def test_underdetermined_raises(self):
        with pytest.raises(RankDeficientError):
            solve_normal_equations(np.ones((2, 3)), np.zeros(2))

    def test_shape_mismatch_raises(self):
        with pytest.raises(DimensionMismatchError):
            solve_normal_equations(np.eye(3), np.zeros(4))

    def test_non_finite_rejected(self):
        X = np.eye(3)
        X[0, 0] = np.nan
        with pytest.raises(DimensionMismatchError, match="X contains a non-finite entry at row 0, column 0: nan"):
            solve_normal_equations(X, np.zeros(3))
        X[0, 0], X[2, 1], X[1, 2] = 1.0, -np.inf, np.inf
        with pytest.raises(DimensionMismatchError, match="at row 1, column 2: inf"):
            LeastSquaresSolver(X)
        with pytest.raises(DimensionMismatchError, match="t contains a non-finite entry at index 1: nan"):
            solve_normal_equations(np.eye(3), [0.0, np.nan, np.inf])
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
            np.testing.assert_array_equal(solver.solve(t), solve_normal_equations(X, t))

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


class TestBlockedFactor:
    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("n", [2 * BLOCK_ROWS - 1, 2 * BLOCK_ROWS, 2 * BLOCK_ROWS + 1, 5 * BLOCK_ROWS + 7])
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

    def test_column_zero_throughout_first_block_fits(self):
        n = 3 * BLOCK_ROWS
        X = tall_design(n, p=4, seed=1)
        X[:, 3] = (np.arange(n) >= 20_000).astype(float)  # block 0 has rows 0..16383
        t = np.random.default_rng(2).standard_normal(n)
        beta = LeastSquaresSolver(X).solve(t)
        assert rel_err(beta, np.linalg.lstsq(X, t, rcond=None)[0]) <= 1e-12


class TestCholeskySolve:
    def test_diagonal_system(self):
        out = cholesky_solve(2.0 * np.eye(2), np.eye(2))
        np.testing.assert_allclose(out, 0.5 * np.eye(2), atol=1e-14)

    def test_symmetric_hand_solve(self):
        A = np.array([[2.0, 1.0], [1.0, 2.0]])
        out = cholesky_solve(A, np.array([1.0, 1.0]))
        np.testing.assert_allclose(out, [1.0 / 3.0, 1.0 / 3.0], atol=1e-12)

    def test_singular_matrix_raises(self):
        with pytest.raises(NotPositiveDefiniteError):
            cholesky_solve(np.ones((2, 2)), np.ones(2))

    def test_asymmetric_raises(self):
        A = np.array([[2.0, 1.0], [0.0, 2.0]])
        with pytest.raises(NotPositiveDefiniteError):
            cholesky_solve(A, np.ones(2))

    def test_recovers_solution_for_random_spd(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            M = rng.standard_normal((6, 6))
            A = M.T @ M + np.eye(6)
            Z = rng.standard_normal((6, 3))
            out = cholesky_solve(A, A @ Z)
            np.testing.assert_allclose(out, Z, rtol=1e-8, atol=1e-10)

    def test_relative_residual(self):
        rng = np.random.default_rng(12)
        M = rng.standard_normal((8, 8))
        A = M.T @ M + np.eye(8)
        B = rng.standard_normal(8)
        out = cholesky_solve(A, B)
        assert np.linalg.norm(A @ out - B) <= 1e-8 * np.linalg.norm(B)
