import re
import sys
import threading
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import jacobiprior.linalg as linalg_module
from jacobiprior.errors import DimensionMismatchError, RankDeficientError
from jacobiprior.glm import fit_jacobi, latent_vector
from jacobiprior.linalg import BLOCK_ROWS, LeastSquaresSolver, as_finite, lstsq, stable_matvec
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
        # An entry that is not a number at all is named by its argument too.
        with pytest.raises(DimensionMismatchError, match="^X must be numeric: "):
            LeastSquaresSolver([["a", "b"]] * 6)
        with pytest.raises(DimensionMismatchError, match="^X must be numeric: "):
            fit_jacobi([["a", "b"]] * 6, [0.0, 1.0] * 3, "logit")
        # A right-hand side, 1-d or 2-d, goes through the same conversion rule.
        solver = LeastSquaresSolver(np.eye(3))
        for rhs in ([0.0, {}, 1.0], [[0.0], ["a"], [1.0]]):
            with pytest.raises(DimensionMismatchError, match="^t must be numeric: "):
                solver.solve(rhs)
        np.testing.assert_array_equal(solver.solve([[1.0], [2.0], [3.0]]), [[1.0], [2.0], [3.0]])
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
                LeastSquaresSolver(X).solve(T)
            X[n - 3, 2] = np.nan  # in the last block when blocked
            with pytest.raises(DimensionMismatchError, match=f"X contains a non-finite entry at row {n - 3}, column 2: nan"):
                LeastSquaresSolver(X)

    def test_overflowing_sum_of_squares_takes_the_slow_path(self):
        # v'v of finite entries can overflow; the check then scans the entries, warning of
        # nothing (the suite turns warnings into errors), and still names the first bad one.
        big = np.full((4, 2), 1e200)
        assert as_finite(big, 2, "X") is big
        np.testing.assert_array_equal(LeastSquaresSolver(np.eye(3) * 1e200).solve([1e200, 0.0, 2e200]),
                                      [1.0, 0.0, 2.0])
        with pytest.raises(DimensionMismatchError, match="^v contains a non-finite entry at index 2: nan$"):
            as_finite([1e200, 1e200, np.nan, np.inf], 1, "v")
        big[3, 0] = -np.inf
        with pytest.raises(DimensionMismatchError, match="^X contains a non-finite entry at row 3, column 0: -inf$"):
            as_finite(big, 2, "X")

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
            R = scipy.linalg.qr(X, mode="raw")[1]
            np.testing.assert_array_equal(solver.R, R)
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

    def test_zero_column_rhs_solves_to_p_by_zero(self):
        # n x 0 right-hand sides, whole and row-blocked: a p x 0 answer, after the rank check.
        for n in (30, 2 * BLOCK_ROWS):
            X = tall_design(n, p=4, seed=n)
            assert lstsq(X, np.zeros((n, 0))).shape == (4, 0)
            assert LeastSquaresSolver(X).solve(np.zeros((n, 0))).shape == (4, 0)
            X[:, 3] = 2.0 * X[:, 1] - X[:, 2]
            with pytest.raises(RankDeficientError):
                lstsq(X, np.zeros((n, 0)))

    def test_matrix_rhs_row_mismatch_raises(self):
        solver = LeastSquaresSolver(np.eye(3))
        with pytest.raises(DimensionMismatchError):
            solver.solve(np.zeros((4, 2)))

    def test_shared_solver_is_thread_safe(self):
        # LAPACK's reflector application writes to the factor it applies and
        # restores it; a factor shared between threads once made one or two of
        # this loop's 160,000 solves differ from the sequential result. Each
        # solve now factors X in its own buffers. The blocked solver
        # (n = 2 BLOCK_ROWS) walks X block by block and takes about 0.3 ms a
        # solve, hence fewer of them.
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
        B = solver.solve(T)
        assert rel_err(B, np.linalg.lstsq(X, T, rcond=None)[0]) <= 1e-12
        assert rel_err(solver.R.T @ solver.R, X.T @ X) <= 1e-12
        for k in range(3):
            np.testing.assert_array_equal(B[:, k], solver.solve(T[:, k]))
        np.testing.assert_array_equal(X, before)

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("n", TALL_ROWS)
    def test_streamed_fit_equals_retained_solver(self, n, order):
        # fit_jacobi projects the latents in the walk that factors X;
        # LeastSquaresSolver factors X in one walk and walks it again to solve.
        # Same bits either way.
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

    def test_solver_copies_no_design(self):
        X = tall_design(5 * BLOCK_ROWS + 7, seed=8)
        LeastSquaresSolver(X)
        tracemalloc.start()
        try:
            solver = LeastSquaresSolver(X)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < X.nbytes / 2, f"solver allocated {peak} bytes at peak for a {X.nbytes}-byte design"
        t = np.random.default_rng(9).standard_normal(len(X))
        assert rel_err(solver.solve(t), np.linalg.lstsq(X, t, rcond=None)[0]) <= 1e-12

    def test_stacked_factors_are_blocked_again(self, monkeypatch):
        # With 4-row blocks, 600 x 2 stacks 37 R factors (74 rows), themselves two block
        # thresholds tall: project walks them in blocks as it walked X.
        monkeypatch.setattr(linalg_module, "BLOCK_ROWS", 4)
        X = tall_design(600, p=2, seed=10)
        T = np.random.default_rng(11).standard_normal((600, 3))
        R, C = linalg_module.project(X, T)
        assert R.shape == (2, 2) and C.shape == (2, 3) and not np.tril(R, -1).any()
        assert rel_err(R.T @ R, X.T @ X) <= 1e-12
        B = linalg_module.lstsq(X, T)
        assert rel_err(B, np.linalg.lstsq(X, T, rcond=None)[0]) <= 1e-12
        for k in range(3):
            np.testing.assert_array_equal(B[:, k], linalg_module.lstsq(X, T[:, k]))

    @settings(max_examples=150, deadline=None)
    @given(n=st.integers(1, 400), p=st.integers(1, 6), K=st.integers(0, 3),
           seed=st.integers(0, 2**32 - 1), data=st.data())
    def test_composed_reduction_at_four_row_blocks(self, n, p, K, seed, data):
        # 4-row blocks: 8p-row blocks from n = 8 on, stacks of k p rows blocked again.
        # Set here, not by monkeypatch, which hypothesis refuses for a function scope.
        linalg_module.BLOCK_ROWS, block_rows = 4, linalg_module.BLOCK_ROWS
        try:
            rng = np.random.default_rng(seed)
            X, T = rng.standard_normal((n, p)), rng.standard_normal((n, K))
            R, C = linalg_module.project(X, T)
            assert R.shape == (p, p) and C.shape == (p, K) and not np.tril(R, -1).any()
            assert rel_err(R.T @ R, X.T @ X) <= 1e-12
            # X'T = R'Q'T, and Q'T below row p does not reach it.
            scale = np.abs(X).sum() * np.abs(T).max(initial=0)
            assert np.abs(R.T @ C - X.T @ T).max(initial=0) <= 1e-12 * scale
            for k in range(K):
                np.testing.assert_array_equal(C[:, k], linalg_module.project(X, T[:, k])[1])
            i, j = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, p - 1))
            X[i, j] = np.nan
            message = f"X contains a non-finite entry at row {i}, column {j}: nan"
            with pytest.raises(DimensionMismatchError, match=f"^{re.escape(message)}$"):
                linalg_module.project(X, T)
        finally:
            linalg_module.BLOCK_ROWS = block_rows

    @settings(max_examples=150, deadline=None)
    @given(n=st.integers(1, 200), p=st.integers(1, 6), kind=st.sampled_from(["zeros", "eye", "ones", "normal"]),
           value=st.sampled_from([np.nan, np.inf, -np.inf]), blocked=st.booleans(), data=st.data())
    def test_any_non_finite_cell_makes_r_non_finite(self, n, p, kind, value, blocked, data):
        # project tests R, not X: a NaN or inf cell must reach R even where the reflectors
        # are the identity (zero and identity columns) and through every stack of factors.
        X = {"zeros": np.zeros((n, p)), "eye": np.eye(n, p), "ones": np.ones((n, p)),
             "normal": np.random.default_rng(n * p).standard_normal((n, p))}[kind]
        i, j = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, p - 1))
        X[i, j] = value
        linalg_module.BLOCK_ROWS, block_rows = (4 if blocked else BLOCK_ROWS), linalg_module.BLOCK_ROWS
        try:
            assert not np.isfinite(linalg_module._tsqr(X, np.ones(n))[0]).all()
            message = f"X contains a non-finite entry at row {i}, column {j}: {value!r}"
            with pytest.raises(DimensionMismatchError, match=f"^{re.escape(message)}$"):
                linalg_module.project(X, np.ones((n, 0)))
        finally:
            linalg_module.BLOCK_ROWS = block_rows

    def test_column_zero_throughout_first_block_fits(self):
        n = 3 * BLOCK_ROWS
        X = tall_design(n, p=4, seed=1)
        X[:, 3] = (np.arange(n) >= 20_000).astype(float)  # block 0 has rows 0..16383
        t = np.random.default_rng(2).standard_normal(n)
        beta = LeastSquaresSolver(X).solve(t)
        assert rel_err(beta, np.linalg.lstsq(X, t, rcond=None)[0]) <= 1e-12


def column_loop(X, beta):
    """The reference sum: one einsum per column of beta over the whole C-ordered X."""
    A = np.ascontiguousarray(X)
    cols = [np.einsum("ij,j->i", A, np.ascontiguousarray(b)) for b in np.atleast_2d(beta.T)]
    return np.column_stack(cols) if beta.ndim == 2 else cols[0]


# Equal-valued designs in the memory layouts predictions meet.
LAYOUTS = {
    "C": np.ascontiguousarray,
    "F": np.asfortranarray,
    "row_strided": lambda A: np.repeat(A, 2, axis=0)[::2],
    "column_permuted": lambda A: np.ascontiguousarray(A[:, ::-1])[:, ::-1],
}


class TestStableMatvec:
    @pytest.mark.parametrize("layout", sorted(LAYOUTS))
    # p = 8: a row block is BLOCK_ROWS rows.
    @pytest.mark.parametrize("n", [1, 100, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1, 2 * BLOCK_ROWS + 3])
    def test_matches_column_loop_bit_for_bit(self, n, layout):
        rng = np.random.default_rng(n)
        p, k = 8, 3
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

    @settings(max_examples=150, deadline=None)
    @given(n=st.integers(1, 80), p=st.sampled_from([1, 2, 3, 5, 8, 17, 64, 255]), K=st.integers(1, 3),
           blocked=st.booleans(), layout=st.sampled_from(sorted(LAYOUTS)),
           seed=st.integers(0, 2**32 - 1), data=st.data())
    def test_a_row_has_the_same_bits_wherever_it_is(self, n, p, K, blocked, layout, seed, data):
        # BLOCK_ROWS = 4: row blocks of max(1, 32 // p) rows, so most designs cross an edge.
        linalg_module.BLOCK_ROWS, block_rows = (4 if blocked else BLOCK_ROWS), linalg_module.BLOCK_ROWS
        try:
            rng = np.random.default_rng(seed)
            A = rng.standard_normal((n, p)) * 10.0 ** rng.integers(-4, 5, p)
            betas = rng.standard_normal((p, K))
            want = stable_matvec(A, betas)
            np.testing.assert_array_equal(want, column_loop(A, betas))
            for k in range(K):  # column k is the one-column prediction
                np.testing.assert_array_equal(want[:, k], stable_matvec(A, betas[:, k]))
            i = data.draw(st.integers(0, n - 1))
            np.testing.assert_array_equal(stable_matvec(A[i : i + 1], betas), want[i : i + 1])
            np.testing.assert_array_equal(stable_matvec(A[i:], betas), want[i:])
            offset = data.draw(st.integers(0, 7))  # bytes: an unaligned copy of A
            X = np.empty(A.nbytes + 8, np.uint8)[offset : offset + A.nbytes].view(float).reshape(n, p)
            X[...] = A
            np.testing.assert_array_equal(stable_matvec(X, betas), want)
            np.testing.assert_array_equal(stable_matvec(LAYOUTS[layout](A), betas), want)
        finally:
            linalg_module.BLOCK_ROWS = block_rows


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


# Prints the hex bytes of fixed-beta predictions: a tall design in three row blocks, and a
# wide one, on which a BLAS dot product (``np.vecdot``) rounds differently at two threads.
THREAD_PREDICTIONS = """
import numpy as np
from jacobiprior.glm import FittedGLM, JacobiHyper, predict_linear
from jacobiprior.linalg import BLOCK_ROWS
for n, p in ((2 * BLOCK_ROWS + 3, 8), (20, 20_000)):
    rng = np.random.default_rng(p)
    model = FittedGLM(rng.standard_normal(p), "logit", JacobiHyper(), np.zeros(0), n)
    print(predict_linear(model, rng.standard_normal((n, p))).tobytes().hex())
"""


def test_predictions_repeat_across_blas_thread_counts(fresh_python):
    """README "Determinism": the prediction sum uses no BLAS, so its bits do not depend on
    the thread count."""
    one, two = (fresh_python("-c", THREAD_PREDICTIONS, OPENBLAS_NUM_THREADS=t) for t in ("1", "2"))
    assert [len(line) // 16 for line in one.split()] == [2 * BLOCK_ROWS + 3, 20]
    assert one == two


# Fits a tall logit with scipy.linalg.lapack imported before (argv[1] == "before") or
# after the first fit, checks linalg binds the routines scipy.linalg.lapack exports, and
# prints the coefficients' hex bytes.
BINDING_ORDER = """
import sys
import numpy as np
from jacobiprior import linalg
from jacobiprior.glm import fit_jacobi
if sys.argv[1] == "before":
    import scipy.linalg.lapack
rng = np.random.default_rng(12)
X = rng.standard_normal((50_000, 8))
X[:, 0] = 1.0
beta = fit_jacobi(X, (rng.random(50_000) < 0.5).astype(float), "logit").beta
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
assert sys.argv[1] == "before" or loaded == ["scipy.linalg._flapack"], loaded
import scipy.linalg.lapack
for name in ("dgeqrf", "dgeqrf_lwork", "dormqr", "dtrcon", "dtrtrs", "dpotrf", "dpotrs"):
    assert getattr(linalg.lapack, name) is getattr(scipy.linalg.lapack, name), name
print(beta.tobytes().hex())
"""


def test_missing_extension_raises_import_error_naming_it():
    for name in ("scipy.linalg._no_such_extension", "no_such_package.sub._ext"):
        with pytest.raises(ImportError, match=re.escape(name)):
            linalg_module._load_extension(name)
        assert name not in sys.modules


def test_lapack_binding_is_scipys_in_either_import_order(fresh_python):
    """linalg loads scipy's LAPACK extension without importing scipy.linalg: a later
    import reuses it, an earlier one is reused, and a fit keeps its bits either way."""
    before, after = (fresh_python("-W", "error", "-c", BINDING_ORDER, order) for order in ("before", "after"))
    rng = np.random.default_rng(12)
    X = rng.standard_normal((50_000, 8))
    X[:, 0] = 1.0
    here = fit_jacobi(X, (rng.random(50_000) < 0.5).astype(float), "logit").beta
    assert before == after == here.tobytes().hex() + "\n"
