import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import jacobiprior.hyper as hyper_module
from jacobiprior.errors import (
    DimensionMismatchError,
    InvalidHyperError,
    InvalidResponseError,
    NoConvergenceError,
)
from jacobiprior.glm import (
    JacobiHyper,
    fit_jacobi,
    inverse_link,
    lanes,
    logit_mode,
    predict,
    probit_mode,
)
from jacobiprior.hyper import SEARCH_LO, sensitivity_grid, stochastic_search
from jacobiprior.linalg import BLOCK_ROWS, LeastSquaresSolver, lstsq, stable_matvec
from jacobiprior.rng import SeedSpec, derive_rng
from jacobiprior.simlab import (
    EXP_POISSON_BETA,
    gen_logistic,
    gen_poisson,
    surrogate_rmse,
    utility_total,
)
from jacobiprior.simlab.metrics import UTILITY_CELLS


def pair_modes(family, a, b):
    """(m0, m1) of a binary shape pair from the scalar modes, y = 1 first: a pair at a time."""
    mode = logit_mode if family == "logit" else probit_mode
    m1 = mode(1, a, b)
    return mode(0, a, b), m1


def split_data(seed=0, n=120):
    rng = derive_rng(SeedSpec(606, 0), seed)
    beta0 = np.array([2.0, -1.0, 0.5])
    X, y = gen_logistic(n, beta0, 1.0, 0.3, rng)
    h = n // 2
    return X[:h], y[:h], X[h:], y[h:]


class TestSensitivityGrid:
    def test_degenerate_grid_equals_direct_call(self):
        Xtr, ytr, Xte, yte = split_data()
        report = sensitivity_grid(Xtr, ytr, Xte, yte, "logit", [0.5], [0.5])
        model = fit_jacobi(Xtr, ytr, "logit", JacobiHyper(0.5, 0.5))
        direct = surrogate_rmse(yte, predict(model, Xte))
        assert report.scores[0, 0] == pytest.approx(direct, abs=1e-12)

    def test_best_cell_is_minimum(self):
        Xtr, ytr, Xte, yte = split_data(seed=1)
        grid = np.linspace(0.1, 2.0, 5)
        report = sensitivity_grid(Xtr, ytr, Xte, yte, "logit", grid, grid)
        a, b, score = report.best()
        assert score == np.nanmin(report.scores)
        i = list(report.a_values).index(a)
        j = list(report.b_values).index(b)
        assert report.scores[i, j] == score

    def test_best_of_no_valid_cell_is_typed(self):
        Xtr, ytr, Xte, yte = split_data()
        report = sensitivity_grid(Xtr, ytr, Xte, yte, "logit", [1e-17], [1e-17, 3e-17])
        assert np.isnan(report.scores).all()
        with pytest.raises(InvalidHyperError, match="^every grid cell failed$"):
            report.best()

    @pytest.mark.parametrize("name", ["a_values", "b_values"])
    def test_non_numeric_axis_is_typed(self, name):
        Xtr, ytr, Xte, yte = split_data()
        axes = {"a_values": [0.5], "b_values": [0.5], name: ["x"]}
        with pytest.raises(InvalidHyperError, match=f"^{name} must be numeric"):
            sensitivity_grid(Xtr, ytr, Xte, yte, "logit", **axes)

    def test_grid_shape_and_csv(self):
        Xtr, ytr, Xte, yte = split_data(seed=2)
        report = sensitivity_grid(Xtr, ytr, Xte, yte, "logit", [0.2, 0.8], [0.3, 0.6, 1.2])
        assert report.scores.shape == (2, 3)
        text = report.to_csv_text()
        assert text.splitlines()[0] == "a,b,score"
        assert len(text.strip().splitlines()) == 1 + 6


class TestGridCsv:
    def test_values_round_trip_as_plain_floats(self):
        Xtr, ytr, Xte, yte = split_data(seed=2)
        report = sensitivity_grid(Xtr, ytr, Xte, yte, "logit", [0.2, np.inf], [0.3, 0.6])
        rows = [line.split(",") for line in report.to_csv_text().splitlines()[1:]]
        got = np.array([[float(v) for v in row] for row in rows])
        want = [[a, b, report.scores[i, j]] for i, a in enumerate(report.a_values)
                for j, b in enumerate(report.b_values)]
        np.testing.assert_array_equal(got, np.array(want))


class TestStochasticSearch:
    def test_budget_one_returns_single_candidate(self):
        Xtr, ytr, Xv, yv = split_data(seed=3)
        result = stochastic_search(Xtr, ytr, Xv, yv, "logit", budget=1, seed=SeedSpec(1, 1))
        assert len(result.trace) == 1
        a, b, score = result.trace[0]
        assert (result.best_a, result.best_b, result.best_score) == (a, b, score)

    def test_incumbent_non_increasing(self):
        Xtr, ytr, Xv, yv = split_data(seed=4)
        result = stochastic_search(Xtr, ytr, Xv, yv, "logit", budget=30, seed=SeedSpec(2, 1))
        best = np.inf
        for _, _, score in result.trace:
            best = min(best, score)
        assert result.best_score == pytest.approx(best)
        incumbents = np.minimum.accumulate([s for _, _, s in result.trace])
        assert np.all(np.diff(incumbents) <= 0)

    def test_same_seed_same_trace(self):
        Xtr, ytr, Xv, yv = split_data(seed=5)
        r1 = stochastic_search(Xtr, ytr, Xv, yv, "logit", budget=10, seed=SeedSpec(3, 1))
        r2 = stochastic_search(Xtr, ytr, Xv, yv, "logit", budget=10, seed=SeedSpec(3, 1))
        assert r1.trace == r2.trace

    def test_prefix_property_of_budgets(self):
        Xtr, ytr, Xv, yv = split_data(seed=6)
        small = stochastic_search(Xtr, ytr, Xv, yv, "logit", budget=8, seed=SeedSpec(4, 1))
        large = stochastic_search(Xtr, ytr, Xv, yv, "logit", budget=20, seed=SeedSpec(4, 1))
        assert large.trace[:8] == small.trace
        assert large.best_score <= small.best_score

    def test_candidates_inside_domain(self):
        Xtr, ytr, Xv, yv = split_data(seed=7)
        result = stochastic_search(Xtr, ytr, Xv, yv, "logit", budget=40, seed=SeedSpec(5, 1))
        for a, b, _ in result.trace:
            assert 1e-3 <= a <= 2.0
            assert 1e-3 <= b <= 2.0

    def test_accuracy_and_utility_objectives(self):
        Xtr, ytr, Xv, yv = split_data(seed=8)
        acc = stochastic_search(
            Xtr, ytr, Xv, yv, "logit", budget=5, seed=SeedSpec(6, 1), objective="accuracy"
        )
        assert -1.0 <= acc.best_score <= 0.0
        v = np.full(yv.shape, 100.0)
        util = stochastic_search(
            Xtr, ytr, Xv, yv, "logit", budget=5, seed=SeedSpec(6, 2),
            objective="utility", disbursement=v,
        )
        assert np.isfinite(util.best_score)


def family_data(family, seed=0, n=80, n_eval=None):
    """n // 2 training rows and n_eval (default n - n // 2) evaluation rows."""
    rng = derive_rng(SeedSpec(707, 0), seed)
    h = n // 2
    n = n if n_eval is None else h + n_eval
    if family == "poisson":
        X, y = gen_poisson(n, np.array([0.8, -0.4, 0.3]), 1.0, 0.3, rng)
    else:
        X, y = gen_logistic(n, np.array([2.0, -1.0, 0.5]), 1.0, 0.3, rng)
    return X[:h], y[:h], X[h:], y[h:]


def per_pair_predictions(Xtr, ytr, Xev, family, a, b):
    """Reference: a full fit_jacobi + predict for one shape pair."""
    return predict(fit_jacobi(Xtr, ytr, family, JacobiHyper(a, b)), Xev)


def reference_grid(Xtr, ytr, Xte, yte, family, a_values, b_values):
    out = np.full((len(a_values), len(b_values)), np.nan)
    for i, a in enumerate(a_values):
        for j, b in enumerate(b_values):
            try:
                JacobiHyper(a, b)
            except InvalidHyperError:
                continue
            out[i, j] = surrogate_rmse(yte, per_pair_predictions(Xtr, ytr, Xte, family, a, b))
    return out


# Valid shapes from the search range's floor up, plus values JacobiHyper rejects.
invalid_shapes = st.sampled_from([0.0, -0.5, -np.inf, np.inf])
shape_values = st.lists(
    st.one_of(st.floats(min_value=SEARCH_LO, max_value=8.0), invalid_shapes),
    min_size=1, max_size=4,
)


class TestClosedFormSurface:
    @settings(max_examples=25, deadline=None)
    @given(
        family=st.sampled_from(["logit", "probit", "poisson"]),
        seed=st.integers(0, 3),
        a_values=shape_values,
        b_values=shape_values,
    )
    def test_grid_equals_per_cell_fits(self, family, seed, a_values, b_values):
        Xtr, ytr, Xte, yte = family_data(family, seed)
        report = sensitivity_grid(Xtr, ytr, Xte, yte, family, a_values, b_values)
        ref = reference_grid(Xtr, ytr, Xte, yte, family, report.a_values, report.b_values)
        assert np.array_equal(np.isnan(report.scores), np.isnan(ref))
        valid = ~np.isnan(ref)
        assert np.all(np.abs(report.scores[valid] - ref[valid]) <= 1e-12)

    @pytest.mark.parametrize("value", [np.inf, -np.inf, 0.0])
    def test_rejected_grid_value_gives_nan_row_and_column(self, value):
        Xtr, ytr, Xte, yte = family_data("logit")
        report = sensitivity_grid(Xtr, ytr, Xte, yte, "logit", [0.5, value], [0.5, value])
        bad_i = list(report.a_values).index(value)
        assert np.all(np.isnan(report.scores[bad_i, :]))
        assert np.all(np.isnan(report.scores[:, bad_i]))
        assert not np.isnan(report.scores[1 - bad_i, 1 - bad_i])

    @pytest.mark.parametrize("family", ["logit", "probit", "poisson"])
    @pytest.mark.parametrize("objective", ["rmse", "utility"])
    def test_search_trace_equals_per_candidate_fits(self, family, objective):
        Xtr, ytr, Xv, yv = family_data(family, seed=5)
        disb = np.linspace(50.0, 150.0, yv.shape[0])
        seed = SeedSpec(8, 3)
        result = stochastic_search(Xtr, ytr, Xv, yv, family, budget=12, seed=seed,
                                   objective=objective, disbursement=disb, lo=0.05)
        rng = derive_rng(seed, 0)
        candidates = np.exp(rng.uniform(np.log(0.05), np.log(2.0), size=(12, 2)))
        assert [(a, b) for a, b, _ in result.trace] == [(float(a), float(b)) for a, b in candidates]
        for (a, b), (_, _, score) in zip(candidates, result.trace):
            preds = per_pair_predictions(Xtr, ytr, Xv, family, a, b)
            if objective == "rmse":
                ref = surrogate_rmse(yv, preds)
            else:
                ref = -utility_total(yv, 1.0 - (preds >= 0.5), disb)
            assert abs(score - ref) <= 1e-12

    @pytest.mark.parametrize("family", ["probit", "poisson"])
    def test_prefix_property_of_budgets(self, family):
        Xtr, ytr, Xv, yv = family_data(family, seed=6)
        small = stochastic_search(Xtr, ytr, Xv, yv, family, budget=8, seed=SeedSpec(4, 1), lo=0.05)
        large = stochastic_search(Xtr, ytr, Xv, yv, family, budget=20, seed=SeedSpec(4, 1), lo=0.05)
        assert large.trace[:8] == small.trace
        assert large.best_score <= small.best_score

    def test_one_solver_per_call_and_no_per_cell_fit(self, monkeypatch):
        widths = []  # right-hand sides of each least-squares call
        monkeypatch.setattr(hyper_module, "lstsq", lambda X, T: widths.append(T.shape[1]) or lstsq(X, T))
        assert not hasattr(hyper_module, "fit_jacobi")
        assert not hasattr(hyper_module, "predict")
        for family in ("logit", "probit", "poisson"):
            Xtr, ytr, Xte, yte = family_data(family)
            sensitivity_grid(Xtr, ytr, Xte, yte, family, [0.3, 0.6, 1.2], [0.4, 0.9])
            stochastic_search(Xtr, ytr, Xte, yte, family, budget=6, lo=0.05)
        # A binary call solves its basis (1, y) once; a poisson call its 1, then every
        # distinct a in one call (40 rows: up to BLOCK_ROWS p // 40 values of a a call).
        assert widths == [2, 2, 2, 2, 1, 3, 1, 6]


class TestSolveCounts:
    # No solve per cell: the basis in one solve, and poisson's 3 distinct a in one solve per
    # max(p, BLOCK_ROWS p // n) values of a, at p = 3 and n = 40.
    @pytest.mark.parametrize("family, solves", [("logit", 1), ("probit", 1),
                                                ("poisson", 1 + math.ceil(3 / max(3, BLOCK_ROWS * 3 // 40)))])
    def test_grid_solves(self, family, solves, monkeypatch):
        calls = []
        monkeypatch.setattr(hyper_module, "lstsq", lambda X, T: calls.append(T.shape) or lstsq(X, T))
        Xtr, ytr, Xte, yte = family_data(family)
        report = sensitivity_grid(Xtr, ytr, Xte, yte, family, [1.2, 0.3, 0.6], [0.4, 0.9, 2.0])
        assert not np.isnan(report.scores).any()
        assert len(calls) == solves


def bad_inputs():
    Xtr, ytr, Xte, yte = family_data("logit")
    wrong_cols = np.column_stack([Xte, Xte[:, 0]])
    non_finite = Xte.copy()
    non_finite[3, 1] = np.nan
    return {
        "y_train_length": (Xtr, ytr[:-1], Xte, yte),
        "X_test_columns": (Xtr, ytr, wrong_cols, yte),
        "X_test_non_finite": (Xtr, ytr, non_finite, yte),
    }


class TestInputsCheckedBeforeAnyCell:
    @pytest.fixture()
    def pairs_built(self, monkeypatch):
        """Records every binary call's mode lanes: the first work a cell does."""
        built = []

        def counting_lanes(family, y, a, b):
            built.append((family, np.ravel(a).tolist(), np.ravel(b).tolist()))
            return lanes(family, y, a, b)

        monkeypatch.setattr(hyper_module, "lanes", counting_lanes)
        return built

    def test_counter_sees_cells(self, pairs_built):
        # One call a grid: each pair's two lanes, in pair order.
        Xtr, ytr, Xte, yte = family_data("logit")
        for family in ("logit", "probit"):
            pairs_built.clear()
            sensitivity_grid(Xtr, ytr, Xte, yte, family, [0.5, 1.0], [0.5])
            assert pairs_built == [(family, [0.5, 1.0], [0.5, 0.5])]

    @pytest.mark.parametrize("case", sorted(bad_inputs()))
    def test_grid(self, case, pairs_built):
        for family in ("logit", "probit"):
            with pytest.raises(DimensionMismatchError):
                sensitivity_grid(*bad_inputs()[case], family, [0.5, 1.0], [0.5])
        assert pairs_built == []

    @pytest.mark.parametrize("case", sorted(bad_inputs()))
    def test_search(self, case, pairs_built):
        for family in ("logit", "probit"):
            with pytest.raises(DimensionMismatchError):
                stochastic_search(*bad_inputs()[case], family, budget=3)
        assert pairs_built == []

    @pytest.mark.parametrize("bad", ["twice", "nan"])
    def test_evaluation_response(self, bad, pairs_built):
        Xtr, ytr, Xte, yte = family_data("logit")
        y_eval = 2.0 * yte if bad == "twice" else np.where(np.arange(yte.size) == 3, np.nan, yte)
        for family in ("logit", "probit"):
            with pytest.raises(InvalidResponseError, match="binary response must be 0 or 1"):
                sensitivity_grid(Xtr, ytr, Xte, y_eval, family, [0.5, 1.0], [0.5])
            with pytest.raises(InvalidResponseError, match="binary response must be 0 or 1"):
                stochastic_search(Xtr, ytr, Xte, y_eval, family, budget=3, objective="accuracy")
        assert pairs_built == []


def with_entry(v, i, value):
    v = v.copy()
    v[i] = value
    return v


class TestDisbursementChecked:
    @pytest.mark.parametrize(
        "bad, error, match",
        [
            (lambda v: v[:-1], DimensionMismatchError, "disbursement length 39 != rows 40"),
            (lambda v: np.column_stack([v, v]), DimensionMismatchError, "disbursement must be 1-d"),
            (lambda v: with_entry(v, 3, -5.0), InvalidResponseError, "offending index 3: -5.0"),
            (lambda v: with_entry(v, 7, np.nan), InvalidResponseError, "offending index 7: nan"),
            (lambda v: with_entry(v, 0, np.inf), InvalidResponseError, "offending index 0: inf"),
        ],
        ids=["short", "2-d", "negative", "nan", "inf"],
    )
    def test_before_the_qr_and_any_cell(self, bad, error, match, monkeypatch):
        work = []
        monkeypatch.setattr(hyper_module, "lstsq", lambda X, T: work.append("qr") or lstsq(X, T))
        monkeypatch.setattr(hyper_module, "lanes", lambda *args: work.append("cell"))
        Xtr, ytr, Xv, yv = family_data("logit")
        disb = bad(np.linspace(50.0, 150.0, yv.shape[0]))
        with pytest.raises(error, match=match):
            stochastic_search(Xtr, ytr, Xv, yv, "logit", budget=5, objective="utility",
                              disbursement=disb)
        assert work == []

    def test_other_objectives_ignore_it(self):
        Xtr, ytr, Xv, yv = family_data("logit")
        result = stochastic_search(Xtr, ytr, Xv, yv, "logit", budget=3, disbursement=[-1.0])
        assert len(result.trace) == 3


class TestSearchArguments:
    @pytest.mark.parametrize(
        "kwargs, name",
        [
            (dict(lo=0.0), "lo"),
            (dict(lo=1.5, hi=0.5), "lo"),
            (dict(hi=np.inf), "hi"),
            (dict(budget=2.5), "budget"),
            (dict(budget=0), "budget"),
            (dict(budget=True), "budget"),
            (dict(budget=2**31), "budget"),  # past the count cap: refused before the draw
            (dict(budget=2**64), "budget"),
            (dict(objective="mae"), "^unknown objective 'mae', expected one of "),
            (dict(objective="utility"), "^utility objective needs a disbursement vector$"),
            (dict(lo=1e-17, hi=1e-17), "^every search candidate failed$"),  # b + 1 - 1 rounds to 0
        ],
    )
    def test_bad_range_or_budget_is_typed(self, kwargs, name):
        Xtr, ytr, Xv, yv = split_data(seed=9)
        kwargs = {"budget": 4, **kwargs}
        with pytest.raises(InvalidHyperError, match=name):
            stochastic_search(Xtr, ytr, Xv, yv, "logit", **kwargs)


# A batch holds max(1, BLOCK_ROWS // n_eval) cells: BLOCK_ROWS cells at n_eval = 1,
# 3 at BLOCK_ROWS // 3 and one from BLOCK_ROWS - 1 rows up.
def cell_at_a_time(Xtr, ytr, Xev, yev, family, disbursement=None):
    """Reference: predictions and the three objectives for one (a, b) at a time."""
    solver = LeastSquaresSolver(Xtr)
    basis = [np.ones(len(ytr))] + ([] if family == "poisson" else [ytr])
    u, *v = (stable_matvec(Xev, beta) for beta in solver.solve(np.column_stack(basis)).T)

    def predict(a, b):
        JacobiHyper(a, b)  # InvalidHyperError for a rejected pair
        if family == "poisson":
            count = stable_matvec(Xev, solver.solve(np.log(ytr + a)))
            return inverse_link(count - math.log(1.0 + b) * u, family)
        m0, m1 = pair_modes(family, a, b)
        return inverse_link(m0 * u + (m1 - m0) * v[0], family)

    def score(objective, p):
        if objective == "rmse":
            return float(np.sqrt(((yev - p) ** 2).mean()))
        if objective == "accuracy":
            return -float(np.mean((p >= 0.5) == (yev == 1.0)))
        approve = 1.0 - (p >= 0.5).astype(float)
        payoff = np.where(
            yev == 1.0,
            np.where(approve == 1.0, UTILITY_CELLS[1, 1], UTILITY_CELLS[1, 0]),
            np.where(approve == 1.0, UTILITY_CELLS[0, 1], UTILITY_CELLS[0, 0]),
        )
        return -float(np.sum(payoff * disbursement))

    return predict, score


# (n_eval, valid cells per axis): valid cell counts on either side of one batch
GRID_BATCHES = [
    (1, (127, 129)), (1, (128, 128)), (1, (113, 145)),
    (BLOCK_ROWS // 3, (1, 2)), (BLOCK_ROWS // 3, (1, 3)), (BLOCK_ROWS // 3, (2, 2)),
    (BLOCK_ROWS // 3, (7, 1)),
    (BLOCK_ROWS - 1, (1, 2)), (BLOCK_ROWS, (2, 1)), (BLOCK_ROWS + 1, (1, 2)),
]


class TestBatchBoundaries:
    @pytest.mark.parametrize("family", ["logit", "probit", "poisson"])
    @pytest.mark.parametrize("n_eval, shape", GRID_BATCHES)
    def test_grid_equals_cell_at_a_time(self, family, n_eval, shape):
        Xtr, ytr, Xev, yev = family_data(family, n_eval=n_eval)
        a_values = [0.0, np.inf, *np.linspace(0.05, 3.0, shape[0])]
        b_values = [-1.0, *np.linspace(0.1, 2.5, shape[1]), np.nan]
        report = sensitivity_grid(Xtr, ytr, Xev, yev, family, a_values, b_values)
        predict, score = cell_at_a_time(Xtr, ytr, Xev, yev, family)
        want = np.full(report.scores.shape, np.nan)
        for i, a in enumerate(report.a_values):
            for j, b in enumerate(report.b_values):
                try:
                    want[i, j] = score("rmse", predict(a, b))
                except InvalidHyperError:
                    continue
        assert np.sum(~np.isnan(want)) == shape[0] * shape[1]
        assert np.array_equal(report.scores, want, equal_nan=True)

    @pytest.mark.parametrize(
        "family, objective, n_eval, budget",
        [("logit", "utility", 1, BLOCK_ROWS + 1)]
        + [
            (family, objective, n_eval, budget)
            for family in ("logit", "probit", "poisson")
            for objective in ("rmse", "accuracy", "utility")
            for n_eval, budget in [(BLOCK_ROWS // 3, 2), (BLOCK_ROWS // 3, 3), (BLOCK_ROWS // 3, 4),
                                   (BLOCK_ROWS // 3, 7), (BLOCK_ROWS - 1, 2), (BLOCK_ROWS, 2),
                                   (BLOCK_ROWS + 1, 2)]
        ],
    )
    def test_search_equals_cell_at_a_time(self, family, objective, n_eval, budget):
        Xtr, ytr, Xev, yev = family_data(family, seed=1, n_eval=n_eval)
        disb = np.linspace(50.0, 150.0, n_eval)
        seed = SeedSpec(9, 4)
        result = stochastic_search(Xtr, ytr, Xev, yev, family, budget, seed=seed,
                                   objective=objective, disbursement=disb, lo=0.05)
        predict, score = cell_at_a_time(Xtr, ytr, Xev, yev, family, disb)
        candidates = np.exp(derive_rng(seed, 0).uniform(np.log(0.05), np.log(2.0), size=(budget, 2)))
        want = [(float(a), float(b), score(objective, predict(a, b))) for a, b in candidates]
        assert result.trace == want
        assert result.skipped == 0
        assert (result.best_a, result.best_b, result.best_score) == min(want, key=lambda t: t[2])

    def test_tall_poisson_grid_and_search_equal_cell_at_a_time(self):
        # 2 BLOCK_ROWS + 1 training rows, walked once per lstsq call; 4 and 5 distinct a
        # make one full call of p = 3 columns and one ragged one.
        Xtr, ytr, Xev, yev = family_data("poisson", seed=4, n=2 * (2 * BLOCK_ROWS + 1), n_eval=50)
        predict, score = cell_at_a_time(Xtr, ytr, Xev, yev, "poisson")
        a_values, b_values = [0.2, 0.7, 1.1, 1.9], [0.3, 1.4]
        report = sensitivity_grid(Xtr, ytr, Xev, yev, "poisson", a_values, b_values)
        assert np.array_equal(report.scores, [[score("rmse", predict(a, b)) for b in b_values] for a in a_values])
        seed = SeedSpec(9, 5)
        result = stochastic_search(Xtr, ytr, Xev, yev, "poisson", 5, seed=seed, lo=0.05)
        candidates = np.exp(derive_rng(seed, 0).uniform(np.log(0.05), np.log(2.0), size=(5, 2)))
        assert result.trace == [(float(a), float(b), score("rmse", predict(a, b))) for a, b in candidates]

    @pytest.mark.parametrize("family", ["logit", "probit", "poisson"])
    def test_prefix_property_across_a_batch(self, family):
        Xtr, ytr, Xv, yv = family_data(family, seed=2, n_eval=BLOCK_ROWS // 3)  # 3 cells a batch
        for short, long in ((2, 5), (3, 4), (4, 9)):
            small = stochastic_search(Xtr, ytr, Xv, yv, family, short, seed=SeedSpec(4, 1), lo=0.05)
            large = stochastic_search(Xtr, ytr, Xv, yv, family, long, seed=SeedSpec(4, 1), lo=0.05)
            assert large.trace[:short] == small.trace

    @pytest.mark.parametrize("family", ["logit", "probit"])
    def test_tiny_b_gives_a_nan_cell_in_both_binary_families(self, family):
        Xtr, ytr, Xte, yte = family_data(family)
        report = sensitivity_grid(Xtr, ytr, Xte, yte, family, [1.0, 2.0], [1e-17, 8e-17, 1.0])
        assert np.isnan(report.scores[:, :2]).all()
        want = sensitivity_grid(Xtr, ytr, Xte, yte, family, [1.0, 2.0], [1.0]).scores
        assert np.array_equal(report.scores[:, 2:], want)

    def test_non_converging_probit_pair_keeps_its_error(self):
        # Below min(a, b) of about 3e-5 the ratios phi/Phi have too few digits for the
        # Newton to reach |grad| <= PROBIT_TOL; such a pair raises from every caller alike.
        Xtr, ytr, Xv, yv = family_data("probit", seed=3, n_eval=BLOCK_ROWS // 3)
        with pytest.raises(NoConvergenceError) as direct:
            pair_modes("probit", 1e-5, 1e-5)
        with pytest.raises(NoConvergenceError) as grid:
            sensitivity_grid(Xtr, ytr, Xv, yv, "probit", [0.5, 1e-5, 1.0], [0.7, 1e-5])
        assert str(grid.value) == str(direct.value)
        # The search's first failing candidate comes after the first full batch.
        seed, lo = SeedSpec(8, 1), 1e-6
        candidates = np.exp(derive_rng(seed, 0).uniform(np.log(lo), np.log(2.0), size=(40, 2)))
        first = None
        for k, (a, b) in enumerate(candidates):
            try:
                pair_modes("probit", float(a), float(b))
            except NoConvergenceError as exc:
                first = k, str(exc)
                break
        assert first is not None and first[0] >= 3
        with pytest.raises(NoConvergenceError) as search:
            stochastic_search(Xtr, ytr, Xv, yv, "probit", 40, seed=seed, lo=lo)
        assert str(search.value) == first[1]

    @pytest.mark.parametrize("objective", ["rmse", "utility"])
    def test_probit_search_solves_every_candidate_of_the_range(self, objective):
        Xtr, ytr, Xev, yev = family_data("probit", seed=4)
        disb = np.linspace(50.0, 150.0, yev.shape[0])
        seed = SeedSpec(10, 2)
        result = stochastic_search(Xtr, ytr, Xev, yev, "probit", 300, seed=seed,
                                   objective=objective, disbursement=disb)
        predict, score = cell_at_a_time(Xtr, ytr, Xev, yev, "probit", disb)
        candidates = np.exp(derive_rng(seed, 0).uniform(math.log(SEARCH_LO), math.log(2.0),
                                                        size=(300, 2)))
        assert candidates.min() < 2e-3  # pairs whose modes lie outside [-12, 12]
        want = [(float(a), float(b), score(objective, predict(a, b))) for a, b in candidates]
        assert result.skipped == 0
        assert result.trace == want


class TestNonFiniteScores:
    def design(self):
        rng = derive_rng(SeedSpec(808, 0), 0)
        return gen_poisson(50, EXP_POISSON_BETA, 1.0, 0.3, rng)

    def test_overflowing_poisson_cell_is_nan_in_a_grid(self):
        X, y = self.design()
        report = sensitivity_grid(X, y, X, y, "poisson", [1.0, 1e300], [1.0])
        assert np.isnan(report.scores[1, 0])
        want = sensitivity_grid(X, y, X, y, "poisson", [1.0], [1.0]).scores
        assert report.scores[0, 0] == want[0, 0] and np.isfinite(want[0, 0])

    def test_overflowing_poisson_candidate_is_skipped_in_a_search(self):
        X, y = self.design()
        seed = SeedSpec(3, 4)
        result = stochastic_search(X, y, X, y, "poisson", 8, seed=seed, lo=1.0, hi=1e300)
        predict, score = cell_at_a_time(X, y, X, y, "poisson")
        candidates = np.exp(derive_rng(seed, 0).uniform(0.0, math.log(1e300), size=(8, 2)))
        with np.errstate(over="ignore"):
            want = [(float(a), float(b), score("rmse", predict(a, b))) for a, b in candidates]
        assert result.trace == [cell for cell in want if np.isfinite(cell[2])]
        assert result.skipped == 2
