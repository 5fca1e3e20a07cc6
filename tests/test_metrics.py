import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jacobiprior.errors import ConfigError, DimensionMismatchError, InsufficientDataError, InvalidResponseError
from jacobiprior.rng import SeedSpec, derive_rng
from jacobiprior.simlab import (
    accuracy,
    beta_rmse,
    bootstrap_median_se,
    multiclass_accuracy,
    proportion_rmse,
    surrogate_rmse,
    utility_total,
)


class TestSurrogateRmse:
    def test_perfect_predictions(self):
        y = np.array([1.0, 0.0, 1.0])
        assert surrogate_rmse(y, y) == 0.0

    def test_single_pair(self):
        assert surrogate_rmse([1.0], [0.70]) == pytest.approx(0.30, abs=1e-12)

    def test_constant_half_on_binary(self):
        y = np.array([0.0, 1.0, 1.0, 0.0])
        assert surrogate_rmse(y, np.full(4, 0.5)) == pytest.approx(0.5, abs=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            surrogate_rmse([1.0, 0.0], [0.5])


class TestBetaRmse:
    def test_zero_at_truth(self):
        b = np.array([1.0, -2.0, 3.0])
        assert beta_rmse(b, b) == 0.0

    def test_unit_displacement(self):
        b0 = np.zeros(5)
        assert beta_rmse(np.ones(5), b0) == pytest.approx(1.0, abs=1e-12)

    def test_euclidean_kind(self):
        b0 = np.zeros(4)
        assert beta_rmse(np.ones(4), b0, kind="euclidean") == pytest.approx(2.0)
        with pytest.raises(ConfigError, match="^unknown kind 'max'$"):
            beta_rmse(np.ones(4), b0, kind="max")


class TestAccuracy:
    def test_binary_threshold(self):
        y = np.array([1.0, 0.0, 1.0, 0.0])
        p = np.array([0.9, 0.2, 0.4, 0.6])
        assert accuracy(y, p) == 0.5

    def test_multiclass(self):
        assert multiclass_accuracy([0, 1, 2], [0, 2, 2]) == pytest.approx(2.0 / 3.0)

    def test_multiclass_shape_mismatch(self):
        with pytest.raises(DimensionMismatchError, match=re.escape("shape mismatch: (3,) vs (2,)")):
            multiclass_accuracy([0, 1, 2], [0, 2])


class TestProportionRmse:
    def test_exact_match(self):
        counts = np.array([[2.0, 2.0], [1.0, 3.0]])
        probs = np.array([[0.5, 0.5], [0.25, 0.75]])
        assert proportion_rmse(counts, probs) == 0.0

    def test_zero_rows_excluded(self):
        counts = np.array([[0.0, 0.0], [4.0, 0.0]])
        probs = np.array([[0.9, 0.1], [1.0, 0.0]])
        assert proportion_rmse(counts, probs) == 0.0
        with pytest.raises(InsufficientDataError):
            proportion_rmse(np.zeros((2, 2)), probs)

    def test_shape_mismatch(self):
        with pytest.raises(DimensionMismatchError, match=re.escape("shape mismatch: (2, 2) vs (2, 3)")):
            proportion_rmse(np.ones((2, 2)), np.full((2, 3), 1 / 3))
        with pytest.raises(DimensionMismatchError, match=re.escape("counts must be 2-d, got ndim=1")):
            proportion_rmse([1.0, 3.0], [0.25, 0.75])


# metric -> a call with one argument not a number, and the argument its signature names.
NON_NUMERIC = {
    "surrogate_rmse y": (lambda: surrogate_rmse(["a"], [0.5]), "y"),
    "surrogate_rmse p_hat": (lambda: surrogate_rmse([1.0], ["a"]), "p_hat"),
    "accuracy y": (lambda: accuracy(["a"], [0.5]), "y"),
    "accuracy p_hat": (lambda: accuracy([1.0], [b"x"]), "p_hat"),
    "accuracy p_hat None": (lambda: accuracy([1.0], [None]), "p_hat"),  # numpy reads None as NaN
    "surrogate_rmse p_hat None": (lambda: surrogate_rmse([1.0], [None]), "p_hat"),
    "beta_rmse beta_hat": (lambda: beta_rmse(["a"], [0.0]), "beta_hat"),
    "beta_rmse beta0": (lambda: beta_rmse([0.0], ["a"]), "beta0"),
    "proportion_rmse counts": (lambda: proportion_rmse([["a", 1.0]], [[0.5, 0.5]]), "counts"),
    "proportion_rmse probs": (lambda: proportion_rmse([[1.0, 1.0]], [[0.5, "b"]]), "probs"),
    "utility_total y_default": (lambda: utility_total(["a"], [1.0], [1.0]), "y_default"),
    "utility_total approve": (lambda: utility_total([1.0], ["a"], [1.0]), "approve"),
}


@pytest.mark.parametrize("case", sorted(NON_NUMERIC))
def test_non_numeric_argument_is_named(case):
    call, name = NON_NUMERIC[case]
    with pytest.raises(DimensionMismatchError, match=f"^{name} must be numeric: "):
        call()


class TestUtility:
    def test_cell_payoffs(self):
        v = np.array([100.0])
        assert utility_total([1.0], [1.0], v) == pytest.approx(-70.0)
        assert utility_total([0.0], [1.0], v) == pytest.approx(50.0)
        assert utility_total([1.0], [0.0], v) == pytest.approx(10.0)
        assert utility_total([0.0], [0.0], v) == pytest.approx(-10.0)

    def test_additivity(self):
        y = np.array([1.0, 0.0])
        approve = np.array([1.0, 1.0])
        v = np.array([100.0, 100.0])
        assert utility_total(y, approve, v) == pytest.approx(-70.0 + 50.0)

    def test_negative_disbursement_rejected(self):
        with pytest.raises(InvalidResponseError, match="offending index 0: -5.0"):
            utility_total([1.0], [1.0], [-5.0])


class TestStackedRows:
    """A stack of prediction rows scores each row exactly as that row alone."""

    @pytest.mark.parametrize("n", [1, 7, 9, 129, 1001])  # around the pairwise-sum block sizes
    def test_each_row_scores_as_alone(self, n):
        rng = derive_rng(SeedSpec(3, 0), n)
        y = (rng.random(n) < 0.4).astype(float)
        P = rng.random((6, n))
        v = rng.uniform(0.0, 100.0, n)
        rmse = surrogate_rmse(y, P)
        assert np.array_equal(rmse, [surrogate_rmse(y, row) for row in P])
        assert np.array_equal(rmse, [float(np.sqrt(((y - row) ** 2).mean())) for row in P])
        assert np.array_equal(accuracy(y, P), [accuracy(y, row) for row in P])
        approve = P < 0.5
        assert np.array_equal(utility_total(y, approve, v), [utility_total(y, a, v) for a in approve])

    def test_row_length_must_match(self):
        with pytest.raises(DimensionMismatchError):
            surrogate_rmse(np.zeros(3), np.zeros((2, 4)))
        with pytest.raises(DimensionMismatchError):
            utility_total(np.zeros(3), np.zeros((2, 4)), np.ones(3))


class TestBootstrapMedianSe:
    def test_constant_values(self):
        rng = derive_rng(SeedSpec(1, 0), 0)
        assert bootstrap_median_se(np.full(20, 3.3), rng) == 0.0

    @pytest.mark.parametrize("n_boot", [0, 2.5, True, 2**31, 2**64])
    def test_non_integer_or_zero_n_boot_is_typed(self, n_boot):
        rng = derive_rng(SeedSpec(1, 0), 2)
        with pytest.raises(InsufficientDataError, match=re.escape("need an integer n_boot in [1, 2147483647]")):
            bootstrap_median_se(np.arange(10.0), rng, n_boot=n_boot)

    def test_single_resample_defined_as_zero(self):
        rng = derive_rng(SeedSpec(1, 0), 1)
        assert bootstrap_median_se(np.arange(10.0), rng, n_boot=1) == 0.0

    def test_matches_independent_reference(self):
        values = np.arange(1.0, 101.0)
        rng = derive_rng(SeedSpec(2, 0), 0)
        est = bootstrap_median_se(values, rng, n_boot=1000)

        ref_rng = np.random.default_rng(123456)
        meds = [
            np.median(ref_rng.choice(values, size=values.size, replace=True))
            for _ in range(1000)
        ]
        ref = np.std(meds, ddof=1)
        assert est == pytest.approx(ref, rel=0.10)

    def test_needs_two_values(self):
        rng = derive_rng(SeedSpec(3, 0), 0)
        with pytest.raises(InsufficientDataError):
            bootstrap_median_se(np.array([1.0]), rng)


def median_se_reference(values, rng, n_boot):
    """bootstrap_median_se with np.median's row-wise partition for every input."""
    values = np.asarray(values, dtype=float)
    n = values.shape[0]
    medians = np.median(values[rng.integers(0, n, size=(n_boot, n))], axis=1)
    if n_boot < 2 or np.ptp(medians) == 0.0:
        return 0.0
    return float(np.std(medians, ddof=1))


# Quarter-integers in [-2, 2] give many ties; any finite float gives few.
sample_values = st.one_of(
    st.integers(-8, 8).map(lambda k: k / 4.0),
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
)


class TestBootstrapMedianSeMatchesNpMedian:
    @settings(max_examples=300, deadline=None)
    @given(
        values=st.lists(sample_values, min_size=2, max_size=80),
        n_boot=st.integers(1, 300),
        task=st.integers(0, 2**16),
        nan_at=st.none() | st.integers(0, 79),
    )
    def test_bit_for_bit_on_the_same_stream(self, values, n_boot, task, nan_at):
        if nan_at is not None:
            values[nan_at % len(values)] = float("nan")
        got = bootstrap_median_se(values, derive_rng(SeedSpec(4, 0), task), n_boot)
        expected = median_se_reference(values, derive_rng(SeedSpec(4, 0), task), n_boot)
        assert got.hex() == expected.hex()

    @pytest.mark.parametrize("n", [2, 3, 50, 51])
    def test_odd_and_even_lengths_with_ties_and_a_nan(self, n):
        values = np.repeat([0.25, -1.0, 3.0], n)[:n]
        for v in (values, np.where(np.arange(n) == n // 2, np.nan, values)):
            got = bootstrap_median_se(v, derive_rng(SeedSpec(5, 0), n), 200)
            expected = median_se_reference(v, derive_rng(SeedSpec(5, 0), n), 200)
            assert got.hex() == expected.hex()
