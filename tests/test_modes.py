"""Latent posterior-mode formulas against direct evaluation and a grid oracle."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import log_ndtr

from jacobiprior.errors import (
    ImproperPosteriorError,
    InvalidHyperError,
    InvalidResponseError,
)
from jacobiprior.glm import logit_mode, poisson_mode, probit_mode

shapes = st.floats(min_value=0.01, max_value=50.0, allow_nan=False)


def probit_grid_oracle(y, a, b, lo=-10.0, hi=10.0, step=1e-5):
    """Dense argmax of the probit-link log posterior, independent of Newton."""
    eta = np.arange(lo, hi + step, step)
    logpost = (
        (y + a - 1.0) * log_ndtr(eta)
        + (b - y) * log_ndtr(-eta)
        - 0.5 * eta**2
    )
    return float(eta[np.argmax(logpost)])


class TestLogitMode:
    def test_direct_values(self):
        assert logit_mode(1, 0.5, 0.5) == pytest.approx(math.log(3.0), abs=1e-12)
        assert logit_mode(0, 0.5, 0.5) == pytest.approx(-math.log(3.0), abs=1e-12)
        assert logit_mode(1, 0.01, 0.01) == pytest.approx(math.log(101.0), abs=1e-12)

    def test_matches_formula_on_lattice(self):
        for y in (0, 1):
            for a in (0.1, 0.5, 1.0, 2.0):
                for b in (0.1, 0.5, 1.0, 2.0):
                    expected = math.log((y + a) / (b + 1 - y))
                    assert logit_mode(y, a, b) == pytest.approx(expected, abs=1e-12)

    def test_invalid_response(self):
        with pytest.raises(InvalidResponseError):
            logit_mode(2, 0.5, 0.5)

    def test_invalid_hyper(self):
        with pytest.raises(InvalidHyperError):
            logit_mode(1, -2.0, 0.5)

    @given(a=shapes, b=shapes)
    def test_reflection(self, a, b):
        assert logit_mode(1, a, b) == pytest.approx(-logit_mode(0, b, a), rel=1e-12, abs=1e-12)

    @given(a=shapes, b=shapes, bump=st.floats(min_value=0.01, max_value=10.0))
    def test_monotone_in_shapes(self, a, b, bump):
        base = logit_mode(1, a, b)
        assert logit_mode(1, a + bump, b) > base
        assert logit_mode(1, a, b + bump) < base
        assert logit_mode(1, a, b) > logit_mode(0, a, b)


class TestBinaryShapeCheck:
    """Both binary modes refuse a shape pair by one rule, one message and one type."""

    @pytest.mark.parametrize("b", [1e-17, 8e-17])
    def test_tiny_b_refused_alike(self, b):
        # At y = 1, b + 1 - y rounds to 0 for both b (b - y + 1 would not at 8e-17).
        messages = []
        for mode in (logit_mode, probit_mode):
            with pytest.raises(ImproperPosteriorError) as exc:
                mode(1, 1.0, b)
            messages.append(str(exc.value))
        assert messages == ["need y + a > 0 and b + 1 - y > 0, got 2.0, 0.0"] * 2
        assert issubclass(ImproperPosteriorError, InvalidHyperError)

    @pytest.mark.parametrize("y, a, b", [(0, 1e-300, 1e300), (1, 1e300, 1e-10)])
    def test_logit_ratio_outside_zero_to_inf_is_typed(self, y, a, b):
        # (y + a) / (b + 1 - y) underflows to 0 or overflows to inf: log has no finite value.
        with pytest.raises(InvalidHyperError, match=r"need \(y \+ a\) / \(b \+ 1 - y\) in \(0, inf\)"):
            logit_mode(y, a, b)

    def test_logit_ratio_near_the_ends_still_fits(self):
        assert logit_mode(0, 1e-150, 1e150) == math.log(1e-150 / (1e150 + 1.0))
        assert logit_mode(1, 1e300, 1.0) == math.log((1.0 + 1e300) / 1.0)


class TestPoissonMode:
    def test_direct_values(self):
        assert poisson_mode(0, 1.0, 1.0) == pytest.approx(math.log(0.5), abs=1e-12)
        assert poisson_mode(5, 1.0, 1.0) == pytest.approx(math.log(3.0), abs=1e-12)
        assert poisson_mode(10, 1e-12, 1e-12) == pytest.approx(math.log(10.0), abs=1e-9)

    def test_matches_formula_on_lattice(self):
        for y in (0, 1, 3, 17):
            for a in (0.1, 0.5, 1.0, 2.0):
                for b in (0.1, 0.5, 1.0, 2.0):
                    expected = math.log((y + a) / (1 + b))
                    assert poisson_mode(y, a, b) == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("a, b", [(1e-300, 1e300), (math.nan, 1.0)])
    def test_ratio_outside_zero_to_inf_is_typed(self, a, b):
        # 1e-300 / (1 + 1e300) underflows to 0; a NaN shape has no ratio at all.
        with pytest.raises(InvalidHyperError, match=r"need \(y \+ a\) / \(1 \+ b\) in \(0, inf\)"):
            poisson_mode(0, a, b)

    def test_ratio_near_the_ends_still_fits(self):
        assert poisson_mode(0, 1e-150, 1e150) == math.log(1e-150 / (1.0 + 1e150))
        assert poisson_mode(2, 1e300, 1.0) == math.log((2 + 1e300) / 2.0)

    def test_invalid_response(self):
        with pytest.raises(InvalidResponseError):
            poisson_mode(-1, 1.0, 1.0)
        with pytest.raises(InvalidResponseError):
            poisson_mode(1.5, 1.0, 1.0)

    @given(a=shapes, b=shapes, bump=st.floats(min_value=0.01, max_value=10.0))
    def test_monotone(self, a, b, bump):
        base = poisson_mode(3, a, b)
        assert poisson_mode(4, a, b) > base
        assert poisson_mode(3, a + bump, b) > base
        assert poisson_mode(3, a, b + bump) < base


class TestProbitMode:
    def test_symmetric_unit_shapes(self):
        # root of phi(eta)/Phi(eta) = eta
        mode = probit_mode(1, 1.0, 1.0)
        assert mode == pytest.approx(0.5061, abs=2e-4)
        assert probit_mode(0, 1.0, 1.0) == pytest.approx(-mode, abs=1e-10)

    def test_stationarity(self):
        for y in (0, 1):
            for a, b in ((0.5, 0.5), (1.0, 2.0), (0.1, 1.0)):
                eta = probit_mode(y, a, b)
                h = 1e-6
                def logpost(e):
                    return (
                        (y + a - 1.0) * log_ndtr(e)
                        + (b - y) * log_ndtr(-e)
                        - 0.5 * e * e
                    )
                deriv = (logpost(eta + h) - logpost(eta - h)) / (2 * h)
                assert abs(deriv) < 1e-5

    def test_against_grid_oracle_small_lattice(self):
        for y in (0, 1):
            for a in (0.1, 1.0):
                for b in (0.5, 2.0):
                    oracle = probit_grid_oracle(y, a, b)
                    assert probit_mode(y, a, b) == pytest.approx(oracle, abs=1e-4)

    def test_reflection_against_oracle(self):
        lhs = probit_mode(1, 0.5, 0.5)
        rhs = -probit_mode(0, 0.5, 0.5)
        assert lhs == pytest.approx(rhs, abs=1e-10)
        assert lhs == pytest.approx(probit_grid_oracle(1, 0.5, 0.5), abs=1e-4)

    @settings(max_examples=30)
    @given(a=shapes, b=shapes)
    def test_reflection_property(self, a, b):
        assert probit_mode(1, a, b) == pytest.approx(-probit_mode(0, b, a), abs=1e-9)

    def test_improper_posterior(self):
        with pytest.raises(ImproperPosteriorError):
            probit_mode(1, -1.0, 0.5)

    @settings(max_examples=50)
    @given(y=st.sampled_from([0, 1]), a=shapes, b=shapes)
    def test_numpy_scalar_shapes_give_the_float_mode(self, y, a, b):
        mode = probit_mode(y, np.float64(a), np.float64(b))
        assert type(mode) is float
        assert mode == probit_mode(y, a, b)

    def test_invalid_response(self):
        with pytest.raises(InvalidResponseError):
            probit_mode(0.5, 1.0, 1.0)
