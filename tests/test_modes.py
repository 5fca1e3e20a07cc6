"""Latent posterior-mode formulas against direct evaluation and a grid oracle."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.special import log_ndtr

import jacobiprior.glm as glm_module
from jacobiprior.errors import (
    ImproperPosteriorError,
    InvalidHyperError,
    InvalidResponseError,
    JacobiPriorError,
    NoConvergenceError,
)
from jacobiprior.glm import (
    PROBIT_BRACKET,
    PROBIT_MAX_ITER,
    PROBIT_TOL,
    _first_error,
    _probit_grad_hess,
    _probit_half_width,
    JacobiHyper,
    _fit_modes,
    fit_jacobi,
    lanes,
    latent_vector,
    logit_mode,
    poisson_mode,
    probit_mode,
)
from jacobiprior.hyper import SEARCH_HI, SEARCH_LO, sensitivity_grid, stochastic_search
from jacobiprior.rng import SeedSpec

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

    @pytest.mark.parametrize("family", ["logit", "probit"])
    @pytest.mark.parametrize("a", [1e-3, 0.5, 2.0])
    def test_tiny_b_pair_is_improper_whatever_a(self, family, a):
        # The y = 0 lane alone is proper, and a probit one converges on the bracket of
        # its own shape a; the pair is refused on its y = 1 shape first.
        with pytest.raises(ImproperPosteriorError):
            reference_binary_modes(family, a, 5e-17)
        mode, ok = lanes(family, (1.0, 0.0), a, 5e-17)
        assert isinstance(_first_error(family, (1.0, 0.0), a, 5e-17, ok), ImproperPosteriorError)
        assert ok.tolist() == [False, True] and math.isnan(mode[0])
        assert mode[1] == (logit_mode if family == "logit" else probit_mode)(0, a, 5e-17)

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


# a and b log-uniform on the search range, where every probit mode must converge
search_shapes = st.floats(min_value=math.log(SEARCH_LO), max_value=math.log(SEARCH_HI)).map(math.exp)


def probit_slack(y, a, b, mode):
    """2 PROBIT_TOL / |hess|: a mode stops within |grad| / |hess| <= PROBIT_TOL / |hess| of
    its stationary point, so two modes miss their exact relation by at most twice that."""
    _, hess = _probit_grad_hess(mode, (y + a) - 1.0, b - y)
    return 2.0 * PROBIT_TOL / abs(hess)


class TestProbitModeOverTheSearchRange:
    @settings(max_examples=200, deadline=None)
    @given(y=st.sampled_from([0, 1]), a=search_shapes, b=search_shapes)
    def test_converges_stationary_and_array_equals_scalar(self, y, a, b):
        mode = probit_mode(y, a, b)  # NoConvergenceError fails the test
        grad, _ = _probit_grad_hess(mode, (y + a) - 1.0, b - y)
        assert abs(grad) <= PROBIT_TOL
        modes, ok = lanes("probit", (1.0, 0.0), np.array([[a], [b]]), np.array([[b], [a]]))
        assert ok.all()
        assert modes[0, 1 - y] == mode
        assert modes[1].tolist() == [probit_mode(1, b, a), probit_mode(0, b, a)]

    @settings(max_examples=200, deadline=None)
    @given(y=st.sampled_from([0, 1]), a=search_shapes, a2=search_shapes, b=search_shapes)
    def test_increases_in_a(self, y, a, a2, b):
        a, a2 = sorted((a, a2))
        assume(a < a2)
        low = probit_mode(y, a, b)
        # At y = 1 and a large mode, Phi is 1 to double precision and the true rise is
        # below any float; there the two modes agree within their stopping slack.
        assert probit_mode(y, a2, b) >= low - probit_slack(y, a, b, low)

    @settings(max_examples=200, deadline=None)
    @given(a=search_shapes, b=search_shapes)
    def test_y1_mirrors_y0_with_the_shapes_swapped(self, a, b):
        mode = probit_mode(1, a, b)
        assert abs(mode + probit_mode(0, b, a)) <= probit_slack(1, a, b, mode)

    def test_array_flags_what_the_scalar_refuses(self):
        a = np.array([[0.5], [1e-5], [2.0], [1.0]])
        b = np.array([[0.5], [1e-5], [1e-17], [np.inf]])
        modes, ok = lanes("probit", (1.0, 0.0), a, b)
        m1, m0 = modes.T
        assert ok.all(axis=1).tolist() == [True, False, False, False]
        # A failed lane is NaN; the y = 0 lane of (2, 1e-17) is proper and converges.
        assert np.isnan([m0[1], m0[3], *m1[1:]]).all() and np.isnan(modes).sum() == ok.size - ok.sum()
        assert (m0[0], m1[0], m0[2]) == (probit_mode(0, 0.5, 0.5), probit_mode(1, 0.5, 0.5),
                                         probit_mode(0, 2.0, 1e-17))
        with pytest.raises(NoConvergenceError):
            probit_mode(0, 1e-5, 1e-5)
        with pytest.raises(ImproperPosteriorError):
            probit_mode(1, 2.0, 1e-17)

    def test_bracket_is_unchanged_from_one_eighth_up(self):
        assert _probit_half_width(0.125) == PROBIT_BRACKET
        assert _probit_half_width(2.0) == PROBIT_BRACKET
        assert _probit_half_width(1 / 200) == pytest.approx(4.0 * math.sqrt(201.0))
        assert probit_mode(0, 1 / 200, 1 / 200) < -PROBIT_BRACKET  # outside the fixed bracket

    @pytest.mark.parametrize("y, a, b", [(0, 0.5, 5e-17), (1, 5e-17, 0.5)])
    def test_bracket_follows_the_lanes_own_shape(self, y, a, b):
        # The other shape is tiny, but the y = 0 lane's bracket follows a and the y = 1
        # lane's follows b. A half-width from min(a, b) would be +-5.7e8, where the
        # ratios phi/Phi have no digits left, and both calls would fail its bracket test.
        mode = probit_mode(y, a, b)
        assert mode == pytest.approx(0.6120031808 if y else -0.6120031808, abs=1e-10)
        modes, _ = lanes("probit", (1.0, 0.0), a, b)
        assert modes[1 - y] == mode

    def test_empty_arrays(self):
        for family in ("logit", "probit", "poisson"):
            mode, ok = lanes(family, np.empty(0), np.empty(0), np.empty(0))
            assert mode.shape == np.shape(ok) == (0,)
            modes, ok = lanes(family, (1.0, 0.0), np.empty((0, 1)), np.empty((0, 1)))
            assert modes.shape == ok.shape == (0, 2)


def reference_posterior_shapes(y, a: float, b: float) -> tuple[int, float, float]:
    """(y, y + a, b + 1 - y): y checked, and the binary posterior's Beta shapes, both > 0."""
    if y not in (0, 1, 0.0, 1.0):
        raise InvalidResponseError(f"binary response must be 0 or 1, got {y!r}")
    y = int(y)
    num = y + a
    den = b + 1.0 - y
    if num <= 0 or den <= 0:
        raise ImproperPosteriorError(f"need y + a > 0 and b + 1 - y > 0, got {num}, {den}")
    return y, num, den


def reference_logit_mode(y, a: float, b: float) -> float:
    """The scalar logit mode, log((y + a) / (b + 1 - y)), checked one lane at a time."""
    _, num, den = reference_posterior_shapes(y, a, b)
    ratio = num / den
    if not 0 < ratio < math.inf:  # 1e-300 / 1e300 underflows, 1e300 / 1e-10 overflows
        raise InvalidHyperError(f"need (y + a) / (b + 1 - y) in (0, inf), got {num} / {den}")
    return math.log(ratio)


def reference_poisson_mode(y, a: float, b: float) -> float:
    """The scalar count mode, log((y + a) / (1 + b)), with numpy's log as fits take it."""
    if y < 0 or y != int(y):
        raise InvalidResponseError(f"count response must be a non-negative integer, got {y!r}")
    if y + a <= 0:
        raise InvalidHyperError(f"need y + a > 0, got {y + a}")
    if 1.0 + b <= 0:
        raise InvalidHyperError(f"need 1 + b > 0, got {1.0 + b}")
    ratio = (y + a) / (1.0 + b)
    if not 0 < ratio < math.inf:
        raise InvalidHyperError(f"need (y + a) / (1 + b) in (0, inf), got a={a}, b={b}")
    return float(np.log(ratio))


def reference_binary_modes(family: str, a: float, b: float) -> tuple[float, float]:
    """(m0, m1) of a shape pair, one lane at a time, y = 1 first."""
    mode = reference_logit_mode if family == "logit" else reference_probit_mode
    m1 = mode(1, a, b)
    return mode(0, a, b), m1


def reference_probit_newton(y: int, a: float, b: float) -> float:
    """The scalar safeguarded Newton loop probit_mode must reproduce bit for bit, errors and
    their messages included, for a checked int y and float shapes. Its gradient runs on
    Python floats wherever numpy would give a numpy scalar."""

    def grad_hess(eta):
        log_phi = -0.5 * eta * eta - 0.5 * math.log(2.0 * math.pi)
        r1 = float(np.exp(log_phi - log_ndtr(eta)))   # phi/Phi
        r2 = float(np.exp(log_phi - log_ndtr(-eta)))  # phi/(1 - Phi)
        grad = c1 * r1 - c2 * r2 - eta
        hess = -c1 * r1 * (eta + r1) - c2 * r2 * (r2 - eta) - 1.0
        return grad, hess

    c1 = (y + a) - 1.0
    c2 = b - y
    with np.errstate(all="ignore"):
        m = b if y else a
        hi = float(np.fmax(PROBIT_BRACKET, 4.0 * np.sqrt((1.0 + m) / m)))
        lo = -hi
        if not (grad_hess(lo)[0] > 0 > grad_hess(hi)[0]):
            raise NoConvergenceError(
                f"gradient does not bracket a maximum on [{lo}, {hi}] for y={y}, a={a}, b={b}"
            )
        eta = 0.0
        for _ in range(PROBIT_MAX_ITER):
            grad, hess = grad_hess(eta)
            if abs(grad) <= PROBIT_TOL:
                return eta
            if grad > 0:
                lo = eta
            else:
                hi = eta
            step = eta - grad / hess if hess < 0 else math.nan
            eta = step if (lo < step < hi) else 0.5 * (lo + hi)
    raise NoConvergenceError(f"probit mode did not reach |grad| <= {PROBIT_TOL} "
                             f"in {PROBIT_MAX_ITER} iterations")


def reference_probit_mode(y, a, b) -> float:
    """probit_mode's checks, then the reference loop."""
    return reference_probit_newton(reference_posterior_shapes(y, a, b)[0], a, b)


def outcome(mode, y, a, b):
    """('mode', the mode's float hex) or (error type, message)."""
    try:
        return "mode", float(mode(y, a, b)).hex()
    except JacobiPriorError as exc:
        return type(exc), str(exc)


# a and b log-uniform on [1e-8, 50]: converged, bracket-failing and capped lanes alike
wide_shapes = st.floats(min_value=math.log(1e-8), max_value=math.log(50.0)).map(math.exp)


class TestProbitModeAgainstTheReference:
    """probit_mode is one lane of the array loop, bit for bit the scalar Newton loop."""

    @settings(max_examples=200, deadline=None)
    @given(y=st.sampled_from([0, 1]), a=wide_shapes, b=wide_shapes)
    def test_equals_the_reference(self, y, a, b):
        assert outcome(probit_mode, y, a, b) == outcome(reference_probit_mode, y, a, b)

    @pytest.mark.parametrize("a, b", [
        (0.5, 5e-17), (5e-17, 0.5), (1e-5, 1e-5), (5e-7, 5e-7), (math.nan, 1.0), (math.inf, 1.0),
        (1 / 200, 1 / 200),
    ])
    @pytest.mark.parametrize("y", [0, 1])
    def test_fixed_cases(self, y, a, b):
        # Every outcome: b = 5e-17 is improper at y = 1; a = 5e-17 fails the test of its
        # +-5.7e8 bracket at y = 0; the 1e-5 and 5e-7 pairs hit the iteration cap; NaN and
        # inf fail the bracket test on [-12, 12]; 1/200 converges outside it.
        assert outcome(probit_mode, y, a, b) == outcome(reference_probit_mode, y, a, b)


class TestProbitModeMemo:
    """Fits look up their mode pair (m0, m1) in one memo over ``lanes``, keyed by
    (family, float(a), float(b)), logit and probit alike; its errors are not cached."""

    @settings(max_examples=100, deadline=None)
    @given(a=search_shapes, b=search_shapes)
    def test_equals_the_unmemoised_loop(self, a, b):
        expected = (reference_probit_newton(0, a, b), reference_probit_newton(1, a, b))
        assert _fit_modes("probit", a, b) == expected
        assert _fit_modes("probit", a, b) == expected  # a cache hit
        eta = latent_vector([0.0, 1.0], "probit", JacobiHyper(np.float64(a), np.float64(b)))
        assert tuple(eta) == expected
        assert _fit_modes("logit", a, b) == reference_binary_modes("logit", a, b)

    def test_zero_d_arrays_are_accepted(self):
        # The memo is keyed on float shapes, not on the hyper's own values.
        eta = latent_vector([0.0, 1.0], "probit", JacobiHyper(np.array(0.5), np.array(0.5)))
        info = _fit_modes.cache_info()
        eta_again = latent_vector([0.0, 1.0], "probit", JacobiHyper(0.5, 0.5))
        assert _fit_modes.cache_info().hits == info.hits + 1
        expected = [reference_probit_newton(0, 0.5, 0.5), reference_probit_newton(1, 0.5, 0.5)]
        assert eta.tolist() == eta_again.tolist() == expected
        assert probit_mode(np.array(1.0), np.array(0.5), np.array(0.5)) == expected[1]

    @pytest.mark.parametrize("y, a, b, error", [
        (0, 1e-5, 1e-5, NoConvergenceError),
        (1, 2.0, 1e-17, ImproperPosteriorError),
        (0.5, 1.0, 1.0, InvalidResponseError),
    ])
    def test_raises_again_on_every_failing_call(self, y, a, b, error):
        X = np.column_stack([np.ones(4), np.arange(4.0)])
        messages = []
        for _ in range(3):
            size = _fit_modes.cache_info().currsize
            with pytest.raises(error) as exc:
                fit_jacobi(X, [y, 1.0, 0.0, 1.0], "probit", JacobiHyper(a, b))
            assert _fit_modes.cache_info().currsize == size
            messages.append(str(exc.value))
        assert len(set(messages)) == 1

    @pytest.mark.parametrize("a, b, error", [
        (1e-300, 1e300, InvalidHyperError), (2.0, 1e-17, ImproperPosteriorError),
    ])
    def test_a_failing_logit_pair_raises_on_every_fit(self, monkeypatch, a, b, error):
        calls = []
        monkeypatch.setattr(glm_module, "lanes", lambda family, y, a, b: calls.append(
            (family, a, b)) or lanes(family, y, a, b))
        X = np.column_stack([np.ones(4), np.arange(4.0)])
        messages = []
        for _ in range(3):
            with pytest.raises(error) as exc:
                fit_jacobi(X, [0.0, 1.0, 0.0, 1.0], "logit", JacobiHyper(a, b))
            messages.append(str(exc.value))
        assert len(set(messages)) == 1 and calls == [("logit", a, b)] * 3

    @pytest.mark.parametrize("family", ["logit", "probit"])
    def test_one_entry_a_pair(self, family):
        # Integer, float and numpy shapes of one value share the entry.
        y = [0.0, 1.0, 1.0]
        first = latent_vector(y, family, JacobiHyper(3, 7))
        info = _fit_modes.cache_info()
        for a, b in [(3.0, 7.0), (np.int64(3), np.float64(7.0)), (np.array(3.0), 7)]:
            np.testing.assert_array_equal(latent_vector(y, family, JacobiHyper(a, b)), first)
        after = _fit_modes.cache_info()
        assert (after.hits, after.misses) == (info.hits + 3, info.misses)
        m0, m1 = reference_binary_modes(family, 3.0, 7.0)
        assert first.tolist() == [m0, m1, m1]

    def test_float32_shapes_get_float64_logit_modes(self):
        a, b = np.float32(0.3), np.float32(0.7)
        eta = latent_vector([0.0, 1.0], "logit", JacobiHyper(a, b))
        assert eta.tolist() == [logit_mode(0, float(a), float(b)), logit_mode(1, float(a), float(b))]

    @pytest.mark.parametrize("family", ["logit", "probit"])
    def test_grid_and_search_leave_the_memo_alone(self, family):
        rng = np.random.default_rng(3)
        X = np.column_stack([np.ones(40), rng.standard_normal((40, 2))])
        y = (rng.random(40) < 0.5).astype(float)
        info = _fit_modes.cache_info()
        grid = sensitivity_grid(X, y, X, y, family, [0.25, 0.5, 1.0], [0.5, 2.0])
        search = stochastic_search(X, y, X, y, family, budget=20, seed=SeedSpec(4, 0))
        assert _fit_modes.cache_info() == info
        assert np.isfinite(grid.scores).all() and len(search.trace) == 20


REFERENCE_MODES = {"logit": reference_logit_mode, "probit": reference_probit_mode,
                   "poisson": reference_poisson_mode}

# Shapes from 1e-300 to 1e300, the search range's, the b + 1 - y rounding edge near 1.1e-16,
# and values no prior takes: 0, negatives, inf and NaN.
lane_shapes = st.one_of(
    st.floats(min_value=math.log(1e-300), max_value=math.log(1e300)).map(math.exp),
    search_shapes,
    st.sampled_from([5e-17, 1e-16, 1.1e-16, 1e-5, 0.5, 2.0, 0.0, -0.5, -1.0, -3.0, math.inf,
                     -math.inf, math.nan]),
)
responses = {
    "logit": st.sampled_from([0.0, 1.0, 0.0, 1.0, 0.5, 2.0, -1.0]),
    "probit": st.sampled_from([0.0, 1.0, 0.0, 1.0, 0.5, 2.0, -1.0]),
    "poisson": st.one_of(st.integers(0, 50).map(float), st.sampled_from([1.5, -1.0, -0.5, 1e6])),
}


@st.composite
def lane_draws(draw):
    family = draw(st.sampled_from(sorted(REFERENCE_MODES)))
    rows = draw(st.lists(st.tuples(responses[family], lane_shapes, lane_shapes), min_size=1,
                         max_size=6))
    return family, rows


class TestLanesAgainstTheReference:
    """``lanes`` and its error path against today's scalar modes, one lane at a time."""

    @settings(max_examples=300, deadline=None)
    @given(draw=lane_draws())
    def test_modes_and_first_error_equal_the_scalar_loop(self, draw):
        family, rows = draw
        want = [outcome(REFERENCE_MODES[family], *row) for row in rows]
        y, a, b = (np.array(col) for col in zip(*rows))
        mode, ok = lanes(family, y, a, b)
        ok = np.broadcast_to(ok, mode.shape)
        for k, expected in enumerate(want):
            if expected[0] == "mode":
                assert ok[k] and mode[k].hex() == expected[1]
            elif expected[0] is not InvalidResponseError:  # lanes take y in the support
                assert not ok[k] and math.isnan(mode[k])
        errors = [w for w in want if w[0] != "mode"]
        error = _first_error(family, y, a, b, ok)
        assert (None if error is None else (type(error), str(error))) == (errors or [None])[0]

    @pytest.mark.parametrize("family", ["logit", "probit"])
    def test_a_pair_is_two_lanes_y1_first(self, family):
        # (2, 1e-17): y = 1 is improper and y = 0 is solved; the pair raises the first.
        a, b = np.array([[0.5], [2.0]]), np.array([[0.7], [1e-17]])
        mode, ok = lanes(family, (1.0, 0.0), a, b)
        assert ok.tolist() == [[True, True], [False, True]]
        assert mode[0].tolist() == [REFERENCE_MODES[family](1, 0.5, 0.7),
                                    REFERENCE_MODES[family](0, 0.5, 0.7)]
        error = _first_error(family, (1.0, 0.0), a, b, ok)
        assert str(error) == "need y + a > 0 and b + 1 - y > 0, got 3.0, 0.0"

    def test_float32_poisson_shapes_keep_their_float32_one_plus_b(self):
        # Fits have taken 1 + b in the shape's own float32, so every such fit keeps its bits.
        y = np.arange(6.0)
        a, b = np.float32(0.3), np.float32(0.7)
        want = np.log((y + a) / (1.0 + b))
        assert latent_vector(y, "poisson", JacobiHyper(a, b)).tobytes() == want.tobytes()
        assert not np.array_equal(want, np.log((y + float(a)) / (1.0 + float(b))))

    def test_poisson_count_matrix_is_one_call(self):
        y = np.arange(12.0).reshape(4, 3)
        mode, ok = lanes("poisson", y, 0.3, 2.0)
        assert np.all(ok) and mode.tolist() == [[reference_poisson_mode(v, 0.3, 2.0) for v in row]
                                                 for row in y.tolist()]


class TestScalarModesTypedErrors:
    """The exported scalar modes raise a JacobiPriorError for a value that is not a real number."""

    @pytest.mark.parametrize("mode, args, error", [
        (logit_mode, (1, "a", 1.0), InvalidHyperError),
        (poisson_mode, ("3", 1.0, 1.0), InvalidResponseError),
        (probit_mode, (1, np.array([0.5, 0.5]), 1.0), InvalidHyperError),
        (poisson_mode, (np.array([1, 2]), 1.0, 1.0), InvalidResponseError),
        (logit_mode, (None, 0.5, 0.5), InvalidResponseError),
        (probit_mode, (0, 0.5, 10**400), InvalidHyperError),
        (poisson_mode, (math.inf, 1.0, 1.0), InvalidResponseError),
    ], ids=["logit-str-a", "poisson-str-y", "probit-array-a", "poisson-array-y", "logit-none-y",
            "probit-huge-int-b", "poisson-inf-y"])
    def test_typed(self, mode, args, error):
        with pytest.raises(error) as exc:
            mode(*args)
        assert isinstance(exc.value, JacobiPriorError)
