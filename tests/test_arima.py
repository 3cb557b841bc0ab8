import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.optimize import minimize

from skillscope.arima import (
    ArimaModel,
    ArimaSpec,
    _nelder_mead,
    _sum_squares,
    arima_fit,
    arima_forecast,
    css_residuals,
    psi_weights,
)
from skillscope.errors import ConfigError, DataError


class TestSpec:
    def test_valid(self):
        ArimaSpec(1, 1, 1)
        ArimaSpec(0, 1, 0)
        ArimaSpec(2, 0, 2)

    @pytest.mark.parametrize("pdq", [(-1, 0, 0), (0, 0, 0)])
    def test_invalid(self, pdq):
        with pytest.raises(ConfigError):
            ArimaSpec(*pdq)


class TestCssResiduals:
    def test_hand_recursion_ar1(self):
        # e_t = w_t - c - phi*w_{t-1}; presample term zero
        e = css_residuals([1.0, 2.0, 0.5], [0.5], [], intercept=0.1)
        assert e[0] == pytest.approx(1.0 - 0.1)
        assert e[1] == pytest.approx(2.0 - 0.1 - 0.5 * 1.0)
        assert e[2] == pytest.approx(0.5 - 0.1 - 0.5 * 2.0)

    def test_hand_recursion_ma1(self):
        e = css_residuals([1.0, 1.0, 1.0], [], [0.5], intercept=0.0)
        assert e[0] == 1.0
        assert e[1] == pytest.approx(1.0 - 0.5 * e[0])
        assert e[2] == pytest.approx(1.0 - 0.5 * e[1])


    @given(arrays(float, st.integers(0, 12), elements=st.floats(-1e6, 1e6)),
           arrays(float, st.integers(0, 3), elements=st.floats(-3, 3)),
           arrays(float, st.integers(0, 3), elements=st.floats(-3, 3)),
           st.just(0.0) | st.floats(-1e3, 1e3).map(np.float64))
    @settings(max_examples=400, deadline=None)
    def test_bit_equal_to_numpy_scalar_recursion(self, w, phi, theta, intercept):
        e = css_residuals(w.tolist(), phi.tolist(), theta.tolist(), float(intercept))
        assert np.array(e).tobytes() == \
            reference_css_residuals(w, phi, theta, intercept).tobytes()


def reference_css_residuals(w, phi, theta, intercept):
    """The recursion on numpy float64 scalars, indexing the arrays it is given."""
    n, p, q = len(w), len(phi), len(theta)
    e = np.zeros(n)
    for t in range(n):
        pred = intercept
        for i in range(1, p + 1):
            if t - i >= 0:
                pred += phi[i - 1] * w[t - i]
        for j in range(1, q + 1):
            if t - j >= 0:
                pred += theta[j - 1] * e[t - j]
        e[t] = w[t] - pred
    return e


class TestSumSquares:
    # 300 terms reach numpy's split into halves above 128
    @given(arrays(float, st.integers(0, 300), elements=st.floats(-1e6, 1e6)))
    @settings(max_examples=300, deadline=None)
    def test_bit_equal_to_numpy(self, e):
        assert np.float64(_sum_squares(e.tolist())).tobytes() == \
            (np.asarray(e) ** 2).sum().tobytes()


def css_objective(w: list[float], p: int, q: int, has_intercept: bool):
    """The CSS objective arima_fit searches, on a list or an array."""
    def css(x) -> float:
        x = [float(v) for v in x]
        c = x[p + q] if has_intercept else 0.0
        return _sum_squares(css_residuals(w, x[:p], x[p:p + q], c)[p:])
    return css


class TestNelderMead:
    SPECS = [(1, 0, 0), (0, 0, 1), (1, 0, 1), (2, 0, 2), (1, 1, 1), (2, 1, 0)]

    def test_takes_scipy_s_steps(self):
        """Seeded short series, a third of them integer-valued so that the
        objective ties, some searches cut at a small ``maxiter``, and some
        started with a zero coordinate: the same point, value, iteration
        and call counts and outcome as scipy's Nelder-Mead."""
        rng = np.random.default_rng(2024)
        outcomes = set()
        for case in range(18):
            n = int(rng.integers(7, 30))
            if case % 3 == 0:
                y = rng.integers(0, 4, size=n).astype(float)
            else:
                y = np.cumsum(rng.normal(size=n)) * float(rng.choice([1e-3, 1.0, 50.0]))
            for p, d, q in self.SPECS:
                w = np.diff(y, d)
                has_intercept = d == 0
                n_params = p + q + has_intercept
                x0 = [0.1] * (p + q) + ([float(np.mean(w)) if case % 4 else 0.0]
                                        if has_intercept else [])
                maxiter = 500 * n_params if case % 5 else 10 + case
                css = css_objective(w.tolist(), p, q, has_intercept)
                ours = _nelder_mead(css, x0, xatol=1e-8, fatol=1e-10, maxiter=maxiter)
                theirs = minimize(css, np.array(x0), method="Nelder-Mead",
                                  options={"xatol": 1e-8, "fatol": 1e-10,
                                           "maxiter": maxiter})
                assert np.array(ours.x).tobytes() == theirs.x.tobytes()
                assert np.float64(ours.fun).tobytes() == np.float64(theirs.fun).tobytes()
                assert (ours.nit, ours.nfev, ours.success) == \
                    (theirs.nit, theirs.nfev, theirs.success)
                outcomes.add((ours.success, maxiter == 500 * n_params))
        # converged; cut at a small maxiter; ran out of 500 steps per parameter
        assert outcomes >= {(True, True), (False, False), (False, True)}

    def test_a_nan_objective_fails_the_tolerance_test(self):
        # a NaN at every vertex is never within tolerance: scipy's max() test
        # reads NaN, so the search runs to maxiter
        result = _nelder_mead(lambda x: float("nan"), [1.0, 2.0], 1e-8, 1e-10, 40)
        theirs = minimize(lambda x: float("nan"), np.array([1.0, 2.0]),
                          method="Nelder-Mead",
                          options={"xatol": 1e-8, "fatol": 1e-10, "maxiter": 40})
        assert (result.nit, result.nfev, result.success) == (40, theirs.nfev, False)
        assert np.array(result.x).tobytes() == theirs.x.tobytes()
        assert np.isnan(result.fun) and np.isnan(theirs.fun)


def simulate_ar1(phi, n, seed, sigma=1.0):
    rng = np.random.default_rng(seed)
    x = np.zeros(n)
    for t in range(1, n):
        x[t] = phi * x[t - 1] + rng.normal(scale=sigma)
    return x


class TestArimaFit:
    def test_ar1_recovery_single_seed(self):
        x = simulate_ar1(0.6, 200, seed=0)
        model = arima_fit(x, ArimaSpec(1, 0, 0))
        assert 0.5 <= model.ar_coeffs[0] <= 0.7

    def test_white_noise_ma1_theta_small(self):
        for seed in range(10):
            x = np.random.default_rng(seed).normal(size=200)
            model = arima_fit(x, ArimaSpec(0, 0, 1))
            assert abs(model.ma_coeffs[0]) < 0.2

    def test_constant_series_111(self):
        x = np.full(20, 7.0)
        model = arima_fit(x, ArimaSpec(1, 1, 1))
        assert model.residual_variance == pytest.approx(0.0, abs=1e-12)
        assert np.allclose(points(arima_forecast(model, 3)), 7.0, atol=1e-8)

    def test_too_short(self):
        with pytest.raises(DataError, match="need >= 5 points after differencing, got 4"):
            arima_fit(np.arange(4.0), ArimaSpec(2, 0, 2))

    def test_residuals_and_variance_match_independent_recomputation(self):
        x = simulate_ar1(0.4, 80, seed=3)
        spec = ArimaSpec(1, 0, 1)
        model = arima_fit(x, spec)
        e = reference_css_residuals(model.fitted_values, model.ar_coeffs,
                                    model.ma_coeffs, model.intercept)
        assert np.array(model.residuals).tobytes() == e.tobytes()
        assert model.residual_variance * (len(x) - spec.p) == \
            pytest.approx(float((e[spec.p:] ** 2).sum()), abs=1e-8)

    def test_deterministic(self):
        x = simulate_ar1(0.5, 60, seed=4)
        a = arima_fit(x, ArimaSpec(1, 0, 1))
        b = arima_fit(x, ArimaSpec(1, 0, 1))
        assert np.array_equal(a.ar_coeffs, b.ar_coeffs)
        assert np.array_equal(a.ma_coeffs, b.ma_coeffs)
        assert a.intercept == b.intercept


def ar1_model(phi, last):
    """Hand-built model for forecast recursion tests."""
    return ArimaModel(
        spec=ArimaSpec(1, 0, 0),
        ar_coeffs=np.array([phi]),
        ma_coeffs=np.array([]),
        intercept=0.0,
        residual_variance=1.0,
        fitted_values=np.array([last]),
        residuals=[last],
        last_observations=[],
    )


def points(forecast):
    return [point for point, _, _ in forecast]


class TestForecast:
    def test_random_walk_flat_at_last_observation(self):
        x = np.array([3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0])
        model = arima_fit(x, ArimaSpec(0, 1, 0))
        assert points(arima_forecast(model, 4)) == [6.0, 6.0, 6.0, 6.0]  # exact

    def test_ar1_hand_recursion(self):
        # x̂_{t+h} = phi^h * x_t with intercept 0
        fc = arima_forecast(ar1_model(0.5, last=8.0), 3)
        assert points(fc) == pytest.approx([4.0, 2.0, 1.0])

    def test_interval_widths_non_decreasing(self):
        x = simulate_ar1(0.6, 100, seed=5)
        model = arima_fit(x, ArimaSpec(1, 0, 0))
        fc = arima_forecast(model, 6)
        widths = [u - l for _, l, u in fc]
        for a, b in zip(widths, widths[1:]):
            assert b >= a - 1e-12

    def test_psi_weights_ar1(self):
        # psi_j = phi^j for a pure AR(1)
        model = ar1_model(0.5, last=1.0)
        psi = psi_weights(model, 5)
        assert np.allclose(psi, [1.0, 0.5, 0.25, 0.125, 0.0625])

    def test_psi_weights_random_walk(self):
        x = np.arange(10.0)
        model = arima_fit(x, ArimaSpec(0, 1, 0))
        assert np.allclose(psi_weights(model, 4), [1.0, 1.0, 1.0, 1.0])

    def test_horizon_guard(self):
        model = ar1_model(0.5, last=1.0)
        with pytest.raises(ConfigError):
            arima_forecast(model, 0)

    def test_integration_reversal_linear_trend(self):
        # perfectly linear series: (0,1,0) has constant differenced series 2,
        # but random-walk forecasts stay flat at the last observation
        x = np.arange(0.0, 40.0, 2.0)
        model = arima_fit(x, ArimaSpec(0, 1, 0))
        assert points(arima_forecast(model, 2)) == [38.0, 38.0]


def reference_forecast(model, values, horizon):
    """``(point, lower, upper)`` of each step as the forecast was computed
    before the fit kept its residuals: the residuals recomputed from the
    fitted coefficients, the variance from them, and the differencing undone
    from each whole level of ``values``."""
    p, d, q = model.spec.p, model.spec.d, model.spec.q
    levels = [np.asarray(values, dtype=float)]
    for _ in range(d):
        levels.append(np.diff(levels[-1]))
    w = levels[-1]
    e = reference_css_residuals(w, model.ar_coeffs, model.ma_coeffs, model.intercept)
    variance = float((e[p:] ** 2).sum()) / max(1, len(w) - p)
    n = len(w)
    extended = list(w)
    preds_w = []
    for h in range(1, horizon + 1):
        t = n + h - 1
        pred = model.intercept
        for i in range(1, p + 1):
            pred += model.ar_coeffs[i - 1] * extended[t - i]
        for j in range(1, q + 1):
            if t - j < n:
                pred += model.ma_coeffs[j - 1] * e[t - j]
        extended.append(pred)
        preds_w.append(pred)
    preds = list(preds_w)
    for level in range(d - 1, -1, -1):
        running = float(levels[level][-1])
        integrated = []
        for value in preds:
            running += value
            integrated.append(running)
        preds = integrated
    psi = psi_weights(model, horizon)
    half = 1.96 * np.sqrt(variance * np.cumsum(psi ** 2))
    return [(float(v), float(v - hw), float(v + hw)) for v, hw in zip(preds, half)]


class TestFitKeepsItsResiduals:
    @given(st.lists(st.floats(0.0, 1000.0), min_size=8, max_size=24),
           st.sampled_from([(0, 1, 0), (1, 1, 1), (2, 0, 2), (2, 1, 0)]),
           st.integers(1, 4))
    @settings(max_examples=120, deadline=None)
    def test_residuals_and_forecast_bit_equal_to_recomputation(self, values, order, horizon):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # the fits' own warnings
            model = arima_fit(np.array(values), ArimaSpec(*order))
        expected = reference_css_residuals(model.fitted_values, model.ar_coeffs,
                                           model.ma_coeffs, model.intercept)
        assert np.array(model.residuals).tobytes() == expected.tobytes()
        assert np.array(arima_forecast(model, horizon)).tobytes() == \
            np.array(reference_forecast(model, values, horizon)).tobytes()
