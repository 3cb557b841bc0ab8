"""ARIMA fitting by conditional sum of squares and recursive forecasting.

Estimation minimizes the sum of squared one-step-ahead residuals with a
Nelder-Mead simplex started from a fixed point (all AR/MA coefficients 0.1,
intercept at the mean of the differenced series), so fits are deterministic.
Following the usual Box-Jenkins convention the intercept is only estimated
when d = 0; a pure random walk therefore forecasts flat at the last
observation. Full MLE is deliberately out of scope.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import minimize

from .errors import ConfigError, SeriesTooShortError


@dataclass(frozen=True)
class ArimaSpec:
    p: int
    d: int
    q: int
    smoothing_alpha: float | None = None

    def __post_init__(self):
        if min(self.p, self.d, self.q) < 0:
            raise ConfigError("p, d, q must be non-negative")
        if self.p + self.q < 1 and self.d < 1:
            raise ConfigError("need p+q >= 1 or d >= 1")
        if self.smoothing_alpha is not None and not (0 < self.smoothing_alpha <= 1):
            raise ConfigError("smoothing_alpha must be in (0,1]")


@dataclass
class ArimaModel:
    spec: ArimaSpec
    ar_coeffs: np.ndarray
    ma_coeffs: np.ndarray
    intercept: float
    residual_variance: float
    fitted_values: np.ndarray     # differenced working series
    last_observations: list[np.ndarray]  # tails of each differencing level
    converged: bool = True
    stationary: bool = True
    objective: float = 0.0


def css_residuals(w: np.ndarray, phi: np.ndarray, theta: np.ndarray,
                  intercept: float) -> np.ndarray:
    """One-step-ahead residuals with presample values treated as zero.

    The recursion runs on Python floats, which round exactly as numpy
    float64 scalars do at a fraction of their cost per operation."""
    w, phi, theta = (np.asarray(v, dtype=float).tolist() for v in (w, phi, theta))
    p, q = len(phi), len(theta)
    e: list[float] = []
    for t, wt in enumerate(w):
        pred = float(intercept)
        for i in range(1, min(p, t) + 1):
            pred += phi[i - 1] * w[t - i]
        for j in range(1, min(q, t) + 1):
            pred += theta[j - 1] * e[t - j]
        e.append(wt - pred)
    return np.array(e)


def _css(w: np.ndarray, phi: np.ndarray, theta: np.ndarray, intercept: float,
         skip: int) -> float:
    e = css_residuals(w, phi, theta, intercept)
    return float((e[skip:] ** 2).sum())


def arima_fit(values: np.ndarray, spec: ArimaSpec) -> ArimaModel:
    values = np.asarray(values, dtype=float)
    p, d, q = spec.p, spec.d, spec.q

    levels = [values]
    for _ in range(d):
        levels.append(np.diff(levels[-1]))
    w = levels[-1]
    if len(w) < max(p, q) + 3:
        raise SeriesTooShortError(
            f"need >= {max(p, q) + 3} points after differencing, got {len(w)}"
        )

    has_intercept = d == 0
    n_params = p + q + (1 if has_intercept else 0)

    def unpack(x):
        phi = x[:p]
        theta = x[p:p + q]
        c = x[p + q] if has_intercept else 0.0
        return phi, theta, c

    converged = True
    if n_params == 0:
        phi = np.zeros(0)
        theta = np.zeros(0)
        intercept = 0.0
        objective = _css(w, phi, theta, intercept, skip=p)
    else:
        x0 = np.concatenate([
            np.full(p + q, 0.1),
            [float(np.mean(w))] if has_intercept else [],
        ])

        def objective_fn(x):
            phi, theta, c = unpack(x)
            return _css(w, phi, theta, c, skip=p)

        result = minimize(objective_fn, x0, method="Nelder-Mead",
                          options={"fatol": 1e-10, "xatol": 1e-8,
                                   "maxiter": 500 * max(1, n_params)})
        converged = bool(result.success)
        phi, theta, intercept = unpack(result.x)
        objective = float(result.fun)
        if not converged:
            warnings.warn(f"ARIMA{(p, d, q)} CSS search did not converge; "
                          "returning best point found")

    e = css_residuals(w, phi, theta, intercept)
    n_eff = max(1, len(w) - p)
    residual_variance = float((e[p:] ** 2).sum()) / n_eff

    stationary = True
    if p > 0 and np.any(np.abs(phi) > 0):
        roots = np.roots(np.r_[-phi[::-1], 1.0])
        stationary = bool(np.all(np.abs(roots) > 1.0 + 1e-9)) if roots.size else True
        if not stationary:
            warnings.warn(f"fitted AR polynomial of ARIMA{(p, d, q)} is not stationary")

    return ArimaModel(
        spec=spec,
        ar_coeffs=np.asarray(phi, dtype=float),
        ma_coeffs=np.asarray(theta, dtype=float),
        intercept=float(intercept),
        residual_variance=residual_variance,
        fitted_values=w,
        last_observations=[lvl.copy() for lvl in levels],
        converged=converged,
        stationary=stationary,
        objective=objective,
    )


def psi_weights(model: ArimaModel, horizon: int) -> np.ndarray:
    """MA-representation weights of the integrated process (for interval
    widths): expansion of theta(B) / (phi(B) (1-B)^d)."""
    p, d, q = model.spec.p, model.spec.d, model.spec.q
    arpoly = np.array([1.0] + [-c for c in model.ar_coeffs])
    for _ in range(d):
        arpoly = np.convolve(arpoly, [1.0, -1.0])
    a = -arpoly[1:]  # Pi(B) = 1 - sum a_i B^i
    psi = np.zeros(horizon)
    psi[0] = 1.0
    for j in range(1, horizon):
        acc = model.ma_coeffs[j - 1] if j <= q else 0.0
        for i in range(1, min(j, len(a)) + 1):
            acc += a[i - 1] * psi[j - i]
        psi[j] = acc
    return psi


@dataclass
class Forecast:
    years: list[int]
    point: list[float]
    lower: list[float]
    upper: list[float]


def arima_forecast(model: ArimaModel, horizon: int, last_year: int | None = None) -> Forecast:
    if horizon < 1:
        raise ConfigError("horizon must be >= 1")
    p, d, q = model.spec.p, model.spec.d, model.spec.q
    w = model.fitted_values
    e = css_residuals(w, model.ar_coeffs, model.ma_coeffs, model.intercept)
    n = len(w)
    extended = list(w)
    preds_w = []
    for h in range(1, horizon + 1):
        t = n + h - 1
        pred = model.intercept
        for i in range(1, p + 1):
            pred += model.ar_coeffs[i - 1] * extended[t - i]
        for j in range(1, q + 1):
            if t - j < n:  # unobserved future shocks are zero
                pred += model.ma_coeffs[j - 1] * e[t - j]
        extended.append(pred)
        preds_w.append(pred)

    # reverse the d-fold differencing using the observed tails
    preds = list(preds_w)
    for level in range(d - 1, -1, -1):
        running = float(model.last_observations[level][-1])
        integrated = []
        for value in preds:
            running += value
            integrated.append(running)
        preds = integrated

    psi = psi_weights(model, horizon)
    variances = model.residual_variance * np.cumsum(psi ** 2)
    half = 1.96 * np.sqrt(variances)
    years = []
    if last_year is not None:
        years = [last_year + h for h in range(1, horizon + 1)]
    return Forecast(
        years=years,
        point=[float(v) for v in preds],
        lower=[float(v - hw) for v, hw in zip(preds, half)],
        upper=[float(v + hw) for v, hw in zip(preds, half)],
    )
