"""ARIMA fitting by conditional sum of squares and recursive forecasting.

Estimation minimizes the sum of squared one-step-ahead residuals with a
Nelder-Mead simplex started from a fixed point (all AR/MA coefficients 0.1,
intercept at the mean of the differenced series), so fits are deterministic.
Following the usual Box-Jenkins convention the intercept is only estimated
when d = 0; a pure random walk therefore forecasts flat at the last
observation. Full MLE is deliberately out of scope.

The simplex search is this module's own (`_nelder_mead`): it takes the steps
of scipy's non-adaptive, unbounded ``minimize(method="Nelder-Mead")`` on
Python floats, and the objective adds its squares in numpy's order, so fits
equal scipy's bit for bit without importing scipy.optimize. They rest on
numpy's argsort, which orders the simplex each iteration: how it breaks ties
between equal objective values can change a fit.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from itertools import accumulate
from typing import Callable, NamedTuple

import numpy as np

from .errors import ConfigError, DataError


@dataclass(frozen=True)
class ArimaSpec:
    """The order (p, d, q) of an ARIMA model."""
    p: int
    d: int
    q: int

    def __post_init__(self):
        if min(self.p, self.d, self.q) < 0:
            raise ConfigError("p, d, q must be non-negative")
        if self.p + self.q < 1 and self.d < 1:
            raise ConfigError("need p+q >= 1 or d >= 1")


@dataclass
class ArimaModel:
    spec: ArimaSpec
    ar_coeffs: np.ndarray
    ma_coeffs: np.ndarray
    intercept: float
    residual_variance: float
    fitted_values: np.ndarray     # differenced working series
    residuals: list[float]        # css_residuals of fitted_values at the fit
    last_observations: list[float]  # last value of each level the differencing removed
    converged: bool = True
    stationary: bool = True
    iterations: int = 0           # simplex iterations of the CSS search


def css_residuals(w: list[float], phi: list[float], theta: list[float],
                  intercept: float) -> list[float]:
    """One-step-ahead residuals with presample values treated as zero.

    The recursion runs on Python floats, which round exactly as numpy
    float64 scalars do at a fraction of their cost per operation."""
    ar, ma = list(enumerate(phi, 1)), list(enumerate(theta, 1))
    e: list[float] = []
    for t, wt in enumerate(w):
        pred = intercept
        for lag, c in ar:
            if lag > t:
                break
            pred += c * w[t - lag]
        for lag, c in ma:
            if lag > t:
                break
            pred += c * e[t - lag]
        e.append(wt - pred)
    return e


def _sum_squares(e: list[float]) -> float:
    """The sum of the squares of ``e``, bit-equal to ``(np.asarray(e) ** 2).sum()``."""
    return _pairwise_sum([v * v for v in e])


def _pairwise_sum(a: list[float]) -> float:
    """numpy's pairwise summation order: one term after another below 8
    terms, eight running sums up to 128, and above that the sums of two
    halves split at a multiple of 8."""
    n = len(a)
    if n < 8:
        total = 0.0
        for v in a:
            total += v
        return total
    if n <= 128:
        r = a[:8]
        tail = n - n % 8
        for i in range(8, tail, 8):
            r = [s + v for s, v in zip(r, a[i:i + 8])]
        total = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
        for v in a[tail:]:
            total += v
        return total
    half = n // 2 - n // 2 % 8
    return _pairwise_sum(a[:half]) + _pairwise_sum(a[half:])


class _Minimum(NamedTuple):
    x: list[float]
    fun: float
    nit: int
    nfev: int
    success: bool


def _by_value(sim: list[list[float]], fsim: list[float]):
    # numpy's argsort, as scipy's: a sort that kept ties in order would
    # take other steps on series whose objective ties
    order = np.array(fsim).argsort().tolist()
    return [sim[i] for i in order], [fsim[i] for i in order]


def _nelder_mead(fun: Callable[[list[float]], float], x0: list[float], xatol: float,
                 fatol: float, maxiter: int) -> _Minimum:
    """Minimize ``fun`` from ``x0`` by the Nelder-Mead simplex (Nelder and
    Mead, Computer Journal 1965), taking the steps of scipy's
    ``minimize(fun, x0, method="Nelder-Mead", options={"xatol": xatol,
    "fatol": fatol, "maxiter": maxiter})``: the same simplex, the same
    arithmetic on Python floats in the same order, the same reorderings,
    so the same result. ``success`` is False when ``maxiter`` iterations ran."""
    nfev = 0

    def f(x):
        nonlocal nfev
        nfev += 1
        return fun(x)

    n = len(x0)
    sim = [list(x0)]
    for k in range(n):
        y = list(x0)
        y[k] = 1.05 * y[k] if y[k] != 0 else 0.00025
        sim.append(y)
    fsim = [f(x) for x in sim]
    sim, fsim = _by_value(*_by_value(sim, fsim))  # scipy sorts twice before the loop
    nit = 1
    while nit < maxiter:
        best, worst = sim[0], sim[-1]
        # all(), not max(): a NaN fails the test, as it fails scipy's
        if (all(abs(v - b) <= xatol for x in sim[1:] for v, b in zip(x, best))
                and all(abs(fsim[0] - fx) <= fatol for fx in fsim[1:])):
            break
        xbar = [0.0] * n  # the centroid of all but the worst, added row by row
        for x in sim[:-1]:
            xbar = [c + v for c, v in zip(xbar, x)]
        xbar = [c / n for c in xbar]
        xr = [2.0 * c - v for c, v in zip(xbar, worst)]
        fxr = f(xr)
        shrink = False
        if fxr < fsim[0]:
            xe = [3.0 * c - 2.0 * v for c, v in zip(xbar, worst)]
            fxe = f(xe)
            sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
        elif fxr < fsim[-2]:
            sim[-1], fsim[-1] = xr, fxr
        elif fxr < fsim[-1]:
            xc = [1.5 * c - 0.5 * v for c, v in zip(xbar, worst)]
            fxc = f(xc)
            if fxc <= fxr:
                sim[-1], fsim[-1] = xc, fxc
            else:
                shrink = True
        else:
            xcc = [0.5 * c + 0.5 * v for c, v in zip(xbar, worst)]
            fxcc = f(xcc)
            if fxcc < fsim[-1]:
                sim[-1], fsim[-1] = xcc, fxcc
            else:
                shrink = True
        if shrink:
            for j in range(1, n + 1):
                sim[j] = [b + 0.5 * (v - b) for b, v in zip(best, sim[j])]
                fsim[j] = f(sim[j])
        nit += 1
        sim, fsim = _by_value(sim, fsim)
    return _Minimum(sim[0], float(np.min(fsim)), nit, nfev, nit < maxiter)


def arima_fit(values: np.ndarray, spec: ArimaSpec) -> ArimaModel:
    values = np.asarray(values, dtype=float)
    p, d, q = spec.p, spec.d, spec.q

    levels = [values]
    for _ in range(d):
        levels.append(np.diff(levels[-1]))
    w = levels[-1]
    if len(w) < max(p, q) + 3:
        raise DataError(
            f"need >= {max(p, q) + 3} points after differencing, got {len(w)}"
        )

    has_intercept = d == 0
    n_params = p + q + (1 if has_intercept else 0)
    series = w.tolist()

    def css(x: list[float]) -> float:
        c = x[p + q] if has_intercept else 0.0
        return _sum_squares(css_residuals(series, x[:p], x[p:p + q], c)[p:])

    x: list[float] = []
    converged = True
    iterations = 0
    if n_params:
        x0 = [0.1] * (p + q) + ([float(np.mean(w))] if has_intercept else [])
        result = _nelder_mead(css, x0, xatol=1e-8, fatol=1e-10,
                              maxiter=500 * max(1, n_params))
        x, converged, iterations = result.x, result.success, result.nit
        if not converged:
            warnings.warn(f"ARIMA{(p, d, q)} CSS search did not converge; "
                          "returning best point found")
    phi, theta = np.array(x[:p], dtype=float), np.array(x[p:p + q], dtype=float)
    intercept = x[p + q] if has_intercept else 0.0
    # the variance from the residuals at x, not from the search's minimum,
    # which is NaN when the simplex holds a NaN
    residuals = css_residuals(series, x[:p], x[p:p + q], intercept)
    residual_variance = _sum_squares(residuals[p:]) / max(1, len(w) - p)

    stationary = True
    if p > 0 and np.any(np.abs(phi) > 0):
        roots = np.roots(np.r_[-phi[::-1], 1.0])
        stationary = bool(np.all(np.abs(roots) > 1.0 + 1e-9)) if roots.size else True
        if not stationary:
            warnings.warn(f"fitted AR polynomial of ARIMA{(p, d, q)} is not stationary")

    return ArimaModel(
        spec=spec,
        ar_coeffs=phi,
        ma_coeffs=theta,
        intercept=float(intercept),
        residual_variance=residual_variance,
        fitted_values=w,
        residuals=residuals,
        last_observations=[float(lvl[-1]) for lvl in levels[:-1]],
        converged=converged,
        stationary=stationary,
        iterations=iterations,
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


def arima_forecast(model: ArimaModel, horizon: int) -> list[tuple[float, float, float]]:
    """``(point, lower, upper)`` of each of the next ``horizon`` steps, the
    bounds a 95% Gaussian interval."""
    if horizon < 1:
        raise ConfigError("horizon must be >= 1")
    p, q = model.spec.p, model.spec.q
    w, e = model.fitted_values, model.residuals
    n = len(w)
    extended = list(w)
    for t in range(n, n + horizon):
        pred = model.intercept
        for i in range(1, p + 1):
            pred += model.ar_coeffs[i - 1] * extended[t - i]
        for j in range(1, q + 1):
            if t - j < n:  # unobserved future shocks are zero
                pred += model.ma_coeffs[j - 1] * e[t - j]
        extended.append(pred)

    # reverse the d-fold differencing from the last value of each level
    preds = extended[n:]
    for last in reversed(model.last_observations):
        preds = list(accumulate(preds, initial=last))[1:]

    psi = psi_weights(model, horizon)
    half = 1.96 * np.sqrt(model.residual_variance * np.cumsum(psi ** 2))
    return [(float(v), float(v - hw), float(v + hw)) for v, hw in zip(preds, half)]
