"""Temporal trend machinery: exponential smoothing, forecast orchestration,
the inter-category Pearson matrix, sector classification and the (sector,
year) rate table, which ``skills.rate_table`` builds.

``sector_totals`` gives each posting, in order, the sector of its own text:
the sector matcher's group with the most distinct trigger hits, a tie going
to the group the matcher lists first, which is the lexicon's priority order.

``forecast_series`` fits an ARIMA order to a series, smoothed first by
``exp_smooth`` when it is given an alpha. Annual series of eight points are
statistically fragile for (2,0,2); a short-series warning is attached. A
series with a forecast point outside [0, 1000], a rate no group can have,
warns once, naming its first such year.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from itertools import pairwise
from typing import Iterable, Sequence

import numpy as np

from .arima import ArimaModel, ArimaSpec, arima_fit, arima_forecast
from .cleanse import Posting
from .errors import ConfigError, DataError
from .skills import rate_table
from .taxonomy import SKILL_CATEGORIES, CompiledMatcher

SHORT_SERIES_THRESHOLD = 12


@dataclass(frozen=True)
class RateSeries:
    label: tuple  # (category,)
    points: tuple[tuple[int, float], ...]  # (year, rate per 1,000), ascending

    def __post_init__(self):
        years = [y for y, _ in self.points]
        if years != sorted(set(years)):
            raise ConfigError(f"series {self.label}: years must be strictly increasing")
        for y, r in self.points:
            if not (0.0 <= r <= 1000.0):
                raise ConfigError(f"series {self.label}: rate {r} at {y} out of [0,1000]")

    @property
    def years(self) -> list[int]:
        return [y for y, _ in self.points]

    @property
    def values(self) -> np.ndarray:
        return np.array([r for _, r in self.points])


@dataclass
class ForecastSeries:
    forecasts: list[tuple[int, float, float, float]]  # (year, point, lower, upper)
    model: ArimaModel
    short_series: bool


def check_alpha(alpha: float, name: str = "alpha") -> None:
    """ConfigError naming ``name`` unless the smoothing alpha is in (0, 1]."""
    if not (0 < alpha <= 1):
        raise ConfigError(f"{name} must be in (0,1], got {alpha!r}")


def exp_smooth(values, alpha: float):
    """s1 = x1; s_t = alpha*x_t + (1-alpha)*s_{t-1}."""
    check_alpha(alpha)
    values = list(values)
    if not values:
        raise ConfigError("cannot smooth an empty series")
    out = [float(values[0])]
    for x in values[1:]:
        out.append(alpha * float(x) + (1 - alpha) * out[-1])
    return out


def forecast_series(series: RateSeries, spec: ArimaSpec, horizon: int = 2,
                    smoothing_alpha: float | None = None) -> ForecastSeries:
    """Fit and forecast one rate series, first smoothed with ``exp_smooth``
    when ``smoothing_alpha`` is given; DataError if its years are not
    consecutive, since the fit takes each point as the next step."""
    for year, following in pairwise(series.years):
        if following != year + 1:
            raise DataError(f"series {series.label}: years {year} and {following} "
                            "are not consecutive")
    values = (series.values if smoothing_alpha is None
              else exp_smooth(series.values, smoothing_alpha))
    short = len(series.points) < SHORT_SERIES_THRESHOLD and (spec.p + spec.q) >= 3
    if short:
        warnings.warn(
            f"series {series.label} has only {len(series.points)} points; "
            f"ARIMA({spec.p},{spec.d},{spec.q}) estimates will be fragile"
        )
    model = arima_fit(values, spec)
    forecasts = [(year, *step) for year, step in
                 enumerate(arima_forecast(model, horizon), series.years[-1] + 1)]
    for year, point, _, _ in forecasts:
        if not 0.0 <= point <= 1000.0:
            warnings.warn(f"series {series.label}: ARIMA({spec.p},{spec.d},{spec.q}) "
                          f"forecasts {point} per 1,000 for {year}, outside [0, 1000]")
            break
    return ForecastSeries(forecasts, model, short)


def pearson_r(x: np.ndarray, y: np.ndarray) -> float:
    """Textbook Pearson r; NaN when either series has zero variance."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    xc = x - x.mean()
    yc = y - y.mean()
    sx = float((xc ** 2).sum())
    sy = float((yc ** 2).sum())
    if sx == 0.0 or sy == 0.0:
        return math.nan
    r = float((xc * yc).sum()) / math.sqrt(sx * sy)
    return max(-1.0, min(1.0, r))


def pearson_matrix(series_by_category: dict[str, RateSeries]) -> np.ndarray:
    """Pearson r of each pair of categories, rows and columns in
    ``SKILL_CATEGORIES`` order; NaN marks an undefined (zero-variance) pair,
    the diagonal of a series that never changes too."""
    missing = [c for c in SKILL_CATEGORIES if c not in series_by_category]
    if missing:
        raise ConfigError(f"missing series for categories {missing}")
    year_sets = {tuple(s.years) for s in series_by_category.values()}
    if len(year_sets) != 1:
        raise ConfigError("all five series must share the same year set")
    if len(next(iter(year_sets))) < 3:
        raise ConfigError("need at least 3 shared time points")
    values = [series_by_category[c].values for c in SKILL_CATEGORIES]
    n = len(values)
    entries = np.empty((n, n))
    for i in range(n):
        for j in range(i, n):
            r = pearson_r(values[i], values[j])
            if i == j and not math.isnan(r):
                r = 1.0  # exactly, not r's rounding
            entries[i, j] = entries[j, i] = r
    return entries


def classify_sector(posting: Posting, matcher: CompiledMatcher,
                    tokens: list[str]) -> str | None:
    """Sector with the most distinct trigger hits in ``tokens``, the
    posting's tokenized description; ties go to the sector ``matcher`` lists
    first; no hits -> None."""
    hits = matcher.match_hits(posting.description, tokens)
    best = max(matcher.labels, key=lambda s: len(hits.get(s, ())))
    return best if best in hits else None


def sector_rates(years: Iterable[int],
                 flags: Iterable[tuple[str | None, Sequence[float]]]) -> list[list]:
    """``[sector, year, postings, rate per 1,000 by category]`` for each
    sector-year present, ascending, from each posting's year and its
    ``(sector, per-mille flags)``, in the same order. Postings with no sector
    are excluded.
    """
    return rate_table(((sector, year), values)
                      for year, (sector, values) in zip(years, flags) if sector is not None)


def sector_totals(postings: Sequence[Posting], matcher: CompiledMatcher,
                  tokens: Iterable[list[str]]) -> list[str | None]:
    """The sector of each posting, in order, ``None`` where no trigger
    matches; ``tokens`` holds each posting's tokenized description, so a
    caller tokenizes each posting once for several matchers. A posting's
    sector depends on its own text alone, never on its id."""
    return [classify_sector(p, matcher, toks) for p, toks in zip(postings, tokens, strict=True)]
