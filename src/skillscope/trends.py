"""Temporal trend machinery: exponential smoothing, forecast orchestration,
the inter-category Pearson matrix, sector classification and the (sector,
year) rate table, which ``skills.rate_table`` builds.

The smoothed ARIMA(1,1,1) path smooths the series before fitting; the
ARIMA(2,0,2) path fits the raw series. Annual series of eight points are
statistically fragile for (2,0,2); a short-series warning is attached.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .arima import ArimaModel, ArimaSpec, arima_fit, arima_forecast
from .cleanse import Posting
from .errors import ConfigError
from .skills import rate_table
from .taxonomy import SKILL_CATEGORIES, CompiledMatcher, SectorLexicon
from .text import tokenize

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
    label: tuple
    spec: ArimaSpec
    history: RateSeries
    horizon: int
    forecasts: list[tuple[int, float, float, float]]  # (year, point, lower, upper)
    model: ArimaModel | None = None
    short_series: bool = False


@dataclass
class CorrelationMatrix:
    labels: tuple[str, ...]
    entries: np.ndarray  # NaN marks undefined (zero-variance) pairs

    def off_diagonal_extremes(self) -> tuple[float, float]:
        n = len(self.labels)
        vals = [self.entries[i, j] for i in range(n) for j in range(n)
                if i != j and not math.isnan(self.entries[i, j])]
        return (min(vals), max(vals)) if vals else (math.nan, math.nan)


def exp_smooth(values, alpha: float):
    """s1 = x1; s_t = alpha*x_t + (1-alpha)*s_{t-1}."""
    if not (0 < alpha <= 1):
        raise ConfigError("alpha must be in (0,1]")
    values = list(values)
    if not values:
        raise ConfigError("cannot smooth an empty series")
    out = [float(values[0])]
    for x in values[1:]:
        out.append(alpha * float(x) + (1 - alpha) * out[-1])
    return out


def smooth_series(series: RateSeries, alpha: float) -> RateSeries:
    smoothed = exp_smooth([r for _, r in series.points], alpha)
    return RateSeries(label=series.label,
                      points=tuple(zip(series.years, smoothed)))


def forecast_series(series: RateSeries, spec: ArimaSpec, horizon: int = 2) -> ForecastSeries:
    """Fit and forecast one rate series, smoothing first when the spec
    carries a smoothing alpha."""
    fit_on = series if spec.smoothing_alpha is None else smooth_series(series, spec.smoothing_alpha)
    short = len(series.points) < SHORT_SERIES_THRESHOLD and (spec.p + spec.q) >= 3
    if short:
        warnings.warn(
            f"series {series.label} has only {len(series.points)} points; "
            f"ARIMA({spec.p},{spec.d},{spec.q}) estimates will be fragile"
        )
    model = arima_fit(fit_on.values, spec)
    fc = arima_forecast(model, horizon, last_year=series.years[-1])
    return ForecastSeries(
        label=series.label,
        spec=spec,
        history=series,
        horizon=horizon,
        forecasts=list(zip(fc.years, fc.point, fc.lower, fc.upper)),
        model=model,
        short_series=short,
    )


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


def pearson_matrix(series_by_category: dict[str, RateSeries]) -> CorrelationMatrix:
    labels = tuple(SKILL_CATEGORIES)
    missing = [c for c in labels if c not in series_by_category]
    if missing:
        raise ConfigError(f"missing series for categories {missing}")
    year_sets = {tuple(s.years) for s in series_by_category.values()}
    if len(year_sets) != 1:
        raise ConfigError("all five series must share the same year set")
    if len(next(iter(year_sets))) < 3:
        raise ConfigError("need at least 3 shared time points")
    n = len(labels)
    entries = np.eye(n)
    for i in range(n):
        for j in range(i + 1, n):
            r = pearson_r(series_by_category[labels[i]].values,
                          series_by_category[labels[j]].values)
            entries[i, j] = entries[j, i] = r
    return CorrelationMatrix(labels=labels, entries=entries)


def classify_sector(posting: Posting, lex: SectorLexicon,
                    matcher: CompiledMatcher | None = None,
                    tokens: list[str] | None = None) -> str | None:
    """Sector with the most distinct trigger hits; ties go to the earlier
    sector in the lexicon's priority order; no hits -> None. ``tokens``,
    when given, is the tokenized description."""
    matcher = matcher if matcher is not None else CompiledMatcher.from_sectors(lex)
    hits = matcher.match_hits(posting.description, tokens)
    if not hits:
        return None
    rank = {name: i for i, name in enumerate(lex.priority)}
    best = min(hits, key=lambda s: (-len(hits[s]), rank[s]))
    return best


def sector_rates(years: Iterable[int],
                 flags: Iterable[tuple[str | None, Sequence[float]]]) -> list[list]:
    """``[sector, year, postings, rate per 1,000 by category]`` for each
    sector-year present, ascending, from each posting's year and its
    ``(sector, per-mille flags)``, in the same order. Postings with no sector
    are excluded.
    """
    return rate_table(((sector, year), values)
                      for year, (sector, values) in zip(years, flags) if sector is not None)


def sector_totals(postings, lex: SectorLexicon, tokens=None) -> dict[str, str | None]:
    """Sector of each posting id, ``None`` where no trigger matches.
    ``tokens``, when given, yields each posting's tokenized description in
    turn, so a caller can tokenize each posting once for several matchers
    without holding every token list at once."""
    matcher = CompiledMatcher.from_sectors(lex)
    if tokens is None:
        tokens = (tokenize(p.description) for p in postings)
    return {p.id: classify_sector(p, lex, matcher, toks)
            for p, toks in zip(postings, tokens, strict=True)}
