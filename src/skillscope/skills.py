"""Per-posting skill-category detection and rate aggregation by year or by
(sector, year).

Rates are posting-level incidence per 1,000 postings: a category counts once
per posting regardless of how many of its phrases match.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, TypeVar

from .cleanse import Posting
from .taxonomy import SKILL_CATEGORIES, CompiledMatcher

K = TypeVar("K")  # a rate table's key: a year, or a (sector, year) pair


@dataclass(frozen=True)
class SkillFlags:
    posting_id: str
    flags: dict[str, bool]


@dataclass(frozen=True)
class YearlyRates:
    year: int
    postings_count: int
    rate: dict[str, float]


def detect_skills(posting: Posting, matcher: CompiledMatcher) -> SkillFlags:
    labels = matcher.match_labels(posting.description)
    return SkillFlags(
        posting_id=posting.id,
        flags={cat: cat in labels for cat in SKILL_CATEGORIES},
    )


def aggregate_rates(keyed: Iterable[tuple[SkillFlags, K]]) -> list[tuple[K, int, dict[str, float]]]:
    """(key, postings, rate per 1,000 by category) for each key present,
    keys ascending; the numerator counts postings that carry the category."""
    totals: dict[K, int] = {}
    hits: dict[K, dict[str, float]] = {}
    for flags, key in keyed:
        totals[key] = totals.get(key, 0) + 1
        bucket = hits.setdefault(key, {c: 0.0 for c in SKILL_CATEGORIES})
        for cat in SKILL_CATEGORIES:
            if flags.flags[cat]:
                bucket[cat] += 1
    return [(key, n, {c: 1000.0 * hits[key][c] / n for c in SKILL_CATEGORIES})
            for key, n in sorted(totals.items())]


def aggregate_yearly(flagged: Iterable[tuple[SkillFlags, int]]) -> list[YearlyRates]:
    """One YearlyRates per year present, ascending."""
    return [YearlyRates(year, n, rate) for year, n, rate in aggregate_rates(flagged)]
