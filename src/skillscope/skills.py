"""Per-posting skill-category detection and yearly rate aggregation.

Rates are posting-level incidence per 1,000 postings: a category counts once
per posting regardless of how many of its phrases match.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .cleanse import Posting
from .taxonomy import SKILL_CATEGORIES, CompiledMatcher


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


def aggregate_yearly(flagged: Iterable[tuple[SkillFlags, int]]) -> list[YearlyRates]:
    """One YearlyRates per year present, ascending; the numerator counts
    postings that carry the category."""
    totals: dict[int, int] = {}
    hits: dict[int, dict[str, float]] = {}
    for flags, year in flagged:
        totals[year] = totals.get(year, 0) + 1
        bucket = hits.setdefault(year, {c: 0.0 for c in SKILL_CATEGORIES})
        for cat in SKILL_CATEGORIES:
            if flags.flags[cat]:
                bucket[cat] += 1
    out = []
    for year in sorted(totals):
        n = totals[year]
        out.append(YearlyRates(
            year=year,
            postings_count=n,
            rate={c: 1000.0 * hits[year][c] / n for c in SKILL_CATEGORIES},
        ))
    return out
