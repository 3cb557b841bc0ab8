"""Per-posting skill-category detection, and ``rate_table``, which builds
every per-group table of the pipeline: skill rates by year and by (sector,
year), and framing means by year and by (year, sector).

A rate is posting-level incidence per 1,000 postings: a category counts once
per posting regardless of how many of its phrases match, so a posting
contributes 1000.0 or 0.0 to each category and the group mean is the rate.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

from .cleanse import Posting
from .taxonomy import SKILL_CATEGORIES, CompiledMatcher


def detect_skills(posting: Posting, matcher: CompiledMatcher,
                  tokens: list[str] | None = None) -> dict[str, bool]:
    """Whether each category matches the posting's description, in
    category order; ``tokens``, when given, is the tokenized description."""
    hits = matcher.match_hits(posting.description, tokens)
    return {cat: cat in hits for cat in SKILL_CATEGORIES}


def per_mille(flags: Mapping[str, bool]) -> list[float]:
    """A posting's contribution to the rate of each category, in order."""
    return [1000.0 if flags[cat] else 0.0 for cat in SKILL_CATEGORIES]


def rate_table(keyed: Iterable[tuple[tuple, Sequence[float]]]) -> list[list]:
    """One row ``[*key, n, *means]`` for each key present, keys ascending,
    from ``(key, values)`` pairs: each mean adds its group's values in input
    order, starting from 0.0, and divides by the group's n."""
    counts: dict[tuple, int] = {}
    sums: dict[tuple, list[float]] = {}
    for key, values in keyed:
        counts[key] = counts.get(key, 0) + 1
        sums[key] = [s + v for s, v in zip(sums.get(key) or [0.0] * len(values), values)]
    return [[*key, n, *(s / n for s in sums[key])] for key, n in sorted(counts.items())]
