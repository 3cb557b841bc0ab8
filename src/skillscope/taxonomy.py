"""Lexical resources: five-category skill taxonomy, framing anchor groups and
the nine-sector trigger vocabulary, plus the token-based phrase matcher.

Lexicons are data, not code: defaults ship as JSON files under
skillscope/data and can be replaced wholesale. A loader checks its whole file
with the type rule of ``skillscope.config`` (the field tables below), and
``RunConfig`` loads all three before any stage runs. In each file every named
group (skill category, anchor group or sector) is present and non-empty and
no other group is; every phrase is a non-empty string that yields at least
one token; and no phrase is in two groups. Entries beyond the documented core
terms carry "extended": true so they are distinguishable padding; the key is
type-checked and not otherwise read.
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import resources
from pathlib import Path

from .config import REQUIRED, check_fields, read_json
from .errors import ConfigError
from .text import tokenize

SKILL_CATEGORIES = ("AI_Data", "Routine", "Soft_Meta", "Domain_Specific", "Leadership")
SECTOR_NAMES = ("IT", "Healthcare", "Legal", "Education", "Design",
                "Finance", "Logistics", "Sales", "Management")
ANCHOR_GROUPS = ("ai_anchors", "augment_anchors", "automate_anchors")

# Each key of a lexicon object: (type, default, lowest value), as in run.json.
# The anchors file's top level is its three groups.
TAXONOMY_FIELDS = {"version": (str, None, None), "categories": (dict, REQUIRED, None)}
SKILL_FIELDS = {"surface": (str, REQUIRED, None), "variants": (list[str], [], None),
                "extended": (bool, False, None)}
# a phrase entry is a string or an object of these keys
PHRASE_FIELDS = {"phrase": (str, REQUIRED, None), "extended": (bool, False, None)}
SECTOR_FIELDS = {"priority": (list[str], REQUIRED, None), "sectors": (dict, REQUIRED, None)}


def default_path(name: str) -> Path:
    return Path(str(resources.files("skillscope.data").joinpath(f"{name}.json")))


@dataclass(frozen=True)
class SkillPattern:
    surface: str
    variants: tuple[str, ...] = ()

    def phrases(self) -> tuple[str, ...]:
        return (self.surface,) + self.variants


@dataclass
class SkillTaxonomy:
    categories: dict[str, list[SkillPattern]]


@dataclass
class AnchorSet:
    ai_anchors: list[str]
    augment_anchors: list[str]
    automate_anchors: list[str]


@dataclass
class SectorLexicon:
    sectors: dict[str, list[str]]
    priority: list[str]


def phrase_tokens(phrase: str, where: str = "pattern") -> tuple[str, ...]:
    toks = tuple(tokenize(phrase))
    if not toks:
        raise ConfigError(
            f"cannot compile pattern {phrase!r}: {where} has no tokens after tokenization")
    return toks


def _skill(entry, where: str) -> tuple[SkillPattern, tuple[str, ...]]:
    e = check_fields(entry, SKILL_FIELDS, where)
    if e["surface"] in e["variants"]:
        raise ConfigError(f"{where}: variant equals surface")
    pattern = SkillPattern(e["surface"], tuple(e["variants"]))
    return pattern, pattern.phrases()


def _phrase(entry, where: str) -> tuple[str, tuple[str, ...]]:
    if isinstance(entry, dict):
        entry = check_fields(entry, PHRASE_FIELDS, where)["phrase"]
    elif not isinstance(entry, str):
        raise ConfigError(f"{where} must be a phrase string or a JSON object, got {entry!r}")
    return entry, (entry,)


def _groups(obj, names: tuple[str, ...], entry, where: str) -> dict[str, list]:
    """Each group named in ``names`` of JSON object ``obj``, as the list of
    the values ``entry(item, where)`` returns for its items; ``entry`` also
    returns each item's phrases, which are checked here."""
    groups = check_fields(obj, {name: (list, REQUIRED, None) for name in names}, where)
    seen: dict[str, str] = {}
    parsed = {}
    for name in names:
        if not groups[name]:
            raise ConfigError(f"{where}: {name!r} is empty")
        parsed[name] = []
        for i, item in enumerate(groups[name]):
            at = f"{where}: {name}[{i}]"
            value, phrases = entry(item, at)
            for phrase in phrases:
                if not phrase:
                    raise ConfigError(f"{at}: empty phrase")
                phrase_tokens(phrase, at)
                if seen.setdefault(phrase, name) != name:
                    raise ConfigError(
                        f"{where}: {phrase!r} appears in both {seen[phrase]} and {name}")
            parsed[name].append(value)
    return parsed


def load_taxonomy(path: str | Path | None = None) -> SkillTaxonomy:
    path = path or default_path("taxonomy")
    doc = check_fields(read_json(path, "lexicon"), TAXONOMY_FIELDS, str(path))
    return SkillTaxonomy(_groups(doc["categories"], SKILL_CATEGORIES, _skill,
                                 f"{path}: categories"))


def load_anchors(path: str | Path | None = None) -> AnchorSet:
    path = path or default_path("anchors")
    return AnchorSet(**_groups(read_json(path, "lexicon"), ANCHOR_GROUPS, _phrase, str(path)))


def load_sectors(path: str | Path | None = None) -> SectorLexicon:
    path = path or default_path("sectors")
    doc = check_fields(read_json(path, "lexicon"), SECTOR_FIELDS, str(path))
    if sorted(doc["priority"]) != sorted(SECTOR_NAMES):
        raise ConfigError(f"{path}: priority must be a total order over the nine sectors")
    return SectorLexicon(_groups(doc["sectors"], SECTOR_NAMES, _phrase, f"{path}: sectors"),
                         doc["priority"])


class CompiledMatcher:
    """Token-contiguous phrase matcher, case-insensitive and word-bounded.

    Phrases and documents pass through the shared tokenizer, so "data entry"
    matches "daily data entry tasks" but never "database entry-level", and
    tokens like "c++" survive intact. Immutable after construction.
    """

    def __init__(self, patterns: dict[str, list[str]]):
        # first token -> [(token tuple, label, phrase)]
        self._index: dict[str, list[tuple[tuple[str, ...], str, str]]] = {}
        self.labels = tuple(patterns)
        for label, phrases in patterns.items():
            for phrase in phrases:
                toks = phrase_tokens(phrase)
                self._index.setdefault(toks[0], []).append((toks, label, phrase))

    @classmethod
    def from_taxonomy(cls, tax: SkillTaxonomy) -> "CompiledMatcher":
        return cls({cat: [ph for p in pats for ph in p.phrases()]
                    for cat, pats in tax.categories.items()})

    @classmethod
    def from_sectors(cls, lex: SectorLexicon) -> "CompiledMatcher":
        return cls({name: list(phrases) for name, phrases in lex.sectors.items()})

    def match_hits(self, text: str, tokens: list[str] | None = None) -> dict[str, set[str]]:
        """Map label -> set of matched phrases (distinct phrases, not counts).
        ``tokens``, when given, is ``tokenize(text)`` already computed."""
        if tokens is None:
            tokens = tokenize(text)
        hits: dict[str, set[str]] = {}
        n = len(tokens)
        index = self._index
        for i, tok in enumerate(tokens):
            for toks, label, phrase in index.get(tok, ()):
                if n - i >= len(toks) and tuple(tokens[i:i + len(toks)]) == toks:
                    hits.setdefault(label, set()).add(phrase)
        return hits

    def match_labels(self, text: str, tokens: list[str] | None = None) -> set[str]:
        return set(self.match_hits(text, tokens))
