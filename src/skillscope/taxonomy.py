"""Lexical resources: five-category skill taxonomy, framing anchor groups and
the nine-sector trigger vocabulary, plus the token-based phrase matcher.

Lexicons are data, not code: defaults ship as JSON files under
skillscope/data and can be replaced wholesale. Entries beyond the documented
core terms carry "extended": true so they are distinguishable padding.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

from .errors import DuplicatePatternError, EmptyCategoryError, PatternCompileError, SchemaError
from .text import tokenize

SKILL_CATEGORIES = ("AI_Data", "Routine", "Soft_Meta", "Domain_Specific", "Leadership")
SECTOR_NAMES = ("IT", "Healthcare", "Legal", "Education", "Design",
                "Finance", "Logistics", "Sales", "Management")
ANCHOR_GROUPS = ("ai_anchors", "augment_anchors", "automate_anchors")


def default_path(name: str) -> Path:
    return Path(str(resources.files("skillscope.data").joinpath(f"{name}.json")))


@dataclass(frozen=True)
class SkillPattern:
    surface: str
    variants: tuple[str, ...] = ()
    extended: bool = False

    def phrases(self) -> tuple[str, ...]:
        return (self.surface,) + self.variants


@dataclass
class SkillTaxonomy:
    categories: dict[str, list[SkillPattern]]
    version: str = "1.0"

    def to_dict(self) -> dict:
        return {
            "version": self.version,
            "categories": {
                cat: [
                    {
                        "surface": p.surface,
                        **({"variants": list(p.variants)} if p.variants else {}),
                        **({"extended": True} if p.extended else {}),
                    }
                    for p in pats
                ]
                for cat, pats in self.categories.items()
            },
        }


@dataclass
class AnchorSet:
    ai_anchors: list[str]
    augment_anchors: list[str]
    automate_anchors: list[str]
    extended: dict[str, list[str]] = field(default_factory=dict)

    def to_dict(self) -> dict:
        def group(name, phrases):
            ext = set(self.extended.get(name, []))
            return [p if p not in ext else {"phrase": p, "extended": True} for p in phrases]

        return {name: group(name, getattr(self, name)) for name in ANCHOR_GROUPS}


@dataclass
class SectorLexicon:
    sectors: dict[str, list[str]]
    priority: list[str]
    extended: dict[str, list[str]] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "priority": list(self.priority),
            "sectors": {
                name: [
                    p if p not in set(self.extended.get(name, []))
                    else {"phrase": p, "extended": True}
                    for p in phrases
                ]
                for name, phrases in self.sectors.items()
            },
        }


def _read_json(path: str | Path, known: set[str]) -> dict:
    """A lexicon file's top-level object; unknown keys are rejected."""
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as e:
        raise SchemaError(f"cannot load lexicon {path}: {e}") from e
    if not isinstance(doc, dict):
        raise SchemaError(f"{path}: must be a JSON object")
    unknown = set(doc) - known
    if unknown:
        raise SchemaError(f"{path}: unknown keys {sorted(unknown)}")
    return doc


def _phrase_entry(entry, where: str) -> tuple[str, bool]:
    if isinstance(entry, str):
        phrase, extended = entry, False
    elif isinstance(entry, dict) and isinstance(entry.get("phrase"), str):
        phrase, extended = entry["phrase"], bool(entry.get("extended", False))
    else:
        raise SchemaError(f"{where}: entry must be a string or {{phrase, extended}}, got {entry!r}")
    if not phrase:
        raise SchemaError(f"{where}: empty phrase")
    return phrase, extended


def load_taxonomy(path: str | Path | None = None) -> SkillTaxonomy:
    path = path or default_path("taxonomy")
    doc = _read_json(path, {"version", "categories"})
    cats = doc.get("categories")
    if not isinstance(cats, dict):
        raise SchemaError(f"{path}: missing 'categories' object")
    missing = [c for c in SKILL_CATEGORIES if c not in cats]
    if missing:
        raise SchemaError(f"{path}: missing categories {missing}")
    extra = [c for c in cats if c not in SKILL_CATEGORIES]
    if extra:
        raise SchemaError(f"{path}: unknown categories {extra}")

    categories: dict[str, list[SkillPattern]] = {}
    seen: dict[str, str] = {}
    for cat in SKILL_CATEGORIES:
        pats = []
        entries = cats[cat]
        if not isinstance(entries, list) or not entries:
            raise EmptyCategoryError(f"{path}: category {cat!r} is empty")
        for i, entry in enumerate(entries):
            where = f"{cat}[{i}]"
            if not isinstance(entry, dict) or not isinstance(entry.get("surface"), str):
                raise SchemaError(f"{path}: {where}: expected object with 'surface'")
            surface = entry["surface"]
            if not surface:
                raise SchemaError(f"{path}: {where}: empty surface")
            variants = tuple(entry.get("variants", []))
            if surface in variants:
                raise SchemaError(f"{path}: {where}: variant equals surface")
            for phrase in (surface,) + variants:
                if phrase in seen and seen[phrase] != cat:
                    raise DuplicatePatternError(
                        f"{path}: {phrase!r} appears in both {seen[phrase]} and {cat} ({where})"
                    )
                seen[phrase] = cat
            pats.append(SkillPattern(surface, variants, bool(entry.get("extended", False))))
        categories[cat] = pats
    return SkillTaxonomy(categories=categories, version=str(doc.get("version", "1.0")))


def load_anchors(path: str | Path | None = None) -> AnchorSet:
    path = path or default_path("anchors")
    doc = _read_json(path, set(ANCHOR_GROUPS))
    groups: dict[str, list[str]] = {}
    extended: dict[str, list[str]] = {}
    for key in ANCHOR_GROUPS:
        entries = doc.get(key)
        if not isinstance(entries, list) or not entries:
            raise SchemaError(f"{path}: {key} must be a non-empty list")
        phrases, ext = [], []
        for i, entry in enumerate(entries):
            phrase, is_ext = _phrase_entry(entry, f"{key}[{i}]")
            phrases.append(phrase)
            if is_ext:
                ext.append(phrase)
        groups[key] = phrases
        extended[key] = ext
    for a, b in (("ai_anchors", "augment_anchors"),
                 ("ai_anchors", "automate_anchors"),
                 ("augment_anchors", "automate_anchors")):
        overlap = set(groups[a]) & set(groups[b])
        if overlap:
            raise DuplicatePatternError(f"{path}: {sorted(overlap)} in both {a} and {b}")
    return AnchorSet(**groups, extended=extended)


def load_sectors(path: str | Path | None = None) -> SectorLexicon:
    path = path or default_path("sectors")
    doc = _read_json(path, {"priority", "sectors"})
    sectors_doc = doc.get("sectors")
    if not isinstance(sectors_doc, dict):
        raise SchemaError(f"{path}: missing 'sectors' object")
    missing = [s for s in SECTOR_NAMES if s not in sectors_doc]
    if missing:
        raise SchemaError(f"{path}: missing sectors {missing}")
    extra = [s for s in sectors_doc if s not in SECTOR_NAMES]
    if extra:
        raise SchemaError(f"{path}: unknown sectors {extra}")
    priority = doc.get("priority")
    if not isinstance(priority, list) or sorted(priority) != sorted(SECTOR_NAMES):
        raise SchemaError(f"{path}: priority must be a total order over the nine sectors")
    sectors: dict[str, list[str]] = {}
    extended: dict[str, list[str]] = {}
    for name in SECTOR_NAMES:
        entries = sectors_doc[name]
        if not isinstance(entries, list) or not entries:
            raise EmptyCategoryError(f"{path}: sector {name!r} has no triggers")
        phrases, ext = [], []
        for i, entry in enumerate(entries):
            phrase, is_ext = _phrase_entry(entry, f"{name}[{i}]")
            phrases.append(phrase)
            if is_ext:
                ext.append(phrase)
        sectors[name] = phrases
        extended[name] = ext
    return SectorLexicon(sectors=sectors, priority=list(priority), extended=extended)


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
                toks = tuple(tokenize(phrase))
                if not toks:
                    raise PatternCompileError(phrase, "no tokens after tokenization")
                self._index.setdefault(toks[0], []).append((toks, label, phrase))

    @classmethod
    def from_taxonomy(cls, tax: SkillTaxonomy) -> "CompiledMatcher":
        return cls({cat: [ph for p in pats for ph in p.phrases()]
                    for cat, pats in tax.categories.items()})

    @classmethod
    def from_sectors(cls, lex: SectorLexicon) -> "CompiledMatcher":
        return cls({name: list(phrases) for name, phrases in lex.sectors.items()})

    def match_hits(self, text: str) -> dict[str, set[str]]:
        """Map label -> set of matched phrases (distinct phrases, not counts)."""
        tokens = tokenize(text)
        hits: dict[str, set[str]] = {}
        n = len(tokens)
        index = self._index
        for i, tok in enumerate(tokens):
            for toks, label, phrase in index.get(tok, ()):
                if n - i >= len(toks) and tuple(tokens[i:i + len(toks)]) == toks:
                    hits.setdefault(label, set()).add(phrase)
        return hits

    def match_labels(self, text: str) -> set[str]:
        return set(self.match_hits(text))
