"""Lexical resources: five-category skill taxonomy, framing anchor groups and
the nine-sector trigger vocabulary, plus the token-based phrase matcher.

Lexicons are data, not code: defaults ship as JSON files under
skillscope/data and can be replaced wholesale. A loader checks its whole file
with the type rule of ``skillscope.config`` (the field tables below), and
``RunConfig`` loads all three before any stage runs. Each loader returns its
lexicon as named groups of phrases, ``{group: [phrase, ...]}``, phrases in
file order: a skill category's surfaces with their variants, an anchor
group's anchors, a sector's triggers, the sectors keyed in the file's
``priority`` order. In each file every named group (skill category, anchor
group or sector) is present and non-empty and no other group is; every phrase
is a non-empty string that yields at least one token; and no two phrases have
the same tokens, in one group or in two, since the matcher could not tell
them apart. Entries beyond the documented core terms carry "extended": true
so they are distinguishable padding; the key is type-checked and not
otherwise read.
"""

from __future__ import annotations

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


def phrase_tokens(phrase: str, where: str = "pattern") -> tuple[str, ...]:
    toks = tuple(tokenize(phrase))
    if not toks:
        raise ConfigError(
            f"cannot compile pattern {phrase!r}: {where} has no tokens after tokenization")
    return toks


def _skill(entry, where: str) -> list[str]:
    e = check_fields(entry, SKILL_FIELDS, where)
    return [e["surface"], *e["variants"]]


def _phrase(entry, where: str) -> list[str]:
    if isinstance(entry, dict):
        entry = check_fields(entry, PHRASE_FIELDS, where)["phrase"]
    elif not isinstance(entry, str):
        raise ConfigError(f"{where} must be a phrase string or a JSON object, got {entry!r}")
    return [entry]


def _groups(obj, names: tuple[str, ...], entry, where: str) -> dict[str, list[str]]:
    """Each group named in ``names`` of JSON object ``obj``, as the phrases
    ``entry(item, where)`` returns for its items, in order."""
    groups = check_fields(obj, {name: (list, REQUIRED, None) for name in names}, where)
    seen: dict[tuple[str, ...], tuple[str, str]] = {}  # tokens -> (group, phrase)
    parsed = {}
    for name in names:
        if not groups[name]:
            raise ConfigError(f"{where}: {name!r} is empty")
        parsed[name] = []
        for i, item in enumerate(groups[name]):
            at = f"{where}: {name}[{i}]"
            for phrase in entry(item, at):
                if not phrase:
                    raise ConfigError(f"{at}: empty phrase")
                toks = phrase_tokens(phrase, at)
                if toks in seen:
                    group, first = seen[toks]
                    places = f"twice in {name}" if group == name else f"in both {group} and {name}"
                    raise ConfigError(f"{where}: {phrase!r} appears {places}"
                                      + ("" if first == phrase else f", once as {first!r}"))
                seen[toks] = name, phrase
                parsed[name].append(phrase)
    return parsed


def load_taxonomy(path: str | Path | None = None) -> dict[str, list[str]]:
    path = path or default_path("taxonomy")
    doc = check_fields(read_json(path, "lexicon"), TAXONOMY_FIELDS, str(path))
    return _groups(doc["categories"], SKILL_CATEGORIES, _skill, f"{path}: categories")


def load_anchors(path: str | Path | None = None) -> dict[str, list[str]]:
    path = path or default_path("anchors")
    return _groups(read_json(path, "lexicon"), ANCHOR_GROUPS, _phrase, str(path))


def load_sectors(path: str | Path | None = None) -> dict[str, list[str]]:
    path = path or default_path("sectors")
    doc = check_fields(read_json(path, "lexicon"), SECTOR_FIELDS, str(path))
    if sorted(doc["priority"]) != sorted(SECTOR_NAMES):
        raise ConfigError(f"{path}: priority must be a total order over the nine sectors")
    sectors = _groups(doc["sectors"], SECTOR_NAMES, _phrase, f"{path}: sectors")
    return {name: sectors[name] for name in doc["priority"]}


class CompiledMatcher:
    """Token-contiguous phrase matcher, case-insensitive and word-bounded,
    over named groups of phrases; ``labels`` keeps the groups' order.

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
