"""Rule-based cleaning: normalization, boilerplate stripping, language and
length filtering, and calendar-year derivation.

Filter order is fixed (bad_date, non_english, out_of_range, too_short) and a
record failing several filters is counted once, under the first that fires,
so the report conserves counts exactly.
"""

from __future__ import annotations

import datetime as dt
import re
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path

from .config import from_json, read_json
from .errors import ConfigError, TextTooShortError
from .language import detect_language
from .text import has_tokens

DEFAULT_BOILERPLATE = [
    "Equal Opportunity Employer",
    "About the Company",
    "Benefits include",
]

REJECT_REASONS = ("bad_date", "non_english", "out_of_range", "too_short")

# only the five XML-standard entities are unescaped (non-goal beyond that)
_ENTITIES = [
    ("&lt;", "<"), ("&gt;", ">"), ("&quot;", '"'), ("&apos;", "'"), ("&amp;", "&"),
]

_CONTROL_RE = re.compile(r"[\x00-\x09\x0b-\x1f\x7f]")
# a blank followed by more blanks, or one that is not a space: a lone space,
# the commonest match of a plain run pattern, is left alone instead of
# replaced by itself; the leading class lets the engine skip to each blank
_SPACE_RUN_RE = re.compile(r"[^\S\n](?:[^\S\n]+|(?<! ))")
_NL_SPACE_RE = re.compile(r" ?\n ?")
_NL_RUN_RE = re.compile(r"\n+")

_MONTH_DDYYYY_RE = re.compile(
    r"^(January|February|March|April|May|June|July|August|September|October|"
    r"November|December)\s+(\d{1,2}),?\s+(\d{4})$",
    re.IGNORECASE,
)
_SLASH_RE = re.compile(r"^(\d{1,2})/(\d{1,2})/(\d{4})$")
_ISO_RE = re.compile(r"^(\d{4})-(\d{2})-(\d{2})")

_MONTHS = {
    m: i + 1
    for i, m in enumerate(
        ["january", "february", "march", "april", "may", "june", "july",
         "august", "september", "october", "november", "december"]
    )
}


@dataclass
class CleanseConfig:
    boilerplate_patterns: list[str] = field(default_factory=lambda: list(DEFAULT_BOILERPLATE))
    min_tokens: int = 30
    english_confidence_threshold: float = 0.65
    year_range: tuple[int, int] = (2018, 2025)
    date_order: str = "DMY"  # tie-break for ambiguous NN/NN/YYYY dates

    def __post_init__(self):
        if self.min_tokens < 1:
            raise ConfigError("min_tokens must be >= 1")
        if not (0 < self.english_confidence_threshold < 1):
            raise ConfigError("english_confidence_threshold must be in (0,1)")
        lo, hi = self.year_range
        if lo > hi:
            raise ConfigError("year_range must be ordered")
        if self.date_order not in ("DMY", "MDY"):
            raise ConfigError("date_order must be DMY or MDY")

    @classmethod
    def from_file(cls, path: str | Path) -> "CleanseConfig":
        return from_json(cls, read_json(path, "cleanse config"), f"cleanse config {path}")


@dataclass(frozen=True)
class Posting:
    id: str
    date: dt.date
    year: int
    description: str


@dataclass
class CleanseReport:
    input: int = 0
    retained: int = 0
    rejected: dict[str, int] = field(default_factory=lambda: {r: 0 for r in REJECT_REASONS})

    def as_dict(self) -> dict:
        return {"input": self.input, "retained": self.retained, "rejected": dict(self.rejected)}

    def add(self, other: "CleanseReport") -> None:
        """Count ``other``'s records too."""
        self.input += other.input
        self.retained += other.retained
        for reason, n in other.rejected.items():
            self.rejected[reason] += n


# each character besides its two cases that re.IGNORECASE matches with an
# ASCII letter, to that letter; str.lower() maps none of them to it
_ASCII_FOLD = str.maketrans({"\u0130": "i", "\u0131": "i", "\u017f": "s", "\u212a": "k"})


def _ascii_fold(text: str) -> str:
    """``text`` lowercased, with each character that re.IGNORECASE matches
    with an ASCII letter turned into that letter."""
    return (text if text.isascii() else text.translate(_ASCII_FOLD)).lower()


@lru_cache(maxsize=8)
def _boilerplate_res(patterns: tuple[str, ...]
                     ) -> tuple[tuple[re.Pattern, ...], tuple[str, ...] | None]:
    """Compiled once per pattern list, not once per record; with them, the
    folded first word of each, which a text must hold for any to match, or
    None when a first word is not ASCII and so cannot be folded the same way."""
    out, first_words = [], []
    for pat in patterns:
        words = pat.split()
        if not words:
            continue
        body = r"\s+".join(re.escape(w) for w in words)
        # phrase plus the remainder of its sentence, through the terminator
        out.append(re.compile(body + r"[^.!?\n]*(?:[.!?]+|(?=\n)|$)\s*", re.IGNORECASE))
        first_words.append(_ascii_fold(words[0]))
    return tuple(out), (tuple(first_words) if all(map(str.isascii, first_words)) else None)


def _collapse_blanks(text: str) -> str:
    """Each run of blanks becomes one space, and each run of line breaks with
    the blanks around it one newline."""
    text = _SPACE_RUN_RE.sub(" ", text)
    if "\n" in text:  # the newline patterns have no literal prefix to search for
        text = _NL_RUN_RE.sub("\n", _NL_SPACE_RE.sub("\n", text))
    return text


def normalize_text(raw: str, cfg: CleanseConfig | None = None) -> str:
    """Remove control characters, collapse whitespace and strip boilerplate
    sentences. Idempotent."""
    cfg = cfg or CleanseConfig()
    text = _collapse_blanks(_CONTROL_RE.sub(" ", raw))
    patterns, first_words = _boilerplate_res(tuple(cfg.boilerplate_patterns))
    if first_words is not None:
        folded = _ascii_fold(text)
        # a pattern matches only where the text holds its first word
        changed = any(word in folded for word in first_words)
    else:
        changed = True
    while changed:  # removal can splice text into a fresh match
        changed = False
        for pat in patterns:
            text, n = pat.subn("", text)
            if n:
                changed = True
    return _collapse_blanks(text).strip()


def parse_date(raw: str, date_order: str = "DMY") -> dt.date | None:
    """Parse ISO-8601, DD/MM/YYYY or MM/DD/YYYY (per hint), or 'Month DD, YYYY'."""
    s = raw.strip()
    if not s:
        return None
    m = _ISO_RE.match(s)
    if m:
        try:
            return dt.date(int(m.group(1)), int(m.group(2)), int(m.group(3)))
        except ValueError:
            return None
    m = _SLASH_RE.match(s)
    if m:
        a, b, year = int(m.group(1)), int(m.group(2)), int(m.group(3))
        day, month = (a, b) if date_order == "DMY" else (b, a)
        if month > 12 and day <= 12:  # unambiguous despite the hint
            day, month = month, day
        try:
            return dt.date(year, month, day)
        except ValueError:
            return None
    m = _MONTH_DDYYYY_RE.match(s)
    if m:
        try:
            return dt.date(int(m.group(3)), _MONTHS[m.group(1).lower()], int(m.group(2)))
        except ValueError:
            return None
    return None


def _unescape(text: str) -> str:
    for entity, char in _ENTITIES:
        text = text.replace(entity, char)
    return text


def cleanse(records, cfg: CleanseConfig | None = None) -> tuple[list[Posting], CleanseReport]:
    """Turn RawRecords into Postings, counting every rejection by reason."""
    cfg = cfg or CleanseConfig()
    report = CleanseReport()
    postings: list[Posting] = []
    lo, hi = cfg.year_range
    for rec in records:
        report.input += 1
        description = normalize_text(_unescape(rec.raw_text), cfg)
        date = parse_date(rec.raw_date, cfg.date_order)
        if date is None:
            report.rejected["bad_date"] += 1
            continue
        try:
            lang, conf = detect_language(description)
        except TextTooShortError:
            report.rejected["non_english"] += 1
            continue
        if lang != "en" or conf < cfg.english_confidence_threshold:
            report.rejected["non_english"] += 1
            continue
        if not (lo <= date.year <= hi):
            report.rejected["out_of_range"] += 1
            continue
        if not has_tokens(description, cfg.min_tokens):
            report.rejected["too_short"] += 1
            continue
        report.retained += 1
        postings.append(Posting(id=rec.source_id, date=date, year=date.year,
                                description=description))
    return postings, report
