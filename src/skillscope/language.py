"""Character-trigram language identification over bundled reference profiles.

Profiles for English, French, Spanish and German are built once from seed
texts shipped with the package (Cavnar & Trenkle n-gram profiles). Scoring is
additive smoothed log-likelihood per trigram, read from one lookup table; the
reported confidence is the margin between the best and second-best language
posterior, so ambiguous or garbage text scores low.
"""

from __future__ import annotations

import math
import re
import unicodedata
from functools import lru_cache
from importlib import resources

import numpy as np

from .errors import TextTooShortError

MIN_DETECT_CHARS = 20
LANGUAGES = ("en", "fr", "es", "de")

_NON_LETTER_RE = re.compile(r"[^a-zà-öø-ÿœß ]+")
# two or more spaces, spelt with a two-space literal prefix the engine searches
# for: a lone space needs no replacing
_SPACE_RE = re.compile("  +")

# The characters _canonical keeps, in code-point order (space first): those
# up to the class's largest code point that _NON_LETTER_RE does not match. A
# trigram's id is its three alphabet codes read as a base-len(_ALPHABET) number.
_ALPHABET = [c for c in map(chr, range(max(map(ord, _NON_LETTER_RE.pattern)) + 1))
             if not _NON_LETTER_RE.match(c)]
_A = len(_ALPHABET)
_CODE = np.zeros(max(map(ord, _ALPHABET)) + 1, dtype=np.int32)
_CODE[[ord(c) for c in _ALPHABET]] = np.arange(_A)


def _canonical(text: str) -> str:
    text = unicodedata.normalize("NFC", text.casefold())
    text = _NON_LETTER_RE.sub(" ", text)
    return _SPACE_RE.sub(" ", text).strip()


def _trigram_ids(canonical: str) -> np.ndarray:
    """Ids of the trigrams of ``canonical`` padded with one space each side."""
    c = _CODE[np.frombuffer(f" {canonical} ".encode("utf-32-le"), dtype=np.uint32)]
    return (c[:-2] * _A + c[1:-1]) * _A + c[2:]


@lru_cache(maxsize=1)
def _table() -> tuple[np.ndarray, np.ndarray]:
    """The row of every trigram id (0 for one no profile has seen) and the
    rows × languages table of log-probabilities; row 0 holds each floor."""
    profiles = []
    for lang in LANGUAGES:
        seed = resources.files("skillscope.data").joinpath(f"lang_seed/{lang}.txt")
        text = _canonical(seed.read_text(encoding="utf-8"))
        profiles.append(np.unique(_trigram_ids(text), return_counts=True))
    known = np.unique(np.concatenate([ids for ids, _ in profiles]))
    rows = np.zeros(_A ** 3, dtype=np.int32)
    rows[known] = np.arange(1, len(known) + 1)
    logp = np.empty((len(known) + 1, len(LANGUAGES)))
    for j, (ids, counts) in enumerate(profiles):
        # Laplace-smoothed log probabilities; unseen trigrams share one floor
        denom = int(counts.sum()) + len(ids) + 1
        logp[:, j] = math.log(1.0 / denom)
        logp[rows[ids], j] = [math.log((c + 1) / denom) for c in counts.tolist()]
    return rows, logp


def detect_language(text: str) -> tuple[str, float]:
    """Return (language_code, confidence in [0, 1]) for the given text.

    Raises TextTooShortError below MIN_DETECT_CHARS characters; callers
    treat that as non-English.
    """
    if len(text) < MIN_DETECT_CHARS:
        raise TextTooShortError(f"need >= {MIN_DETECT_CHARS} chars, got {len(text)}")
    canonical = _canonical(text)
    if not canonical:
        raise TextTooShortError("no scorable characters")
    rows, logp = _table()
    # the axis-0 sum adds row by row in trigram order, as a plain loop would
    scores = list(zip(LANGUAGES, logp[rows[_trigram_ids(canonical)]].sum(axis=0).tolist()))
    # posterior via log-sum-exp over total log-likelihoods
    best = max(s for _, s in scores)
    weights = [(lang, math.exp(s - best)) for lang, s in scores]
    z = sum(w for _, w in weights)
    posterior = sorted(((w / z, lang) for lang, w in weights), reverse=True)
    confidence = posterior[0][0] - posterior[1][0]
    return posterior[0][1], confidence
