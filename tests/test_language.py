import math
import re
import unicodedata
from importlib import resources

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skillscope.errors import TextTooShortError
from skillscope.language import (
    _ALPHABET,
    _NON_LETTER_RE,
    LANGUAGES,
    MIN_DETECT_CHARS,
    _canonical,
    _table,
    _trigram_ids,
    detect_language,
)


def test_english_fixture_sentence():
    lang, conf = detect_language(
        "We are seeking a software engineer with strong analytical skills."
    )
    assert lang == "en"
    assert conf >= 0.7


def test_french_fixture_sentence_not_english():
    lang, _ = detect_language(
        "Nous recherchons un ingénieur logiciel expérimenté pour notre équipe."
    )
    assert lang != "en"


def test_spanish_and_german():
    lang_es, _ = detect_language(
        "Buscamos una persona responsable para unirse a nuestro equipo de ventas."
    )
    lang_de, _ = detect_language(
        "Wir suchen eine erfahrene Fachkraft zur Verstärkung unseres Teams in Berlin."
    )
    assert lang_es == "es"
    assert lang_de == "de"


def test_too_short_raises():
    with pytest.raises(TextTooShortError):
        detect_language("abc")


def test_no_letters_raises():
    with pytest.raises(TextTooShortError):
        detect_language("1234567890 !!!???... 42")


def test_deterministic():
    text = "The quick brown fox jumps over the lazy dog near the riverbank."
    assert detect_language(text) == detect_language(text)


def test_confidence_in_unit_interval():
    for text in [
        "We are seeking a software engineer with strong analytical skills.",
        "zzz qqq xxx www kkk jjj vvv bbb nnn mmm",
    ]:
        _, conf = detect_language(text)
        assert 0.0 <= conf <= 1.0


# --- plain-loop reference: string trigrams, one dict lookup each -------------

def _reference_trigrams(canonical):
    padded = f" {canonical} "
    return [padded[i:i + 3] for i in range(len(padded) - 2)]


def _reference_profiles():
    out = []
    for lang in LANGUAGES:
        seed = resources.files("skillscope.data").joinpath(f"lang_seed/{lang}.txt")
        counts = {}
        for tri in _reference_trigrams(_canonical(seed.read_text(encoding="utf-8"))):
            counts[tri] = counts.get(tri, 0) + 1
        denom = sum(counts.values()) + len(counts) + 1
        logp = {tri: math.log((c + 1) / denom) for tri, c in counts.items()}
        out.append((lang, logp, math.log(1.0 / denom)))
    return out


PROFILES = _reference_profiles()


def reference_detect(text):
    if len(text) < MIN_DETECT_CHARS:
        raise TextTooShortError("short")
    trigrams = _reference_trigrams(_canonical(text))
    if not trigrams:
        raise TextTooShortError("no scorable characters")
    scores = [(lang, sum(logp.get(t, floor) for t in trigrams))
              for lang, logp, floor in PROFILES]
    best = max(s for _, s in scores)
    weights = [(lang, math.exp(s - best)) for lang, s in scores]
    z = sum(w for _, w in weights)
    posterior = sorted(((w / z, lang) for lang, w in weights), reverse=True)
    return posterior[0][1], posterior[0][0] - posterior[1][0]


_CHARS = ("abcdefghijklmnopqrstuvwxyz" + "".join(map(chr, range(0xE0, 0x100))) + "œß"
          + "0123456789" + " .,;:!?-'()&/" + "жДяαβΩ中文ĀŁ" + "ABÉÖ\u0301\n\t")
_WORDS = ["the", "engineer", "with", "data", "nous", "recherchons", "équipe", "para",
          "unirse", "equipo", "wir", "suchen", "verstärkung", "straße", "cœur", "año"]


@given(st.lists(st.sampled_from(_WORDS) | st.text(st.sampled_from(_CHARS), max_size=15),
                max_size=60).map(" ".join))
@settings(max_examples=300, deadline=None)
def test_matches_plain_loop_reference(text):
    try:
        want = reference_detect(text)
    except TextTooShortError:
        with pytest.raises(TextTooShortError):
            detect_language(text)
        return
    lang, conf = detect_language(text)
    assert lang == want[0]
    assert math.isclose(conf, want[1], rel_tol=1e-9)


def reference_canonical(text):
    """_canonical with the plain space-run pattern, which rewrites a lone space."""
    text = _NON_LETTER_RE.sub(" ", unicodedata.normalize("NFC", text.casefold()))
    return re.sub(" +", " ", text).strip()


@given(st.text(st.sampled_from(_CHARS + "  \xa0\u3000\u2028\x85"), max_size=80)
       | st.lists(st.sampled_from(_WORDS + [" ", "  ", "-", "!!"]), max_size=30).map("".join))
@settings(max_examples=500, deadline=None)
def test_canonical_matches_plain_space_collapse(text):
    assert _canonical(text) == reference_canonical(text)


def fancy_indexed_detect(text):
    """detect_language with the rows gathered by fancy indexing."""
    if len(text) < MIN_DETECT_CHARS:
        raise TextTooShortError("short")
    canonical = _canonical(text)
    if not canonical:
        raise TextTooShortError("no scorable characters")
    rows, logp = _table()
    scores = list(zip(LANGUAGES, logp[rows[_trigram_ids(canonical)]].sum(axis=0).tolist()))
    best = max(s for _, s in scores)
    weights = [(lang, math.exp(s - best)) for lang, s in scores]
    z = sum(w for _, w in weights)
    posterior = sorted(((w / z, lang) for lang, w in weights), reverse=True)
    return posterior[0][1], posterior[0][0] - posterior[1][0]


# blanks of every kind, combining marks that NFC composes with a letter (e and
# U+0301 make é, which is kept), case folds that grow or leave the alphabet
# (sharp s, the fi ligature, dotted I, long s, the Kelvin sign, capital sharp
# s), fullwidth letters, and letters of the alphabet's edges (ö ÷ ø ÿ œ)
_SCORED_CHARS = (_CHARS + "  \xa0\u3000\u2028\x85\x1c\x1f" + "\u0301\u0300\u0308\u0327"
                 + "\ufb01\u0130\u017f\u212a\u1e9e" + "\uff21\uff45" + "\xf6\xf7\xf8\xff\u0152")


@given(st.lists(st.sampled_from(_WORDS) | st.text(st.sampled_from(_SCORED_CHARS), max_size=15),
                max_size=60).map(" ".join))
@settings(max_examples=500, deadline=None)
def test_scores_equal_the_fancy_index_gather_exactly(text):
    try:
        want = fancy_indexed_detect(text)
    except TextTooShortError:
        with pytest.raises(TextTooShortError):
            detect_language(text)
        return
    assert detect_language(text) == want  # the same bits, not merely close


def test_alphabet_is_what_canonical_keeps():
    kept = [c for c in map(chr, range(0x3000)) if not _NON_LETTER_RE.match(c)]
    assert kept == _ALPHABET and len(_ALPHABET) == 60
