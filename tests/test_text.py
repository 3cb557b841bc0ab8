import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skillscope.text import has_tokens, tokenize


def test_basic_words_lowercased():
    assert tokenize("Senior Data Analyst") == ["senior", "data", "analyst"]


def test_special_tokens_preserved():
    assert tokenize("C++ and C# with scikit-learn") == ["c++", "and", "c#", "with", "scikit-learn"]


def test_hyphen_chains():
    assert tokenize("human-in-the-loop review") == ["human-in-the-loop", "review"]


def test_punctuation_splits():
    assert tokenize("skills: python, sql; golang.") == ["skills", "python", "sql", "golang"]


def test_numbers_kept():
    assert tokenize("5 years experience") == ["5", "years", "experience"]


def test_empty_and_symbols():
    assert tokenize("") == []
    assert tokenize("!!! ??? ...") == []


@given(st.text(max_size=200))
@settings(max_examples=100, deadline=None)
def test_tokens_are_fixpoints(text):
    # re-tokenizing any produced token yields that token back
    for tok in tokenize(text):
        assert tokenize(tok) == [tok]


# --- reference: the whole case-folded text through the token pattern --------

_TOKEN_RE = re.compile(r"[a-z0-9]+(?:-[a-z0-9]+)*[+#]*")


def reference_tokenize(text):
    return _TOKEN_RE.findall(text.casefold())


# characters whose case folding is longer or ASCII (sharp s, the fi and ff
# ligatures, dotted and dotless i, long s, the Kelvin sign), combining marks,
# blanks that split() cuts at (NBSP, the C0 separators, NEL, ideographic
# space), fullwidth letters and digits, an Arabic-Indic digit, a lone
# surrogate (json.loads makes one from "\ud800"), and the joiners alone and
# in runs
ADVERSARIAL = ["a", "Z", "k", "s", "i", "7", "0", "\xe9", "\xdf", "\ufb01", "\ufb00",
               "\u0130", "\u0131", "\u017f", "\u212a", "\u0301", "\u0307", "\u0327",
               "\xa0", "\x1c", "\x1d", "\x1e", "\x1f", "\x85", " ", "\t", "\n", ".",
               "\uff21", "\uff41", "\uff10", "\uff19", "\u3000", "\u0660", "\ud800",
               "-", "--", "+", "++", "#", "#+", "-+#"]

adversarial_text = (st.lists(st.sampled_from(ADVERSARIAL), max_size=60).map("".join)
                    | st.text(max_size=60))


@given(adversarial_text)
@settings(max_examples=1000, deadline=None)
def test_tokenize_equals_the_pattern_on_the_whole_text(text):
    assert tokenize(text) == reference_tokenize(text)


@given(adversarial_text, st.integers(1, 25))
@settings(max_examples=1000, deadline=None)
def test_has_tokens_equals_counting_the_pattern(text, n):
    assert has_tokens(text, n) == (len(reference_tokenize(text)) >= n)


@pytest.mark.parametrize("text", ["fine-tuning c++ c# -x- a--b c+d #e Kelvin straße",
                                  "ﬁle ﬀ İstanbul Ａ０ ſet", ""])
def test_hand_cases_equal_the_pattern(text):
    assert tokenize(text) == reference_tokenize(text)
    for n in range(1, 12):
        assert has_tokens(text, n) == (len(reference_tokenize(text)) >= n)
