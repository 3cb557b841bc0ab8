import datetime as dt
import re
import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skillscope.cleanse import (
    DEFAULT_BOILERPLATE,
    CleanseConfig,
    _ascii_fold,
    _boilerplate_res,
    cleanse,
    normalize_text,
    parse_date,
)
from skillscope.errors import ConfigError
from skillscope.text import has_tokens, tokenize

from .conftest import LONG_EN, LONG_FR, record
from .helpers import labeled_cleanse_batch


class TestNormalizeText:
    def test_control_chars_and_whitespace(self):
        assert normalize_text("Data\u0000 entry   role") == "Data entry role"

    def test_boilerplate_sentence_removed(self):
        out = normalize_text("Great job. Equal Opportunity Employer. Apply now.")
        assert out == "Great job. Apply now."

    def test_boilerplate_case_insensitive(self):
        out = normalize_text("Great job. EQUAL opportunity employer for all. Apply now.")
        assert "opportunity" not in out.lower()

    def test_three_planted_phrases_among_ten_sentences(self):
        clean = [f"Sentence number {i} talks about the role." for i in range(7)]
        noisy = ["Equal Opportunity Employer and proud of it.",
                 "About the Company and its history.",
                 "Benefits include dental coverage."]
        text = " ".join(clean[:3] + noisy[:1] + clean[3:5] + noisy[1:2]
                        + clean[5:] + noisy[2:])
        out = normalize_text(text)
        # oracle: exactly the 7 clean sentences survive, in order
        assert out == " ".join(clean[:3] + clean[3:5] + clean[5:])

    def test_custom_patterns(self):
        cfg = CleanseConfig(boilerplate_patterns=["Apply via our portal"])
        out = normalize_text("Good role. Apply via our portal today. More text.", cfg)
        assert out == "Good role. More text."

    @given(st.text(max_size=300))
    @settings(max_examples=150, deadline=None)
    def test_idempotent(self, raw):
        once = normalize_text(raw)
        assert normalize_text(once) == once


# --- reference: normalize_text with a plain blank-run pattern, run on every
# text, and every newline pattern run whether the text has a newline or not

def reference_normalize(raw, patterns=DEFAULT_BOILERPLATE):
    def collapse(text):
        text = re.sub(r"[^\S\n]+", " ", text)
        text = re.sub(r" ?\n ?", "\n", text)
        return re.sub(r"\n+", "\n", text)

    compiled = [re.compile(r"\s+".join(map(re.escape, pat.split()))
                           + r"[^.!?\n]*(?:[.!?]+|(?=\n)|$)\s*", re.IGNORECASE)
                for pat in patterns if pat.split()]
    text = collapse(re.sub(r"[\x00-\x09\x0b-\x1f\x7f]", " ", raw))
    changed = True
    while changed:
        changed = False
        for pat in compiled:
            text, n = pat.subn("", text)
            changed = changed or n > 0
    return collapse(text).strip()


# every kind of blank: ASCII and Unicode spaces, the C0 separators (which \s
# matches), NEL, NBSP, EM SPACE, LINE SEPARATOR, IDEOGRAPHIC SPACE and newline
BLANKS = [" ", "\t", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x1f", "\x85",
          "\xa0", "\u2003", "\u2028", "\u3000", "\n"]


@st.composite
def boilerplate(draw):
    """A default phrase in mixed case, its words split by blank runs."""
    words = draw(st.sampled_from(DEFAULT_BOILERPLATE)).split()
    seps = draw(st.lists(st.text(st.sampled_from(BLANKS), min_size=1, max_size=3),
                         min_size=len(words) - 1, max_size=len(words) - 1))
    text = words[0] + "".join(sep + word for sep, word in zip(seps, words[1:]))
    upper = draw(st.integers(0, 2 ** len(text) - 1))  # bit i: the case of character i
    return "".join(c.upper() if upper >> i & 1 else c.lower() for i, c in enumerate(text))


blank_text = st.lists(st.sampled_from(BLANKS) | st.sampled_from(["data", "Role", "x", "."])
                      | st.sampled_from(["!", "?", "\x00", "\x7f"]) | boilerplate(),
                      max_size=40).map("".join)


class TestNormalizeAgainstReference:
    @given(blank_text)
    @settings(max_examples=500, deadline=None)
    def test_equals_plain_pattern_formulation(self, raw):
        assert normalize_text(raw) == reference_normalize(raw)

    @pytest.mark.parametrize("raw", ["a \u3000 b", "a\tb", "a \n \n\xa0b", "x\u2028y",
                                     "  lead and trail \x85 ", "Equal\u2003Opportunity "
                                     "EMPLOYER\n next", "one  \n two"])
    def test_hand_cases(self, raw):
        assert normalize_text(raw) == reference_normalize(raw)


# --- the first-word test that lets a text skip the boilerplate patterns --------

# the characters besides its two cases that re.IGNORECASE matches with a letter
IGNORECASE_TWINS = {"i": "\u0130\u0131", "k": "\u212a", "s": "\u017f"}
# a phrase with a k, one whose first word is not ASCII, one that starts with digits
PHRASES = [*DEFAULT_BOILERPLATE, "Kick-off bonus", "\u00dcber uns", "24/7 Support"]


@st.composite
def disguised(draw):
    """A phrase or a prefix of one, each letter in either case or as one of
    its IGNORECASE twins."""
    phrase = draw(st.sampled_from(PHRASES))
    if draw(st.booleans()):
        phrase = phrase[:draw(st.integers(1, len(phrase)))]
    return "".join(draw(st.sampled_from([c.lower(), c.upper(),
                                          *IGNORECASE_TWINS.get(c.lower(), "")]))
                   for c in phrase)


twin_text = st.lists(disguised() | st.sampled_from([" ", "\n", ".", "data", "x",
                                                    *"\u0130\u0131\u212a\u017f"]),
                     max_size=30).map("".join)


class TestBoilerplateFirstWord:
    @given(twin_text, st.sampled_from([DEFAULT_BOILERPLATE, PHRASES, ["Kick-off bonus"]]))
    @settings(max_examples=500, deadline=None)
    def test_equals_running_every_pattern_on_every_text(self, raw, patterns):
        cfg = CleanseConfig(boilerplate_patterns=list(patterns))
        assert normalize_text(raw, cfg) == reference_normalize(raw, patterns)

    @pytest.mark.parametrize("raw, expected", [
        ("Great job. BENEF\u0130TS include a gym. Apply.", "Great job. Apply."),
        ("Great job. Benef\u0131ts include a gym. Apply.", "Great job. Apply."),
        ("Great job. Benefit\u017f include a gym. Apply.", "Great job. Apply."),
        ("Great job. Equal opportunity employer. Apply.", "Great job. Apply."),
        ("Great job. Equal pay. Apply.", "Great job. Equal pay. Apply."),
    ])
    def test_hand_cases(self, raw, expected):
        assert normalize_text(raw) == reference_normalize(raw) == expected

    def test_a_kelvin_sign_matches_k(self):
        cfg = CleanseConfig(boilerplate_patterns=["Kick-off bonus"])
        assert normalize_text("Role. \u212aICK-OFF bonus paid. End.", cfg) == "Role. End."

    def test_fold_maps_every_ignorecase_match_to_the_character(self):
        every = "".join(map(chr, [*range(0xD800), *range(0xE000, 0x110000)]))
        for ch in string.printable:
            matched = set(re.findall(re.escape(ch), every, re.IGNORECASE))
            assert {_ascii_fold(c) for c in matched} == {ch.lower()}, ch

    def test_a_first_word_that_is_not_ascii_runs_every_pattern(self):
        assert _boilerplate_res(tuple(DEFAULT_BOILERPLATE))[1] == ("equal", "about", "benefits")
        assert _boilerplate_res(("Equal pay", "\u00dcber uns"))[1] is None


class TestHasTokens:
    @given(st.text(st.sampled_from(BLANKS + ["a", "B", "7", "-", "+", "#", "é", "."]),
                   max_size=80), st.integers(1, 40))
    @settings(max_examples=500, deadline=None)
    def test_equals_length_of_the_token_list(self, text, n):
        assert has_tokens(text, n) == (len(tokenize(text)) >= n)

    @pytest.mark.parametrize("delta", [-1, 0, 1])
    def test_too_short_at_the_floor(self, delta):
        # the cut-off falls one token under, at and one over the description's count
        n = len(tokenize(normalize_text(LONG_EN)))
        postings, report = cleanse([record(LONG_EN)], CleanseConfig(min_tokens=n + delta))
        assert report.rejected["too_short"] == (delta == 1)
        assert len(postings) == (delta < 1)


class TestParseDate:
    def test_iso(self):
        assert parse_date("2022-03-04") == dt.date(2022, 3, 4)

    def test_iso_with_time_suffix(self):
        assert parse_date("2022-03-04T10:00:00Z") == dt.date(2022, 3, 4)

    def test_slash_dmy_default(self):
        assert parse_date("04/03/2022") == dt.date(2022, 3, 4)

    def test_slash_mdy_hint(self):
        assert parse_date("04/03/2022", date_order="MDY") == dt.date(2022, 4, 3)

    def test_unambiguous_overrides_hint(self):
        # 25 cannot be a month regardless of the hint
        assert parse_date("25/03/2022", date_order="MDY") == dt.date(2022, 3, 25)

    def test_month_name(self):
        assert parse_date("March 4, 2022") == dt.date(2022, 3, 4)
        assert parse_date("march 4 2022") == dt.date(2022, 3, 4)

    @pytest.mark.parametrize("raw", ["n/a", "", "2022-13-01", "31/02/2022", "soon"])
    def test_unparseable(self, raw):
        assert parse_date(raw) is None


class TestCleanse:
    def test_bad_date_reason(self):
        postings, report = cleanse([record(LONG_EN, date="n/a")])
        assert postings == []
        assert report.rejected["bad_date"] == 1

    def test_out_of_range_year(self):
        _, report = cleanse([record(LONG_EN, date="2017-05-01")])
        assert report.rejected["out_of_range"] == 1

    def test_non_english(self):
        _, report = cleanse([record(LONG_FR)])
        assert report.rejected["non_english"] == 1

    def test_too_short(self):
        _, report = cleanse([record("Short English ad, apply to our team now please.")])
        assert report.rejected["too_short"] == 1

    def test_filter_order_bad_date_wins(self):
        # fails both date and language filters; counted once, under bad_date
        _, report = cleanse([record(LONG_FR, date="never")])
        assert report.rejected == {"bad_date": 1, "non_english": 0,
                                   "out_of_range": 0, "too_short": 0}

    def test_xml_entities_unescaped(self):
        postings, _ = cleanse([record(LONG_EN + " Skills: C&amp;I systems &lt;required&gt;.")])
        assert "C&I systems <required>" in postings[0].description

    def test_hundred_record_labeled_batch(self):
        records, labels = labeled_cleanse_batch()
        postings, report = cleanse(records)
        assert len(postings) == labels.count("retained") == 60
        assert report.rejected["non_english"] == 20
        assert report.rejected["too_short"] == 10
        assert report.rejected["bad_date"] == 10
        assert report.input == report.retained + sum(report.rejected.values()) == 100
        retained_ids = {p.id for p in postings}
        for rec, label in zip(records, labels):
            assert (rec.source_id in retained_ids) == (label == "retained")

    def test_posting_fields(self):
        postings, _ = cleanse([record(LONG_EN, date="2023-11-30", source="src", n=7)])
        p = postings[0]
        assert p.id == "src:7"
        assert p.date == dt.date(2023, 11, 30)
        assert p.year == 2023

    @given(st.lists(st.tuples(st.text(max_size=120), st.text(max_size=12)), max_size=20))
    @settings(max_examples=60, deadline=None)
    def test_conservation_and_posting_invariants(self, rows):
        cfg = CleanseConfig()
        records = [record(text, date=date, n=i) for i, (text, date) in enumerate(rows)]
        postings, report = cleanse(records, cfg)
        assert report.input == len(records)
        assert report.retained + sum(report.rejected.values()) == report.input
        lo, hi = cfg.year_range
        for p in postings:
            assert lo <= p.year <= hi and p.year == p.date.year
            assert len(tokenize(p.description)) >= cfg.min_tokens
            assert normalize_text(p.description, cfg) == p.description


class TestCleanseConfig:
    def test_rejects_unknown_keys(self, tmp_path):
        f = tmp_path / "c.json"
        f.write_text('{"min_tokens": 10, "bogus": 1}')
        with pytest.raises(ConfigError):
            CleanseConfig.from_file(f)

    def test_from_file(self, tmp_path):
        f = tmp_path / "c.json"
        f.write_text('{"min_tokens": 10, "year_range": [2019, 2024], "date_order": "MDY"}')
        cfg = CleanseConfig.from_file(f)
        assert cfg.min_tokens == 10 and cfg.year_range == (2019, 2024)

    @pytest.mark.parametrize("text", ["{not json", "[]", '{"min_tokens": "x"}',
                                      '{"min_tokens": 2.5}', '{"year_range": [2018]}',
                                      '{"boilerplate_patterns": "Apply now"}'])
    def test_from_file_rejects_bad_json_shape_and_type(self, tmp_path, text):
        f = tmp_path / "c.json"
        f.write_text(text)
        with pytest.raises(ConfigError):
            CleanseConfig.from_file(f)

    @pytest.mark.parametrize("kw", [{"min_tokens": 0},
                                    {"english_confidence_threshold": 1.5},
                                    {"year_range": (2025, 2018)},
                                    {"date_order": "YMD"}])
    def test_invalid_values(self, kw):
        with pytest.raises(ConfigError):
            CleanseConfig(**kw)
