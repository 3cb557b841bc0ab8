import json
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skillscope.errors import ConfigError
from skillscope.taxonomy import (
    ANCHOR_GROUPS,
    SECTOR_NAMES,
    SKILL_CATEGORIES,
    CompiledMatcher,
    default_path,
    load_anchors,
    load_sectors,
    load_taxonomy,
)
from skillscope.text import tokenize


def bundled(name: str) -> dict:
    """The bundled lexicon file ``name`` as a JSON document."""
    return json.loads(default_path(name).read_text(encoding="utf-8"))


def naive_match(text: str, patterns: dict[str, list[str]]) -> dict[str, set[str]]:
    """Independent oracle: scan every window of the token sequence."""
    tokens = tokenize(text)
    hits: dict[str, set[str]] = {}
    for label, phrases in patterns.items():
        for phrase in phrases:
            ptoks = tokenize(phrase)
            for i in range(len(tokens) - len(ptoks) + 1):
                if tokens[i:i + len(ptoks)] == ptoks:
                    hits.setdefault(label, set()).add(phrase)
                    break
    return hits


class TestLoaders:
    def test_default_taxonomy_valid(self):
        tax = load_taxonomy()
        assert tuple(tax) == SKILL_CATEGORIES
        phrases = {phrase for group in tax.values() for phrase in group}
        # documented core terms are present and unflagged
        for term in ("prompt engineering", "fine-tuning", "model monitoring",
                     "data entry", "communication", "strategic planning"):
            assert term in phrases
        for group in tax.values():
            assert len(group) >= 10

    def test_default_anchors_valid(self):
        a = load_anchors()
        assert tuple(a) == ANCHOR_GROUPS
        assert {"generative ai", "llm", "gpt"} <= set(a["ai_anchors"])
        assert {"assist", "human-in-the-loop", "decision support"} <= set(a["augment_anchors"])
        assert {"automated", "replace", "automation"} <= set(a["automate_anchors"])

    def test_default_sectors_valid(self):
        lex = load_sectors()
        assert tuple(lex) == SECTOR_NAMES  # the file's priority order
        for name in SECTOR_NAMES:
            assert len(lex[name]) >= 8

    def test_missing_category_names_it(self, tmp_path):
        doc = bundled("taxonomy")
        del doc["categories"]["Leadership"]
        f = tmp_path / "t.json"
        f.write_text(json.dumps(doc))
        with pytest.raises(ConfigError, match="categories: Leadership is required"):
            load_taxonomy(f)

    def test_cross_category_duplicate_rejected(self, tmp_path):
        doc = bundled("taxonomy")
        doc["categories"]["Routine"].append({"surface": "python"})  # also in AI_Data
        f = tmp_path / "t.json"
        f.write_text(json.dumps(doc))
        with pytest.raises(ConfigError, match="'python' appears in both AI_Data and Routine"):
            load_taxonomy(f)

    def test_empty_category_rejected(self, tmp_path):
        doc = bundled("taxonomy")
        doc["categories"]["Routine"] = []
        f = tmp_path / "t.json"
        f.write_text(json.dumps(doc))
        with pytest.raises(ConfigError, match="categories: 'Routine' is empty"):
            load_taxonomy(f)

    def test_anchor_group_overlap_rejected(self, tmp_path):
        doc = bundled("anchors")
        doc["augment_anchors"].append("automation")  # already in automate
        f = tmp_path / "a.json"
        f.write_text(json.dumps(doc))
        with pytest.raises(ConfigError, match="'automation' appears in both"):
            load_anchors(f)

    @pytest.mark.parametrize("loader,group", [(load_anchors, "augment_anchors"),
                                              (load_sectors, "Legal")])
    def test_empty_phrase_rejected(self, tmp_path, loader, group):
        doc = bundled(loader.__name__.removeprefix("load_"))
        phrases = doc[group] if loader is load_anchors else doc["sectors"][group]
        phrases.append({"phrase": "", "extended": True})
        f = tmp_path / "lexicon.json"
        f.write_text(json.dumps(doc))
        with pytest.raises(ConfigError, match="empty phrase"):
            loader(f)

    @pytest.mark.parametrize("loader,key", [(load_anchors, "domain_subsets"),
                                            (load_anchors, "ai_anchor"),
                                            (load_taxonomy, "categoris"),
                                            (load_sectors, "priorty")])
    def test_unknown_key_rejected(self, tmp_path, loader, key):
        doc = {**bundled(loader.__name__.removeprefix("load_")),
               key: {"Legal": ["contract review"]}}
        f = tmp_path / "lexicon.json"
        f.write_text(json.dumps(doc))
        with pytest.raises(ConfigError, match=f"unknown keys \\['{key}'\\]"):
            loader(f)

    @pytest.mark.parametrize("loader", [load_taxonomy, load_anchors, load_sectors])
    def test_not_an_object_rejected(self, tmp_path, loader):
        f = tmp_path / "lexicon.json"
        f.write_text("[1]")
        with pytest.raises(ConfigError, match="lexicon.json must be a JSON object"):
            loader(f)

    def test_sector_priority_must_be_permutation(self, tmp_path):
        doc = bundled("sectors")
        doc["priority"] = doc["priority"][:-1]
        f = tmp_path / "s.json"
        f.write_text(json.dumps(doc))
        with pytest.raises(ConfigError, match="priority must be a total order"):
            load_sectors(f)

    # phrases with the same tokens are one phrase to the matcher
    @pytest.mark.parametrize("loader,keys,entry,message", [
        (load_taxonomy, ("categories", "AI_Data"), {"surface": "Data  Entry"},
         "'data entry' appears in both AI_Data and Routine, once as 'Data  Entry'"),
        (load_taxonomy, ("categories", "AI_Data"), {"surface": "deep nets",
                                                    "variants": ["Deep Nets"]},
         "'Deep Nets' appears twice in AI_Data, once as 'deep nets'"),
        (load_anchors, ("augment_anchors",), "Generative AI",
         "'Generative AI' appears in both ai_anchors and augment_anchors, "
         "once as 'generative ai'"),
        (load_sectors, ("sectors", "Healthcare"), "Nurse",
         "'Nurse' appears twice in Healthcare, once as 'nurse'"),
        (load_sectors, ("sectors", "Legal"), {"phrase": "lawyer", "extended": True},
         "'lawyer' appears twice in Legal"),
    ])
    def test_phrases_with_the_same_tokens_rejected(self, tmp_path, loader, keys, entry,
                                                    message):
        doc = bundled(loader.__name__.removeprefix("load_"))
        group = doc
        for key in keys:
            group = group[key]
        group.append(entry)
        f = tmp_path / "lexicon.json"
        f.write_text(json.dumps(doc))
        with pytest.raises(ConfigError, match=re.escape(message) + "$"):
            loader(f)


class TestCompiledMatcher:
    def test_word_boundary_contract(self):
        m = CompiledMatcher({"Routine": ["data entry"]})
        assert m.match_hits("handles daily data entry tasks") == {"Routine": {"data entry"}}
        assert m.match_hits("database entry-level position") == {}

    def test_special_tokens_survive(self):
        m = CompiledMatcher({"AI_Data": ["c++", "c#"]})
        assert m.match_hits("experience with C++ required") == {"AI_Data": {"c++"}}
        assert m.match_hits("strong C# background") == {"AI_Data": {"c#"}}

    def test_case_insensitive(self):
        m = CompiledMatcher({"AI_Data": ["machine learning"]})
        assert m.match_hits("MACHINE Learning expert") == {"AI_Data": {"machine learning"}}

    def test_untokenizable_phrase_fails_compilation(self):
        with pytest.raises(ConfigError, match="cannot compile pattern '!!!'"):
            CompiledMatcher({"X": ["!!!"]})

    def test_fifty_planted_phrases_match_exactly(self):
        import random
        rng = random.Random(11)
        phrases = [f"skillword{i} partner{i}" for i in range(50)]
        filler = ["lorem", "ipsum", "dolor", "sit", "amet", "jobs", "team"]
        planted = rng.sample(phrases, 20)
        words = [rng.choice(filler) for _ in range(200)]
        for ph in planted:
            pos = rng.randrange(len(words))
            words[pos:pos] = ph.split()
        text = " ".join(words)
        m = CompiledMatcher({"X": phrases})
        assert m.match_hits(text).get("X", set()) == set(planted)

    @given(st.lists(st.sampled_from(
        ["data entry", "machine learning", "python", "gpt", "team", "work",
         "c++", "problem solving", "data", "entry", "learning curve"]),
        min_size=0, max_size=40))
    @settings(max_examples=100, deadline=None)
    def test_equivalent_to_naive_oracle(self, words):
        text = " ".join(words)
        patterns = {
            "A": ["data entry", "machine learning", "c++"],
            "B": ["python", "gpt", "problem solving"],
            "C": ["learning curve", "entry"],
        }
        m = CompiledMatcher(patterns)
        assert m.match_hits(text) == naive_match(text, patterns)

    def test_default_taxonomy_oracle_equivalence_on_demo_texts(self):
        from skillscope.fixtures import generate_rows
        patterns = load_taxonomy()
        m = CompiledMatcher(patterns)
        for _, text in generate_rows(n=60, seed=3):
            assert m.match_hits(text) == naive_match(text, patterns)
