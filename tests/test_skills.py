import random

from hypothesis import given, settings
from hypothesis import strategies as st

from skillscope.skills import detect_skills, per_mille, rate_table
from skillscope.taxonomy import SKILL_CATEGORIES, CompiledMatcher, load_taxonomy

from .conftest import posting

MATCHER = CompiledMatcher(load_taxonomy())


def flags_for(text):
    return detect_skills(posting(text), MATCHER)


class TestDetectSkills:
    def test_ai_terms_set_single_flag(self):
        f = flags_for("requires prompt engineering and fine-tuning experience")
        assert f["AI_Data"] is True
        assert f["Routine"] is False

    def test_routine_only(self):
        f = flags_for("daily data entry duties")
        assert f["Routine"] is True
        assert f["AI_Data"] is False

    def test_filler_has_no_flags(self):
        f = flags_for("join our welcoming office in the city centre")
        assert not any(f.values())

    def test_presence_not_count(self):
        once = flags_for("python role")
        thrice = flags_for("python python gpt mlops")
        assert once["AI_Data"] is thrice["AI_Data"] is True


def yearly(flagged):
    """{year: (postings, {category: rate})} from the rows ``extract`` writes
    for ``(flags, year)`` pairs, checking that years come out ascending."""
    rows = rate_table(((year,), per_mille(f)) for f, year in flagged)
    assert [r[0] for r in rows] == sorted(r[0] for r in rows)
    return {year: (n, dict(zip(SKILL_CATEGORIES, rates))) for year, n, *rates in rows}


def make_flagged(spec):
    """spec: list of (year, set-of-true-categories)."""
    return [({c: c in cats for c in SKILL_CATEGORIES}, year) for year, cats in spec]


class TestAggregateYearly:
    def test_rate_arithmetic(self):
        flagged = make_flagged([(2022, {"AI_Data"}), (2022, {"AI_Data"}),
                                (2022, set()), (2022, set())])
        ((n, rate),) = yearly(flagged).values()
        assert n == 4
        assert rate["AI_Data"] == 500.0

    def test_upper_bound(self):
        flagged = make_flagged([(2023, {"Soft_Meta"})] * 10)
        ((_, rate),) = yearly(flagged).values()
        assert rate["Soft_Meta"] == 1000.0

    def test_years_sorted_and_zero_years_absent(self):
        flagged = make_flagged([(2024, set()), (2019, {"Routine"})])
        assert list(yearly(flagged)) == [2019, 2024]

    @given(st.lists(st.tuples(st.integers(2018, 2025),
                              st.sets(st.sampled_from(SKILL_CATEGORIES))),
                    min_size=1, max_size=40),
           st.randoms())
    @settings(max_examples=80, deadline=None)
    def test_permutation_invariance_and_bounds(self, spec, rnd):
        flagged = make_flagged(spec)
        base = yearly(flagged)
        shuffled = list(flagged)
        rnd.shuffle(shuffled)
        assert yearly(shuffled) == base
        for _, rate in base.values():
            for c in SKILL_CATEGORIES:
                assert 0.0 <= rate[c] <= 1000.0

    def test_monotone_lexicon_property(self):
        texts = ["handles the nightly backup rotation and tape archive",
                 "python developer with gpt experience",
                 "pure filler text about the lovely office"]
        years = [2022, 2022, 2023]
        base_m = CompiledMatcher({"AI_Data": ["python"], "Routine": ["tape archive"],
                                  "Soft_Meta": ["x1"], "Domain_Specific": ["x2"],
                                  "Leadership": ["x3"]})
        grown_m = CompiledMatcher({"AI_Data": ["python", "gpt"],
                                   "Routine": ["tape archive"], "Soft_Meta": ["x1"],
                                   "Domain_Specific": ["x2"], "Leadership": ["x3"]})
        def rates(m):
            flagged = [(detect_skills(posting(t, year=y, pid=f"p{i}"), m), y)
                       for i, (t, y) in enumerate(zip(texts, years))]
            return [rate for _, rate in yearly(flagged).values()]
        before, after = rates(base_m), rates(grown_m)
        for yb, ya in zip(before, after):
            assert ya["AI_Data"] >= yb["AI_Data"]
            for c in SKILL_CATEGORIES:
                if c != "AI_Data":
                    assert ya[c] == yb[c]

    def test_stability_under_reordering_to_1e9(self):
        rng = random.Random(5)
        spec = [(rng.randint(2018, 2025),
                 {c for c in SKILL_CATEGORIES if rng.random() < 0.4})
                for _ in range(500)]
        flagged = make_flagged(spec)
        a = yearly(flagged)
        b = yearly(list(reversed(flagged)))
        assert list(a) == list(b)
        for year in a:
            for c in SKILL_CATEGORIES:
                assert abs(a[year][1][c] - b[year][1][c]) < 1e-9


KEYS = st.tuples(st.integers(2018, 2025), st.sampled_from(["IT", "Legal", "Sales"]))
REALS = st.floats(-1e6, 1e6, allow_nan=False)


class TestRateTable:
    @given(st.lists(st.tuples(KEYS, st.tuples(REALS, REALS, st.sampled_from([0.0, 1000.0]),
                                              st.sampled_from([0.0, 1000.0]))),
                    max_size=60))
    @settings(max_examples=150, deadline=None)
    def test_rows_match_per_group_reference_exactly(self, keyed):
        rows = rate_table(keyed)
        groups = {}
        for key, values in keyed:
            groups.setdefault(key, []).append(values)
        assert [tuple(row[:2]) for row in rows] == sorted(groups)
        assert sum(row[2] for row in rows) == len(keyed)
        for year, sector, n, *means in rows:
            group = groups[(year, sector)]
            assert n == len(group)
            assert means == [sum(column) / n for column in zip(*group)]
            for mean, column in zip(means[2:], list(zip(*group))[2:]):
                assert mean == 1000.0 * column.count(1000.0) / n
