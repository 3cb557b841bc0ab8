import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from skillscope.arima import ArimaSpec
from skillscope.errors import ConfigError
from skillscope.skills import detect_skills, per_mille
from skillscope.taxonomy import SKILL_CATEGORIES, CompiledMatcher, load_sectors, load_taxonomy
from skillscope.trends import (
    RateSeries,
    classify_sector,
    exp_smooth,
    forecast_series,
    pearson_matrix,
    pearson_r,
    sector_rates,
    sector_totals,
    smooth_series,
)

from .conftest import posting

SECTORS = load_sectors()
YEARS = tuple(range(2018, 2026))


def series(values, label=("AI_Data",)):
    return RateSeries(label=label, points=tuple(zip(YEARS[:len(values)], values)))


def standardized(v):
    v = np.asarray(v, dtype=float)
    return (v - v.mean()) / v.std()


def engineered_pair(x, rho, helper):
    """Return y with sample correlation to x exactly rho (Gram-Schmidt)."""
    xs = standardized(x)
    h = np.asarray(helper, dtype=float)
    resid = h - h.mean() - (np.dot(h - h.mean(), xs) / np.dot(xs, xs)) * xs
    es = resid / resid.std()
    return rho * xs + math.sqrt(1 - rho * rho) * es


class TestExpSmooth:
    def test_alpha_one_identity(self):
        assert exp_smooth([3.0, 1.0, 4.0], 1.0) == [3.0, 1.0, 4.0]

    def test_constant_fixed_point(self):
        assert exp_smooth([5.0] * 6, 0.3) == [5.0] * 6

    def test_hand_recursion(self):
        assert exp_smooth([0, 10, 0, 10], 0.5) == [0.0, 5.0, 2.5, 6.25]

    def test_bad_alpha(self):
        with pytest.raises(ConfigError):
            exp_smooth([1.0], 0.0)

    @given(st.lists(st.floats(0, 1000), min_size=1, max_size=20),
           st.floats(0.01, 1.0))
    @settings(max_examples=100, deadline=None)
    def test_output_within_input_range(self, values, alpha):
        out = exp_smooth(values, alpha)
        assert min(values) - 1e-9 <= min(out) and max(out) <= max(values) + 1e-9


class TestRateSeries:
    def test_years_must_increase(self):
        with pytest.raises(ConfigError):
            RateSeries(label=("x",), points=((2020, 1.0), (2019, 2.0)))

    def test_rate_bounds(self):
        with pytest.raises(ConfigError):
            RateSeries(label=("x",), points=((2020, 1200.0),))

    def test_smooth_series_keeps_years(self):
        s = series([0, 10, 0, 10])
        sm = smooth_series(s, 0.5)
        assert sm.years == s.years
        assert list(sm.values) == [0.0, 5.0, 2.5, 6.25]


class TestPearson:
    def test_self_correlation(self):
        x = np.array([1.0, 5.0, 2.0, 8.0])
        assert pearson_r(x, x) == pytest.approx(1.0, abs=1e-12)

    def test_perfect_linear(self):
        x = np.array([1.0, 2.0, 3.0])
        assert pearson_r(x, 2 * x) == pytest.approx(1.0, abs=1e-12)
        assert pearson_r(x, -x) == pytest.approx(-1.0, abs=1e-12)

    def test_zero_variance_is_nan(self):
        assert math.isnan(pearson_r(np.ones(4), np.array([1.0, 2.0, 3.0, 4.0])))

    def test_brute_force_covariance_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            x, y = rng.normal(size=8), rng.normal(size=8)
            n = len(x)
            cov = sum((a - x.mean()) * (b - y.mean()) for a, b in zip(x, y)) / n
            sx = math.sqrt(sum((a - x.mean()) ** 2 for a in x) / n)
            sy = math.sqrt(sum((b - y.mean()) ** 2 for b in y) / n)
            assert pearson_r(x, y) == pytest.approx(cov / (sx * sy), abs=1e-9)

    @given(st.lists(st.floats(-100, 100), min_size=3, max_size=12),
           st.floats(0.01, 50), st.floats(-100, 100))
    @settings(max_examples=100, deadline=None)
    def test_affine_invariance(self, xs, a, b):
        x = np.array(xs)
        # a shift much larger than the spread of a*x loses the variation to
        # floating-point cancellation; the property only holds short of that
        assume(a * x.std() > 1e-6 * (1.0 + abs(b)))
        rng = np.random.default_rng(0)
        y = rng.normal(size=len(x))
        r = pearson_r(x, y)
        r_affine = pearson_r(a * x + b, y)
        if math.isnan(r) or math.isnan(r_affine):
            # zero variance before or after rescaling (rounding can flatten x)
            return
        assert abs(r_affine - r) < 1e-12

    def test_matrix_invariants_and_engineered_endpoints(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=8)
        y49 = engineered_pair(x, 0.49, rng.normal(size=8))
        def to_rate(v):
            v = np.asarray(v, dtype=float)
            return 500.0 + 100.0 * (v - v.mean()) / (np.abs(v).max() + 1.0)
        per_cat = {
            "AI_Data": series(to_rate(x), ("AI_Data",)),
            "Routine": series(to_rate(y49), ("Routine",)),
            "Soft_Meta": series(to_rate(2.0 * x + 3.0), ("Soft_Meta",)),  # r=1 with AI_Data
            "Domain_Specific": series(to_rate(rng.normal(size=8)), ("Domain_Specific",)),
            "Leadership": series(to_rate(rng.normal(size=8)), ("Leadership",)),
        }
        m = pearson_matrix(per_cat)
        assert np.allclose(m.entries, m.entries.T, atol=1e-12)
        assert np.allclose(np.diag(m.entries), 1.0, atol=1e-12)
        i, j = m.labels.index("AI_Data"), m.labels.index("Routine")
        assert m.entries[i, j] == pytest.approx(0.49, abs=1e-9)
        k = m.labels.index("Soft_Meta")
        assert m.entries[i, k] == pytest.approx(1.0, abs=1e-9)

    def test_matrix_requires_aligned_years(self):
        per_cat = {c: series([1.0, 2.0, 3.0]) for c in SKILL_CATEGORIES}
        per_cat["Routine"] = RateSeries(label=("Routine",),
                                        points=((2019, 1.0), (2020, 2.0), (2021, 3.0)))
        with pytest.raises(ConfigError):
            pearson_matrix(per_cat)

    def test_zero_variance_series_marked_undefined(self):
        per_cat = {c: series([float(i) for i in range(5)]) for c in SKILL_CATEGORIES}
        per_cat["Leadership"] = series([7.0] * 5)
        m = pearson_matrix(per_cat)
        i = m.labels.index("Leadership")
        for j in range(5):
            if j != i:
                assert math.isnan(m.entries[i, j])
        assert m.entries[i, i] == 1.0


class TestForecastSeries:
    def test_smoothing_applied_before_fit(self):
        s = series([100, 300, 100, 300, 100, 300, 100, 300])
        spec = ArimaSpec(1, 1, 1, smoothing_alpha=0.5)
        fc = forecast_series(s, spec, horizon=2)
        assert fc.model is not None
        smoothed = exp_smooth(list(s.values), 0.5)
        assert np.allclose(np.diff(smoothed), fc.model.last_observations[1])

    def test_short_series_warning_for_202(self):
        s = series([100, 150, 130, 180, 170, 210, 200, 260])
        with pytest.warns(UserWarning, match="fragile"):
            fc = forecast_series(s, ArimaSpec(2, 0, 2), horizon=2)
        assert fc.short_series

    def test_forecast_years_continue_history(self):
        s = series([100, 150, 130, 180, 170, 210, 200, 260])
        fc = forecast_series(s, ArimaSpec(1, 1, 1, smoothing_alpha=0.5), horizon=3)
        assert [y for y, *_ in fc.forecasts] == [2026, 2027, 2028]

    def test_monthly_granularity_dense_series(self):
        # 48 "months" indexed as consecutive integers; no short-series warning
        vals = [500 + 100 * math.sin(i / 5) for i in range(48)]
        s = RateSeries(label=("AI_Data",),
                       points=tuple((i, v) for i, v in enumerate(vals)))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            fc = forecast_series(s, ArimaSpec(2, 0, 2), horizon=6)
        assert not any("fragile" in str(w.message) for w in caught)
        assert len(fc.forecasts) == 6
        assert not fc.short_series


MATCHER = CompiledMatcher.from_taxonomy(load_taxonomy())


class TestClassifySector:
    def test_healthcare_triggers(self):
        p = posting("the nurse will support patient intake and ward rounds")
        assert classify_sector(p, SECTORS) == "Healthcare"

    def test_no_trigger_is_none(self):
        p = posting("a generic posting about an unnamed role in town")
        assert classify_sector(p, SECTORS) is None

    def test_tie_breaks_by_priority(self):
        # 1 IT hit vs 1 Finance hit; IT precedes Finance in priority
        p = posting("developer needed for audit work")
        assert classify_sector(p, SECTORS) == "IT"

    def test_more_distinct_hits_beats_priority(self):
        # 2 Finance hits vs 1 IT hit
        p = posting("developer supporting audit and investment teams")
        assert classify_sector(p, SECTORS) == "Finance"

    def test_repeated_trigger_counts_once(self):
        p = posting("nurse nurse nurse but developer and devops")
        assert classify_sector(p, SECTORS) == "IT"


class TestSectorRates:
    def flag_rows(self, postings):
        """The ``skill_flags.ndjson`` rows ``extract`` writes for ``postings``."""
        sectors = sector_totals(postings, SECTORS)
        return [{"posting_id": p.id, **detect_skills(p, MATCHER).flags, "sector": sectors[p.id]}
                for p in postings]

    def rates(self, postings):
        """{(sector, year): (postings, rates)} from the ascending rows."""
        rows = sector_rates([p.year for p in postings],
                            [(row["sector"], per_mille(row)) for row in self.flag_rows(postings)])
        keys = [tuple(row[:2]) for row in rows]
        assert keys == sorted(keys)
        return {(sector, year): (n, dict(zip(SKILL_CATEGORIES, rates)))
                for sector, year, n, *rates in rows}

    def test_rate_arithmetic(self):
        postings = [posting(
            "hospital nurse role" + (" with python scripting" if i < 4 else ""),
            year=2024, pid=f"h{i}") for i in range(10)]
        n, rate = self.rates(postings)[("Healthcare", 2024)]
        assert n == 10
        assert rate["AI_Data"] == 400.0

    def test_absent_sector_year_omitted(self):
        postings = [posting("hospital nurse role", year=2020, pid="a"),
                    posting("developer devops role", year=2022, pid="b")]
        assert list(self.rates(postings)) == [("Healthcare", 2020), ("IT", 2022)]

    def test_unclassified_postings_excluded(self):
        postings = [posting("generic text with python", year=2022, pid="x")]
        assert self.rates(postings) == {}

    def test_planted_it_exceeds_healthcare(self):
        import random
        rng = random.Random(9)
        postings = []
        for year in YEARS:
            for i in range(20):
                it = i < 10
                text = "developer devops role" if it else "hospital nurse role"
                if rng.random() < (0.8 if it else 0.2):
                    text += " requires python and machine learning"
                postings.append(posting(text, year=year, pid=f"{year}-{i}"))
        out = self.rates(postings)
        assert all(out[("IT", y)][1]["AI_Data"] > out[("Healthcare", y)][1]["AI_Data"]
                   for y in YEARS)
