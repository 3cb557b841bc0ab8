import numpy as np
import pytest

from skillscope.embed import HashedProvider
from skillscope.framing import AnchorCentroids, FramingResult, frame_document
from skillscope.skills import rate_table
from skillscope.taxonomy import load_anchors

PROVIDER = HashedProvider()
ANCHORS = load_anchors()
CENTROIDS = AnchorCentroids.from_anchors(ANCHORS, PROVIDER)


def unit(*xs):
    v = np.array(xs, dtype=float)
    return v / np.linalg.norm(v)


class TestFrameDocument:
    def test_constructed_geometry(self):
        centroids = AnchorCentroids(ai=unit(0, 0, 1), augment=unit(1, 0, 0),
                                    automate=unit(0, 1, 0))
        r = frame_document(unit(1, 0, 0), centroids)
        assert r.sim_augment == pytest.approx(1.0, abs=1e-12)
        assert r.sim_automate == pytest.approx(0.0, abs=1e-12)
        assert r.framing_index == pytest.approx(1.0, abs=1e-12)

    def test_identical_centroids_give_zero_fi(self):
        c = unit(1, 2, 3)
        centroids = AnchorCentroids(ai=unit(0, 0, 1), augment=c, automate=c)
        for doc in (unit(1, 0, 0), unit(0, 5, 1), unit(3, 3, 3)):
            assert frame_document(doc, centroids).framing_index == 0.0

    def test_augment_vs_automate_documents(self):
        aug_doc = PROVIDER.embed(" ".join(ANCHORS["augment_anchors"]))
        auto_doc = PROVIDER.embed(" ".join(ANCHORS["automate_anchors"]))
        assert frame_document(aug_doc, CENTROIDS).framing_index > 0
        assert frame_document(auto_doc, CENTROIDS).framing_index < 0

    def test_anchor_swap_antisymmetry_exact(self):
        swapped = AnchorCentroids(ai=CENTROIDS.ai, augment=CENTROIDS.automate,
                                  automate=CENTROIDS.augment)
        for text in ("decision support analyst", "fully automated warehouse",
                     "general posting about teamwork"):
            doc = PROVIDER.embed(text)
            fi = frame_document(doc, CENTROIDS).framing_index
            fi_sw = frame_document(doc, swapped).framing_index
            assert fi == -fi_sw  # exact, not approximate

    def test_ai_anchor_extension_changes_only_sim_ai(self):
        doc = PROVIDER.embed("platform role with decision support duties")
        base = frame_document(doc, CENTROIDS)
        grown = AnchorCentroids.from_anchors(
            {**ANCHORS, "ai_anchors": ANCHORS["ai_anchors"] + ["brand new anchor"]}, PROVIDER)
        r = frame_document(doc, grown)
        assert r.sim_ai != base.sim_ai
        assert r.sim_augment == base.sim_augment
        assert r.sim_automate == base.sim_automate
        assert r.framing_index == base.framing_index

    def test_sign_semantics_tautology(self):
        for text in ("assist the team", "replace the team", "neutral posting"):
            r = frame_document(PROVIDER.embed(text), CENTROIDS)
            assert (r.framing_index > 0) == (r.sim_augment > r.sim_automate)


def result(pid, fi, ai=0.1):
    return FramingResult(posting_id=pid, sim_ai=ai, sim_augment=fi / 2,
                         sim_automate=-fi / 2, framing_index=fi)


def framing_means(results, years, sectors=None):
    """The rows the ``framing`` stage writes: ``[year, n, *means]``, or with
    ``sectors`` ``[year, sector, n, *means]`` over the labelled postings."""
    keys = ((years[r.posting_id],) if sectors is None
            else (years[r.posting_id], sectors.get(r.posting_id)) for r in results)
    return rate_table((key, (r.sim_ai, r.sim_augment, r.sim_automate, r.framing_index))
                      for key, r in zip(keys, results) if key[-1] is not None)


class TestAggregateFraming:
    def test_single_document_per_year(self):
        results = [result("a", 0.3), result("b", -0.1)]
        rows = framing_means(results, {"a": 2020, "b": 2021})
        assert [(year, n, fi) for year, n, *_, fi in rows] == [(2020, 1, 0.3), (2021, 1, -0.1)]

    def test_symmetric_pair_averages_to_zero(self):
        rows = framing_means([result("a", 0.2), result("b", -0.2)], {"a": 2022, "b": 2022})
        assert rows[0][-1] == pytest.approx(0.0, abs=1e-15)

    def test_sector_mode_skips_unlabeled(self):
        results = [result("a", 0.2), result("b", 0.4), result("c", -0.2)]
        years = {"a": 2022, "b": 2022, "c": 2022}
        rows = framing_means(results, years, sectors={"a": "IT", "b": "IT"})
        assert len(rows) == 1
        assert rows[0][:3] == [2022, "IT", 2]
        assert rows[0][-1] == pytest.approx(0.3)

    def test_sorted_by_key(self):
        results = [result(p, 0.1) for p in ("a", "b", "c", "d")]
        years = {"a": 2024, "b": 2018, "c": 2024, "d": 2020}
        sectors = {"a": "Sales", "b": "IT", "c": "Design", "d": "IT"}
        rows = framing_means(results, years, sectors=sectors)
        assert [tuple(row[:2]) for row in rows] == [(2018, "IT"), (2020, "IT"),
                                                     (2024, "Design"), (2024, "Sales")]

    def test_planted_augment_shift_raises_mean_fi(self):
        # augment-phrase density rises after 2021; later-years mean FI larger
        aug = " ".join(ANCHORS["augment_anchors"])
        auto = " ".join(ANCHORS["automate_anchors"])
        filler = "general office posting about quarterly planning and reviews"
        results, years = [], {}
        pid = 0
        for year in range(2018, 2026):
            heavy = aug if year >= 2022 else auto
            for i in range(6):
                text = f"{filler} {heavy}" if i < 4 else f"{filler} extra words {i}"
                key = f"p{pid}"
                results.append(frame_document(PROVIDER.embed(text), CENTROIDS, key))
                years[key] = year
                pid += 1
        series = {row[0]: row[-1] for row in framing_means(results, years)}
        early = np.mean([series[y] for y in range(2018, 2021)])
        late = np.mean([series[y] for y in range(2022, 2026)])
        assert late > early
