"""End-to-end acceptance suite.

Each test covers one release criterion and emits a single PASS/FAIL line on
the real terminal (bypassing capture) so a full run reads as a checklist.
"""

import json
import math
import random
import time

import numpy as np
import pytest

from skillscope.arima import ArimaSpec, arima_fit, arima_forecast
from skillscope.cleanse import cleanse
from skillscope.embed import HashedProvider
from skillscope.fixtures import YEARS, _prevalence, generate_rows, write_demo_corpus
from skillscope.framing import AnchorCentroids, frame_document
from skillscope.ingest import Deduplicator, RawRecord, dedup_key
from skillscope.skills import detect_skills, per_mille, rate_table
from skillscope.taxonomy import (
    SECTOR_NAMES,
    SKILL_CATEGORIES,
    CompiledMatcher,
    load_anchors,
    load_sectors,
    load_taxonomy,
)
from skillscope.text import tokenize
from skillscope.topics import (
    LdaConfig,
    build_dtm,
    density_topics,
    kmeans_fit,
    lda_fit,
)
from skillscope.trends import RateSeries, classify_sector, pearson_matrix

from .helpers import labeled_cleanse_batch
from .test_taxonomy import naive_match
from .test_topics import brute_force_best_wcss, lda_purity, over_time_weights, two_topic_corpus
from .test_trends import engineered_pair


@pytest.fixture
def report(capsys, request):
    """Print one PASS/FAIL line per criterion on the real terminal."""
    outcome = {"ok": False}
    yield outcome
    label = request.node.name.replace("test_", "", 1)
    with capsys.disabled():
        print(f"[{'PASS' if outcome['ok'] else 'FAIL'}] {label}")


def test_01_pipeline_determinism(tmp_path, report):
    from skillscope.cli import PIPELINE, RunConfig, run_all

    started = time.monotonic()
    trees = []
    for run in ("one", "two"):
        root = tmp_path / run
        cfg = RunConfig.load(write_demo_corpus(root))
        run_all(cfg)
        tree = {}
        for stage in PIPELINE.values():
            for name in stage.outputs:
                tree[name] = (cfg.output_dir / name).read_bytes()
        trees.append(tree)
    elapsed = time.monotonic() - started
    assert trees[0] == trees[1]
    assert elapsed < 60.0
    report["ok"] = True


def test_02_cleanse_conservation(report):
    records, labels = labeled_cleanse_batch()
    postings, rep = cleanse(records)
    assert rep.retained + sum(rep.rejected.values()) == 100
    expected = {r: labels.count(r) for r in ("bad_date", "non_english", "too_short")}
    expected["out_of_range"] = 0
    assert rep.rejected == expected
    retained_ids = {p.id for p in postings}
    for rec, label in zip(records, labels):
        assert (rec.source_id in retained_ids) == (label == "retained")
    report["ok"] = True


def test_03_skill_extraction_oracle_equivalence(report):
    patterns = load_taxonomy()
    matcher = CompiledMatcher(patterns)
    all_phrases = [ph for phs in patterns.values() for ph in phs]
    filler = ["office", "team", "apply", "today", "role", "support", "city",
              "remote", "hours", "salary", "great", "join"]
    rng = random.Random(101)
    mismatches = 0
    for _ in range(1000):
        words = [rng.choice(filler) for _ in range(rng.randint(5, 60))]
        for ph in rng.sample(all_phrases, rng.randint(0, 6)):
            pos = rng.randrange(len(words) + 1)
            words[pos:pos] = ph.split()
        text = " ".join(words)
        if matcher.match_hits(text) != naive_match(text, patterns):
            mismatches += 1
    assert mismatches == 0
    report["ok"] = True


def test_04_trend_recovery(report):
    rows = generate_rows(n=2000, seed=42)
    records = [RawRecord(f"g:{i}", d, t, "csv") for i, (d, t) in enumerate(rows)]
    dedup = Deduplicator()
    postings, _ = cleanse([r for r in records if dedup.first(dedup_key(r.raw_text), "g")])
    matcher = CompiledMatcher(load_taxonomy())
    yearly = [(n, dict(zip(SKILL_CATEGORIES, rates))) for _, n, *rates in
              rate_table(((p.year,), per_mille(detect_skills(p, matcher)))
                         for p in postings)]
    ai = [rate["AI_Data"] for _, rate in yearly]
    routine = [rate["Routine"] for _, rate in yearly]
    assert all(b > a for a, b in zip(ai, ai[1:]))           # strictly increasing
    assert all(b < a for a, b in zip(routine, routine[1:]))  # strictly decreasing
    for (n, y_rate), year in zip(yearly, YEARS):
        for rate, (lo, hi) in ((y_rate["AI_Data"], (0.10, 0.80)),
                               (y_rate["Routine"], (0.40, 0.10))):
            p = _prevalence(year, lo, hi)
            sigma = math.sqrt(p * (1 - p) / n) * 1000.0
            assert abs(rate - 1000.0 * p) <= 3.0 * sigma
    report["ok"] = True


def test_05_framing_index_sign(report):
    provider = HashedProvider()
    anchors = load_anchors()
    centroids = AnchorCentroids.from_anchors(anchors, provider)
    swapped = AnchorCentroids(ai=centroids.ai, augment=centroids.automate,
                              automate=centroids.augment)
    filler = ["office", "team", "apply", "today", "role", "support", "remote"]
    rng = random.Random(55)
    correct = 0
    for i in range(500):
        group = anchors["augment_anchors" if i % 2 == 0 else "automate_anchors"]
        words = rng.choices(filler, k=rng.randint(2, 8))
        for ph in rng.choices(group, k=rng.randint(2, 5)):
            words.append(ph)
        rng.shuffle(words)
        doc = provider.embed(" ".join(words))
        fi = frame_document(doc, centroids).framing_index
        if (fi > 0) == (i % 2 == 0):
            correct += 1
        assert frame_document(doc, swapped).framing_index == -fi  # exact
    assert correct / 500 >= 0.95
    report["ok"] = True


def test_06_lda_recovery(report):
    good = 0
    for seed in range(10):
        docs, labels = two_topic_corpus(n_docs=40, seed=seed)
        model = lda_fit(build_dtm(docs), LdaConfig(K=2, iterations=1000, seed=seed))
        assert np.allclose(model.phi.sum(axis=1), 1.0, atol=1e-9)
        assert np.allclose(model.theta.sum(axis=1), 1.0, atol=1e-9)
        if lda_purity(model, labels) >= 0.95:
            good += 1
    assert good >= 9
    report["ok"] = True


def test_07_kmeans_optimality(report):
    rng = np.random.default_rng(8)
    points = np.vstack([rng.normal(size=(6, 2)),
                        rng.normal(size=(6, 2)) + [5.0, 0.0]])
    best = brute_force_best_wcss([p for p in points])
    optimal = 0
    for seed in range(10):
        model = kmeans_fit(points, 2, seed=seed)
        for a, b in zip(model.wcss_trace, model.wcss_trace[1:]):
            assert b <= a + 1e-9  # WCSS trace monotone on every run
        if model.wcss <= best + 1e-9:
            optimal += 1
    assert optimal >= 9
    report["ok"] = True


def test_08_density_topic_recovery(report):
    rng = random.Random(0)
    provider = HashedProvider(seed=5)
    pools = ([f"alphaterm{i}" for i in range(10)], [f"betaterm{i}" for i in range(10)])
    docs, truth = [], []
    for fam, pool in enumerate(pools):
        for _ in range(300):
            docs.append(" ".join(rng.choices(pool, k=400)))
            truth.append(fam)
    emb = np.array([provider.embed(d) for d in docs])
    truth = np.array(truth)
    model = density_topics(emb, min_cluster_size=50, k_reduced=8, seed=2)
    assert set(model.labels.tolist()) - {-1} == {0, 1}
    hits = 0
    for fam in (0, 1):
        members = model.labels[truth == fam]
        members = members[members != -1]
        hits += int(np.bincount(members).max()) if members.size else 0
    assert hits / 600 >= 0.95

    # planted mixture schedule: topic-0 share falls linearly 0.8 -> 0.2
    labels_by_fam = {}
    for fam in (0, 1):
        members = model.labels[truth == fam]
        labels_by_fam[fam] = int(np.bincount(members[members != -1]).argmax())
    years, doc_labels = [], []
    per_year = 75
    fam_idx = {f: np.flatnonzero(truth == f) for f in (0, 1)}
    cursor = {0: 0, 1: 0}
    for yi, year in enumerate(YEARS):
        share0 = 0.8 - 0.6 * yi / (len(YEARS) - 1)
        n0 = round(per_year * share0)
        for fam, n in ((0, n0), (1, per_year - n0)):
            for _ in range(n):
                i = fam_idx[fam][cursor[fam] % len(fam_idx[fam])]
                cursor[fam] += 1
                years.append(year)
                doc_labels.append(int(model.labels[i]))
    weights = over_time_weights(doc_labels, years)
    for yi, year in enumerate(YEARS):
        assert sum(weights[year].values()) == pytest.approx(1.0, abs=1e-9)
        share0 = 0.8 - 0.6 * yi / (len(YEARS) - 1)
        got = weights[year].get(labels_by_fam[0], 0.0)
        planted = round(per_year * share0) / per_year
        assert abs(got - planted) <= 0.05
    report["ok"] = True


def test_09_arima_parameter_recovery(report):
    recovered = 0
    for seed in range(10):
        rng = np.random.default_rng(seed)
        x = np.zeros(300)  # 100-sample burn-in so the kept window is stationary
        for t in range(1, 300):
            x[t] = 0.6 * x[t - 1] + rng.normal()
        model = arima_fit(x[100:], ArimaSpec(1, 0, 0))
        if 0.5 <= model.ar_coeffs[0] <= 0.7:
            recovered += 1
    assert recovered >= 9

    walk = np.array([3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0])
    fc = arima_forecast(arima_fit(walk, ArimaSpec(0, 1, 0)), 4)
    assert [point for point, _, _ in fc] == [6.0] * 4  # flat at the last observation, exactly
    report["ok"] = True


def test_10_correlation_matrix(report):
    years = tuple(range(2018, 2026))
    rng = np.random.default_rng(11)
    x = rng.normal(size=8)
    y49 = engineered_pair(x, 0.49, rng.normal(size=8))

    def to_rate(v):
        v = np.asarray(v, dtype=float)
        return 500.0 + 100.0 * (v - v.mean()) / (np.abs(v).max() + 1.0)

    def mk(label, v):
        return RateSeries(label=(label,), points=tuple(zip(years, to_rate(v))))

    per_cat = {
        "AI_Data": mk("AI_Data", x),
        "Routine": mk("Routine", y49),
        "Soft_Meta": mk("Soft_Meta", 3.0 * x - 7.0),
        "Domain_Specific": mk("Domain_Specific", rng.normal(size=8)),
        "Leadership": mk("Leadership", rng.normal(size=8)),
    }
    m = pearson_matrix(per_cat)
    assert np.allclose(m, m.T, atol=1e-12)
    assert np.allclose(np.diag(m), 1.0, atol=1e-12)

    # brute-force covariance oracle for every pair
    vals = {c: np.array([r for _, r in per_cat[c].points]) for c in per_cat}
    for i, a in enumerate(SKILL_CATEGORIES):
        for j, b in enumerate(SKILL_CATEGORIES):
            va, vb = vals[a], vals[b]
            cov = float(((va - va.mean()) * (vb - vb.mean())).mean())
            oracle = cov / (va.std() * vb.std())
            assert m[i, j] == pytest.approx(oracle, abs=1e-9)

    i, j = SKILL_CATEGORIES.index("AI_Data"), SKILL_CATEGORIES.index("Routine")
    assert m[i, j] == pytest.approx(0.49, abs=1e-9)
    assert m[i, SKILL_CATEGORIES.index("Soft_Meta")] == pytest.approx(1.0, abs=1e-9)

    # affine invariance of any single series
    per_cat["Leadership"] = RateSeries(
        label=("Leadership",),
        points=tuple((y, 0.5 * r + 10.0) for y, r in per_cat["Leadership"].points))
    m2 = pearson_matrix(per_cat)
    assert np.allclose(m, m2, atol=1e-12)
    report["ok"] = True


def test_11_sector_classification(report):
    from .conftest import posting

    matcher = CompiledMatcher(load_sectors())

    def sector_of(p):
        return classify_sector(p, matcher, tokenize(p.description))

    snippets = {
        "IT": "developer maintaining backend services and devops pipelines",
        "Healthcare": "nurse supporting clinical staff and patient rounds",
        "Legal": "lawyer handling litigation for the law firm",
        "Education": "teacher planning classroom work with the curriculum team",
        "Design": "designer producing graphic design and ux reviews",
        "Finance": "accountant preparing audit and investment files",
        "Logistics": "warehouse operative managing freight and shipping",
        "Sales": "sales representative driving business development",
        "Management": "manager and team lead reporting to the director",
    }
    correct = 0
    total = 0
    for sector in SECTOR_NAMES:
        for i in range(10):
            p = posting(f"{snippets[sector]} opening number {i}",
                        pid=f"{sector}-{i}")
            total += 1
            if sector_of(p) == sector:
                correct += 1
    assert total == 90 and correct == 90

    # tie-break determinism by construction: one IT hit vs one Finance hit
    tie = posting("developer working on audit tooling")
    assert sector_of(tie) == "IT"  # IT precedes Finance in priority
    report["ok"] = True
