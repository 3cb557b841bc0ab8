import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse
from scipy.special import gammaln

from skillscope.cli import topic_entries, topic_over_time
from skillscope.errors import ConfigError, DataError
from skillscope.text import tokenize
from skillscope.topics import (
    NOISE,
    DocTermMatrix,
    LdaConfig,
    build_dtm,
    cluster_terms,
    density_topics,
    k_distance_knee,
    kmeans_fit,
    lda_fit,
    random_projection,
    scaled_min_cluster_size,
    top_terms,
    wcss_of,
)
from skillscope.topics.density import _CHUNK, _dbscan, _pair_sq_dists
from skillscope.topics.dtm import stopwords
from skillscope.topics.kmeans import _sq_dists
from skillscope.topics.lda import BLOCK_CELLS, _cell_sums

from .helpers import dense


# words of the DTM property test: terms, stopwords, and forms the tokenizer splits or folds
DTM_WORDS = ["alpha", "beta", "gamma", "delta", "Beta", "the", "and", "of", "x2",
             "data-driven", "café", "ÉCLAIR", "zeta", "eta"]


def dict_dtm(texts, min_df=1, max_df_fraction=1.0):
    """build_dtm as first written, one {term: count} dict per document, its
    cells laid out in CSR form: the reference the flat builder must equal,
    array for array."""
    if not texts:
        raise DataError("empty corpus")
    stop = stopwords()
    doc_term_counts, df = [], {}
    for text in texts:
        counts = {}
        for tok in tokenize(text):
            if tok not in stop:
                counts[tok] = counts.get(tok, 0) + 1
        for term in counts:
            df[term] = df.get(term, 0) + 1
        doc_term_counts.append(counts)
    n = len(texts)
    kept = [t for t, d in df.items() if d >= min_df and d / n <= max_df_fraction]
    if not kept:
        raise DataError("frequency thresholds eliminated every term")
    vocab = sorted(kept, key=lambda t: (-df[t], t))
    term_id = {t: i for i, t in enumerate(vocab)}
    indptr, indices, doc_counts = [0], [], []
    for counts in doc_term_counts:
        pairs = sorted((term_id[t], c) for t, c in counts.items() if t in term_id)
        indices += [i for i, _ in pairs]
        doc_counts += [c for _, c in pairs]
        indptr.append(len(indices))
    return DocTermMatrix(vocab=vocab, indptr=np.array(indptr, dtype=np.int64),
                         indices=np.array(indices, dtype=np.int64),
                         doc_counts=np.array(doc_counts, dtype=np.int64))


dtm_corpora = dict(
    texts=st.lists(st.lists(st.sampled_from(DTM_WORDS), max_size=12).map(" ".join),
                   min_size=1, max_size=10),
    min_df=st.integers(1, 4), max_df_fraction=st.floats(0.05, 1.0))


class TestBuildDtm:
    def test_hand_counted_two_docs(self):
        dtm = build_dtm(["alpha beta beta", "beta gamma"])
        # df(beta)=2 ranks first; alpha/gamma tie broken lexicographically
        assert dtm.vocab == ["beta", "alpha", "gamma"]
        assert dense(dtm).tolist() == [[2, 1, 0], [1, 0, 1]]

    def test_max_df_excludes_ubiquitous_term(self):
        dtm = build_dtm(["common alpha", "common beta"], max_df_fraction=0.5)
        assert "common" not in dtm.vocab

    def test_min_df(self):
        dtm = build_dtm(["alpha beta", "beta gamma"], min_df=2)
        assert dtm.vocab == ["beta"]

    def test_stopwords_excluded(self):
        dtm = build_dtm(["the alpha and the beta"])
        assert "the" not in dtm.vocab and "and" not in dtm.vocab

    def test_empty_vocabulary(self):
        with pytest.raises(DataError, match="^frequency thresholds eliminated every term$"):
            build_dtm(["the and of"])
        with pytest.raises(DataError, match="^empty corpus$"):
            build_dtm([])

    def test_doc_tokens_multiplicity(self):
        dtm = build_dtm(["alpha beta beta"])
        assert dtm.indptr.tolist() == [0, 2]
        counts = {dtm.vocab[i]: int(c) for i, c in zip(dtm.indices, dtm.doc_counts)}
        assert counts == {"alpha": 1, "beta": 2}

    @settings(max_examples=200, deadline=None)
    @given(**dtm_corpora)
    def test_equals_the_dict_builder(self, texts, min_df, max_df_fraction):
        try:
            expected = dict_dtm(texts, min_df, max_df_fraction)
        except DataError as e:
            with pytest.raises(DataError, match=f"^{e}$"):
                build_dtm(texts, min_df, max_df_fraction)
            return
        dtm = build_dtm(texts, min_df, max_df_fraction)
        assert dtm.vocab == expected.vocab
        assert dtm.n_docs == len(texts)
        for name in ("indptr", "indices", "doc_counts"):
            got, want = getattr(dtm, name), getattr(expected, name)
            assert got.dtype == want.dtype == np.int64
            assert np.array_equal(got, want), name

    @settings(max_examples=200, deadline=None)
    @given(**dtm_corpora)
    def test_csr_invariants(self, texts, min_df, max_df_fraction):
        try:
            dtm = build_dtm(texts, min_df, max_df_fraction)
        except DataError:
            return
        indptr, indices, counts = dtm.indptr, dtm.indices, dtm.doc_counts
        assert indptr.dtype == indices.dtype == counts.dtype == np.int64
        assert indptr.shape == (len(texts) + 1,) and indptr[0] == 0
        assert (np.diff(indptr) >= 0).all()
        assert indptr[-1] == len(indices) == len(counts)
        for d in range(dtm.n_docs):
            cells = indices[indptr[d]:indptr[d + 1]]
            assert (np.diff(cells) > 0).all()
        assert ((0 <= indices) & (indices < dtm.n_terms)).all()
        assert (counts >= 1).all()


def dense_tfidf(dtm):
    """Reference D×V tf-idf: tf = raw count, idf = ln(D/df)."""
    counts = dense(dtm).astype(float)
    return counts * np.log(dtm.n_docs / (counts > 0).sum(axis=0))


def dense_cluster_terms(assignments, dtm, top_n):
    """Reference ranking: each cluster's mean row of the dense tf-idf, sorted
    by (-weight, term) in Python, weights clipped at zero."""
    w = dense_tfidf(dtm)
    out = {}
    for cluster in sorted(set(assignments) - {NOISE}):
        mean_w = w[[i for i, a in enumerate(assignments) if a == cluster]].mean(axis=0)
        order = sorted(range(dtm.n_terms), key=lambda i: (-mean_w[i], dtm.vocab[i]))
        out[cluster] = [(dtm.vocab[i], max(float(mean_w[i]), 0.0)) for i in order[:top_n]]
    return out


class TestTfidf:
    def test_hand_computed(self):
        dtm = build_dtm(["alpha beta beta", "beta gamma"])
        terms = cluster_terms([0, 1], dtm, top_n=dtm.n_terms)
        ln2 = math.log(2.0)
        # beta present everywhere -> idf 0; alpha/gamma in one doc of two
        expected = {0: {"alpha": 1 * ln2, "beta": 2 * 0.0, "gamma": 0.0},
                    1: {"alpha": 0.0, "beta": 0.0, "gamma": 1 * ln2}}
        assert set(terms) == {0, 1}
        for cluster, weights in expected.items():
            got = dict(terms[cluster])
            assert got.keys() == weights.keys()
            for term, weight in weights.items():
                assert got[term] == pytest.approx(weight, abs=1e-12)

    def test_everywhere_term_weight_zero_in_every_cluster(self):
        dtm = build_dtm(["shared alpha", "shared beta", "shared gamma"])
        terms = cluster_terms([0, 0, 1], dtm, top_n=10)
        for cluster in terms.values():
            weights = dict(cluster)
            assert weights["shared"] == 0.0

    def test_single_doc_cluster_equals_row(self):
        dtm = build_dtm(["alpha beta beta", "beta gamma", "alpha gamma delta"])
        w = dense_tfidf(dtm)
        terms = cluster_terms([0, 1, 2], dtm, top_n=dtm.n_terms)
        for t, weight in terms[1]:
            assert weight == pytest.approx(max(w[1][dtm.vocab.index(t)], 0.0), abs=1e-12)

    def test_marker_terms_rank_first(self):
        docs = (["markerone filler common"] * 3 + ["markertwo filler common"] * 3
                + ["markerthree filler common"] * 3)
        dtm = build_dtm(docs)
        assignments = [0] * 3 + [1] * 3 + [2] * 3
        terms = cluster_terms(assignments, dtm)
        assert terms[0][0][0] == "markerone"
        assert terms[1][0][0] == "markertwo"
        assert terms[2][0][0] == "markerthree"

    def test_cluster_permutation_equivariance(self):
        dtm = build_dtm(["alpha beta", "gamma delta", "alpha delta", "beta gamma"])
        a = cluster_terms([0, 1, 0, 1], dtm)
        b = cluster_terms([1, 0, 1, 0], dtm)
        assert a[0] == b[1] and a[1] == b[0]

    def test_recomputation_matches_to_1e9(self):
        # exact: the same weights, bit for bit, in the same order; label -1
        # is NOISE, whose documents no cluster counts
        for seed in range(8):
            rng = random.Random(seed)
            vocab_pool = [f"word{i}" for i in range(rng.randint(5, 80))]
            docs = [" ".join(rng.choices(vocab_pool, k=rng.randint(1, 40)))
                    for _ in range(rng.randint(2, 60))]
            dtm = build_dtm(docs)
            assignments = [rng.randrange(-1, 4) for _ in docs]
            for top_n in (3, 15, dtm.n_terms):
                assert cluster_terms(assignments, dtm, top_n=top_n) \
                    == dense_cluster_terms(assignments, dtm, top_n), (seed, top_n)

    def test_assignments_must_cover_every_document(self):
        dtm = build_dtm(["alpha beta", "gamma delta"])
        with pytest.raises(ValueError):
            cluster_terms([0], dtm)

    def test_top_terms_ties_lexicographic_and_negatives_clipped(self):
        vocab = ["delta", "beta", "alpha", "gamma", "epsilon"]
        weights = np.array([1.0, 2.0, 1.0, -0.5, -3.0])
        assert top_terms(weights, vocab, 5) == [
            ("beta", 2.0), ("alpha", 1.0), ("delta", 1.0), ("gamma", 0.0), ("epsilon", 0.0)]
        assert top_terms(weights, vocab, 2) == [("beta", 2.0), ("alpha", 1.0)]
        assert top_terms(np.zeros(5), vocab, 5) == [(t, 0.0) for t in sorted(vocab)]

    def test_memory_grows_with_non_zeros_not_docs_times_vocab(self):
        # 4,000 docs x 8,000 terms: a dense float copy alone is 256 MB
        n_docs, n_terms = 4000, 8000
        rng = np.random.default_rng(0)
        doc_indices, doc_counts = [], []
        for d in range(n_docs):
            idx = np.unique(np.concatenate([[d, d + n_docs], rng.integers(0, n_terms, 3)]))
            doc_indices.append(idx.astype(np.int64))
            doc_counts.append(rng.integers(1, 4, idx.size).astype(np.int64))
        dtm = DocTermMatrix(vocab=[f"term{i:04d}" for i in range(n_terms)],
                            indptr=np.cumsum([0] + [len(idx) for idx in doc_indices]),
                            indices=np.concatenate(doc_indices),
                            doc_counts=np.concatenate(doc_counts))
        kmeans_like = rng.integers(0, 6, n_docs)
        density_like = rng.integers(-1, 3, n_docs)
        tracemalloc.start()
        try:
            terms = [cluster_terms(labels, dtm) for labels in (kmeans_like, density_like)]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2 ** 20, f"peak {peak / 2 ** 20:.1f} MB"
        assert sorted(terms[0]) == list(range(6)) and sorted(terms[1]) == [0, 1, 2]
        assert all(len(ranked) == 15 for t in terms for ranked in t.values())


def two_topic_corpus(n_docs=40, seed=0):
    rng = random.Random(seed)
    vocab_a = [f"aaa{i}" for i in range(10)]
    vocab_b = [f"bbb{i}" for i in range(10)]
    docs, labels = [], []
    for i in range(n_docs):
        side = i % 2
        pool = vocab_a if side == 0 else vocab_b
        docs.append(" ".join(rng.choices(pool, k=25)))
        labels.append(side)
    return docs, labels


def lda_purity(model, labels):
    doc_topics = model.theta.argmax(axis=1)
    agree = sum(int(t == l) for t, l in zip(doc_topics, labels))
    return max(agree, len(labels) - agree) / len(labels)


def cvb0_reference(dtm, cfg):
    """Plain-loop CVB0 over the cells in DTM order (by document, then term),
    from lda_fit's seeded start."""
    cells = [(d, w, c) for d, row in enumerate(dense(dtm).tolist())
             for w, c in enumerate(row) if c]
    K, V = cfg.K, dtm.n_terms
    gamma = [[g / sum(row) for g in row]
             for row in np.random.default_rng(cfg.seed).random((len(cells), K)).tolist()]

    def counts(gamma):
        n_dk = [[0.0] * K for _ in range(dtm.n_docs)]
        n_wk = [[0.0] * K for _ in range(V)]
        for (d, w, c), row in zip(cells, gamma):
            for k in range(K):
                n_dk[d][k] += c * row[k]
                n_wk[w][k] += c * row[k]
        return n_dk, n_wk

    for _ in range(cfg.iterations):
        n_dk, n_wk = counts(gamma)
        n_k = [sum(n_wk[w][k] for w in range(V)) for k in range(K)]
        new = []
        for (d, w, c), row in zip(cells, gamma):
            p = [(n_dk[d][k] - row[k] + cfg.alpha) * (n_wk[w][k] - row[k] + cfg.beta)
                 / (n_k[k] - row[k] + V * cfg.beta) for k in range(K)]
            new.append([x / sum(p) for x in p])
        gamma = new
    return counts(gamma)[0]


def row_major_cvb0(dtm, cfg):
    """The vectorised CVB0 sweep with gamma cell-major (N x K), from one
    (N, K) seeded draw over the non-zero cells of the dense counts in row-major
    order: (phi, theta, n_dk, trace), the bytes lda_fit must give."""
    K, V, D = cfg.K, dtm.n_terms, dtm.n_docs
    alpha, beta = float(cfg.alpha), float(cfg.beta)
    vbeta = V * beta
    counts = dense(dtm)
    lengths = np.count_nonzero(counts, axis=1)
    doc, term = np.nonzero(counts)
    count = counts[doc, term].astype(float)
    cells = np.arange(len(count))
    by_doc = sparse.csr_matrix((count, (doc, cells)), shape=(D, len(count)))
    by_term = sparse.csr_matrix((count, (term, cells)), shape=(V, len(count)))

    def log_joint_words(n_kt):
        return float(gammaln(n_kt + beta).sum() - gammaln(n_kt.sum(axis=1) + vbeta).sum())

    gamma = np.random.default_rng(cfg.seed).random((len(count), K))
    gamma /= gamma.sum(axis=1, keepdims=True)
    n_dk, n_wk = by_doc @ gamma, by_term @ gamma
    trace = []
    for sweep in range(cfg.iterations):
        n_k = n_wk.sum(axis=0)
        gamma = (np.repeat(n_dk + alpha, lengths, axis=0) - gamma) \
            * (np.take(n_wk + beta, term, axis=0) - gamma) / ((n_k + vbeta) - gamma)
        gamma /= gamma.sum(axis=1, keepdims=True)
        n_dk, n_wk = by_doc @ gamma, by_term @ gamma
        if sweep % 10 == 0 or sweep == cfg.iterations - 1:
            trace.append(log_joint_words(n_wk.T))
    n_kt = n_wk.T
    phi = (n_kt + beta) / (n_kt.sum(axis=1, keepdims=True) + vbeta)
    theta = (n_dk + alpha) / (n_dk.sum(axis=1, keepdims=True) + K * alpha)
    return phi, theta, n_dk, trace


class TestLda:
    def test_matches_plain_loop_reference(self):
        dtm = build_dtm(["alpha beta beta gamma", "beta delta delta delta", "gamma alpha"])
        cfg = LdaConfig(K=3, alpha=0.5, beta=0.1, iterations=4, seed=11)
        model = lda_fit(dtm, cfg)
        assert np.allclose(model.doc_topic_counts, cvb0_reference(dtm, cfg),
                           rtol=1e-12, atol=1e-12)

    def test_row_stochastic(self):
        docs, _ = two_topic_corpus()
        model = lda_fit(build_dtm(docs), LdaConfig(K=3, iterations=30, seed=1))
        assert np.allclose(model.phi.sum(axis=1), 1.0, atol=1e-9)
        assert np.allclose(model.theta.sum(axis=1), 1.0, atol=1e-9)

    def test_count_conservation(self):
        docs, _ = two_topic_corpus(n_docs=10)
        dtm = build_dtm(docs)
        model = lda_fit(dtm, LdaConfig(K=3, iterations=10, seed=1))
        doc_lengths = dense(dtm).sum(axis=1).astype(float)
        assert model.doc_topic_counts.shape == (dtm.n_docs, 3)
        assert np.allclose(model.doc_topic_counts.sum(axis=1), doc_lengths, rtol=0, atol=1e-9)
        assert model.doc_topic_counts.sum() == pytest.approx(doc_lengths.sum(), abs=1e-9)

    def test_k1_degenerate(self):
        docs = ["alpha beta beta", "beta gamma"]
        dtm = build_dtm(docs)
        cfg = LdaConfig(K=1, iterations=5, seed=0)
        model = lda_fit(dtm, cfg)
        assert np.allclose(model.theta, 1.0)
        counts = dense(dtm).sum(axis=0).astype(float)
        expected = (counts + cfg.beta) / (counts.sum() + dtm.n_terms * cfg.beta)
        assert np.allclose(model.phi[0], expected, atol=1e-12)

    def test_same_seed_bit_identical(self):
        docs, _ = two_topic_corpus(n_docs=16)
        dtm = build_dtm(docs)
        m1 = lda_fit(dtm, LdaConfig(K=2, iterations=40, seed=7))
        m2 = lda_fit(dtm, LdaConfig(K=2, iterations=40, seed=7))
        assert np.array_equal(m1.phi, m2.phi)
        assert np.array_equal(m1.theta, m2.theta)
        assert np.array_equal(m1.doc_topic_counts, m2.doc_topic_counts)

    def test_two_topic_recovery_single_seed(self):
        docs, labels = two_topic_corpus()
        model = lda_fit(build_dtm(docs), LdaConfig(K=2, iterations=200, seed=3))
        assert lda_purity(model, labels) >= 0.95

    def test_trace_trends_upward(self):
        docs, _ = two_topic_corpus()
        model = lda_fit(build_dtm(docs), LdaConfig(K=2, iterations=100, seed=5))
        trace = model.log_likelihood_trace
        assert len(trace) >= 2
        assert trace[-1] > trace[0]  # monitored trend, not per-step monotone

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 4),
           st.lists(st.lists(st.sampled_from("abcdef"), min_size=0, max_size=12),
                    min_size=1, max_size=8).filter(lambda docs: any(docs)),
           st.integers(0, 2**32 - 1))
    def test_small_dtm_invariants(self, K, docs, seed):
        # each letter names one term; a letter drawn twice repeats it in the document
        dtm = build_dtm([" ".join(f"term{c}" for c in doc) for doc in docs])
        cfg = LdaConfig(K=K, iterations=7, seed=seed)
        model = lda_fit(dtm, cfg)
        assert model.phi.shape == (K, dtm.n_terms) and model.theta.shape == (len(docs), K)
        assert np.allclose(model.phi.sum(axis=1), 1.0, rtol=0, atol=1e-12)
        assert np.allclose(model.theta.sum(axis=1), 1.0, rtol=0, atol=1e-12)
        assert (model.phi > 0).all() and (model.theta > 0).all()
        n_dk = model.doc_topic_counts
        doc_lengths = np.array([len(doc) for doc in docs], dtype=float)
        assert (n_dk >= 0).all()
        assert np.allclose(n_dk.sum(axis=1), doc_lengths, rtol=0, atol=1e-9)
        expected = (n_dk + cfg.alpha) / (doc_lengths[:, None] + K * cfg.alpha)
        assert np.allclose(model.theta, expected, rtol=1e-12, atol=1e-12)
        assert len(model.log_likelihood_trace) == 2  # sweeps 0 and 6

    @pytest.mark.parametrize("K", [1, 2, 7, 8, 9, 16, 17, 128, 129, 130])
    def test_bit_identical_to_row_major_sweep(self, K):
        # K up to 7 sums a cell in turn, 8 to 128 in eight running sums, and
        # above 128 in halves; beta 0.5 makes the term counts matter more
        docs, _ = two_topic_corpus(n_docs=24, seed=K)
        dtm = build_dtm(docs)
        for beta in (0.01, 0.5):
            cfg = LdaConfig(K=K, beta=beta, iterations=11, seed=K)
            model = lda_fit(dtm, cfg)
            phi, theta, n_dk, trace = row_major_cvb0(dtm, cfg)
            assert np.array_equal(model.phi, phi)
            assert np.array_equal(model.theta, theta)
            assert np.array_equal(model.doc_topic_counts, n_dk)
            assert model.log_likelihood_trace == trace

    def test_seeded_start_drawn_in_blocks_is_one_draw(self):
        # more cells than one block of the draw, so the start spans blocks
        docs = [" ".join(f"w{(d * 7 + i) % 500}" for i in range(40)) for d in range(120)]
        dtm = build_dtm(docs, min_df=1)
        assert len(dtm.indices) > BLOCK_CELLS
        cfg = LdaConfig(K=3, iterations=1, seed=9)
        model = lda_fit(dtm, cfg)
        assert np.array_equal(model.doc_topic_counts, row_major_cvb0(dtm, cfg)[2])

    @pytest.mark.parametrize("K", [1, 7, 8, 9, 129])
    def test_bit_identical_to_row_major_sweep_over_several_blocks(self, K):
        # more cells than one sweep block, the last block ragged, and terms
        # repeated within a document; K covers each way _cell_sums adds
        docs = [" ".join(f"w{(d * 7 + i * i) % 400}" for i in range(60)) for d in range(100)]
        dtm = build_dtm(docs, min_df=1)
        cells = np.count_nonzero(dense(dtm))
        assert cells > BLOCK_CELLS and cells % BLOCK_CELLS
        assert dense(dtm).max() > 1
        cfg = LdaConfig(K=K, iterations=3, seed=K)
        model = lda_fit(dtm, cfg)
        phi, theta, n_dk, trace = row_major_cvb0(dtm, cfg)
        assert np.array_equal(model.phi, phi)
        assert np.array_equal(model.theta, theta)
        assert np.array_equal(model.doc_topic_counts, n_dk)
        assert model.log_likelihood_trace == trace

    def test_a_fit_holds_two_arrays_of_responsibilities(self):
        docs = [" ".join(f"w{(d * 13 + i * 7) % 3000}" for i in range(100)) for d in range(1000)]
        dtm = build_dtm(docs, min_df=1)
        K, cells = 32, len(dtm.indices)
        responsibilities = K * cells * 8  # bytes of one K x N array
        scratch = 2 * K * BLOCK_CELLS * 8
        tracemalloc.start()
        try:
            lda_fit(dtm, LdaConfig(K=K, iterations=2, seed=1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # gamma, the next gamma and a sweep block's scratch, with half an
        # array to spare for the cell arrays, the sparse products and the
        # expected counts; a third K x N array would break the bound
        assert peak < 2.5 * responsibilities + scratch

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 300), st.integers(1, 5), st.integers(0, 2**32 - 1))
    def test_cell_sums_add_in_numpys_order(self, K, n, seed):
        rng = np.random.default_rng(seed)
        # magnitudes from 1e-8 to 1e8, either sign, so the order of adding shows
        g = rng.choice([-1.0, 1.0], (K, n)) * 10.0 ** rng.uniform(-8, 8, (K, n))
        assert np.array_equal(_cell_sums(g, np.empty_like(g)),
                              np.ascontiguousarray(g.T).sum(axis=1))

    def test_invalid_config(self):
        with pytest.raises(ConfigError):
            LdaConfig(K=0)
        with pytest.raises(ConfigError):
            LdaConfig(beta=-1)


def brute_force_best_wcss(points, k=2):
    """Minimum WCSS over all assignments into k non-empty clusters."""
    n = len(points)
    best = math.inf
    for mask in range(1, 2 ** n - 1):
        groups = [[], []]
        for i in range(n):
            groups[(mask >> i) & 1].append(points[i])
        total = 0.0
        for g in groups:
            arr = np.array(g)
            total += ((arr - arr.mean(axis=0)) ** 2).sum()
        best = min(best, total)
    return best


class TestKMeans:
    def test_k1_centroid_is_mean(self):
        points = np.array([[0.0, 0.0], [2.0, 2.0], [4.0, 2.0]])
        m = kmeans_fit(points, 1, seed=0)
        assert np.allclose(m.centroids[0], points.mean(axis=0))
        assert m.wcss == pytest.approx(wcss_of(points, m.centroids, m.assignments))

    def test_two_obvious_clusters(self):
        points = np.array([[0.0, 0.0], [0.0, 1.0], [10.0, 10.0], [10.0, 11.0]])
        m = kmeans_fit(points, 2, seed=0)
        assert m.assignments[0] == m.assignments[1]
        assert m.assignments[2] == m.assignments[3]
        assert m.assignments[0] != m.assignments[2]
        got = sorted(m.centroids.tolist())
        assert np.allclose(got, [[0.0, 0.5], [10.0, 10.5]])

    def test_wcss_trace_monotone(self):
        rng = np.random.default_rng(1)
        points = rng.normal(size=(60, 5))
        m = kmeans_fit(points, 4, seed=2)
        for a, b in zip(m.wcss_trace, m.wcss_trace[1:]):
            assert b <= a + 1e-9

    def test_assignments_nearest_at_convergence(self):
        rng = np.random.default_rng(3)
        points = rng.normal(size=(50, 3))
        m = kmeans_fit(points, 5, seed=4)
        d2 = ((points[:, None, :] - m.centroids[None, :, :]) ** 2).sum(axis=2)
        assert np.array_equal(m.assignments, d2.argmin(axis=1))

    def test_stored_wcss_matches_recompute(self):
        rng = np.random.default_rng(5)
        points = rng.normal(size=(40, 4))
        m = kmeans_fit(points, 3, seed=6)
        assert m.wcss == pytest.approx(wcss_of(points, m.centroids, m.assignments), abs=1e-9)

    def test_degenerate_identical_points(self):
        points = np.ones((8, 2))
        with pytest.warns(UserWarning):
            m = kmeans_fit(points, 3, seed=0)
        assert m.degenerate and m.wcss == 0.0

    def test_matches_brute_force_on_small_instance(self):
        rng = np.random.default_rng(8)
        points = np.vstack([rng.normal(size=(6, 2)),
                            rng.normal(size=(6, 2)) + [5.0, 0.0]])
        best = brute_force_best_wcss([p for p in points])
        hits = sum(
            1 for seed in range(10)
            if kmeans_fit(points, 2, seed=seed).wcss <= best + 1e-9
        )
        assert hits >= 9

    def test_k_bounds(self):
        with pytest.raises(ValueError):
            kmeans_fit(np.ones((3, 2)), 4)

    # The two fixtures below reach the k-means++ draw with every remaining
    # distance 0 and the empty-cluster repair (checked with a line tracer);
    # a faster Lloyd step must give the same partitions.
    def test_kmeanspp_draw_when_every_distance_is_zero(self):
        # two distinct points, K=3: the third seed is drawn uniformly and
        # duplicates another, so its cluster starts empty and is repaired
        points = np.array([[0.0, 0.0]] * 4 + [[1.0, 0.0]] * 4)
        m = kmeans_fit(points, 3, seed=0)
        assert m.assignments.tolist() == [1, 1, 1, 1, 0, 0, 0, 0]
        assert m.centroids.tolist() == [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]]
        assert (m.iterations_run, m.wcss, m.wcss_trace) == (2, 0.0, [0.0, 0.0])

    def test_empty_cluster_reseeded_to_the_farthest_point(self):
        # the first Lloyd step leaves cluster 1 empty while point 1 lies 1.86
        # (squared) from its nearest centroid, so the repair moves cluster 1 to it
        points = np.array([[1, 0], [0, 1], [2, 2], [1.2, -0.2], [1, 0], [1, 2], [1.5, 0],
                           [0, 2], [2.1, 0.6], [2.1, 1.9], [1.3, 2.2]])
        m = kmeans_fit(points, 3, seed=3783)
        assert m.assignments.tolist() == [2, 1, 0, 2, 2, 0, 2, 1, 2, 0, 0]
        assert m.iterations_run == 4
        assert np.allclose(m.centroids, [[1.6, 2.025], [0.0, 1.5], [1.36, 0.08]],
                           rtol=0, atol=1e-12)
        assert m.wcss_trace == pytest.approx([7.884, 4.548055555555555, 2.6275, 2.6275],
                                             abs=1e-12)

    @pytest.mark.parametrize("n, d, k", [(1, 1, 1), (17, 3, 4), (50, 8, 6), (40, 9, 3),
                                         (300, 256, 6), (64, 17, 9)])
    def test_sq_dists_bit_equal_to_broadcast(self, n, d, k):
        rng = np.random.default_rng(n * d + k)
        points = rng.normal(scale=10.0, size=(n, d))
        centroids = rng.normal(size=(k, d))
        dense = ((points[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
        assert np.array_equal(_sq_dists(points, centroids), dense)

    @pytest.mark.parametrize("n, d, k", [(1, 1, 1), (17, 3, 4), (50, 8, 6), (40, 9, 3),
                                         (300, 256, 6), (64, 17, 9)])
    def test_wcss_of_bit_equal_to_the_expression(self, n, d, k):
        rng = np.random.default_rng(n * d + k)
        points = rng.normal(scale=10.0, size=(n, d))
        centroids = rng.normal(size=(k, d))
        assignments = rng.integers(k, size=n)
        expected = float(((points - centroids[assignments]) ** 2).sum())
        assert wcss_of(points, centroids, assignments) == expected
        # the buffer kmeans_fit passes in, whatever it held before
        buffer = rng.normal(size=(n, d))
        assert wcss_of(points, centroids, assignments, buffer) == expected

    def test_a_fit_holds_one_array_the_size_of_its_points(self):
        points = np.random.default_rng(9).normal(size=(1000, 256))
        tracemalloc.start()
        try:
            kmeans_fit(points, 6, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # a D x d buffer, one cluster's members and D x K distances; a
        # subtraction and a square for each distance pass would make it two
        assert peak < 1.5 * points.nbytes


def blobs(n_per=300, seed=0, d=12, sep=8.0):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n_per, d))
    b = rng.normal(size=(n_per, d)) + sep
    return np.vstack([a, b]), np.array([0] * n_per + [1] * n_per)


def co_cluster_accuracy(labels, truth):
    acc = 0
    for t in (0, 1):
        members = labels[truth == t]
        members = members[members != NOISE]
        if members.size:
            top = np.bincount(members).max()
            acc += top
    return acc / len(truth)


def dense_knee(points, min_pts):
    """The O(n²) k-distance knee the KD-tree version must reproduce bit for bit."""
    n = points.shape[0]
    d2 = ((points[:, None, :] - points[None, :, :]) ** 2).sum(axis=2)
    kth = np.sort(np.sqrt(d2), axis=1)[:, min(min_pts, n - 1)]
    curve = np.sort(kth)
    x = np.arange(n, dtype=float)
    x0, y0, x1, y1 = x[0], curve[0], x[-1], curve[-1]
    denom = np.hypot(x1 - x0, y1 - y0)
    if denom == 0:
        return float(curve[-1])
    dist = np.abs((y1 - y0) * x - (x1 - x0) * curve + x1 * y0 - y1 * x0) / denom
    return float(curve[int(dist.argmax())])


def dense_dbscan(points, eps, min_pts):
    """DBSCAN by BFS in index order over an n×n distance array."""
    n = points.shape[0]
    d2 = ((points[:, None, :] - points[None, :, :]) ** 2).sum(axis=2)
    neighbors = [np.flatnonzero(d2[i] <= eps * eps) for i in range(n)]
    core = np.array([len(nb) >= min_pts for nb in neighbors])
    labels = np.full(n, NOISE, dtype=np.int64)
    cluster = 0
    for i in range(n):
        if labels[i] != NOISE or not core[i]:
            continue
        labels[i] = cluster
        frontier = list(neighbors[i])
        while frontier:
            j = frontier.pop()
            if labels[j] == NOISE:
                labels[j] = cluster
                if core[j]:
                    frontier.extend(int(x) for x in neighbors[j] if labels[x] == NOISE)
        cluster += 1
    return labels


def dense_density_topics(emb, min_cluster_size, k_reduced, seed):
    projected = random_projection(emb, k_reduced, seed)
    eps = dense_knee(projected, min_cluster_size)
    raw = dense_dbscan(projected, eps, min_cluster_size)
    sizes = {int(c): int((raw == c).sum()) for c in set(raw.tolist()) - {NOISE}}
    keep = [c for c, s in sorted(sizes.items(), key=lambda kv: (-kv[1], kv[0]))
            if s >= min_cluster_size]
    labels = np.full(len(raw), NOISE, dtype=np.int64)
    for new_id, old_id in enumerate(keep):
        labels[raw == old_id] = new_id
    return labels, eps


@st.composite
def point_sets(draw):
    """Up to 40 points drawn with repetition from a pool of distinct rows, so
    exact duplicates are common; k_reduced below the row width."""
    k = draw(st.sampled_from([2, 3, 8]))
    d = k + draw(st.integers(1, 4))
    row = st.lists(st.floats(-10, 10, allow_subnormal=False), min_size=d, max_size=d)
    pool = draw(st.lists(row, min_size=1, max_size=40))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=40))
    emb = np.array([pool[i] for i in picks])
    mcs = draw(st.one_of(st.integers(1, len(picks)), st.just(len(picks)), st.just(1)))
    return emb, mcs, k


@st.composite
def grid_points(draw):
    """Integer points: squared distances are exact integers, so many pairs
    sit exactly at an integer-distance eps."""
    k = draw(st.integers(1, 4))
    coords = st.lists(st.integers(0, 3), min_size=k, max_size=k)
    pts = np.array(draw(st.lists(coords, min_size=1, max_size=40)), dtype=float)
    return pts, draw(st.integers(1, len(pts)))


class TestDensityMatchesDense:
    @settings(max_examples=150, deadline=None)
    @given(point_sets(), st.integers(0, 3))
    def test_density_topics_equal_labels_and_eps(self, case, seed):
        emb, mcs, k = case
        labels, eps = dense_density_topics(emb, mcs, k, seed)
        model = density_topics(emb, min_cluster_size=mcs, k_reduced=k, seed=seed)
        assert model.eps == eps
        assert np.array_equal(model.labels, labels)

    @settings(max_examples=150, deadline=None)
    @given(grid_points(), st.integers(0, 12))
    def test_grid_ties_at_eps(self, case, eps_sq):
        pts, min_pts = case
        knee = k_distance_knee(pts, min_pts)
        assert knee == dense_knee(pts, min_pts)
        for eps in (knee, math.sqrt(eps_sq)):
            assert np.array_equal(_dbscan(pts, eps, min_pts),
                                  dense_dbscan(pts, eps, min_pts)), eps

    def test_more_pairs_than_one_distance_batch(self):
        # 120 near-identical points: 7,140 pairs, and at min_cluster_size 90
        # the knee's candidates and the pairs within eps each fill more than
        # one batch of _pair_sq_dists
        rng = np.random.default_rng(3)
        emb = rng.normal(size=12) + 1e-6 * rng.normal(size=(120, 12))
        i, j = np.triu_indices(len(emb), 1)
        d2 = ((emb[:, None] - emb[None]) ** 2).sum(axis=2)
        assert i.size > _CHUNK
        assert np.array_equal(_pair_sq_dists(emb, i, j), d2[i, j])
        labels, eps = dense_density_topics(emb, 90, 4, 1)
        projected = random_projection(emb, 4, 1)
        within = ((projected[i] - projected[j]) ** 2).sum(axis=1) <= eps * eps
        assert np.count_nonzero(within) > _CHUNK
        model = density_topics(emb, min_cluster_size=90, k_reduced=4, seed=1)
        assert model.eps == eps
        assert np.array_equal(model.labels, labels)

    @pytest.mark.parametrize("mcs", [1, 5, 30])
    def test_all_identical_points(self, mcs):
        emb = np.full((30, 12), 0.25)
        model = density_topics(emb, min_cluster_size=mcs, k_reduced=4, seed=0)
        assert model.eps == 0.0
        assert np.array_equal(model.labels, np.zeros(30, dtype=np.int64))

    def test_border_point_joins_lowest_cluster(self):
        # cores at 2 and -2 start clusters 0 and 1; the border point at 0
        # reaches both and takes 0; 9 reaches nothing
        pts = np.array([[2.0], [3.0], [4.0], [0.0], [-2.0], [-3.0], [-4.0], [9.0]])
        labels = _dbscan(pts, 2.0, 4)
        assert labels.tolist() == [0, 0, 0, 0, 1, 1, 1, NOISE]
        assert np.array_equal(labels, dense_dbscan(pts, 2.0, 4))


class TestDensityTopics:
    def test_two_blobs_recovered(self):
        emb, truth = blobs()
        model = density_topics(emb, min_cluster_size=50, k_reduced=4, seed=1)
        assert set(model.labels.tolist()) - {NOISE} == {0, 1}
        assert co_cluster_accuracy(model.labels, truth) >= 0.95

    def test_topics_relabeled_by_size_desc(self):
        emb, _ = blobs(n_per=100)
        extra = np.random.default_rng(0).normal(size=(200, 12)) - 8.0
        model = density_topics(np.vstack([emb, extra]), min_cluster_size=40,
                               k_reduced=4, seed=1)
        sizes = np.bincount(model.labels[model.labels != NOISE])
        assert sizes.size > 1 and list(sizes) == sorted(sizes, reverse=True)

    def test_tiny_eps_gives_all_noise(self):
        rng = np.random.default_rng(2)
        emb = rng.uniform(size=(60, 12))
        model = density_topics(emb, min_cluster_size=10, k_reduced=4, seed=0,
                               eps=1e-9)
        assert set(model.labels.tolist()) == {NOISE}

    def test_min_cluster_size_guard(self):
        with pytest.raises(ValueError):
            density_topics(np.ones((5, 12)), min_cluster_size=6, k_reduced=4)

    def test_every_topic_meets_min_size(self):
        emb, _ = blobs(n_per=80, sep=6.0)
        model = density_topics(emb, min_cluster_size=30, k_reduced=4, seed=3)
        sizes = np.bincount(model.labels[model.labels != NOISE])
        assert sizes.size and sizes.min() >= 30

    def test_deterministic_under_seed(self):
        emb, _ = blobs(n_per=60)
        a = density_topics(emb, min_cluster_size=20, k_reduced=4, seed=9)
        b = density_topics(emb, min_cluster_size=20, k_reduced=4, seed=9)
        assert np.array_equal(a.labels, b.labels)
        assert a.eps == b.eps

    def test_random_projection_shape_and_guard(self):
        emb = np.random.default_rng(0).normal(size=(10, 16))
        proj = random_projection(emb, 4, seed=0)
        assert proj.shape == (10, 4)
        with pytest.raises(ValueError):
            random_projection(emb, 16, seed=0)

    def test_knee_on_constructed_curve(self):
        # 9 tight points plus one far outlier: knee sits below the outlier kth-distance
        pts = np.vstack([np.random.default_rng(1).normal(scale=0.01, size=(9, 2)),
                         [[100.0, 100.0]]])
        eps = k_distance_knee(pts, 3)
        assert eps < 10.0

    def test_scaled_min_cluster_size(self):
        assert scaled_min_cluster_size(100) == 5          # floor
        assert scaled_min_cluster_size(150_000) == 300    # 0.002 * D
        assert scaled_min_cluster_size(100_000) == 200    # paper-scale analogue


def over_time_weights(labels, years):
    """topic_over_time's weights as year -> topic -> weight."""
    weights = {}
    for year, topic, _, weight in topic_over_time(labels, years):
        weights.setdefault(year, {})[topic] = weight
    return weights


class TestTopicOverTime:
    def test_thirty_seventy_split(self):
        labels = [0] * 30 + [1] * 70
        years = [2022] * 100
        assert topic_over_time(labels, years) == [[2022, 0, 30, pytest.approx(0.3)],
                                                  [2022, 1, 70, pytest.approx(0.7)]]

    def test_all_noise_year_omitted(self):
        labels = [0, 0, NOISE, NOISE]
        years = [2020, 2020, 2021, 2021]
        assert topic_over_time(labels, years) == [[2020, 0, 2, 1.0]]

    def test_noise_excluded_from_denominator(self):
        labels = [0, 1, NOISE, NOISE]
        years = [2022] * 4
        assert over_time_weights(labels, years)[2022][0] == pytest.approx(0.5)

    def test_every_topic_in_every_year(self):
        # a topic absent from a year is listed there with count 0
        assert topic_over_time([0, 1, 1], [2020, 2021, 2021]) == [
            [2020, 0, 1, 1.0], [2020, 1, 0, 0.0], [2021, 0, 0, 0.0], [2021, 1, 2, 1.0]]

    def test_all_noise_gives_no_row(self):
        assert topic_over_time([NOISE] * 3, [2020, 2021, 2021]) == []

    @given(st.lists(st.tuples(st.integers(-1, 4), st.integers(2018, 2025)),
                    min_size=1, max_size=60))
    @settings(max_examples=80, deadline=None)
    def test_rows_sum_to_one(self, pairs):
        labels = [l for l, _ in pairs]
        years = [y for _, y in pairs]
        for year, row in over_time_weights(labels, years).items():
            assert sum(row.values()) == pytest.approx(1.0, abs=1e-9)

    def test_planted_mixture_schedule(self):
        # topic-0 share drops linearly 0.9 -> 0.1 across 2018-2025
        rng = random.Random(4)
        labels, years = [], []
        for yi, year in enumerate(range(2018, 2026)):
            share = 0.9 - 0.8 * yi / 7
            n0 = round(400 * share)
            labels += [0] * n0 + [1] * (400 - n0)
            years += [year] * 400
        weights = over_time_weights(labels, years)
        for yi, year in enumerate(range(2018, 2026)):
            planted = 0.9 - 0.8 * yi / 7
            assert abs(weights[year][0] - planted) <= 0.05

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            topic_over_time([0, 1], [2020])


class TestTopicEntries:
    TERMS = {0: [("alpha", 0.5)], 2: [("gamma", 0.25)]}

    def test_sizes_count_each_label(self):
        labels = np.array([2, 0, 2, NOISE, 2])
        assert topic_entries(labels, self.TERMS) == {
            "0": {"top_terms": [["alpha", 0.5]], "size": 1},
            "2": {"top_terms": [["gamma", 0.25]], "size": 3}}

    def test_all_noise_gives_no_entry(self):
        assert topic_entries(np.full(4, NOISE), {}) == {}

    def test_an_id_below_n_topics_without_a_posting_has_size_0(self):
        # LDA lists all K topics
        entries = topic_entries(np.array([0, 0, 2]), self.TERMS, n_topics=4)
        assert {t: e["size"] for t, e in entries.items()} == {"0": 2, "1": 0, "2": 1, "3": 0}
        assert entries["1"]["top_terms"] == []

    def test_an_id_without_a_posting_is_left_out(self):
        # a k-means cluster that lost its postings is not listed
        entries = topic_entries(np.array([3, 0, 3]), {})
        assert list(entries) == ["0", "3"]
