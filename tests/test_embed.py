import hashlib
import math
import random
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from skillscope.embed import (
    MEMO_CAP,
    FileProvider,
    HashedProvider,
    HttpProvider,
    anchor_centroid,
    cosine,
    provider_from_spec,
)
from skillscope.errors import ConfigError, DataError
from skillscope.text import tokenize

TINY = np.array([3.1e-161, 0.0, 0.0, 0.0, 0.0, 0.0])


def reference_cosine(a, b):
    """cosine through np.linalg.norm and np.clip on every call."""
    if a.shape != b.shape:
        raise DataError(f"{a.shape} vs {b.shape}")
    na, nb = float(np.linalg.norm(a)), float(np.linalg.norm(b))
    if not (2.0 ** -500 <= na <= 2.0 ** 500 and 2.0 ** -500 <= nb <= 2.0 ** 500):
        a, b = (np.ldexp(x, -np.frexp(np.max(np.abs(x)))[1]) for x in (a, b))
        na, nb = float(np.linalg.norm(a)), float(np.linalg.norm(b))
    if na == 0.0 or nb == 0.0:
        raise DataError("cosine of a zero vector is undefined")
    return float(np.clip(float(np.dot(a, b)) / (na * nb), -1.0, 1.0))


def outcome(fn, *args):
    try:
        return repr(fn(*args))  # NaN compares equal to itself as its repr
    except DataError as e:
        return f"DataError: {e}"


# vectors scaled by powers of two from deep underflow to near overflow, so
# both the direct and the rescaled path run
scaled = st.builds(lambda v, k: np.ldexp(v, k),
                   arrays(float, 5, elements=st.floats(-100, 100)),
                   st.sampled_from([-1070, -700, -520, -400, 0, 400, 520, 900]))


class TestCosine:
    def test_self_similarity(self):
        v = np.array([3.0, -1.0, 2.0])
        assert cosine(v, v) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal(self):
        assert cosine(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 0.0

    def test_hand_value(self):
        a, b = np.array([1.0, 2.0, 3.0]), np.array([4.0, 5.0, 6.0])
        assert cosine(a, b) == pytest.approx(32 / math.sqrt(14 * 77), abs=1e-9)

    def test_zero_vector_rejected(self):
        with pytest.raises(DataError, match="^cosine of a zero vector is undefined$"):
            cosine(np.zeros(3), np.ones(3))

    def test_dimension_mismatch(self):
        with pytest.raises(DataError, match=r"^\(3,\) vs \(4,\)$"):
            cosine(np.ones(3), np.ones(4))

    @given(arrays(float, 6, elements=st.floats(-100, 100)),
           arrays(float, 6, elements=st.floats(-100, 100)),
           st.floats(0.001, 1000))
    # a norm whose square underflows: once a wrong cosine, once a zero vector
    @example(a=TINY, b=np.array([1.0, 2.0, 0.0, 0.0, 0.0, 1.0]), lam=0.25)
    @example(a=TINY, b=np.array([1.0, 2.0, 0.0, 0.0, 0.0, 1.0]), lam=1 / 32)
    @settings(max_examples=100, deadline=None)
    def test_symmetry_and_scale_invariance(self, a, b, lam):
        if np.linalg.norm(a) == 0 or np.linalg.norm(b) == 0:
            return
        r = cosine(a, b)
        assert abs(r - cosine(b, a)) < 1e-12
        assert abs(r - cosine(lam * a, b)) < 1e-12
        assert -1.0 <= r <= 1.0


    @given(scaled, scaled)
    @example(a=np.array([np.nan, 1.0]), b=np.array([1.0, 0.0]))
    @example(a=np.array([np.inf, 1.0]), b=np.array([1.0, 0.0]))
    @example(a=np.array([1.0, 1e-300]), b=np.array([1.0, 1e-300]))
    @settings(max_examples=400, deadline=None)
    def test_equals_norm_and_clip_formulation(self, a, b):
        assert outcome(cosine, a, b) == outcome(reference_cosine, a, b)

    def test_nan_input_gives_nan(self):
        assert math.isnan(cosine(np.array([np.nan, 1.0]), np.array([1.0, 0.0])))

    def test_parallel_vectors_clip_to_one(self):
        # the unclipped quotient of this pair rounds to 1 + 2**-52
        v = np.array([0.651592972722763, 0.7887233511355132, 0.0938595867742349])
        assert float(v.dot(3 * v)) / (math.sqrt(v.dot(v)) * math.sqrt((3 * v).dot(3 * v))) > 1.0
        assert cosine(v, 3 * v) == 1.0 and cosine(v, -3 * v) == -1.0


class TestHashedProvider:
    def test_deterministic(self):
        p = HashedProvider(dimension=64, seed=9)
        a = p.embed("prompt engineering role")
        b = HashedProvider(dimension=64, seed=9).embed("prompt engineering role")
        assert np.array_equal(a, b)

    def test_seed_changes_vectors(self):
        t = "prompt engineering role"
        a = HashedProvider(dimension=64, seed=1).embed(t)
        b = HashedProvider(dimension=64, seed=2).embed(t)
        assert not np.array_equal(a, b)

    def test_unit_norm(self):
        v = HashedProvider().embed("some posting text")
        assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)

    def test_empty_text_zero_vector(self):
        with pytest.raises(DataError, match="^embedding has zero or non-finite norm$"):
            HashedProvider().embed("")
        with pytest.raises(DataError, match="^embedding has zero or non-finite norm$"):
            HashedProvider().embed("???")

    def test_shared_token_structure_orders_similarity(self):
        p = HashedProvider()
        doc = p.embed("human-in-the-loop decision support")
        near = p.embed("assist co-create hybrid intelligence human-in-the-loop decision support")
        far = p.embed("robotic process automation replace")
        assert cosine(doc, near) > cosine(doc, far)

    def test_noise_lowers_self_similarity_monotonically(self):
        p = HashedProvider(seed=4)
        base = "machine learning engineer python"
        sims = []
        for k in (0, 4, 16, 64):
            noisy = base + " " + " ".join(f"noiseword{i}" for i in range(k))
            sims.append(cosine(p.embed(base), p.embed(noisy)))
        assert sims[0] == pytest.approx(1.0, abs=1e-12)
        assert sims[0] > sims[1] > sims[2] > sims[3]

    @staticmethod
    def reference(text, dimension, seed):
        """One blake2b call and one scalar add per feature occurrence."""
        tokens = tokenize(text)
        vec = np.zeros(dimension)
        for feature in tokens + [f"{a} {b}" for a, b in zip(tokens, tokens[1:])]:
            h = hashlib.blake2b(feature.encode("utf-8"), digest_size=9,
                                person=seed.to_bytes(8, "little")).digest()
            vec[int.from_bytes(h[:8], "little") % dimension] += 1.0 if h[8] & 1 else -1.0
        return vec / np.linalg.norm(vec)

    def test_batch_matches_per_feature_reference(self):
        rng = random.Random(3)
        pool = [f"term{i}" for i in range(12_000)] + ["c++", "scikit-learn", "data"]
        texts = [" ".join(rng.choices(pool, k=rng.randint(1, 300))) for _ in range(80)]
        features = set()
        for t in texts:
            tokens = tokenize(t)
            features.update(tokens, (f"{a} {b}" for a, b in zip(tokens, tokens[1:])))
        assert len(features) > MEMO_CAP  # the memo fills and is cleared mid-batch
        p = HashedProvider(dimension=100, seed=11)
        got = p.embed_batch(texts)
        assert len(got) == len(texts)
        for text, vec in zip(texts, got):
            assert vec.tobytes() == self.reference(text, 100, 11).tobytes()
        for text in texts[:5]:
            assert p.embed(text).tobytes() == p.embed_batch([text])[0].tobytes()


class TestFileProvider:
    def make_file(self, tmp_path):
        f = tmp_path / "emb.csv"
        f.write_text("id,3\np1,1,0,0\np2,0,2,0\np3,1,1,1\n")
        return f

    def test_lookup_and_normalization(self, tmp_path):
        p = FileProvider(self.make_file(tmp_path))
        assert np.allclose(p.embed("", key="p2"), [0, 1, 0])

    def test_a_key_repeated_in_a_batch_is_named(self, tmp_path):
        p = FileProvider(self.make_file(tmp_path))
        with pytest.raises(DataError, match="^posting id 'p1' repeats"):
            p.embed_batch(["a", "b", "c"], keys=["p1", "p2", "p1"])
        # looked up by text, a repeated text takes its one vector
        assert [v.tolist() for v in p.embed_batch(["p2", "p2"])] == [[0, 1, 0]] * 2

    def test_unknown_id(self, tmp_path):
        p = FileProvider(self.make_file(tmp_path))
        with pytest.raises(DataError, match="^no embedding for id 'nope'$"):
            p.embed("", key="nope")

    def test_bad_header(self, tmp_path):
        f = tmp_path / "bad.csv"
        f.write_text("ident,3\n")
        with pytest.raises(ConfigError):
            FileProvider(f)

    @pytest.mark.parametrize("text", ["", "ident,3\n", "id,abc\n", "id,0\n", "id,-3\n",
                                      "id,2.5\n", "id,3,4\n"])
    def test_bad_header_variants(self, tmp_path, text):
        f = tmp_path / "bad.csv"
        f.write_text(f"{text}p1,1,0,0\n" if text else "")
        with pytest.raises(ConfigError, match="header"):
            FileProvider(f)

    def test_value_not_a_number_names_file_and_line(self, tmp_path):
        f = tmp_path / "bad.csv"
        f.write_text("id,3\np1,1,0,0\np2,0,x,0\n")
        with pytest.raises(DataError, match=f"{re.escape(str(f))}:3: .*'x'"):
            FileProvider(f)

    def test_row_dimension_mismatch(self, tmp_path):
        f = tmp_path / "bad.csv"
        f.write_text("id,3\np1,1,0\n")
        with pytest.raises(DataError, match=f"{re.escape(str(f))}:2: expected 3 values, got 2"):
            FileProvider(f)


def fake_post_factory(dimension, fail_times=0, status=500):
    calls = {"n": 0}

    def post(body):
        calls["n"] += 1
        if calls["n"] <= fail_times:
            return status, None
        vecs = [[float(len(t))] + [1.0] * (dimension - 1) for t in body["texts"]]
        return 200, {"vectors": vecs}

    return post, calls


class TestHttpProvider:
    def test_batching_preserves_order(self):
        post, calls = fake_post_factory(4)
        p = HttpProvider("http://svc", 4, post=post)
        texts = [f"t{'x' * i}" for i in range(150)]
        vecs = p.embed_batch(texts)
        assert len(vecs) == 150
        assert calls["n"] == 3  # ceil(150/64)
        for t, v in zip(texts, vecs):
            expected = np.array([float(len(t))] + [1.0] * 3)
            assert np.allclose(v, expected / np.linalg.norm(expected))

    def test_retry_then_success(self):
        post, calls = fake_post_factory(4, fail_times=2)
        p = HttpProvider("http://svc", 4, post=post)
        p.embed("hello")
        assert calls["n"] == 3

    def test_service_error_after_three_attempts(self):
        post, _ = fake_post_factory(4, fail_times=99)
        p = HttpProvider("http://svc", 4, post=post)
        with pytest.raises(DataError, match="failed after 3 attempts: HTTP 500"):
            p.embed("hello")

    def test_wrong_dimension_from_service(self):
        def post(body):
            return 200, {"vectors": [[1.0, 2.0] for _ in body["texts"]]}
        p = HttpProvider("http://svc", 4, post=post)
        with pytest.raises(DataError, match=r"expected dimension 4, got \(2,\)"):
            p.embed("hello")


class TestAnchorCentroid:
    def test_single_phrase_is_identity(self):
        p = HashedProvider()
        assert np.allclose(anchor_centroid(["decision support"], p),
                           p.embed("decision support"))

    def test_duplicate_phrases_idempotent(self):
        p = HashedProvider()
        one = anchor_centroid(["assist"], p)
        two = anchor_centroid(["assist", "assist"], p)
        assert np.allclose(one, two, atol=1e-12)

    def test_matches_independent_mean(self):
        p = HashedProvider(seed=3)
        phrases = ["assist", "co-create", "hybrid intelligence",
                   "human-in-the-loop", "decision support"]
        got = anchor_centroid(phrases, p)
        mean = np.mean([p.embed(ph) for ph in phrases], axis=0)
        assert np.allclose(got, mean / np.linalg.norm(mean), atol=1e-9)

    def test_empty_list_rejected(self):
        with pytest.raises(ConfigError):
            anchor_centroid([], HashedProvider())


class TestProviderFromSpec:
    def test_hashed_default(self):
        p = provider_from_spec({"kind": "hashed", "dimension": 32, "seed": 5})
        assert p.dimension == 32 and p.seed == 5

    def test_unknown_kind(self):
        with pytest.raises(ConfigError):
            provider_from_spec({"kind": "quantum"})

    def test_file_requires_path(self):
        with pytest.raises(ConfigError):
            provider_from_spec({"kind": "file"})

    @pytest.mark.parametrize("spec", [
        {"kind": "hashed", "dimension": 2.5}, {"kind": "hashed", "seed": True},
        {"kind": "hashed", "dimension": 0}, {"kind": "http", "dimension": 8},
        {"kind": "http", "url": "http://svc", "dimension": 0},
        {"kind": "http", "url": "http://svc", "dimension": 8, "concurrency": 0},
        {"kind": "http", "url": "http://svc", "dimension": 8, "auth": 5},
        {"kind": ["hashed"]}])
    def test_bad_spec_rejected(self, spec):
        with pytest.raises(ConfigError):
            provider_from_spec(spec)

    def test_http_spec_reaches_the_provider(self):
        p = provider_from_spec({"kind": "http", "url": "http://svc", "dimension": 8,
                                "auth": "t", "concurrency": 2})
        assert (p.url, p.dimension, p.concurrency) == ("http://svc", 8, 2)
        assert p._headers["Authorization"] == "Bearer t"
