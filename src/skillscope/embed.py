"""Embedding providers behind one interface.

Vectors are numpy float64 arrays, L2-normalized by every provider. The
hashed provider (default) is a deterministic signed-hash bag of token
unigrams and bigrams, good enough for offline tests and desk-scale runs;
the file and http providers plug in externally computed embeddings
(e.g. from a sentence-transformer service).
"""

from __future__ import annotations

import hashlib
import math
import re
from concurrent.futures import ThreadPoolExecutor
from itertools import chain
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from . import net
from .config import REQUIRED, check_fields
from .errors import (
    ConfigError,
    DataError,
    DimensionMismatchError,
    MissingEmbeddingError,
    ServiceError,
    ZeroVectorError,
)
from .text import tokenize

DEFAULT_DIMENSION = 256
# features a HashedProvider keeps hashed; its memo is cleared when full
MEMO_CAP = 16_384


def _normalize(vec: np.ndarray) -> np.ndarray:
    norm = float(np.linalg.norm(vec))
    if norm == 0.0 or not np.isfinite(norm):
        raise ZeroVectorError("embedding has zero or non-finite norm")
    return vec / norm


# Norms outside this range lose bits to underflow or overflow in the squares
# summed by np.linalg.norm, so such vectors are rescaled before the cosine.
_NORM_RANGE = (2.0 ** -500, 2.0 ** 500)


def _unit_scaled(x: np.ndarray) -> np.ndarray:
    """``x`` times the power of two that brings max|x| into [0.5, 1); exact."""
    _, exponent = np.frexp(np.max(np.abs(x)))
    return np.ldexp(x, -exponent)


def _norm(x: np.ndarray) -> float:
    """``np.linalg.norm`` of a real float vector, without its dispatch."""
    return math.sqrt(x.dot(x))


def cosine(a: np.ndarray, b: np.ndarray) -> float:
    """Cosine of two real float vectors, clipped to [-1, 1]; NaN stays NaN."""
    if a.shape != b.shape:
        raise DimensionMismatchError(f"{a.shape} vs {b.shape}")
    na, nb = _norm(a), _norm(b)
    lo, hi = _NORM_RANGE
    if not (lo <= na <= hi and lo <= nb <= hi):
        a, b = _unit_scaled(a), _unit_scaled(b)
        na, nb = _norm(a), _norm(b)
    if na == 0.0 or nb == 0.0:
        raise ZeroVectorError("cosine of a zero vector is undefined")
    c = float(a.dot(b)) / (na * nb)
    return 1.0 if c > 1.0 else -1.0 if c < -1.0 else c


class HashedProvider:
    """Seeded signed-hash bag of token unigrams+bigrams, L2-normalized."""

    def __init__(self, dimension: int = DEFAULT_DIMENSION, seed: int = 0):
        if dimension < 1:
            raise ConfigError("embedding dimension must be positive")
        self.dimension = dimension
        self.seed = seed
        # each feature is hashed from a copy of this state: a copy costs less
        # than keying a new hasher with the seed
        self._hasher = hashlib.blake2b(
            digest_size=9, person=(seed & 0xFFFFFFFFFFFFFFFF).to_bytes(8, "little"))
        # each feature's slot, kept across calls: a stage that embeds its
        # postings piece by piece hashes a common feature once per process,
        # not once per piece; a forked worker starts from this process's memo
        self._memo: dict[str, int] = {}

    def _signed_slot(self, feature: str) -> int:
        """The feature's slot, bit-inverted (``~slot``) when its sign is -1."""
        hasher = self._hasher.copy()
        hasher.update(feature.encode("utf-8"))
        h = hasher.digest()
        idx = int.from_bytes(h[:8], "little") % self.dimension
        return idx if h[8] & 1 else ~idx

    def _vectors(self, texts: Iterable[str]) -> list[np.ndarray]:
        memo = self._memo
        out = []
        for text in texts:
            tokens = tokenize(text)
            # integer counts, converted once: per-posting numpy temporaries
            # fragmented the heap and raised a later stage's peak RSS
            counts = [0] * self.dimension
            for feature in chain(tokens, map(" ".join, zip(tokens, tokens[1:]))):
                slot = memo.get(feature)
                if slot is None:
                    if len(memo) >= MEMO_CAP:
                        memo.clear()
                    slot = memo[feature] = self._signed_slot(feature)
                if slot >= 0:
                    counts[slot] += 1
                else:
                    counts[~slot] -= 1
            out.append(_normalize(np.array(counts, dtype=float)))
        return out

    def embed(self, text: str, key: str | None = None) -> np.ndarray:
        return self._vectors([text])[0]

    def embed_batch(self, texts: Sequence[str], keys: Sequence[str] | None = None):
        return self._vectors(texts)


class FileProvider:
    """Looks vectors up by key in a CSV-ish file: header ``id,<dim>``, then
    one row per key with <dim> comma-separated reals."""

    def __init__(self, path: str | Path):
        self.path = Path(path)
        lines = self.path.read_text(encoding="utf-8").splitlines()
        header = lines[0].split(",") if lines else []
        if len(header) != 2 or header[0] != "id" or not re.fullmatch(r"[1-9][0-9]*", header[1]):
            raise ConfigError(f"{path}: header must be 'id,<dim>', <dim> a positive integer")
        self.dimension = int(header[1])
        self._table: dict[str, np.ndarray] = {}
        for ln, line in enumerate(lines[1:], start=2):
            if not line.strip():
                continue
            parts = line.split(",")
            if len(parts) != self.dimension + 1:
                raise DimensionMismatchError(
                    f"{path}:{ln}: expected {self.dimension} values, got {len(parts) - 1}"
                )
            try:
                vector = np.array([float(x) for x in parts[1:]])
            except ValueError as e:
                raise DataError(f"{path}:{ln}: {e}") from e
            self._table[parts[0]] = _normalize(vector)

    def embed(self, text: str, key: str | None = None) -> np.ndarray:
        lookup = key if key is not None else text
        try:
            return self._table[lookup]
        except KeyError:
            raise MissingEmbeddingError(f"no embedding for id {lookup!r}") from None

    def embed_batch(self, texts: Sequence[str], keys: Sequence[str] | None = None):
        keys = keys if keys is not None else texts
        return [self.embed(t, k) for t, k in zip(texts, keys)]


class HttpProvider:
    """POSTs {"texts": [...]} and expects {"vectors": [[...], ...]} in the
    same order; batches of at most 64, each sent as ``net.call`` retries."""

    BATCH = 64

    def __init__(self, url: str, dimension: int, auth: str | None = None,
                 concurrency: int = 8, post=None):
        self.url = url
        self.dimension = dimension
        self.concurrency = concurrency
        self._headers = {"Content-Type": "application/json"}
        if auth:
            self._headers["Authorization"] = f"Bearer {auth}"
        self._post = post if post is not None else self._send

    def _send(self, body: dict) -> tuple[int, object]:
        return net.send_json("POST", self.url, 60, json=body, headers=self._headers)

    def _embed_chunk(self, texts: Sequence[str]) -> list[np.ndarray]:
        (status, body), _ = net.call(
            lambda: self._post({"texts": list(texts)}),
            lambda reason: ServiceError(
                f"embedding service failed after {net.ATTEMPTS} attempts: {reason}"))
        vectors = body.get("vectors") if isinstance(body, dict) else None
        if status != 200 or not isinstance(vectors, list):
            raise ServiceError(f"embedding service answered HTTP {status} without a 'vectors' list")
        if len(vectors) != len(texts):
            raise ServiceError(f"service returned {len(vectors)} vectors for {len(texts)} texts")
        out = []
        for v in vectors:
            arr = np.asarray(v, dtype=float)
            if arr.shape != (self.dimension,):
                raise DimensionMismatchError(
                    f"expected dimension {self.dimension}, got {arr.shape}")
            out.append(_normalize(arr))
        return out

    def embed(self, text: str, key: str | None = None) -> np.ndarray:
        return self._embed_chunk([text])[0]

    def embed_batch(self, texts: Sequence[str], keys: Sequence[str] | None = None):
        chunks = [texts[i:i + self.BATCH] for i in range(0, len(texts), self.BATCH)]
        if len(chunks) <= 1:
            return self._embed_chunk(texts) if texts else []
        with ThreadPoolExecutor(max_workers=self.concurrency) as pool:
            results = list(pool.map(self._embed_chunk, chunks))
        return [v for chunk in results for v in chunk]


# each kind's provider and spec keys: (JSON type, REQUIRED or None for the
# provider's own default, lowest value); HashedProvider checks its dimension
PROVIDER_SPECS = {
    "hashed": (HashedProvider, {"dimension": (int, None, None), "seed": (int, None, None)}),
    "file": (FileProvider, {"path": (str, REQUIRED, None)}),
    "http": (HttpProvider, {"url": (str, REQUIRED, None), "dimension": (int, REQUIRED, 1),
                            "auth": (str, None, None), "concurrency": (int, None, 1)}),
}


def spec_arguments(spec: dict) -> tuple[str, dict]:
    """The kind of a JSON embedding spec and its provider's checked arguments."""
    kind = spec.get("kind", "hashed")
    if not isinstance(kind, str) or kind not in PROVIDER_SPECS:
        raise ConfigError(f"unknown embedding provider kind {kind!r}")
    args = check_fields(spec, {"kind": (str, None, None), **PROVIDER_SPECS[kind][1]},
                        f"embedding ({kind})")
    return kind, {k: v for k, v in args.items() if k != "kind" and v is not None}


def provider_from_spec(spec: dict):
    """Build a provider from its JSON spec {kind, dimension, seed|path|url...}."""
    kind, args = spec_arguments(spec)
    return PROVIDER_SPECS[kind][0](**args)


def anchor_centroid(phrases: Iterable[str], provider) -> np.ndarray:
    phrases = list(phrases)
    if not phrases:
        raise ConfigError("anchor_centroid requires at least one phrase")
    mean = np.mean([provider.embed(p) for p in phrases], axis=0)
    return _normalize(mean)
