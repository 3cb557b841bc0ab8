"""Document-term matrix with stopword removal and frequency thresholds.

Vocabulary order is deterministic: descending document frequency, ties
broken lexicographically.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from importlib import resources
from typing import Sequence

import numpy as np

from ..errors import EmptyVocabularyError
from ..text import tokenize
from .density import NOISE


@lru_cache(maxsize=1)
def stopwords() -> frozenset[str]:
    text = resources.files("skillscope.data").joinpath("stopwords.txt").read_text("utf-8")
    return frozenset(w for w in text.split() if w)


@dataclass
class DocTermMatrix:
    vocab: list[str]
    # parallel arrays per document: term indices and their counts
    doc_indices: list[np.ndarray]
    doc_counts: list[np.ndarray]

    @property
    def n_docs(self) -> int:
        return len(self.doc_indices)

    @property
    def n_terms(self) -> int:
        return len(self.vocab)

    def dense(self) -> np.ndarray:
        out = np.zeros((self.n_docs, self.n_terms), dtype=np.int64)
        for d, (idx, cnt) in enumerate(zip(self.doc_indices, self.doc_counts)):
            out[d, idx] = cnt
        return out

    def doc_frequency(self) -> np.ndarray:
        df = np.zeros(self.n_terms, dtype=np.int64)
        for idx in self.doc_indices:
            df[idx] += 1
        return df


def build_dtm(texts: Sequence[str], min_df: int = 1,
              max_df_fraction: float = 1.0) -> DocTermMatrix:
    if not texts:
        raise EmptyVocabularyError("empty corpus")
    stop = stopwords()
    doc_term_counts: list[dict[str, int]] = []
    df: dict[str, int] = {}
    for text in texts:
        counts: dict[str, int] = {}
        for tok in tokenize(text):
            if tok in stop:
                continue
            counts[tok] = counts.get(tok, 0) + 1
        for term in counts:
            df[term] = df.get(term, 0) + 1
        doc_term_counts.append(counts)

    n = len(texts)
    kept = [t for t, d in df.items() if d >= min_df and d / n <= max_df_fraction]
    if not kept:
        raise EmptyVocabularyError("frequency thresholds eliminated every term")
    vocab = sorted(kept, key=lambda t: (-df[t], t))
    term_id = {t: i for i, t in enumerate(vocab)}

    doc_indices, doc_counts = [], []
    for counts in doc_term_counts:
        pairs = sorted((term_id[t], c) for t, c in counts.items() if t in term_id)
        doc_indices.append(np.array([i for i, _ in pairs], dtype=np.int64))
        doc_counts.append(np.array([c for _, c in pairs], dtype=np.int64))
    return DocTermMatrix(vocab=vocab, doc_indices=doc_indices, doc_counts=doc_counts)


def tfidf_matrix(dtm: DocTermMatrix) -> np.ndarray:
    """tf = raw count, idf = ln(D/df)."""
    counts = dtm.dense().astype(float)
    df = dtm.doc_frequency().astype(float)
    return counts * np.log(float(dtm.n_docs) / df)


def cluster_terms(assignments: Sequence[int], weights: np.ndarray, vocab: Sequence[str],
                  top_n: int = 15) -> dict[int, list[tuple[str, float]]]:
    """Per-cluster mean of the D×V ``weights`` (``tfidf_matrix``), top_n terms
    of ``vocab``, ties lexicographic.

    Documents labeled ``NOISE`` are excluded. Empty clusters are skipped.
    Weights are clipped at zero (idf of an everywhere-present term is
    exactly zero).
    """
    assignments = np.asarray(assignments)
    if len(assignments) != len(weights):
        raise ValueError("assignments must cover all rows of weights")
    out: dict[int, list[tuple[str, float]]] = {}
    for cluster in sorted(set(int(a) for a in assignments) - {NOISE}):
        members = np.flatnonzero(assignments == cluster)
        if members.size == 0:
            continue
        mean_w = weights[members].mean(axis=0)
        order = sorted(range(len(vocab)), key=lambda i: (-mean_w[i], vocab[i]))
        out[cluster] = [(vocab[i], max(float(mean_w[i]), 0.0)) for i in order[:top_n]]
    return out
