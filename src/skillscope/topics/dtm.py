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


def top_terms(weights: np.ndarray, vocab: Sequence[str],
              n: int = 15) -> list[tuple[str, float]]:
    """The n terms of ``vocab`` with the largest ``weights``, ties
    lexicographic; each weight is clipped at zero."""
    rank = np.empty(len(vocab), dtype=np.intp)
    rank[sorted(range(len(vocab)), key=vocab.__getitem__)] = np.arange(len(vocab))
    return [(vocab[i], max(float(weights[i]), 0.0))
            for i in np.lexsort((rank, -weights))[:n]]


def cluster_terms(assignments: Sequence[int], dtm: DocTermMatrix,
                  top_n: int = 15) -> dict[int, list[tuple[str, float]]]:
    """Each cluster's top_n terms by mean tf-idf (tf = raw count,
    idf = ln(D/df)), from the non-zero cells of ``dtm`` alone.

    Documents labeled ``NOISE`` are excluded. A cluster's cells are summed
    in document order and divided by its size, which is what the mean over
    the rows of a dense D×V tf-idf gives, bit for bit.
    """
    assignments = np.asarray(assignments)
    if len(assignments) != dtm.n_docs:
        raise ValueError("assignments must cover every document of dtm")
    term = np.concatenate(dtm.doc_indices)
    weight = np.concatenate(dtm.doc_counts) * np.log(dtm.n_docs / dtm.doc_frequency())[term]
    cell_cluster = np.repeat(assignments, [len(idx) for idx in dtm.doc_indices])
    out: dict[int, list[tuple[str, float]]] = {}
    for cluster in sorted(set(assignments.tolist()) - {NOISE}):
        cells = cell_cluster == cluster
        sums = np.bincount(term[cells], weights=weight[cells], minlength=dtm.n_terms)
        out[cluster] = top_terms(sums / np.count_nonzero(assignments == cluster),
                                 dtm.vocab, top_n)
    return out
