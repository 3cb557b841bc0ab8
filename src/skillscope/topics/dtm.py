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

from ..errors import DataError
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
    """Each document's non-stopword terms and counts over the terms found in
    at least ``min_df`` documents and in at most ``max_df_fraction`` of them.
    A term gets an integer id when first seen, and each document is held as
    two arrays (ids, counts), not as a dict of strings, until the vocabulary
    is known; each document's indices ascend."""
    if not texts:
        raise DataError("empty corpus")
    stop = stopwords()
    ids: dict[str, int] = {}  # each term's id, in order of first sight
    seen: list = []  # each document's (first-sight ids, counts)
    for text in texts:
        counts: dict[int, int] = {}
        for tok in tokenize(text):
            if tok not in stop:
                i = ids.setdefault(tok, len(ids))
                counts[i] = counts.get(i, 0) + 1
        seen.append((np.fromiter(counts, np.int64, len(counts)),
                     np.fromiter(counts.values(), np.int64, len(counts))))

    n = len(texts)
    df = np.bincount(np.concatenate([idx for idx, _ in seen]), minlength=len(ids))
    kept = np.flatnonzero((df >= min_df) & (df / n <= max_df_fraction)).tolist()
    if not kept:
        raise DataError("frequency thresholds eliminated every term")
    terms, df = list(ids), df.tolist()
    order = sorted(kept, key=lambda i: (-df[i], terms[i]))
    rank = np.full(len(terms), -1, dtype=np.int64)  # each id's vocabulary index, -1 if dropped
    rank[order] = np.arange(len(order))

    doc_indices, doc_counts = [], []
    for d, (idx, cnt) in enumerate(seen):
        index = rank[idx]
        keep = index >= 0
        index, cnt = index[keep], cnt[keep]
        by_index = np.argsort(index)  # the indices are distinct, so any sort gives these
        doc_indices.append(index[by_index])
        doc_counts.append(cnt[by_index])
        seen[d] = None  # each document's first-sight arrays go as its final ones come
    return DocTermMatrix(vocab=[terms[i] for i in order], doc_indices=doc_indices,
                         doc_counts=doc_counts)


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
