"""Document-term matrix with stopword removal and frequency thresholds.

Vocabulary order is deterministic: descending document frequency, ties
broken lexicographically.
"""

from __future__ import annotations

from array import array
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
    # CSR cells, int64: document d's are indptr[d]:indptr[d + 1], term indices ascending
    indptr: np.ndarray
    indices: np.ndarray
    doc_counts: np.ndarray

    @property
    def n_docs(self) -> int:
        return len(self.indptr) - 1

    @property
    def n_terms(self) -> int:
        return len(self.vocab)


def build_dtm(texts: Sequence[str], min_df: int = 1,
              max_df_fraction: float = 1.0) -> DocTermMatrix:
    """Each document's non-stopword terms and counts over the terms found in
    at least ``min_df`` documents and in at most ``max_df_fraction`` of them.
    A term gets an integer id when first seen, and all documents' ids and
    counts fill flat buffers until the vocabulary is known; then one gather,
    one mask and one sort give every document's cells, indices ascending."""
    if not texts:
        raise DataError("empty corpus")
    stop = stopwords()
    ids: dict[str, int] = {}  # each term's id, in order of first sight
    # every document's first-sight ids and their counts, and its number of them
    seen_ids, seen_counts, seen_cells = array("q"), array("q"), array("q")
    for text in texts:
        counts: dict[int, int] = {}
        for tok in tokenize(text):
            if tok not in stop:
                i = ids.setdefault(tok, len(ids))
                counts[i] = counts.get(i, 0) + 1
        seen_ids.extend(counts)
        seen_counts.extend(counts.values())
        seen_cells.append(len(counts))

    n = len(texts)
    first_ids = np.frombuffer(seen_ids, np.int64)
    df = np.bincount(first_ids, minlength=len(ids))
    kept = np.flatnonzero((df >= min_df) & (df / n <= max_df_fraction)).tolist()
    if not kept:
        raise DataError("frequency thresholds eliminated every term")
    terms, df = list(ids), df.tolist()
    order = sorted(kept, key=lambda i: (-df[i], terms[i]))
    rank = np.full(len(terms), -1, dtype=np.int64)  # each id's vocabulary index, -1 if dropped
    rank[order] = np.arange(len(order))

    index = rank[first_ids]
    keep = index >= 0
    index = index[keep]
    doc = np.repeat(np.arange(n), np.frombuffer(seen_cells, np.int64))[keep]
    by_cell = np.lexsort((index, doc))  # a document's indices are distinct
    indptr = np.concatenate([[0], np.cumsum(np.bincount(doc, minlength=n))])
    return DocTermMatrix([terms[i] for i in order], indptr, index[by_cell],
                         np.frombuffer(seen_counts, np.int64)[keep][by_cell])


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
    term = dtm.indices
    weight = dtm.doc_counts * np.log(dtm.n_docs / np.bincount(term, minlength=dtm.n_terms))[term]
    cell_cluster = np.repeat(assignments, np.diff(dtm.indptr))
    out: dict[int, list[tuple[str, float]]] = {}
    for cluster in sorted(set(assignments.tolist()) - {NOISE}):
        cells = cell_cluster == cluster
        sums = np.bincount(term[cells], weights=weight[cells], minlength=dtm.n_terms)
        out[cluster] = top_terms(sums / np.count_nonzero(assignments == cluster),
                                 dtm.vocab, top_n)
    return out
