"""Latent Dirichlet Allocation by zero-order collapsed variational Bayes.

CVB0 (Asuncion, Welling, Smyth & Teh, "On Smoothing and Inference for Topic
Models", UAI 2009) keeps one topic responsibility per topic and non-zero
(document, term) cell. Each sweep gathers the expected counts from all cells,
then updates every cell at once (synchronously) with one token left out:
gamma ∝ (n_dk - gamma + alpha)(n_wk - gamma + beta) / (n_k - gamma + V beta).
phi and theta come from the final expected counts with Dirichlet smoothing.

gamma is stored topic-major, K rows of N cells, in two K x N arrays made
once: a sweep reads one and writes the other. Its elementwise chain (the
two gathers of expected counts, three subtractions, a product, a quotient
and the normalisation) runs over blocks of ``BLOCK_CELLS`` cells in two
K x BLOCK_CELLS scratch arrays, so each numpy loop runs over contiguous
values while the block it reads and writes stays in L2 cache; passes over
whole K x N arrays would stream every step through memory (cache blocking:
Lam, Rothberg & Wolf, ASPLOS 1991). The sparse products run per topic over
all N cells. Every sum adds in the order numpy and scipy add the
cell-major (N x K) layout, so the bytes are that layout's:
- a cell's K responsibilities are summed in numpy's pairwise order
  (``_cell_sums``);
- n_k, the trace, phi and theta come from V x K and D x K contiguous
  copies, by the same numpy calls;
- n_dk and n_wk are one sparse product per topic, which adds each
  document's or term's cells in cell order, as the K-column CSR product does.
gamma is seeded from numpy's ``default_rng(seed)``: the same seed gives the
same bytes under the same numpy and scipy build, not across builds.

``scipy.sparse`` and ``scipy.special`` are imported inside the functions that
use them, so a process that never fits LDA never loads scipy for it; the
first fit in a process pays that import.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import ConfigError
from .dtm import DocTermMatrix

# cells per block of the seeded draw and of each sweep. The draw makes no
# N x K copy of gamma, and freeing a block leaves no large hole in the heap.
# A sweep block of 4,096 cells at K = 6 reads and writes 768 KiB (gamma, the
# result and two scratch arrays), well inside a 2 MiB L2: on 20,000 demo
# postings (1.06 million cells) the elementwise chain took 42 ms a sweep in
# such blocks against 75 ms over whole arrays; blocks of 1,024 cells took
# 60 ms and blocks of 8,192 to 65,536 cells were no faster (2-vCPU host)
BLOCK_CELLS = 1 << 12


@dataclass
class LdaConfig:
    K: int = 6
    alpha: float | None = None  # default 50/K
    beta: float = 0.01
    iterations: int = 1000
    seed: int = 0
    vocab_min_df: int = 2
    vocab_max_df_fraction: float = 0.9

    def __post_init__(self):
        if self.K < 1:
            raise ConfigError("LDA K must be >= 1")
        if self.alpha is None:
            self.alpha = 50.0 / self.K
        if self.alpha <= 0 or self.beta <= 0:
            raise ConfigError("alpha and beta must be positive")
        if self.iterations < 1:
            raise ConfigError("iterations must be positive")
        if not (0 < self.vocab_max_df_fraction <= 1):
            raise ConfigError("vocab_max_df_fraction must be in (0,1]")


@dataclass
class LdaModel:
    phi: np.ndarray        # K x V in dtm.vocab order, rows sum to 1
    theta: np.ndarray      # D x K, rows sum to 1
    doc_topic_counts: np.ndarray  # D x K expected counts, rows sum to doc lengths
    log_likelihood_trace: list[float] = field(default_factory=list)


def _log_joint_words(n_wk: np.ndarray, beta: float) -> float:
    """log p(w | z) up to a constant, from (expected) V x K term-topic counts."""
    from scipy.special import gammaln

    n_kt = n_wk.T
    V = n_kt.shape[1]
    return float(gammaln(n_kt + beta).sum() - gammaln(n_kt.sum(axis=1) + V * beta).sum())


def _cell_sums(g: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """The column sums of a K x N array, each added as numpy's pairwise sum
    adds a contiguous row of K: in turn below 8, in eight running sums up to
    128, and above that in two halves cut at a multiple of 8. The sums are
    made in ``scratch``, an array of g's shape, and returned as one of its rows."""
    K = len(g)
    if K > 128:
        half = K // 2 - K // 2 % 8
        total = _cell_sums(g[:half], scratch[:half])
        total += _cell_sums(g[half:], scratch[half:])
        return total
    if K < 8:
        total = scratch[0]
        np.copyto(total, g[0])
        rest = g[1:]
    else:
        r = scratch[:8]
        np.copyto(r, g[:8])
        for i in range(8, K - K % 8, 8):
            r += g[i:i + 8]
        for step in (1, 2, 4):  # ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7))
            r[::2 * step] += r[step::2 * step]
        total = r[0]
        rest = g[K - K % 8:]
    for row in rest:
        total += row
    return total


def lda_fit(dtm: DocTermMatrix, cfg: LdaConfig) -> LdaModel:
    from scipy import sparse

    if dtm.n_docs == 0 or dtm.n_terms == 0:
        raise ConfigError("empty document-term matrix")
    K, V, D = cfg.K, dtm.n_terms, dtm.n_docs
    alpha, beta = float(cfg.alpha), float(cfg.beta)
    vbeta = V * beta

    # one triple per non-zero cell: doc[i], term[i], count[i]
    lengths = [len(idx) for idx in dtm.doc_indices]
    doc = np.repeat(np.arange(D), lengths)
    term = np.concatenate(dtm.doc_indices)
    count = np.concatenate(dtm.doc_counts).astype(float)
    N = len(count)
    # count-weighted incidence: (D x N) @ gamma[k] = n_dk[k], (V x N) @ gamma[k] = n_wk[k].
    # Both read gamma[k] in order; the one-cell columns of by_term add each
    # term's cells in cell order, as its rows would, without random reads.
    by_doc = sparse.csr_matrix((count, (doc, np.arange(N))), shape=(D, N))
    by_term = sparse.csc_matrix((count, term, np.arange(N + 1)), shape=(V, N))

    def expected(gamma):  # K x D and K x V
        return np.array([by_doc @ g for g in gamma]), np.array([by_term @ g for g in gamma])

    rng = np.random.default_rng(cfg.seed)
    gamma, new = np.empty((K, N)), np.empty((K, N))
    for start in range(0, N, BLOCK_CELLS):  # the stream of one (N, K) draw
        gamma[:, start:start + BLOCK_CELLS] = rng.random((min(BLOCK_CELLS, N - start), K)).T
    gamma /= _cell_sums(gamma, new)
    n_dk, n_wk = expected(gamma)
    x_buf, y_buf = np.empty((2, K * min(N, BLOCK_CELLS)))
    trace: list[float] = []
    for sweep in range(cfg.iterations):
        doc_alpha, term_beta = n_dk + alpha, n_wk + beta
        k_vbeta = (np.ascontiguousarray(n_wk.T).sum(axis=0) + vbeta)[:, None]
        for start in range(0, N, BLOCK_CELLS):
            block = slice(start, start + BLOCK_CELLS)
            g = gamma[:, block]
            # the scratch as contiguous arrays of g's shape, the last block's too
            x, y = x_buf[:g.size].reshape(g.shape), y_buf[:g.size].reshape(g.shape)
            # every index is in range: "clip" lets take write into its out array
            np.take(doc_alpha, doc[block], axis=1, out=x, mode="clip")
            x -= g
            np.take(term_beta, term[block], axis=1, out=y, mode="clip")
            y -= g
            x *= y
            np.subtract(k_vbeta, g, out=y)
            x /= y
            np.divide(x, _cell_sums(x, y), out=new[:, block])
        gamma, new = new, gamma
        n_dk, n_wk = expected(gamma)
        if sweep % 10 == 0 or sweep == cfg.iterations - 1:
            trace.append(_log_joint_words(np.ascontiguousarray(n_wk.T), beta))

    n_dk, n_kt = np.ascontiguousarray(n_dk.T), np.ascontiguousarray(n_wk.T).T
    phi = (n_kt + beta) / (n_kt.sum(axis=1, keepdims=True) + vbeta)
    theta = (n_dk + alpha) / (n_dk.sum(axis=1, keepdims=True) + K * alpha)
    return LdaModel(phi=phi, theta=theta, doc_topic_counts=n_dk, log_likelihood_trace=trace)
