"""Latent Dirichlet Allocation by zero-order collapsed variational Bayes.

CVB0 (Asuncion, Welling, Smyth & Teh, "On Smoothing and Inference for Topic
Models", UAI 2009) keeps one topic responsibility row gamma per non-zero
(document, term) cell. Each sweep gathers the expected counts from all rows,
then updates every row at once (synchronously) with one token left out:
gamma ∝ (n_dk - gamma + alpha)(n_wk - gamma + beta) / (n_k - gamma + V beta).
phi and theta come from the final expected counts with Dirichlet smoothing.
gamma is seeded from numpy's ``default_rng(seed)``: the same seed gives the
same bytes under the same numpy and scipy build, not across builds.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import sparse
from scipy.special import gammaln

from ..errors import ConfigError
from .dtm import DocTermMatrix


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


def _log_joint_words(n_kt: np.ndarray, beta: float) -> float:
    """log p(w | z) up to a constant, from (expected) topic-word counts."""
    V = n_kt.shape[1]
    return float(gammaln(n_kt + beta).sum() - gammaln(n_kt.sum(axis=1) + V * beta).sum())


def lda_fit(dtm: DocTermMatrix, cfg: LdaConfig) -> LdaModel:
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
    cells = np.arange(len(count))
    # count-weighted incidence: (D x N) @ gamma = n_dk, (V x N) @ gamma = n_wk
    by_doc = sparse.csr_matrix((count, (doc, cells)), shape=(D, len(count)))
    by_term = sparse.csr_matrix((count, (term, cells)), shape=(V, len(count)))

    gamma = np.random.default_rng(cfg.seed).random((len(count), K))
    gamma /= gamma.sum(axis=1, keepdims=True)
    n_dk, n_wk = by_doc @ gamma, by_term @ gamma
    trace: list[float] = []
    for sweep in range(cfg.iterations):
        n_k = n_wk.sum(axis=0)
        gamma = (np.repeat(n_dk + alpha, lengths, axis=0) - gamma) \
            * (np.take(n_wk + beta, term, axis=0) - gamma) / ((n_k + vbeta) - gamma)
        gamma /= gamma.sum(axis=1, keepdims=True)
        n_dk, n_wk = by_doc @ gamma, by_term @ gamma
        if sweep % 10 == 0 or sweep == cfg.iterations - 1:
            trace.append(_log_joint_words(n_wk.T, beta))

    n_kt = n_wk.T
    phi = (n_kt + beta) / (n_kt.sum(axis=1, keepdims=True) + vbeta)
    theta = (n_dk + alpha) / (n_dk.sum(axis=1, keepdims=True) + K * alpha)
    return LdaModel(phi=phi, theta=theta, doc_topic_counts=n_dk, log_likelihood_trace=trace)
