"""Density-based topic discovery over reduced embeddings.

Deliberate substitution for the UMAP+HDBSCAN pair: a seeded Gaussian random
projection to k dimensions followed by DBSCAN (Ester et al., KDD 1996), with
eps picked at the knee of the sorted k-distance curve and minPts equal to
the minimum cluster size. Clusters smaller than the minimum are relabeled
NOISE. The minimum cluster size semantics of the original pipeline are
preserved.

Neighbourhoods come from a KD-tree, never from an n×n array: the tree
proposes candidate pairs at a slightly widened radius, and each pair is
kept or dropped by the same numpy expression a dense distance matrix would
use, so eps and the labels are bit-identical to the O(n²) formulation.
Memory grows with n plus the number of pairs within eps.

``scipy.spatial``, ``scipy.sparse`` and ``scipy.sparse.csgraph`` are imported
inside the two functions that use them, so a process that never fits this
model never loads them. Nothing else in skillscope imports scipy at module
level (``lda`` imports it inside its fit too), so every stage but ``topics``
runs without it: about 22 MB of resident memory and 0.25 s of start-up on
a 2-vCPU host.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

NOISE = -1
# pairs per distance batch: a batch's four temporaries (both gathered ends,
# their difference and its square) take about 1 MB at k = 8, and stay in
# cache, where 65,536 pairs took about 17 MB
_CHUNK = 1 << 12
# scaled_min_cluster_size: this share of the documents, and never below the floor
MIN_CLUSTER_SHARE = 0.002
MIN_CLUSTER_FLOOR = 5


@dataclass
class DensityTopicModel:
    labels: np.ndarray             # topic id per document, NOISE = -1
    eps: float


def scaled_min_cluster_size(n_docs: int) -> int:
    """Desk-scale analogue of the fixed min topic size used at corpus scale."""
    return max(MIN_CLUSTER_FLOOR, int(np.ceil(MIN_CLUSTER_SHARE * n_docs)))


def random_projection(embeddings: np.ndarray, k: int, seed: int) -> np.ndarray:
    d = embeddings.shape[1]
    if k >= d:
        raise ValueError(f"reduced dimension k={k} must be < d={d}")
    rng = np.random.default_rng(seed)
    mat = rng.standard_normal((d, k)) / np.sqrt(k)
    return embeddings @ mat


def _widen(r):
    # the tree sums squared differences in another order than numpy, so its
    # distances differ by a few ULPs; the margin keeps every pair the exact
    # test below could accept (the absolute term covers subnormal squares)
    return r * (1 + 1e-9) + 1e-150


def _pair_sq_dists(points: np.ndarray, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """Squared distance of each pair (i[p], j[p]), summed exactly as the
    dense ((points[:, None] - points[None]) ** 2).sum(axis=2) sums it."""
    out = np.empty(i.size)
    for s in range(0, i.size, _CHUNK):
        a, b = points[i[s:s + _CHUNK]], points[j[s:s + _CHUNK]]
        out[s:s + _CHUNK] = ((a - b) ** 2).sum(axis=-1)
    return out


def k_distance_knee(points: np.ndarray, min_pts: int) -> float:
    """eps = k-distance at the knee (max distance to the chord) of the
    ascending sorted k-NN distance curve (self counts as the 0th neighbour)."""
    from scipy.spatial import cKDTree

    n = points.shape[0]
    m = min(min_pts, n - 1) + 1
    tree = cKDTree(points)
    radius = tree.query(points, k=[m])[0][:, 0]
    cands = tree.query_ball_point(points, _widen(radius), return_sorted=False)
    counts = np.fromiter(map(len, cands), dtype=np.intp, count=n)
    rows = np.repeat(np.arange(n), counts)
    cols = np.fromiter(itertools.chain.from_iterable(cands), dtype=np.intp,
                       count=int(counts.sum()))
    dist = np.sqrt(_pair_sq_dists(points, rows, cols))
    dist = dist[np.lexsort((dist, rows))]
    kth = dist[np.cumsum(counts) - counts + m - 1]
    curve = np.sort(kth)
    x = np.arange(n, dtype=float)
    x0, y0, x1, y1 = x[0], curve[0], x[-1], curve[-1]
    denom = np.hypot(x1 - x0, y1 - y0)
    if denom == 0:
        return float(curve[-1])
    dist = np.abs((y1 - y0) * x - (x1 - x0) * curve + x1 * y0 - y1 * x0) / denom
    return float(curve[int(dist.argmax())])


def _dbscan(points: np.ndarray, eps: float, min_pts: int) -> np.ndarray:
    """DBSCAN labels: clusters are the components of the core–core graph,
    numbered by their lowest core index; a border point joins the lowest
    cluster among its core neighbours (what a BFS in index order assigns)."""
    from scipy.sparse import coo_matrix
    from scipy.sparse.csgraph import connected_components
    from scipy.spatial import cKDTree

    n = points.shape[0]
    pairs = cKDTree(points).query_pairs(_widen(eps), output_type="ndarray")
    i, j = pairs[:, 0], pairs[:, 1]
    keep = _pair_sq_dists(points, i, j) <= eps * eps
    i, j = i[keep], j[keep]
    core = np.bincount(i, minlength=n) + np.bincount(j, minlength=n) + 1 >= min_pts

    both = core[i] & core[j]
    graph = coo_matrix((np.ones(int(both.sum()), dtype=np.int8), (i[both], j[both])),
                       shape=(n, n))
    comp = connected_components(graph, directed=False)[1][core]
    _, first, comp = np.unique(comp, return_index=True, return_inverse=True)
    labels = np.full(n, NOISE, dtype=np.int64)
    labels[core] = np.argsort(np.argsort(first))[comp]

    src, dst = np.concatenate([i, j]), np.concatenate([j, i])
    edge = ~core[src] & core[dst]
    unset = np.iinfo(np.int64).max
    border = np.full(n, unset)
    np.minimum.at(border, src[edge], labels[dst[edge]])
    reached = border != unset
    labels[reached] = border[reached]
    return labels


def density_topics(
    embeddings: np.ndarray,
    min_cluster_size: int,
    k_reduced: int = 8,
    seed: int = 0,
    eps: float | None = None,
) -> DensityTopicModel:
    embeddings = np.asarray(embeddings, dtype=float)
    n = embeddings.shape[0]
    if min_cluster_size > n:
        raise ValueError(f"min_cluster_size {min_cluster_size} exceeds corpus size {n}")
    projected = random_projection(embeddings, k_reduced, seed)
    if eps is None:
        eps = k_distance_knee(projected, min_cluster_size)
    raw = _dbscan(projected, eps, min_cluster_size)

    # drop undersized clusters, then relabel surviving topics by size desc
    sizes = np.bincount(raw[raw != NOISE])
    order = np.argsort(-sizes, kind="stable")
    keep = order[sizes[order] >= min_cluster_size]
    new_id = np.full(sizes.size + 1, NOISE, dtype=np.int64)   # [-1] maps NOISE
    new_id[keep] = np.arange(keep.size)
    return DensityTopicModel(labels=new_id[raw], eps=float(eps))
