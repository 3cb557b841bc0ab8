"""KMeans over document embeddings: seeded k-means++ initialization, Lloyd
iterations until assignments stabilize, empty-cluster repair by reseeding to
the farthest point. The within-cluster sum of squares (WCSS) trace is
recorded and is non-increasing."""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

MAX_ITERATIONS = 300


@dataclass
class KMeansModel:
    centroids: np.ndarray         # K x d
    assignments: np.ndarray       # D, nearest-centroid ids
    wcss: float
    iterations_run: int
    wcss_trace: list[float] = field(default_factory=list)
    degenerate: bool = False


def _sq_dists(points: np.ndarray, centroids: np.ndarray,
              buffer: np.ndarray | None = None) -> np.ndarray:
    # D x K squared Euclidean distances, one centroid column at a time, each
    # squared difference made in one D x d ``buffer``: the same sums as the
    # D x K x d broadcast without its temporary
    buffer = np.empty(points.shape) if buffer is None else buffer
    out = np.empty((points.shape[0], centroids.shape[0]))
    for c, centroid in enumerate(centroids):
        np.subtract(points, centroid, out=buffer)
        np.square(buffer, out=buffer)
        out[:, c] = buffer.sum(axis=1)
    return out


def _kmeanspp_init(points: np.ndarray, k: int, rng: np.random.Generator,
                   buffer: np.ndarray) -> np.ndarray:
    n = points.shape[0]
    centroids = [points[rng.integers(n)]]
    for _ in range(1, k):
        d2 = _sq_dists(points, np.array(centroids), buffer).min(axis=1)
        total = d2.sum()
        if total <= 0:
            centroids.append(points[rng.integers(n)])
            continue
        probs = d2 / total
        centroids.append(points[rng.choice(n, p=probs)])
    return np.array(centroids)


def wcss_of(points: np.ndarray, centroids: np.ndarray, assignments: np.ndarray,
            buffer: np.ndarray | None = None) -> float:
    """The sum of each point's squared distance to its centroid, summed over
    one D x d ``buffer`` as over ``(points - centroids[assignments]) ** 2``."""
    buffer = np.empty(points.shape) if buffer is None else buffer
    # any mode but "raise" writes to out directly; an assignment is never out of range
    np.take(centroids, assignments, axis=0, out=buffer, mode="clip")
    np.subtract(points, buffer, out=buffer)
    np.square(buffer, out=buffer)
    return float(buffer.sum())


def kmeans_fit(points: np.ndarray, k: int, seed: int = 0) -> KMeansModel:
    points = np.asarray(points, dtype=float)
    n = points.shape[0]
    if not (1 <= k <= n):
        raise ValueError(f"need 1 <= K <= n_points, got K={k}, n={n}")
    rng = np.random.default_rng(seed)

    degenerate = bool(np.all(points == points[0])) and k > 1
    if degenerate:
        warnings.warn("all points identical with K > 1; returning duplicated centroids")
        centroids = np.repeat(points[:1], k, axis=0)
        assignments = np.zeros(n, dtype=np.int64)
        return KMeansModel(centroids=centroids, assignments=assignments, wcss=0.0,
                           iterations_run=0, wcss_trace=[0.0], degenerate=True)

    buffer = np.empty(points.shape)  # the one D x d array each distance pass reuses
    centroids = _kmeanspp_init(points, k, rng, buffer)
    assignments = np.full(n, -1, dtype=np.int64)
    trace: list[float] = []
    iterations = 0
    for iterations in range(1, MAX_ITERATIONS + 1):
        new_assignments = _sq_dists(points, centroids, buffer).argmin(axis=1)
        for cluster in range(k):
            members = np.flatnonzero(new_assignments == cluster)
            if members.size:
                centroids[cluster] = points[members].mean(axis=0)
            else:
                # reseed to the point farthest from its current centroid
                far = int(_sq_dists(points, centroids, buffer).min(axis=1).argmax())
                centroids[cluster] = points[far]
                new_assignments[far] = cluster
        trace.append(wcss_of(points, centroids, new_assignments, buffer))
        if np.array_equal(new_assignments, assignments):
            assignments = new_assignments
            break
        assignments = new_assignments
    # final assignment pass so every point sits with its nearest centroid
    assignments = _sq_dists(points, centroids, buffer).argmin(axis=1)
    return KMeansModel(
        centroids=centroids,
        assignments=assignments,
        wcss=wcss_of(points, centroids, assignments, buffer),
        iterations_run=iterations,
        wcss_trace=trace,
    )
