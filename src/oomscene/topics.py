"""Latent-topic discovery: seeded k-means over semantic descriptors.

Clustering never reads scene labels.  Initialization is distance-weighted
random seeding; empty clusters are re-seeded from the farthest point; the
whole fit is deterministic for a fixed seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError


@dataclass(frozen=True, eq=False)
class KMeansModel:
    centroids: np.ndarray
    inertia: float
    seed: int
    iterations_run: int

    @property
    def n_topics(self) -> int:
        return self.centroids.shape[0]

    @property
    def dim(self) -> int:
        return self.centroids.shape[1]


def _squared_distances(X: np.ndarray, centers: np.ndarray) -> np.ndarray:
    d2 = (
        (X * X).sum(axis=1)[:, None]
        + (centers * centers).sum(axis=1)[None, :]
        - 2.0 * (X @ centers.T)
    )
    np.maximum(d2, 0.0, out=d2)  # cancellation can leave tiny negatives
    return d2


def nearest_centroids(centroids: np.ndarray, X: np.ndarray):
    """Nearest centroid per row (lowest index on ties) and its distance."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    d2 = _squared_distances(X, centroids)
    labels = d2.argmin(axis=1)
    return labels, np.sqrt(d2[np.arange(len(X)), labels])


def _plus_plus_init(X, k, rng):
    n = X.shape[0]
    centers = np.empty((k, X.shape[1]), dtype=float)
    centers[0] = X[int(rng.integers(n))]
    d2 = ((X - centers[0]) ** 2).sum(axis=1)
    for j in range(1, k):
        total = float(d2.sum())
        if total > 0.0:
            idx = int(rng.choice(n, p=d2 / total))
        else:
            idx = int(rng.integers(n))
        centers[j] = X[idx]
        np.minimum(d2, ((X - centers[j]) ** 2).sum(axis=1), out=d2)
    return centers


def fit_topics(descriptors, d: int, seed: int, max_iter: int = 300,
               tol: float = 1e-6) -> KMeansModel:
    """Lloyd's k-means with distance-weighted seeding.

    Stops at `max_iter` or once the relative inertia improvement drops below
    `tol`.  Empty clusters are re-seeded from the point farthest from its
    centroid.  The reported inertia is recomputed against the final centroids.
    """
    try:
        X = np.asarray(descriptors, dtype=float)
    except ValueError:
        raise DimensionError("descriptors must all have the same dimension") from None
    if X.ndim != 2:
        raise DimensionError("descriptors must all have the same dimension")
    n = X.shape[0]
    if d < 1:
        raise ValueError("need at least one topic")
    if d > n:
        raise ValueError(f"cannot fit {d} topics from {n} descriptors")
    rng = np.random.default_rng(seed)
    centers = _plus_plus_init(X, d, rng)

    prev = None
    iterations = 0
    for it in range(max_iter):
        d2 = _squared_distances(X, centers)
        labels = d2.argmin(axis=1)
        mind2 = d2[np.arange(n), labels]
        counts = np.bincount(labels, minlength=d)
        for j in np.flatnonzero(counts == 0):
            far = int(mind2.argmax())
            centers[j] = X[far]
            labels[far] = j
            mind2[far] = 0.0
        inertia = float(mind2.sum())
        iterations = it + 1
        if prev is not None and prev - inertia <= tol * prev:
            break
        prev = inertia
        for j in range(d):
            members = labels == j
            if members.any():
                centers[j] = X[members].mean(axis=0)

    final_d2 = _squared_distances(X, centers)
    inertia = float(final_d2.min(axis=1).sum())
    return KMeansModel(
        centroids=centers.copy(),
        inertia=inertia,
        seed=seed,
        iterations_run=iterations,
    )


def assign_topics_batch(model: KMeansModel, descriptors):
    """Nearest centroid per descriptor (lowest index on ties): (labels, distances)."""
    X = np.asarray(descriptors, dtype=float)
    if X.ndim != 2 or X.shape[1] != model.dim:
        raise DimensionError(
            f"descriptors have dimension {X.shape[-1]}, topic model expects {model.dim}"
        )
    return nearest_centroids(model.centroids, X)
