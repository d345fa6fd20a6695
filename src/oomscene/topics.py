"""Latent-topic discovery: seeded k-means over semantic descriptors.

Clustering never reads scene labels.  Initialization is distance-weighted
random seeding; empty clusters are re-seeded from the farthest point; the
whole fit is deterministic for a fixed seed.

The squared row norms are computed once per fit, a row block at a time, and
every distance pass reads them; no pass makes an n x d temporary.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError

# Lloyd's loop stops after _MAX_ITER passes, or once a pass improves the
# inertia by at most _TOL of the previous pass's
_MAX_ITER = 300
_TOL = 1e-6


@dataclass(frozen=True, eq=False)
class KMeansModel:
    centroids: np.ndarray
    inertia: float
    iterations_run: int

    def __post_init__(self):
        centroids = np.asarray(self.centroids, dtype=float)
        object.__setattr__(self, "centroids", centroids)
        if centroids.ndim != 2 or centroids.shape[0] < 1:
            raise ValueError(f"topic centroids must be [topics, dim] with at least "
                             f"one topic, got shape {centroids.shape}")
        if not np.all(np.isfinite(centroids)):
            raise ValueError("topic centroids must be finite")

    @property
    def n_topics(self) -> int:
        return self.centroids.shape[0]

    @property
    def dim(self) -> int:
        return self.centroids.shape[1]


# Elements per row block (1 MiB of float64) in the passes that would otherwise
# make an n x d temporary.
_BLOCK = 1 << 17


def row_blocks(n: int, dim: int):
    """Slices of at most `_BLOCK` elements' worth of rows of an [n, dim] array."""
    step = max(1, _BLOCK // max(dim, 1))
    return (slice(s, s + step) for s in range(0, n, step))


def _row_norms(X: np.ndarray) -> np.ndarray:
    """Squared row norms, a row block at a time: each row's value is the same
    sum as ``(X * X).sum(axis=1)`` gives, without its n x d temporary."""
    xx = np.empty(len(X))
    for rows in row_blocks(*X.shape):
        blk = X[rows]
        xx[rows] = (blk * blk).sum(axis=1)
    return xx


def _squared_distances(X: np.ndarray, centers: np.ndarray, xx: np.ndarray) -> np.ndarray:
    """[n, k] squared distances from the rows of X, whose squared norms are xx."""
    d2 = (
        xx[:, None]
        + (centers * centers).sum(axis=1)[None, :]
        - 2.0 * (X @ centers.T)
    )
    np.maximum(d2, 0.0, out=d2)  # cancellation can leave tiny negatives
    return d2


def squared_distances(X: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """[n, k] squared distances from the rows of X to the centers."""
    return _squared_distances(X, centers, _row_norms(X))


def _direct_distances(X: np.ndarray, rows: np.ndarray, c: np.ndarray) -> np.ndarray:
    """``((X[rows] - c) ** 2).sum(axis=1)``, a block of rows at a time."""
    out = np.empty(len(rows))
    for blk in row_blocks(len(rows), X.shape[1]):
        out[blk] = ((X[rows[blk]] - c) ** 2).sum(axis=1)
    return out


def _plus_plus_init(X, xx, k, rng):
    """k-means++ seeding (Arthur and Vassilvitskii, 2007).

    d2 holds each row's squared distance to its nearest pick in the direct
    form ``((x - c) ** 2).sum()``.  After a pick c, the expanded form
    ``xx + c·c - 2 x·c`` and the direct form each lie within about
    (dim + 2)·eps·(xx + c·c) of the true distance.  A row whose expanded form
    exceeds d2 by 4·(dim + 3)·eps·(xx + c·c), twice their sum, so keeps its
    d2 exactly, and only the other rows are computed in the direct form.  The
    picks are those of the direct form on every row, bit for bit.
    """
    n, dim = X.shape
    centers = np.empty((k, dim), dtype=float)
    centers[0] = X[int(rng.integers(n))]
    d2 = np.full(n, np.inf)
    slack = 4.0 * (dim + 3) * np.finfo(float).eps
    for j in range(1, k):
        c = centers[j - 1]
        cc = float(c @ c)
        bound = xx + cc - 2.0 * (X @ c)
        rows = np.flatnonzero(bound <= d2 + slack * (xx + cc))
        d2[rows] = np.minimum(d2[rows], _direct_distances(X, rows, c))
        total = float(d2.sum())
        if total > 0.0:
            idx = int(rng.choice(n, p=d2 / total))
        else:
            idx = int(rng.integers(n))
        centers[j] = X[idx]
    return centers


def fit_topics(descriptors, d: int, seed: int) -> KMeansModel:
    """Lloyd's k-means with distance-weighted seeding.

    Stops at `_MAX_ITER` passes or once the relative inertia improvement
    drops below `_TOL`.  Empty clusters are re-seeded from the point farthest
    from its centroid.  The reported inertia is recomputed against the final
    centroids.  Descriptors that are not finite, or whose squared norms
    overflow, raise a ValueError.
    """
    return kmeans(descriptors, d, seed)[0]


def kmeans(descriptors, d: int, seed: int):
    """``fit_topics``'s model and each descriptor's nearest final centroid
    (lowest index on ties), as ``assign_topics_batch`` gives it.

    A pass whose assignment repeats the previous pass's without an
    empty-cluster repair ends the loop: its update would recompute the
    current centroids, so the next pass would repeat it and stop on the
    tolerance.  That pass is counted, up to `_MAX_ITER`, and this pass's
    distances are the final ones.
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
    with np.errstate(over="ignore"):
        xx = _row_norms(X)
    if not np.all(np.isfinite(xx)):
        raise ValueError("descriptors must be finite, with squared norms below "
                         "the float64 range")
    rng = np.random.default_rng(seed)
    centers = _plus_plus_init(X, xx, d, rng)

    prev = prev_labels = d2 = None  # d2: distances to the current centers
    iterations = 0
    for it in range(_MAX_ITER):
        d2 = _squared_distances(X, centers, xx)
        labels = d2.argmin(axis=1)
        mind2 = d2[np.arange(n), labels]
        empty = np.flatnonzero(np.bincount(labels, minlength=d) == 0)
        for j in empty:
            far = int(mind2.argmax())
            centers[j] = X[far]
            labels[far] = j
            mind2[far] = 0.0
        if empty.size:
            d2 = None
        inertia = float(mind2.sum())
        iterations = it + 1
        if prev is not None and prev - inertia <= _TOL * prev:
            break
        if not empty.size and np.array_equal(labels, prev_labels):
            iterations = min(it + 2, _MAX_ITER)
            break
        prev, prev_labels = inertia, labels
        for j in range(d):
            members = labels == j
            if members.all():
                centers[j] = X.mean(axis=0)  # no copy of X for a cluster of every row
            elif members.any():
                centers[j] = X[members].mean(axis=0)
        d2 = None

    if d2 is None:
        d2 = _squared_distances(X, centers, xx)
    model = KMeansModel(
        centroids=centers.copy(),
        inertia=float(d2.min(axis=1).sum()),
        iterations_run=iterations,
    )
    return model, d2.argmin(axis=1)


def assign_topics_batch(model: KMeansModel, descriptors):
    """Nearest centroid per descriptor (lowest index on ties): (labels, distances)."""
    X = np.asarray(descriptors, dtype=float)
    if X.ndim != 2 or X.shape[1] != model.dim:
        raise DimensionError(
            f"descriptors have dimension {X.shape[-1]}, topic model expects {model.dim}"
        )
    d2 = squared_distances(X, model.centroids)
    labels = d2.argmin(axis=1)
    return labels, np.sqrt(d2[np.arange(len(X)), labels])
