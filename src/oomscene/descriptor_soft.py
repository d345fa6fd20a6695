"""Soft-detection semantic descriptors.

Every patch's score vector turns into a [selected objects x classes] posterior
matrix.  Flattened matrices are PCA-reduced, then aggregated as
soft-assignment-weighted first-order residuals against a k-means codebook
(VLAD), then signed-square-rooted and L2-normalized.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import FormatError, VariantError
from .ingest import SOFT, DatasetManifest
from .occurrence import DiscriminantSelection, PosteriorModel, score_grid_indices
from .topics import _row_norms, _squared_distances, fit_topics, nearest_centroids


def _patch_posteriors(manifest: DatasetManifest, post: PosteriorModel,
                      sel: DiscriminantSelection):
    """(bounds, X): record i's patches are the rows bounds[i]:bounds[i + 1]
    of X, each its flattened [selected objects x classes] posterior matrix.
    A record without patches raises a FormatError naming it."""
    if manifest.mode != SOFT:
        raise VariantError("soft descriptors need a soft-detection manifest")
    bounds, scores = manifest.bounds, manifest.scores
    empty = np.flatnonzero(bounds[1:] == bounds[:-1])
    if empty.size:
        raise FormatError(f"empty bag: record {manifest.image_ids[empty[0]]!r} "
                          f"has no patches")
    obj = np.asarray(sel.selected, dtype=np.intp)
    ts = score_grid_indices(post.grid, scores[:, obj])  # [n_patches, n_sel]
    return bounds, post.posteriors[obj, :, ts].reshape(len(scores), obj.size * post.n_classes)


@dataclass(frozen=True, eq=False)
class PcaTransform:
    """Mean and orthonormal principal basis (columns, eigenvalue-descending)."""

    mean: np.ndarray
    basis: np.ndarray  # [input_dim, out_dim]

    def __post_init__(self):
        for name in ("mean", "basis"):
            value = np.asarray(getattr(self, name), dtype=float)
            object.__setattr__(self, name, value)
            if not np.all(np.isfinite(value)):
                raise ValueError(f"PCA {name} must be finite")

    @property
    def out_dim(self) -> int:
        return self.basis.shape[1]

    def project(self, X) -> np.ndarray:
        return (np.asarray(X, dtype=float) - self.mean) @ self.basis

    def reconstruct(self, Y) -> np.ndarray:
        return self.mean + np.asarray(Y, dtype=float) @ self.basis.T


# Column-block width of fit_pca's first step on [n, d] samples: each block's
# R factor is at most this wide, so its SVD is cheap.
_PCA_BLOCK = 64


def fit_pca(samples, out_dim: int) -> PcaTransform:
    """Top principal directions of the sample covariance.

    ``samples`` is [n, d] vectors or [n, objects, classes] posterior
    matrices.  The columns are cut into blocks: one per object, the slice
    ``[:, r, :]``, for matrices, and 64-column windows for vectors; the mean
    and basis are in flattened order either way.  Each block is centred as it
    is reduced, through the SVD of its QR factor R, to the right singular
    vectors whose singular values exceed ``max(n, width) * eps`` times the
    block's largest, the rank tolerance of ``np.linalg.matrix_rank``.  The
    centred samples' row space lies, up to the dropped directions, in the
    direct sum of those spans, so one eigh of the covariance of the samples'
    coordinates in them (m x m, m the sum of the block ranks) gives the
    principal directions.  Dropping the rest moves the covariance by about
    that tolerance relative to its norm, the order of the rounding error
    bound of the n-term sums that form it, so the result matches the dense
    covariance eigh up to rounding.  An object's posterior rows sum to one,
    so its centred block has rank below the class count; with one block per
    object, m is the centred samples' rank unless the blocks' column spaces
    intersect, while a window that splits an object counts both parts' ranks.
    No centred copy of the samples is made.  If m < out_dim, the remaining
    columns are the blocks' dropped singular vectors, in block order.

    Column signs are fixed by making each column's first non-negligible entry
    positive, so the fit is deterministic.
    """
    X = np.asarray(samples, dtype=float)
    if X.ndim not in (2, 3):
        raise ValueError("samples must be [n, d] vectors or [n, objects, classes] "
                         "matrices")
    n, dim = X.shape[0], int(np.prod(X.shape[1:]))
    width = X.shape[2] if X.ndim == 3 else _PCA_BLOCK
    X = X.reshape(n, dim)
    if out_dim < 1:
        raise ValueError("out_dim must be at least 1")
    if n < out_dim:
        raise ValueError(f"need at least {out_dim} samples to fit PCA, got {n}")
    if out_dim > dim:
        raise ValueError(f"out_dim {out_dim} exceeds the input dimension {dim}")
    if not np.all(np.isfinite(X)):
        raise ValueError("PCA samples must be finite, not NaN or infinite")
    mean = X.mean(axis=0)
    blocks = [slice(s, min(s + width, dim)) for s in range(0, dim, width)]
    kept, dropped = [], []
    for cols in blocks:
        block = X[:, cols] - mean[cols]
        # the SVD of the block's R factor resolves small singular values to
        # rounding, which the eigenvalues of its Gram matrix cannot
        _, sv, vt = np.linalg.svd(np.linalg.qr(block, mode="r"))
        rank = np.count_nonzero(sv > sv[0] * max(block.shape) * np.finfo(float).eps)
        kept.append(vt[:rank].T)
        dropped.append(vt[rank:].T)
    offsets = np.cumsum([0] + [q.shape[1] for q in kept])
    Y = np.empty((n, offsets[-1]))
    for cols, q, row in zip(blocks, kept, offsets):
        np.matmul(X[:, cols] - mean[cols], q, out=Y[:, row:row + q.shape[1]])
    cov = Y.T @ Y / max(n - 1, 1)
    del Y
    eigvals, eigvecs = np.linalg.eigh(cov)
    top = eigvecs[:, np.argsort(-eigvals, kind="stable")[:out_dim]]
    basis = np.zeros((dim, out_dim))
    for cols, q, row in zip(blocks, kept, offsets):
        basis[cols, :top.shape[1]] = q @ top[row:row + q.shape[1]]
    col = top.shape[1]
    for cols, z in zip(blocks, dropped):
        take = min(z.shape[1], out_dim - col)
        basis[cols, col:col + take] = z[:, :take]
        col += take
    big = np.abs(basis) > 1e-12
    first = basis[big.argmax(axis=0), np.arange(out_dim)]
    flip = big.any(axis=0) & (first < 0)
    basis[:, flip] = -basis[:, flip]
    return PcaTransform(mean=mean, basis=basis)


@dataclass(frozen=True, eq=False)
class VladCodebook:
    """k-means centers in PCA space plus the soft-assignment scale."""

    centers: np.ndarray  # [k, dim]
    sigma: float

    def __post_init__(self):
        centers = np.asarray(self.centers, dtype=float)
        object.__setattr__(self, "centers", centers)
        if centers.ndim != 2 or centers.shape[0] < 1:
            raise ValueError("codebook needs at least one center")
        if not np.all(np.isfinite(centers)):
            raise ValueError("codebook centers must be finite")
        if not self.sigma > 0:
            raise ValueError("sigma must be positive")

    @property
    def size(self) -> int:
        return self.centers.shape[0]


def fit_codebook(projected, k: int, seed: int) -> VladCodebook:
    """k-means codebook; sigma is the mean distance of samples to their centers.

    When every sample sits exactly on its center (k equals the sample count)
    sigma floors at 1.0 to stay positive.
    """
    X = np.asarray(projected, dtype=float)
    if X.ndim != 2:
        raise ValueError("projected samples must be equal-length vectors")
    if not 1 <= k <= X.shape[0]:
        raise ValueError(f"codebook size must be in [1, {X.shape[0]}], got {k}")
    model = fit_topics(X, k, seed)
    labels, _ = nearest_centroids(model.centroids, X)
    # direct-form distances: exactly zero for samples sitting on their center
    dists = np.sqrt(((X - model.centroids[labels]) ** 2).sum(axis=1))
    sigma = float(dists.mean())
    if sigma <= 0.0:
        sigma = 1.0
    return VladCodebook(centers=model.centroids, sigma=sigma)


def soft_assignments(cb: VladCodebook, V: np.ndarray) -> np.ndarray:
    """Per-row Gaussian assignment weights over centers (rows sum to one)."""
    V = np.atleast_2d(np.asarray(V, dtype=float))
    logw = -_squared_distances(V, cb.centers, _row_norms(V)) / (2.0 * cb.sigma**2)
    logw -= logw.max(axis=1, keepdims=True)
    w = np.exp(logw)
    w /= w.sum(axis=1, keepdims=True)
    return w


def vlad(W: np.ndarray, V: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """[k, p] un-normalized VLAD of one bag: block j sums W[i, j] (V[i] - c_j)
    over the bag's rows, computed as Wᵀ V − diag(ΣW) C."""
    return W.T @ V - W.sum(axis=0)[:, None] * centers


def encode_soft_manifest(manifest: DatasetManifest, post: PosteriorModel,
                         sel: DiscriminantSelection, pca: PcaTransform,
                         cb: VladCodebook) -> np.ndarray:
    """[n_records, k * p]: the soft-VLAD descriptor of every record.

    The flattened posterior matrices of all patches are PCA-projected and
    soft-assigned to the codebook at once; each record's VLAD is then
    signed-square-rooted and L2-normalized.  A VLAD that accumulates to
    exactly zero is returned unnormalized.
    """
    bounds, X = _patch_posteriors(manifest, post, sel)
    V = pca.project(X)
    del X  # the largest temporary: free it before the output is allocated
    return encode_projected(bounds, V, cb)


def encode_projected(bounds: np.ndarray, V: np.ndarray, cb: VladCodebook) -> np.ndarray:
    """[len(bounds) - 1, k * p]: the soft-VLAD descriptor of every record
    whose PCA-projected patches are the rows bounds[i]:bounds[i + 1] of V."""
    W = soft_assignments(cb, V)
    out = np.empty((len(bounds) - 1, cb.centers.size))
    for i, (start, stop) in enumerate(zip(bounds[:-1], bounds[1:])):
        vec = vlad(W[start:stop], V[start:stop], cb.centers).reshape(-1)
        vec = np.sign(vec) * np.sqrt(np.abs(vec))
        norm = float(np.linalg.norm(vec))
        out[i] = vec / norm if norm > 0.0 else vec
    return out


def training_patch_samples(manifest: DatasetManifest, post: PosteriorModel,
                           sel: DiscriminantSelection) -> np.ndarray:
    """Flattened patch posterior matrices of every record, stacked for PCA fitting."""
    return _patch_posteriors(manifest, post, sel)[1]
