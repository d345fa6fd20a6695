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
from .topics import _squared_distances, fit_topics, nearest_centroids


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

    @property
    def out_dim(self) -> int:
        return self.basis.shape[1]

    def project(self, X) -> np.ndarray:
        return (np.asarray(X, dtype=float) - self.mean) @ self.basis

    def reconstruct(self, Y) -> np.ndarray:
        return self.mean + np.asarray(Y, dtype=float) @ self.basis.T


def fit_pca(samples, out_dim: int) -> PcaTransform:
    """Top principal directions of the sample covariance.

    Column signs are fixed by making each column's first non-negligible entry
    positive, so the fit is deterministic.
    """
    X = np.asarray(samples, dtype=float)
    if X.ndim != 2:
        raise ValueError("samples must be a list of equal-length vectors")
    n, dim = X.shape
    if out_dim < 1:
        raise ValueError("out_dim must be at least 1")
    if n < out_dim:
        raise ValueError(f"need at least {out_dim} samples to fit PCA, got {n}")
    if out_dim > dim:
        raise ValueError(f"out_dim {out_dim} exceeds the input dimension {dim}")
    mean = X.mean(axis=0)
    Xc = X - mean
    cov = Xc.T @ Xc / max(n - 1, 1)
    eigvals, eigvecs = np.linalg.eigh(cov)
    order = np.argsort(-eigvals, kind="stable")[:out_dim]
    basis = eigvecs[:, order].copy()
    for j in range(basis.shape[1]):
        nz = np.flatnonzero(np.abs(basis[:, j]) > 1e-12)
        if nz.size and basis[nz[0], j] < 0:
            basis[:, j] = -basis[:, j]
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
    logw = -_squared_distances(V, cb.centers) / (2.0 * cb.sigma**2)
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
    W = soft_assignments(cb, V)
    out = np.empty((len(manifest), cb.centers.size))
    for i, (start, stop) in enumerate(zip(bounds[:-1], bounds[1:])):
        vec = vlad(W[start:stop], V[start:stop], cb.centers).reshape(-1)
        vec = np.sign(vec) * np.sqrt(np.abs(vec))
        norm = float(np.linalg.norm(vec))
        out[i] = vec / norm if norm > 0.0 else vec
    return out


def training_patch_samples(manifest: DatasetManifest, post: PosteriorModel,
                           sel: DiscriminantSelection) -> np.ndarray:
    """Flattened patch posterior matrices of every record, stacked for PCA fitting."""
    _, X = _patch_posteriors(manifest, post, sel)
    if not len(X):
        raise FormatError("manifest has no records to fit on")
    return X
