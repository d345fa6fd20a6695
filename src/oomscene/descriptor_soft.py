"""Soft-detection semantic descriptors.

Every patch's score vector turns into a [selected objects x classes] posterior
matrix.  Flattened matrices are PCA-reduced, then aggregated as
soft-assignment-weighted first-order residuals against a k-means codebook
(VLAD), with optional signed-square-root and L2 normalization.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import VariantError
from .ingest import SOFT, DatasetManifest, ImageRecord
from .occurrence import DiscriminantSelection, PosteriorModel, score_grid_indices
from .topics import fit_topics, nearest_centroids


def patch_matrices(record: ImageRecord, post: PosteriorModel,
                   sel: DiscriminantSelection) -> list[np.ndarray]:
    """One [selected objects x classes] posterior matrix per patch, in patch order."""
    if record.mode != SOFT:
        raise VariantError("patch_matrices needs a soft-detection record")
    obj = np.asarray(sel.selected, dtype=int)
    mats = []
    for patch in record.detections:
        ts = score_grid_indices(post.grid, patch.scores[obj])
        mats.append(post.posteriors[obj, :, ts])
    return mats


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
    d2 = ((V[:, None, :] - cb.centers[None, :, :]) ** 2).sum(axis=2)
    logw = -d2 / (2.0 * cb.sigma**2)
    logw -= logw.max(axis=1, keepdims=True)
    w = np.exp(logw)
    w /= w.sum(axis=1, keepdims=True)
    return w


def encode_soft(record: ImageRecord, post: PosteriorModel,
                sel: DiscriminantSelection, pca: PcaTransform,
                cb: VladCodebook, ssr: bool = True,
                l2_normalize: bool = True) -> np.ndarray:
    """Soft-VLAD descriptor of one soft record.

    Per patch: project the flattened posterior matrix, weight its residual to
    every center by the soft assignment, and accumulate per-center blocks.
    A VLAD that accumulates to exactly zero is returned unnormalized.
    """
    mats = patch_matrices(record, post, sel)
    if not mats:
        raise ValueError(f"empty bag: record {record.image_id!r} has no patches")
    V = pca.project(np.stack([m.reshape(-1) for m in mats]))
    W = soft_assignments(cb, V)
    k, p = cb.centers.shape
    blocks = np.empty((k, p))
    for j in range(k):
        blocks[j] = (W[:, j : j + 1] * (V - cb.centers[j])).sum(axis=0)
    vec = blocks.reshape(-1)
    if ssr:
        vec = np.sign(vec) * np.sqrt(np.abs(vec))
    if l2_normalize:
        norm = float(np.linalg.norm(vec))
        if norm > 0.0:
            vec = vec / norm
    return vec


def encode_soft_manifest(manifest: DatasetManifest, post: PosteriorModel,
                         sel: DiscriminantSelection, pca: PcaTransform,
                         cb: VladCodebook) -> np.ndarray:
    return np.stack([encode_soft(r, post, sel, pca, cb) for r in manifest.records])


def training_patch_samples(manifest: DatasetManifest, post: PosteriorModel,
                           sel: DiscriminantSelection) -> np.ndarray:
    """Flattened patch matrices of every record, stacked for PCA fitting."""
    rows = []
    for rec in manifest.records:
        for m in patch_matrices(rec, post, sel):
            rows.append(m.reshape(-1))
    if not rows:
        raise ValueError("manifest has no patches to fit on")
    return np.stack(rows)
