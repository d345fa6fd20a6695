"""Soft-detection semantic descriptors.

Every patch's score vector turns into a [selected objects x classes] posterior
matrix, whose row for an object is one of that object's per-grid-cell
posterior rows.  A patch is kept as its grid cells, one per object, and the
matrices are PCA-reduced from the cells and the per-object tables, then
aggregated as soft-assignment-weighted first-order residuals against a
k-means codebook (VLAD), then signed-square-rooted and L2-normalized.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import FormatError, VariantError
from .ingest import SOFT, DatasetManifest
from .occurrence import DiscriminantSelection, PosteriorModel, score_grid_indices
from .topics import kmeans, row_blocks, squared_distances


def patch_cells(manifest: DatasetManifest, post: PosteriorModel,
                sel: DiscriminantSelection):
    """(bounds, tables, cells): every patch of a soft manifest in grid-cell
    coordinates.  cells[p, r] is the grid cell of patch p's score for
    selected object r, so the patch's posterior matrix has row r
    ``tables[r, cells[p, r]]`` ([selected objects, grid points, classes]).
    Record i's patches are the rows bounds[i]:bounds[i + 1] of cells.  A
    record without patches raises a FormatError naming it."""
    if manifest.mode != SOFT:
        raise VariantError("soft descriptors need a soft-detection manifest")
    bounds, scores = manifest.bounds, manifest.scores
    empty = np.flatnonzero(bounds[1:] == bounds[:-1])
    if empty.size:
        raise FormatError(f"empty bag: record {manifest.image_ids[empty[0]]!r} "
                          f"has no patches")
    obj = np.asarray(sel.selected, dtype=np.intp)
    cells = score_grid_indices(post.grid, scores[:, obj])  # [n_patches, n_sel]
    tables = np.ascontiguousarray(post.posteriors[obj].transpose(0, 2, 1))
    return bounds, tables, cells


def _finite(value, ndim: int, what: str) -> np.ndarray:
    # C order, as a loaded bundle holds it: BLAS then rounds the projection
    # of a fitted PCA as it does after a save and load
    value = np.ascontiguousarray(value, dtype=float)
    if value.ndim != ndim:
        raise ValueError(f"PCA {what} must be {ndim}-D, got {value.ndim}-D")
    if not np.all(np.isfinite(value)):
        raise ValueError(f"PCA {what} must be finite")
    return value


def _edges(sizes) -> np.ndarray:
    return np.cumsum([0, *sizes])


def _check_cells(tables, cells) -> np.ndarray:
    cells = np.asarray(cells)
    if cells.ndim != 2 or cells.shape[1] != len(tables) or cells.dtype.kind not in "iu":
        raise ValueError(f"cells must be [samples, {len(tables)}] integer table rows")
    if cells.size:
        rows = np.array([len(table) for table in tables])
        bad = np.flatnonzero((cells.min(axis=0) < 0) | (cells.max(axis=0) >= rows))
        if bad.size:
            raise ValueError(f"cells[:, {bad[0]}] holds a row outside table {bad[0]}")
    return cells


def _coordinates(tables, cells, mean, bases) -> np.ndarray:
    """[n, sum of the bases' widths]: every block's coordinates of the n
    samples whose input columns are, table after table, the rows cells[:, t]
    of tables[t], one table per block.  Each table's centred rows times its
    block's basis are gathered by the cells."""
    a_edges = _edges(q.shape[0] for q in bases)
    k_edges = _edges(q.shape[1] for q in bases)
    Y = np.empty((len(cells), k_edges[-1]))
    for t, (table, q) in enumerate(zip(tables, bases)):
        z = (table - mean[a_edges[t]:a_edges[t + 1]]) @ q
        Y[:, k_edges[t]:k_edges[t + 1]] = z[cells[:, t]]
    return Y


@dataclass(frozen=True, eq=False)
class PcaTransform:
    """A PCA in factored form.  The input columns are cut into blocks, one
    per basis in ``bases``; a sample's coordinates in block b are its
    centred columns of the block times ``bases[b]`` (orthonormal columns),
    and its projection is all blocks' coordinates, side by side, times
    ``mixing``.  This factors the [input_dim, out_dim] orthonormal principal
    basis (columns eigenvalue-descending) ``block_diag(*bases) @ mixing``.
    The shapes' agreement is checked by ``ModelBundle.validate``."""

    mean: np.ndarray                # [input_dim]
    bases: tuple[np.ndarray, ...]   # [block width, block coordinates] each
    mixing: np.ndarray              # [all blocks' coordinates, out_dim]

    def __post_init__(self):
        object.__setattr__(self, "mean", _finite(self.mean, 1, "mean"))
        object.__setattr__(self, "bases",
                           tuple(_finite(q, 2, "block basis") for q in self.bases))
        object.__setattr__(self, "mixing", _finite(self.mixing, 2, "mixing"))
        if any(q.shape[0] == 0 for q in self.bases):
            raise ValueError("every PCA block basis needs at least one input column")

    @property
    def out_dim(self) -> int:
        return self.mixing.shape[1]

    def project_cells(self, tables, cells) -> np.ndarray:
        """[n, out_dim]: the projection of n samples in cell coordinates,
        whose input columns are, table after table, the rows cells[:, t] of
        the 2-D tables[t], one table per block and each as wide as its
        block's basis."""
        cells = _check_cells(tables, cells)
        if [t.shape[1] for t in tables] != [q.shape[0] for q in self.bases]:
            raise ValueError(f"tables must be {len(self.bases)}, one per PCA block, "
                             f"each as wide as its block's basis")
        return _coordinates(tables, cells, self.mean, self.bases) @ self.mixing


def fit_pca_cells(tables, cells, out_dim: int) -> PcaTransform:
    """Top principal directions of the sample covariance of n samples in cell
    coordinates: sample i's input columns are, table after table, the rows
    ``cells[i, t]`` of the 2-D ``tables[t]``, so a soft patch is its grid
    cell per selected object and the tables are the objects' posterior rows
    (``patch_cells``).  The PCA has one block per table.

    Table t's mean is its rows averaged with their counts c_g, the number of
    samples in row g.  Its rows, centred and each scaled by √c_g, have the
    samples' centred block as Gram matrix, so the SVD of their QR factor R
    gives the block's principal directions from at most one row per cell.
    The right singular vectors whose singular values exceed
    ``max(n, width) * eps`` times the largest singular value of the
    weighted rows before centring are kept: the rank tolerance of
    ``np.linalg.matrix_rank``, scaled by the size of the values whose
    rounding the centred rows carry.  The centred samples' row space lies,
    up to the dropped directions, in the direct sum of those spans, so one
    eigh of the covariance of the samples' coordinates in them (m x m, m
    the sum of the block ranks) gives the principal directions.  Dropping
    the rest moves the covariance by about that tolerance relative to its
    norm, the order of the rounding error bound of the n-term sums that
    form it, so the result matches the dense covariance eigh up to
    rounding.  An object's posterior rows sum to
    one, so its centred block has rank below the class count and below the
    number of cells its samples use.  The coordinates are gathered from
    each table's centred rows times the block's basis; no sample's full row
    is built.  The eigenvectors are the ``mixing`` of the factored result.
    If m < out_dim, the remaining columns are the blocks' dropped singular
    vectors, in block order, appended to their blocks' bases with identity
    mixing.

    Column signs are fixed by making each ``mixing`` column's
    largest-magnitude entry positive, the first such entry on a tie, so the
    fit is deterministic without forming the principal basis.  Negating a
    column negates that coordinate exactly, and with it the matching
    columns of the codebook, descriptors, topics and ensemble weights, so
    no distance or score depends on the rule.
    """
    tables = [np.asarray(t, dtype=float) for t in tables]
    if not tables or any(t.ndim != 2 for t in tables):
        raise ValueError("tables must be one or more 2-D arrays")
    cells = _check_cells(tables, cells)
    n, dim = len(cells), sum(t.shape[1] for t in tables)
    if out_dim < 1:
        raise ValueError("out_dim must be at least 1")
    if n < out_dim:
        raise ValueError(f"need at least {out_dim} samples to fit PCA, got {n}")
    if out_dim > dim:
        raise ValueError(f"out_dim {out_dim} exceeds the input dimension {dim}")
    if not all(np.all(np.isfinite(t)) for t in tables):
        raise ValueError("PCA samples must be finite, not NaN or infinite")
    means, kept, dropped = [], [], []
    for t, table in enumerate(tables):
        counts = np.bincount(cells[:, t], minlength=len(table))
        # summed down the rows in order, as numpy sums the columns of a
        # matrix wider than one column: one cell per sample gives X.mean(axis=0)
        mean = np.cumsum(counts[:, None] * table, axis=0)[-1] / n
        # the SVD of the rows' R factor resolves small singular values to
        # rounding, which the eigenvalues of their Gram matrix cannot
        r = np.linalg.qr(np.sqrt(counts)[:, None] * (table - mean), mode="r")
        _, sv, vt = np.linalg.svd(r)
        # [R; √n mean] has the Gram matrix of the weighted rows before
        # centring, whose rounding the centred rows carry: a block whose
        # samples share one cell has rank 0
        tol = (np.linalg.norm(np.vstack([r, np.sqrt(n) * mean]), 2)
               * max(n, table.shape[1]) * np.finfo(float).eps)
        rank = np.count_nonzero(sv > tol)
        means.append(mean)
        kept.append(vt[:rank].T)
        dropped.append(vt[rank:].T)
    mean = np.concatenate(means)
    Y = _coordinates(tables, cells, mean, kept)
    cov = Y.T @ Y / max(n - 1, 1)
    del Y
    eigvals, eigvecs = np.linalg.eigh(cov)
    top = eigvecs[:, np.argsort(-eigvals, kind="stable")[:out_dim]]
    # the dropped directions fill columns m.. in block order, each appended
    # to its block's basis with a single 1 in its mixing row
    m = top.shape[1]
    takes = np.diff(np.minimum(_edges(z.shape[1] for z in dropped), out_dim - m))
    bases = [np.hstack([q, z[:, :take]]) for q, z, take in zip(kept, dropped, takes)]
    is_kept = np.concatenate([np.arange(b.shape[1]) < q.shape[1] for q, b in zip(kept, bases)])
    mixing = np.zeros((is_kept.size, out_dim))
    mixing[is_kept, :m] = top
    mixing[~is_kept, m:] = np.eye(out_dim - m)
    flip = mixing[np.abs(mixing).argmax(axis=0), np.arange(out_dim)] < 0
    mixing[:, flip] = -mixing[:, flip]
    return PcaTransform(mean=mean, bases=tuple(bases), mixing=mixing)


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
        # soft_assignments divides by 2 sigma^2, which must neither overflow
        # nor lose precision as a subnormal
        scale = 2.0 * self.sigma * self.sigma
        if not (self.sigma > 0 and np.finfo(float).tiny <= scale < np.inf):
            raise ValueError(f"sigma must be positive with 2 sigma^2 a finite normal "
                             f"float, got {self.sigma}")

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
    model, labels = kmeans(X, k, seed)
    # direct-form distances, a row block at a time: exactly zero for samples
    # sitting on their center
    d2 = np.empty(len(X))
    for rows in row_blocks(*X.shape):
        d2[rows] = ((X[rows] - model.centroids[labels[rows]]) ** 2).sum(axis=1)
    sigma = float(np.sqrt(d2).mean())
    if sigma <= 0.0:
        sigma = 1.0
    return VladCodebook(centers=model.centroids, sigma=sigma)


def soft_assignments(cb: VladCodebook, V: np.ndarray) -> np.ndarray:
    """Per-row Gaussian assignment weights over centers (rows sum to one)."""
    V = np.atleast_2d(np.asarray(V, dtype=float))
    logw = -squared_distances(V, cb.centers) / (2.0 * cb.sigma**2)
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

    All patches are PCA-projected from their grid cells
    (``PcaTransform.project_cells``) and soft-assigned to the codebook at
    once; each record's VLAD is then
    signed-square-rooted and L2-normalized.  A VLAD that accumulates to
    exactly zero is returned unnormalized.
    """
    bounds, tables, cells = patch_cells(manifest, post, sel)
    return encode_projected(bounds, pca.project_cells(tables, cells), cb)


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
