"""Shared builders and independent oracles for the test suite."""

import json
import math
import struct
from types import SimpleNamespace
from unittest import mock

import numpy as np

from oomscene import (
    DatasetManifest,
    HardDetection,
    ImageRecord,
    ObjectVocabulary,
    SceneClassSet,
    SoftPatch,
    fit_pca_cells,
    patch_cells,
    train_one_vs_rest,
)
from oomscene import descriptor_soft
from oomscene.bundle import BUNDLE_MAGIC, BUNDLE_VERSION, DESC_MAGIC, DESC_VERSION
from oomscene.ensemble import _derive_seed, _gram, _sgd_lockstep, _validation_masks


def container(magic, header, payload=b""):
    """Container bytes of the magic's current version around a hand-written
    header, padded so the payload starts 8-byte aligned."""
    version = {BUNDLE_MAGIC: BUNDLE_VERSION, DESC_MAGIC: DESC_VERSION}[magic]
    text = json.dumps(header).encode("utf-8")
    text += b" " * (-(len(magic) + 6 + len(text)) % 8)
    return magic + struct.pack(">HI", version, len(text)) + text + payload


def make_vocab(n):
    return ObjectVocabulary(tuple(f"obj{i}" for i in range(n)))


def make_classes(n):
    return SceneClassSet(tuple(f"cls{i}" for i in range(n)))


def random_box(rng):
    w = rng.uniform(0.05, 0.4)
    h = rng.uniform(0.05, 0.4)
    x0 = rng.uniform(0.0, 1.0 - w)
    y0 = rng.uniform(0.0, 1.0 - h)
    return (x0, y0, min(1.0, x0 + w), min(1.0, y0 + h))


def random_hard_manifest(rng, n_classes, n_objects, n_images,
                         max_dets_per_image=8, split_tag="train"):
    """Random labeled hard manifest; every class gets at least one image."""
    records = []
    for i in range(n_images):
        c = i % n_classes  # guarantees class coverage
        n_det = int(rng.integers(0, max_dets_per_image + 1))
        dets = tuple(
            HardDetection(int(rng.integers(n_objects)), float(rng.random()),
                          random_box(rng))
            for _ in range(n_det)
        )
        records.append(ImageRecord(f"img{i:03d}", c, dets, "hard"))
    return DatasetManifest(make_vocab(n_objects), make_classes(n_classes),
                           tuple(records), split_tag, "hard")


def random_soft_manifest(rng, n_classes, n_objects, n_images,
                         max_patches=5, split_tag="train"):
    records = []
    for i in range(n_images):
        c = i % n_classes
        n_patch = int(rng.integers(1, max_patches + 1))
        patches = tuple(
            SoftPatch(k, rng.random(n_objects)) for k in range(n_patch)
        )
        records.append(ImageRecord(f"img{i:03d}", c, patches, "soft"))
    return DatasetManifest(make_vocab(n_objects), make_classes(n_classes),
                           tuple(records), split_tag, "soft")


def hard_record(dets, image_id="img", scene_class=0):
    return ImageRecord(image_id, scene_class, tuple(dets), "hard")


def soft_record(patches, image_id="img", scene_class=0):
    return ImageRecord(image_id, scene_class, tuple(patches), "soft")


def one_record_manifest(record, n_objects):
    """A test-split manifest holding only the record, so per-record checks run
    through the manifest-at-a-time encoders."""
    n_classes = 1 if record.scene_class is None else record.scene_class + 1
    return DatasetManifest(make_vocab(n_objects), make_classes(n_classes),
                           (record,), "test", record.mode)


def single_class_manifest(records, n_objects, n_classes=1, split_tag="train"):
    return DatasetManifest(make_vocab(n_objects), make_classes(n_classes),
                           tuple(records), split_tag, "hard")


def binary_svm(positives, negatives, cfg, *, epochs, seed):
    """The binary SVM of positives against negatives, as the library trains it:
    class 1's row of a two-class ``train_one_vs_rest`` call with the
    positives labeled 1, the negatives 0 and the one-entry grid ``[cfg]``."""
    X = np.vstack([positives, negatives])
    y = np.repeat([1, 0], [len(positives), len(negatives)])
    _, W, b = train_one_vs_rest(X, y, 2, [cfg], folds=2, epochs=epochs, seed=seed)
    return SimpleNamespace(weights=W[1], bias=b[1])


# ----------------------------------------------------------------- oracles

def hinge_objective(w, b, X, y, lam):
    """(lam/2)||w||^2 + mean hinge loss of the classifier (w, b) on (X, y)."""
    margins = y * (X @ w + b)
    return 0.5 * lam * float(w @ w) + float(np.maximum(0.0, 1.0 - margins).mean())


def oracle_plus_plus_init(X, k, rng):
    """k-means++ seeding with every distance in the direct form
    ``((X - c) ** 2).sum(axis=1)`` over all rows."""
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


def _oracle_squared_distances(X, centers):
    d2 = (
        (X * X).sum(axis=1)[:, None]
        + (centers * centers).sum(axis=1)[None, :]
        - 2.0 * (X @ centers.T)
    )
    np.maximum(d2, 0.0, out=d2)
    return d2


def oracle_fit_topics(X, d, seed, max_iter=300, tol=1e-6):
    """Lloyd's k-means with the row norms recomputed at every step, every
    centroid averaged from a copy of its members, and no stop but the
    tolerance and ``max_iter``: a pass that repeats the previous assignment
    runs, and the inertia is recounted after the loop.  Returns (centroids,
    inertia, iterations run)."""
    X = np.asarray(X, dtype=float)
    n = X.shape[0]
    rng = np.random.default_rng(seed)
    centers = oracle_plus_plus_init(X, d, rng)
    prev = None
    iterations = 0
    for it in range(max_iter):
        d2 = _oracle_squared_distances(X, centers)
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
    inertia = float(_oracle_squared_distances(X, centers).min(axis=1).sum())
    return centers, inertia, iterations


def oracle_occurrence(manifest, grid):
    """Brute-force recount: triple loop over (object, class, threshold)."""
    n_obj, n_cls = len(manifest.vocabulary), len(manifest.classes)
    thetas = grid.values
    probs = np.zeros((n_obj, n_cls, thetas.size))
    for c in range(n_cls):
        recs = [r for r in manifest.records if r.scene_class == c]
        for o in range(n_obj):
            for t, theta in enumerate(thetas):
                count = 0
                for rec in recs:
                    best = max(
                        (d.score for d in rec.detections if d.object_index == o),
                        default=None,
                    )
                    if best is not None and best >= theta:
                        count += 1
                probs[o, c, t] = count / len(recs)
    return probs


def oracle_posterior_cell(occ_probs, weights, o, t):
    """Scalar Bayes evaluation of one (object, threshold) column."""
    n_cls = occ_probs.shape[1]
    num = [occ_probs[o, c, t] * weights[c] for c in range(n_cls)]
    denom = sum(num)
    if denom == 0.0:
        return None
    return np.array([v / denom for v in num])


def oracle_last_valid(posteriors, mask, weights):
    """The 'last-valid' fallback as a per-(object, threshold) scan of
    [objects, classes, thresholds] posteriors: a flagged cell takes the last
    unflagged column at a lower threshold, or the prior if there is none."""
    post = np.array(posteriors, dtype=float)
    for o in range(post.shape[0]):
        last = None
        for t in range(post.shape[2]):
            if not mask[o, t]:
                last = post[o, :, t]
            elif last is not None:
                post[o, :, t] = last
            else:
                post[o, :, t] = weights
    return post


def oracle_discriminability(column):
    """Sort-and-scan evaluation of the largest consecutive posterior gap."""
    ranked = sorted(column, reverse=True)
    return max(ranked[r] - ranked[r + 1] for r in range(len(ranked) - 1))


def oracle_grid_index(grid, score):
    """Nearest grid point by a full scan; argmin keeps the lowest index on ties."""
    return int(np.argmin(np.abs(grid.values - float(score))))


def oracle_region(box, level):
    """Row-major region of the box centre on a (rows, cols) grid; centres on
    an interior boundary go to the lower-index region."""
    rows, cols = level
    x0, y0, x1, y1 = box
    cx, cy = 0.5 * (x0 + x1), 0.5 * (y0 + y1)
    col = min(cols - 1, max(0, math.ceil(cx * cols) - 1))
    row = min(rows - 1, max(0, math.ceil(cy * rows) - 1))
    return row * cols + col


def _global_regions(box, layout):
    offset = 0
    for rows, cols in layout.levels:
        yield offset + oracle_region(box, (rows, cols))
        offset += rows * cols


def oracle_encode_hard(record, post, sel, layout):
    """One record's hard descriptor, detection by detection: per (region,
    selected object), the posterior columns at the detections' grid points in
    ascending grid order, added one after another, divided by their count."""
    n_sel, n_cls = len(sel.selected), post.n_classes
    buckets = {}
    for det in record.detections:
        if det.object_index not in sel.selected:
            continue
        i = sel.selected.index(det.object_index)
        t = oracle_grid_index(post.grid, det.score)
        for reg in _global_regions(det.box, layout):
            buckets.setdefault((reg, i), []).append(t)
    out = np.zeros((layout.region_count, n_sel, n_cls))
    for (reg, i), ts in buckets.items():
        total = np.zeros(n_cls)
        for t in sorted(ts):
            total = total + post.posteriors[sel.selected[i], :, t]
        out[reg, i] = total / len(ts)
    return out.reshape(-1)


def oracle_rawscore(record, n_objects, layout):
    """One record's raw-score baseline: per (region, object), the best raw
    score, 0 where the object is not detected or scores below 0."""
    out = np.zeros(layout.region_count * n_objects)
    for det in record.detections:
        for reg in _global_regions(det.box, layout):
            idx = reg * n_objects + det.object_index
            out[idx] = max(out[idx], det.score)
    return out


def oracle_apply_shift(manifest, shift, seed):
    """Record-by-record domain shift: per record, a generator seeded with
    (seed, 424243, record index) draws once per detection, which is dropped
    below the dropout rate; kept scores become scale * score + offset."""
    records = []
    for ri, rec in enumerate(manifest.records):
        rng = np.random.default_rng([int(seed), 424243, ri])
        dets = []
        for det in rec.detections:
            if shift.dropout > 0 and rng.random() < shift.dropout:
                continue
            if rec.mode == "hard":
                dets.append(HardDetection(det.object_index,
                                          shift.score_scale * det.score + shift.score_offset,
                                          det.box))
            else:
                dets.append(SoftPatch(det.patch_id,
                                      shift.score_scale * det.scores + shift.score_offset))
        records.append(ImageRecord(rec.image_id, rec.scene_class, tuple(dets), rec.mode,
                                   rec.domain_tag))
    return DatasetManifest(manifest.vocabulary, manifest.classes, records,
                           manifest.split_tag, manifest.mode)


def oracle_vlad(V, centers, sigma):
    """Naive double-loop soft-assignment VLAD, no normalization."""
    k, p = centers.shape
    out = np.zeros(k * p)
    for v in V:
        d2 = np.array([np.sum((v - centers[j]) ** 2) for j in range(k)])
        w = np.exp(-(d2 - d2.min()) / (2 * sigma**2))
        w = w / w.sum()
        for j in range(k):
            out[j * p : (j + 1) * p] += w[j] * (v - centers[j])
    return out


def fit_pca_per_object(samples, out_dim):
    """``fit_pca_cells`` of [n, objects, classes] posterior matrices: one
    table per object, the slices ``[:, r, :]``, and each sample its own cell."""
    X = np.asarray(samples, dtype=float)
    cells = np.broadcast_to(np.arange(len(X))[:, None], X.shape[:2])
    return fit_pca_cells(list(X.transpose(1, 0, 2)), cells, out_dim)


def oracle_filler(kept, dropped, top, out_dim):
    """(bases, mixing) of ``fit_pca_cells`` from each block's kept and dropped
    directions and the top eigenvectors [m, <= out_dim], by two loops of
    index bookkeeping: the dropped directions fill columns m.. in block
    order, appended to their blocks' bases with a single 1 in their mixing
    rows, and each column's largest-magnitude entry is made positive."""
    bases, filler, col = [], [], top.shape[1]
    for q, z in zip(kept, dropped):
        take = min(z.shape[1], out_dim - col)
        bases.append(np.hstack([q, z[:, :take]]))
        filler.append(col + np.arange(take))
        col += take
    mixing = np.zeros((sum(q.shape[1] for q in bases), out_dim))
    row = k_row = 0
    for q, cols in zip(kept, filler):
        width = q.shape[1]
        mixing[row:row + width, :top.shape[1]] = top[k_row:k_row + width]
        mixing[row + width + np.arange(cols.size), cols] = 1.0
        row, k_row = row + width + cols.size, k_row + width
    flip = mixing[np.abs(mixing).argmax(axis=0), np.arange(out_dim)] < 0
    mixing[:, flip] = -mixing[:, flip]
    return bases, mixing


def fit_pca_cells_and_oracle_filler(tables, cells, out_dim):
    """(pca, bases, mixing): ``fit_pca_cells(tables, cells, out_dim)``, and
    the bases and mixing ``oracle_filler`` builds from the fit's own block
    SVDs, kept directions and covariance eigh, recorded as it runs."""
    svd, eigh, coordinates = np.linalg.svd, np.linalg.eigh, descriptor_soft._coordinates
    vts, eighs, kept = [], [], []

    def record_svd(a, *args, **kwargs):
        result = svd(a, *args, **kwargs)
        if kwargs.get("compute_uv", True):
            vts.append(result[2])
        return result

    def record_eigh(a, *args, **kwargs):
        eighs.append(eigh(a, *args, **kwargs))
        return eighs[-1]

    def record_coordinates(tables, cells, mean, bases):
        kept.extend(bases)
        return coordinates(tables, cells, mean, bases)

    with mock.patch.object(np.linalg, "svd", record_svd), \
            mock.patch.object(np.linalg, "eigh", record_eigh), \
            mock.patch.object(descriptor_soft, "_coordinates", record_coordinates):
        pca = fit_pca_cells(tables, cells, out_dim)
    (eigvals, eigvecs), = eighs
    top = eigvecs[:, np.argsort(-eigvals, kind="stable")[:out_dim]]
    dropped = [vt[q.shape[1]:].T for vt, q in zip(vts, kept, strict=True)]
    return (pca, *oracle_filler(kept, dropped, top, out_dim))


def _own_cell_tables(X, edges):
    """(tables, cells): the columns edges[t]:edges[t + 1] of the [n, d] rows
    X as table t, and cells that make each row its own row of every table."""
    tables = [X[:, a:e] for a, e in zip(edges[:-1], edges[1:])]
    return tables, np.broadcast_to(np.arange(len(X))[:, None], (len(X), len(tables)))


def fit_pca_dense(samples, out_dim):
    """``fit_pca_cells`` of [n, d] samples: the columns cut into 64-column
    tables and each sample its own cell."""
    X = np.asarray(samples, dtype=float)
    return fit_pca_cells(*_own_cell_tables(X, [*range(0, X.shape[1], 64), X.shape[1]]),
                         out_dim)


def dense_project(pca, X):
    """The projection of input rows (one row if X is 1-D): ``project_cells``
    with the rows cut into the PCA's blocks and each row its own cell."""
    X = np.asarray(X, dtype=float)
    edges = np.cumsum([0] + [q.shape[0] for q in pca.bases])
    V = pca.project_cells(*_own_cell_tables(np.atleast_2d(X), edges))
    return V[0] if X.ndim == 1 else V


def dense_basis(pca):
    """The [input_dim, out_dim] principal basis the PCA factors,
    ``block_diag(*bases) @ mixing``, a block's rows at a time."""
    k_edges = np.cumsum([0] + [q.shape[1] for q in pca.bases])
    return np.vstack([q @ pca.mixing[k_edges[b]:k_edges[b + 1]]
                      for b, q in enumerate(pca.bases)])


def dense_reconstruct(pca, Y):
    return pca.mean + np.asarray(Y, dtype=float) @ dense_basis(pca).T


def dense_rows(tables, cells):
    """[n, sum of the tables' widths]: the rows cells[:, t] of tables[t],
    side by side, for 3-D tables [objects, grid points, classes]."""
    return tables[np.arange(len(tables)), cells].reshape(len(cells), -1)


def dense_patch_rows(manifest, post, sel):
    """[n_patches, selected objects x classes]: every patch's flattened
    posterior matrix, record after record; the dense form of ``patch_cells``."""
    _, tables, cells = patch_cells(manifest, post, sel)
    return dense_rows(tables, cells)


def oracle_batch_subgradient(X, y, lam, iters=20000):
    """Long-run deterministic batch subgradient descent on the hinge objective."""
    X = np.asarray(X, float)
    y = np.asarray(y, float)
    w = np.zeros(X.shape[1])
    b = 0.0
    best = None
    for t in range(1, iters + 1):
        margins = y * (X @ w + b)
        active = margins < 1.0
        gw = lam * w - (y[active, None] * X[active]).sum(axis=0) / len(X)
        gb = -y[active].sum() / len(X)
        eta = 1.0 / (lam * t + 10.0)
        w -= eta * gw
        b -= eta * gb
        obj = 0.5 * lam * w @ w + np.maximum(0.0, 1.0 - y * (X @ w + b)).mean()
        if best is None or obj < best[0]:
            best = (obj, w.copy(), b)
    return best


def oracle_sgd(X, y, lam, eta0, order):
    """Scalar hinge-loss SGD visiting the rows of X in the given order.

    Per visit: margin test, decay by 1 - eta * lam, then the update if the
    margin was below 1, with eta = eta0 / (1 + eta0 * lam * t).
    """
    X = np.asarray(X, float)
    w = np.zeros(X.shape[1])
    b = 0.0
    for t, i in enumerate(order):
        eta = eta0 / (1.0 + eta0 * lam * t)
        violated = y[i] * (X[i] @ w + b) < 1.0
        w *= 1.0 - eta * lam
        if violated:
            w += (eta * y[i]) * X[i]
            b += eta * y[i]
    return w, b


def oracle_two_pass_one_vs_rest(X, y, n_classes, grid, folds, epochs, seed, salt=0):
    """One-vs-rest training in two lockstep passes over the same permutations:
    the first trains every (grid entry, fold complement, class) problem and
    picks the entry with the best mean validation accuracy (ties to the
    earlier one), the second trains the chosen entry's classes on all
    samples.  A one-entry grid, or no usable fold, skips the first pass and
    takes ``grid[0]``.  Returns (chosen entry, weights [C, dim], biases [C])."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=int)
    n = len(X)
    K = _gram(X)

    def lockstep_pass(entries, masks):
        """Coefficients [E, M, C, n] and biases [E, M, C] of one lockstep call;
        a class without positives or negatives is the constant +1 or -1."""
        problems = [(cfg, m, c) for cfg in entries for m in masks for c in range(n_classes)]
        pos = [(m & (y == c)).any() for _, m, c in problems]
        neg = [(m & (y != c)).any() for _, m, c in problems]
        A, b = _sgd_lockstep(
            K,
            [np.where(y == c, 1.0, -1.0) for _, _, c in problems],
            [m & p & q for (_, m, _), p, q in zip(problems, pos, neg)],
            [cfg.lam for cfg, _, _ in problems],
            [cfg.eta0 for cfg, _, _ in problems],
            epochs,
            np.random.default_rng(_derive_seed(seed, salt)),
        )
        b = [bp if p and q else (1.0 if p else -1.0) for bp, p, q in zip(b, pos, neg)]
        shape = (len(entries), len(masks), n_classes)
        return A.reshape(shape + (n,)), np.reshape(b, shape)

    vals = _validation_masks(y, folds) if len(grid) > 1 else []
    best = 0
    if vals:
        A, b = lockstep_pass(grid, [~v for v in vals])
        accs = np.empty((len(grid), len(vals)))
        for m, val in enumerate(vals):
            scores = A[:, m] @ K[:, val] + b[:, m, :, None]
            accs[:, m] = (scores.argmax(axis=1) == y[val]).mean(axis=1)
        best = int(np.argmax(accs.mean(axis=1)))
    A, b = lockstep_pass([grid[best]], [np.ones(n, dtype=bool)])
    return grid[best], A[0, 0] @ X, b[0, 0]


def oracle_lockstep_unguarded(K, Y, active, lam, eta0, epochs, rng, tiny):
    """``_sgd_lockstep``'s loop with the tiny-scale check made at every step:
    after each decay, a scale below ``tiny`` is folded into its coefficient
    row.  Margins are the same ``A @ K[i]`` products, so the kernel agrees
    with it bit for bit."""
    n = len(K)
    Y = np.asarray(Y, dtype=float)
    active = np.asarray(active, dtype=bool)
    lam, eta0 = np.asarray(lam, dtype=float), np.asarray(eta0, dtype=float)
    A = np.zeros((lam.size, n))
    s, b, t = np.ones(lam.size), np.zeros(lam.size), np.zeros(lam.size)
    for _ in range(epochs):
        for i in rng.permutation(n):
            on = active[:, i]
            eta = eta0 / (1.0 + eta0 * lam * t)
            violated = on & (Y[:, i] * (s * (A @ K[i]) + b) < 1.0)
            s *= np.where(on, 1.0 - eta * lam, 1.0)
            low = s < tiny
            A[low] *= s[low, None]
            s[low] = 1.0
            step = eta[violated] * Y[violated, i]
            b[violated] += step
            A[violated, i] += step / s[violated]
            t += on
    return A * s[:, None], b
