import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from oomscene import (
    ClassPrior,
    DatasetManifest,
    FormatError,
    PipelineConfig,
    ThresholdGrid,
    VariantError,
    VladCodebook,
    build_posterior_model,
    encode_soft_manifest,
    encode_with_bundle,
    evaluate_bundle,
    fit_codebook,
    fit_pca_cells,
    fit_pipeline,
    patch_cells,
    score_grid_indices,
    select_objects,
    soft_assignments,
    vlad,
)
from oomscene.ingest import HardDetection, SoftPatch
from oomscene.pipeline import STAGES, run_stages
from helpers import (
    dense_basis,
    dense_patch_rows,
    dense_project,
    dense_reconstruct,
    dense_rows,
    fit_pca_dense,
    fit_pca_per_object,
    hard_record,
    one_record_manifest,
    oracle_grid_index,
    oracle_vlad,
    random_soft_manifest,
    soft_record,
)


def soft_model(rng, n_classes=2, n_objects=3, n_images=10):
    m = random_soft_manifest(rng, n_classes, n_objects, n_images)
    grid = ThresholdGrid(0.0, 1.0, 0.1)
    from oomscene import build_occurrence_model
    post = build_posterior_model(build_occurrence_model(m, grid),
                                 ClassPrior.uniform(n_classes))
    sel = select_objects(post, n_objects)
    return m, post, sel


def covariance_oracle(X):
    """Descending eigenvalues and eigenvectors of the dense sample covariance."""
    Xc = X - X.mean(axis=0)
    w, v = np.linalg.eigh(Xc.T @ Xc / (len(X) - 1))
    order = np.argsort(-w, kind="stable")
    return w[order], v[:, order]


def assert_matches_covariance_oracle(samples, out_dim):
    """The fit's basis is the oracle's, column by column up to sign: fit_pca
    of [n, d] rows, or one block per object of [n, objects, classes]."""
    pca = fit_pca_dense(samples, out_dim) if samples.ndim == 2 \
        else fit_pca_per_object(samples, out_dim)
    X = samples.reshape(len(samples), -1)
    w, v = covariance_oracle(X)
    assert np.all(-np.diff(w[:out_dim + 1]) > 1e-3 * w[0])  # distinct directions
    np.testing.assert_allclose(dense_basis(pca).T @ dense_basis(pca), np.eye(out_dim), atol=1e-9)
    np.testing.assert_allclose(dense_project(pca, X).var(axis=0, ddof=1), w[:out_dim],
                               rtol=1e-9, atol=1e-12 * w[0])
    cos = np.abs(np.sum(dense_basis(pca) * v[:, :out_dim], axis=0))
    np.testing.assert_allclose(cos, 1.0, atol=1e-9)


def patch_matrices(rec, post, sel):
    """[patches, selected objects, classes]: one record's patch posteriors."""
    X = dense_patch_rows(one_record_manifest(rec, post.n_objects), post, sel)
    return X.reshape(len(X), len(sel.selected), post.n_classes)


def posterior_at_score(post, obj, score):
    return post.posteriors[obj, :, oracle_grid_index(post.grid, score)]


def encode_soft(rec, post, sel, pca, cb):
    """One record's descriptor through the manifest encoder."""
    manifest = one_record_manifest(rec, post.n_objects)
    return encode_soft_manifest(manifest, post, sel, pca, cb)[0]


def ssr_l2(vec):
    vec = np.sign(vec) * np.sqrt(np.abs(vec))
    norm = np.linalg.norm(vec)
    return vec / norm if norm > 0 else vec


class TestPatchMatrices:
    def test_known_columns(self):
        rng = np.random.default_rng(31)
        _, post, sel = soft_model(rng)
        scores = np.array([0.15, 0.65, 0.4])
        rec = soft_record([SoftPatch(0, scores)])
        mats = patch_matrices(rec, post, sel)
        assert len(mats) == 1
        for i, obj in enumerate(sel.selected):
            np.testing.assert_array_equal(
                mats[0][i], posterior_at_score(post, obj, scores[obj]))

    def test_order_preserved(self):
        rng = np.random.default_rng(32)
        _, post, sel = soft_model(rng)
        patches = [SoftPatch(k, rng.random(3)) for k in range(5)]
        mats = patch_matrices(soft_record(patches), post, sel)
        assert len(mats) == 5
        for k, patch in enumerate(patches):
            for i, obj in enumerate(sel.selected):
                np.testing.assert_array_equal(
                    mats[k][i], posterior_at_score(post, obj, patch.scores[obj]))

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(33)
        m, post, sel = soft_model(rng)
        for rec in m.records[:5]:
            for mat in patch_matrices(rec, post, sel):
                np.testing.assert_allclose(mat.sum(axis=1), 1.0, atol=1e-9)

    def test_hard_record_rejected(self):
        rng = np.random.default_rng(34)
        _, post, sel = soft_model(rng)
        rec = hard_record([HardDetection(0, 0.5, (0.1, 0.1, 0.2, 0.2))])
        with pytest.raises(VariantError):
            patch_matrices(rec, post, sel)

    def test_manifest_rows_follow_records_and_patches(self):
        rng = np.random.default_rng(35)
        m, post, sel = soft_model(rng)
        want = np.vstack([patch_matrices(r, post, sel).reshape(len(r.detections), -1)
                          for r in m.records])
        np.testing.assert_array_equal(dense_patch_rows(m, post, sel), want)


class TestFitPca:
    def test_rank_deficient_reconstruction_is_lossless(self):
        rng = np.random.default_rng(35)
        basis = rng.standard_normal((6, 2))
        X = rng.standard_normal((30, 2)) @ basis.T + rng.standard_normal(6)
        pca = fit_pca_dense(X, 2)
        recon = dense_reconstruct(pca, dense_project(pca, X))
        np.testing.assert_allclose(recon, X, atol=1e-6)

    def test_dominant_axis(self):
        rng = np.random.default_rng(36)
        X = np.zeros((40, 3))
        X[:, 1] = rng.uniform(-3, 3, size=40)
        X[:, 1] -= X[:, 1].mean()
        X[:, 0] = 0.01 * rng.standard_normal(40)
        pca = fit_pca_dense(X, 1)
        direction = np.abs(dense_basis(pca)[:, 0])
        assert direction[1] > 0.999

    def test_projection_variance_matches_eigenvalue_oracle(self):
        rng = np.random.default_rng(37)
        X = rng.standard_normal((50, 10)) * rng.uniform(0.5, 3.0, size=10)
        pca = fit_pca_dense(X, 4)
        proj = dense_project(pca, X)
        # independent dense eigendecomposition of the hand-built covariance
        mean = X.mean(axis=0)
        cov = np.zeros((10, 10))
        for row in X:
            cov += np.outer(row - mean, row - mean)
        cov /= len(X) - 1
        eigvals = np.sort(np.linalg.eigvalsh(cov))[::-1]
        np.testing.assert_allclose(proj.var(axis=0, ddof=1), eigvals[:4],
                                   atol=1e-6)

    def test_orthonormal_basis(self):
        rng = np.random.default_rng(38)
        pca = fit_pca_dense(rng.standard_normal((20, 7)), 5)
        np.testing.assert_allclose(dense_basis(pca).T @ dense_basis(pca), np.eye(5), atol=1e-6)

    def test_projected_training_mean_is_zero(self):
        rng = np.random.default_rng(39)
        X = rng.standard_normal((25, 6)) + 5.0
        pca = fit_pca_dense(X, 3)
        np.testing.assert_allclose(dense_project(pca, X).mean(axis=0), 0.0, atol=1e-9)

    def test_sign_deterministic(self):
        rng = np.random.default_rng(40)
        X = rng.standard_normal((20, 5))
        basis = dense_basis(fit_pca_dense(X, 3))
        for j in range(3):
            nz = np.flatnonzero(np.abs(basis[:, j]) > 1e-12)
            assert basis[nz[0], j] > 0

    def test_too_few_samples(self):
        with pytest.raises(ValueError):
            fit_pca_dense(np.zeros((2, 5)), 3)

    def test_out_dim_exceeds_input_dim(self):
        with pytest.raises(ValueError):
            fit_pca_dense(np.zeros((10, 3)), 4)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_samples_refused(self, value):
        with pytest.raises(ValueError, match="finite"):
            fit_pca_dense(np.full((10, 3), value), 2)

    def test_patch_samples_match_covariance_oracle(self):
        # 30 selected objects x 4 classes: d = 120 is not a multiple of 64
        m, post, sel = soft_model(np.random.default_rng(44), 4, 30, 60)
        X = dense_patch_rows(m, post, sel)
        assert_matches_covariance_oracle(X, 20)
        assert_matches_covariance_oracle(X.reshape(len(X), 30, 4), 20)  # per object

    def test_64_column_objects_fit_as_the_flat_samples(self):
        rng = np.random.default_rng(49)
        X = rng.standard_normal((80, 3)) @ rng.standard_normal((3, 192)) \
            + rng.standard_normal((80, 192))
        flat, per_object = fit_pca_dense(X, 12), fit_pca_per_object(X.reshape(80, 3, 64), 12)
        assert per_object.mean.tobytes() == flat.mean.tobytes()
        assert dense_basis(per_object).tobytes() == dense_basis(flat).tobytes()

    def test_one_block_per_object_gives_an_eigh_of_the_samples_rank(self, monkeypatch):
        # 30 objects x 3 classes: the 64-column blocks split object 21's row,
        # whose centred columns have rank 2, into ranks 1 and 2
        m, post, sel = soft_model(np.random.default_rng(49), 3, 30, 60)
        X = dense_patch_rows(m, post, sel)
        sizes, eigh = [], np.linalg.eigh

        def spy(a, *args, **kwargs):
            sizes.append(a.shape)
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", spy)
        fit_pca_per_object(X.reshape(len(X), 30, 3), 10)
        rank = np.linalg.matrix_rank(X - X.mean(axis=0))
        assert sizes == [(rank, rank)] and rank == 60
        fit_pca_dense(X, 10)
        assert sizes[1] == (rank + 1, rank + 1)

    @pytest.mark.parametrize("dim", [40, 150])
    def test_block_low_rank_data_matches_covariance_oracle(self, dim):
        # each block's columns mix 3 shared and 4 block-own latent factors
        rng = np.random.default_rng(45)
        shared = rng.standard_normal((90, 3))
        X = np.hstack([np.hstack([shared, rng.standard_normal((90, 4))])
                       @ rng.standard_normal((7, width))
                       for width in np.diff(np.r_[0:dim:64, dim])])
        X = X * rng.uniform(0.5, 2.0, size=dim) + rng.standard_normal(dim)
        assert_matches_covariance_oracle(X, 6)

    def test_near_null_block_directions_are_kept(self):
        # block b mixes 3 shared factors, its own factor b and, 1e-7 times
        # weaker, the next block's own factor: a direction whose share of the
        # covariance is first order in its singular value
        rng = np.random.default_rng(48)
        widths = np.diff(np.r_[0:150:64, 150])
        latent = rng.standard_normal((90, 3 + widths.size))
        X = np.hstack([latent[:, :3] @ rng.standard_normal((3, width))
                       + np.outer(latent[:, 3 + b], rng.standard_normal(width))
                       + 1e-7 * np.outer(latent[:, 3 + (b + 1) % widths.size],
                                         rng.standard_normal(width))
                       for b, width in enumerate(widths)])
        pca = fit_pca_dense(X, 6)
        _, v = covariance_oracle(X)
        signs = np.sign(np.sum(dense_basis(pca) * v[:, :6], axis=0))
        np.testing.assert_allclose(dense_basis(pca), v[:, :6] * signs, atol=1e-10)

    def test_rank_below_out_dim_pads_an_orthonormal_basis(self):
        rng = np.random.default_rng(46)
        X = rng.standard_normal((30, 3)) @ rng.standard_normal((3, 100)) + 2.0
        pca = fit_pca_dense(X, 10)
        np.testing.assert_allclose(dense_basis(pca).T @ dense_basis(pca), np.eye(10), atol=1e-9)
        np.testing.assert_allclose(dense_reconstruct(pca, dense_project(pca, X)), X, atol=1e-9)
        _, oracle = covariance_oracle(X)
        # the first three columns span the oracle's: all principal cosines are 1
        cosines = np.linalg.svd(oracle[:, :3].T @ dense_basis(pca)[:, :3], compute_uv=False)
        np.testing.assert_allclose(cosines, 1.0, atol=1e-9)

    def test_constant_samples_give_an_orthonormal_basis(self):
        X = np.tile(np.linspace(-1.0, 1.0, 70), (20, 1))
        pca = fit_pca_dense(X, 5)
        np.testing.assert_allclose(dense_basis(pca).T @ dense_basis(pca), np.eye(5), atol=1e-12)
        np.testing.assert_allclose(dense_project(pca, X), 0.0, atol=1e-12)

    def test_no_square_covariance_for_low_rank_blocks(self):
        # a d x d float64 matrix would take 72 MB
        rng = np.random.default_rng(47)
        X = rng.standard_normal((50, 3)) @ rng.standard_normal((3, 3000))
        tracemalloc.start()
        try:
            fit_pca_dense(X, 3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3000 * 3000 * 8 / 10

    def test_no_centred_copy_of_the_samples(self):
        # 20 blocks of rank 4: m = 80 of d = 1280
        rng = np.random.default_rng(50)
        X = np.hstack([rng.standard_normal((1200, 4)) @ rng.standard_normal((4, 64))
                       for _ in range(20)]) + rng.standard_normal(1280)
        tracemalloc.start()
        try:
            fit_pca_dense(X, 5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < X.nbytes / 2


def cell_problem(seed, n=400, objects=6, classes=5, grid_points=7):
    """(tables, cells): posterior tables whose rows sum to one, [objects,
    grid points, classes], and n samples' cells.  Object 0's samples all
    sit in one cell (a rank-0 block); object 1's use 2 cells, fewer than the
    classes."""
    rng = np.random.default_rng(seed)
    tables = rng.dirichlet(np.ones(classes), size=(objects, grid_points))
    cells = rng.integers(grid_points, size=(n, objects))
    cells[:, 0] = 3
    cells[:, 1] = np.where(cells[:, 1] < 3, 0, 5)
    return tables, cells


class TestCellCoordinates:
    """The PCA fitted and applied from per-object posterior tables against
    the dense [samples, objects x classes] rows."""

    @pytest.mark.parametrize("seed", [60, 63])
    def test_blocks_have_the_rank_of_their_used_cells(self, seed):
        # object 0's centred rows are zero up to the rounding of its mean,
        # far below the tolerance its uncentred rows set: rank 0
        tables, cells = cell_problem(seed)
        pca = fit_pca_cells(tables, cells, 10)
        assert pca.bases[0].shape[1] == 0
        assert [q.shape for q in pca.bases[1:]] == [(5, 1)] + [(5, 4)] * 4
        coordinates = (tables[0][cells[:, 0]] - pca.mean[:5]) @ pca.bases[0]
        np.testing.assert_allclose(coordinates, 0.0, atol=1e-15)

    @pytest.mark.parametrize("out_dim", [10, 17, 24])  # m = 17: pca_dim > m pads
    def test_projection_matches_the_dense_basis(self, out_dim):
        tables, cells = cell_problem(61)
        pca = fit_pca_cells(tables, cells, out_dim)
        # the fitted samples, and samples in cells no training sample used
        unseen = np.random.default_rng(62).integers(7, size=(50, 6))
        for c in (cells, unseen):
            X = dense_rows(tables, c)
            want = (X - pca.mean) @ dense_basis(pca)
            np.testing.assert_allclose(pca.project_cells(tables, c), want, rtol=0,
                                       atol=1e-12 * np.abs(want).max())
            np.testing.assert_allclose(dense_project(pca, X), want, rtol=0,
                                       atol=1e-12 * np.abs(want).max())

    def test_tables_across_blocks_are_refused(self):
        # 30 objects x 5 classes: the 64-column blocks of a dense fit cut
        # across the per-object tables
        tables, cells = cell_problem(67, objects=30)
        pca = fit_pca_dense(dense_rows(tables, cells), 20)
        with pytest.raises(ValueError, match="tables must be 3, one per PCA block"):
            pca.project_cells(tables, cells)

    @pytest.mark.parametrize("out_dim", [10, 17, 24])
    def test_fit_matches_the_dense_covariance_eigh(self, out_dim):
        tables, cells = cell_problem(63)
        pca = fit_pca_cells(tables, cells, out_dim)
        X = dense_rows(tables, cells)
        w, v = covariance_oracle(X)
        m = 17  # the rank of the centred samples: 0 + 1 + 4 x 4
        assert w[m - 1] > 1e-6 * w[0] and w[m] < 1e-14 * w[0]
        top = min(out_dim, m)
        assert np.all(-np.diff(w[:top]) > 1e-3 * w[0])  # distinct directions
        basis = dense_basis(pca)
        cos = np.abs(np.sum(basis[:, :top] * v[:, :top], axis=0))
        assert np.all(cos >= 1 - 1e-12)
        np.testing.assert_allclose(basis.T @ basis, np.eye(out_dim), atol=1e-12)
        # the padding columns carry no variance
        np.testing.assert_allclose((X - pca.mean) @ basis[:, top:], 0.0, atol=1e-12)

    def test_cell_fit_matches_the_dense_fit(self):
        # the same samples as cells with counts and as rows of count 1
        tables, cells = cell_problem(64)
        X = dense_rows(tables, cells)
        dense = fit_pca_per_object(X.reshape(len(X), 6, 5), 12)
        cos = np.abs(np.sum(dense_basis(fit_pca_cells(tables, cells, 12)) * dense_basis(dense),
                            axis=0))
        assert np.all(cos >= 1 - 1e-12)

    def test_soft_training_and_evaluation_build_no_dense_rows(self):
        rng = np.random.default_rng(65)
        train = random_soft_manifest(rng, 4, 9, 40, max_patches=6)
        test = random_soft_manifest(rng, 4, 9, 12, max_patches=6, split_tag="test")
        config = PipelineConfig(mode="soft", object_count=6, pca_dim=8, codebook_size=5,
                                topic_count=2, sgd_lambdas=(1e-3,), sgd_eta0s=(0.5,),
                                sgd_epochs=3, seed=3)
        want = evaluate_bundle(fit_pipeline(train, config), test)
        bundle = fit_pipeline(train, config)
        # one block per selected object: no block gathers columns across tables
        assert [q.shape[0] for q in bundle.pca.bases] == [4] * 6
        pred, scores, _ = evaluate_bundle(bundle, test)
        assert pred.tobytes() == want[0].tobytes()
        assert scores.tobytes() == want[1].tobytes()

    def test_bad_cells_are_refused(self):
        tables, cells = cell_problem(66)
        with pytest.raises(ValueError, match="outside table 2"):
            fit_pca_cells(tables, np.where(cells == 6, 7, cells), 5)
        with pytest.raises(ValueError, match="integer table rows"):
            fit_pca_cells(tables, cells[:, :5], 5)


class TestFitCodebook:
    def test_two_blobs(self):
        rng = np.random.default_rng(41)
        a = rng.standard_normal((40, 3)) * 0.01
        b = rng.standard_normal((40, 3)) * 0.01 + 10.0
        cb = fit_codebook(np.vstack([a, b]), 2, seed=0)
        centers = cb.centers[np.argsort(cb.centers[:, 0])]
        np.testing.assert_allclose(centers[0], a.mean(axis=0), atol=1e-3)
        np.testing.assert_allclose(centers[1], b.mean(axis=0), atol=1e-3)

    def test_single_center_is_global_mean(self):
        rng = np.random.default_rng(42)
        X = rng.random((15, 4))
        cb = fit_codebook(X, 1, seed=0)
        np.testing.assert_allclose(cb.centers[0], X.mean(axis=0), atol=1e-12)

    def test_center_per_sample_floors_sigma(self):
        rng = np.random.default_rng(43)
        X = rng.random((5, 3))
        cb = fit_codebook(X, 5, seed=0)
        assert cb.sigma == 1.0  # all distances zero -> floor

    def test_k_out_of_range(self):
        with pytest.raises(ValueError):
            fit_codebook(np.zeros((4, 2)), 5, seed=0)


class TestEncodeSoft:
    def _setup(self, rng, k=3, p=4):
        m, post, sel = soft_model(rng, n_classes=2, n_objects=3, n_images=12)
        samples = dense_patch_rows(m, post, sel)
        pca = fit_pca_per_object(samples.reshape(len(samples), 3, 2), p)
        cb = fit_codebook(dense_project(pca, samples), k, seed=0)
        return m, post, sel, pca, cb

    def test_single_patch_at_center_is_zero_vector(self):
        rng = np.random.default_rng(44)
        m, post, sel, pca, _ = self._setup(rng)
        rec = m.records[0]
        v = dense_project(pca, patch_matrices(rec, post, sel)[0].reshape(-1))
        cb = VladCodebook(centers=v[None, :], sigma=1.0)
        one_patch = soft_record([rec.detections[0]])
        out = encode_soft(one_patch, post, sel, pca, cb)
        np.testing.assert_array_equal(out, np.zeros(pca.out_dim))

    def test_single_patch_origin_center_is_normalized_projection(self):
        rng = np.random.default_rng(45)
        m, post, sel, pca, _ = self._setup(rng)
        rec = m.records[0]
        cb = VladCodebook(centers=np.zeros((1, pca.out_dim)), sigma=1.0)
        one_patch = soft_record([rec.detections[0]])
        v = dense_project(pca, patch_matrices(one_patch, post, sel)[0].reshape(-1))
        W = soft_assignments(cb, v)
        np.testing.assert_allclose(vlad(W, v[None, :], cb.centers).reshape(-1), v,
                                   atol=1e-15)
        out = encode_soft(one_patch, post, sel, pca, cb)
        np.testing.assert_allclose(out, ssr_l2(v), atol=1e-12)

    def test_matches_naive_vlad_oracle(self):
        rng = np.random.default_rng(46)
        m, post, sel, pca, cb = self._setup(rng)
        for rec in m.records[:6]:
            V = dense_project(pca, patch_matrices(rec, post, sel).reshape(len(rec.detections), -1))
            raw = vlad(soft_assignments(cb, V), V, cb.centers).reshape(-1)
            np.testing.assert_allclose(raw, oracle_vlad(V, cb.centers, cb.sigma),
                                       atol=1e-9)

    def test_manifest_rows_match_the_oracle(self):
        rng = np.random.default_rng(51)
        m, post, sel, pca, cb = self._setup(rng)
        X = encode_soft_manifest(m, post, sel, pca, cb)
        assert X.shape == (len(m), cb.size * pca.out_dim)
        for row, rec in zip(X, m.records):
            V = dense_project(pca, patch_matrices(rec, post, sel).reshape(len(rec.detections), -1))
            # the square root turns a rounding difference e of a VLAD entry
            # near zero into up to sqrt(e): 1e-7 covers e up to 1e-14
            np.testing.assert_allclose(row, ssr_l2(oracle_vlad(V, cb.centers, cb.sigma)),
                                       atol=1e-7)

    def test_weights_sum_to_one(self):
        rng = np.random.default_rng(47)
        m, post, sel, pca, cb = self._setup(rng)
        V = dense_project(pca, dense_patch_rows(one_record_manifest(m.records[0], 3),
                                               post, sel))
        W = soft_assignments(cb, V)
        assert np.all(W >= 0)
        np.testing.assert_allclose(W.sum(axis=1), 1.0, atol=1e-12)

    def test_patch_order_invariance(self):
        rng = np.random.default_rng(48)
        m, post, sel, pca, cb = self._setup(rng)
        rec = m.records[1]
        out1 = encode_soft(rec, post, sel, pca, cb)
        shuffled = soft_record(list(rec.detections)[::-1], rec.image_id,
                               rec.scene_class)
        out2 = encode_soft(shuffled, post, sel, pca, cb)
        np.testing.assert_allclose(out1, out2, atol=1e-10)

    def test_unit_norm(self):
        rng = np.random.default_rng(49)
        m, post, sel, pca, cb = self._setup(rng)
        for rec in m.records[:5]:
            out = encode_soft(rec, post, sel, pca, cb)
            assert np.linalg.norm(out) == pytest.approx(1.0, abs=1e-9)

    def test_empty_bag_raises(self):
        rng = np.random.default_rng(50)
        m, post, sel, pca, cb = self._setup(rng)
        with pytest.raises(FormatError, match="empty bag: record 'img'"):
            encode_soft(soft_record([]), post, sel, pca, cb)

    def test_training_descriptors_match_encode_with_bundle(self):
        # the encoder stage encodes the training set from the projection it
        # fits the codebook on; evaluation projects the patches again
        train = random_soft_manifest(np.random.default_rng(51), 4, 9, 40, max_patches=6)
        config = PipelineConfig(mode="soft", object_count=6, pca_dim=8, codebook_size=5,
                                seed=3)
        bundle, X = run_stages(STAGES[:3], config, train)  # up to the encoder
        assert X.tobytes() == encode_with_bundle(bundle, train).tobytes()


_SUB_GRID = {}


def sub_grid_setup():
    """A fitted soft encoder and the manifest it encodes, built once."""
    if not _SUB_GRID:
        m, post, sel = soft_model(np.random.default_rng(70), 3, 5, 24)
        _, tables, cells = patch_cells(m, post, sel)
        pca = fit_pca_cells(tables, cells, 6)
        cb = fit_codebook(pca.project_cells(tables, cells), 4, seed=0)
        _SUB_GRID.update(m=m, post=post, sel=sel, pca=pca, cb=cb)
    return _SUB_GRID


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_sub_grid_score_perturbation_leaves_bits_unchanged(data):
    # every score moves anywhere inside its grid cell: [v - step/2, v + step/2]
    # about its grid point v, kept inside [0, 1]
    s = sub_grid_setup()
    m, post = s["m"], s["post"]
    grid = post.grid.values
    frac = data.draw(arrays(float, m.scores.shape,
                            elements=st.floats(-0.45, 0.45, allow_subnormal=False)))
    cells = score_grid_indices(post.grid, m.scores)
    moved = np.clip(grid[cells] + frac * post.grid.delta_theta, 0.0, 1.0)
    assert np.array_equal(score_grid_indices(post.grid, moved), cells)
    shifted = DatasetManifest.from_arrays(
        m.vocabulary, m.classes, m.split_tag, m.mode, m.image_ids, m.labels,
        m.domain_tags, m.image, patch_id=m.patch_id, scores=moved)
    want = encode_soft_manifest(m, post, s["sel"], s["pca"], s["cb"])
    got = encode_soft_manifest(shifted, post, s["sel"], s["pca"], s["cb"])
    assert got.tobytes() == want.tobytes()
