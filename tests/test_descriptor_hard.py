import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oomscene import (
    ClassPrior,
    DatasetManifest,
    HardDetection,
    PyramidLayout,
    ThresholdGrid,
    VariantError,
    build_occurrence_model,
    build_posterior_model,
    descriptor_length,
    encode_hard_manifest,
    pyramid_regions,
    select_objects,
)
from oomscene.ingest import ImageRecord, SoftPatch
from helpers import (
    hard_record,
    make_classes,
    make_vocab,
    one_record_manifest,
    oracle_encode_hard,
    oracle_grid_index,
    oracle_region,
    random_box,
    random_hard_manifest,
)


def box_at(cx, cy, half=0.05):
    return (cx - half, cy - half, cx + half, cy + half)


def assign_region(box, level):
    """Region of one box on a one-level pyramid."""
    return int(pyramid_regions(np.array([box]), PyramidLayout((level,)))[0, 0])


class TestAssignRegion:
    def test_quadrant(self):
        assert assign_region(box_at(0.25, 0.25), (2, 2)) == 0
        assert assign_region(box_at(0.75, 0.25), (2, 2)) == 1
        assert assign_region(box_at(0.25, 0.75), (2, 2)) == 2
        assert assign_region(box_at(0.75, 0.75), (2, 2)) == 3

    def test_boundary_goes_to_lower_region(self):
        assert assign_region((0.4, 0.4, 0.6, 0.6), (2, 2)) == 0  # center (0.5, 0.5)

    def test_three_rows(self):
        assert assign_region(box_at(0.9, 0.1), (3, 1)) == 0  # top row from y
        assert assign_region(box_at(0.1, 0.5), (3, 1)) == 1
        assert assign_region(box_at(0.5, 0.95), (3, 1)) == 2

    def test_single_region(self):
        assert assign_region(box_at(0.6, 0.6), (1, 1)) == 0

    def test_levels_are_offset_and_match_the_scalar_oracle(self):
        rng = np.random.default_rng(20)
        layout = PyramidLayout(((1, 1), (2, 2), (3, 1), (4, 3)))
        boxes = np.array([random_box(rng) for _ in range(50)]
                         + [(0.25, 0.0, 0.75, 1.0), (0.0, 0.0, 1.0, 1.0)])
        offsets = np.cumsum([0] + [r * c for r, c in layout.levels])
        got = pyramid_regions(boxes, layout)
        for level, (rows, cols) in enumerate(layout.levels):
            want = [offsets[level] + oracle_region(b, (rows, cols)) for b in boxes]
            np.testing.assert_array_equal(got[level], want)


class TestPyramidLayout:
    def test_default_region_count(self):
        assert PyramidLayout().region_count == 8  # 1 + 4 + 3

    def test_validation(self):
        with pytest.raises(ValueError):
            PyramidLayout(())
        with pytest.raises(ValueError):
            PyramidLayout(((0, 1),))

    def test_region_count_is_bounded(self):
        assert PyramidLayout(((32, 32),)).region_count == 1024
        with pytest.raises(ValueError, match="regions"):
            PyramidLayout(((32, 32), (1, 1)))
        with pytest.raises(ValueError, match="regions"):
            PyramidLayout(((3000, 3000),))


def encode_hard(rec, post, sel, layout=PyramidLayout()):
    """One record's descriptor through the manifest encoder."""
    manifest = one_record_manifest(rec, post.n_objects)
    return encode_hard_manifest(manifest, post, sel, layout)[0]


def whole_image(rec, post, sel):
    """The [selected objects x classes] block of a one-region (1x1) pyramid."""
    return encode_hard(rec, post, sel, PyramidLayout(((1, 1),))).reshape(
        len(sel.selected), post.n_classes)


def fitted_model(rng, n_classes=3, n_objects=4, n_images=18):
    m = random_hard_manifest(rng, n_classes, n_objects, n_images)
    grid = ThresholdGrid(0.0, 1.0, 0.1)
    post = build_posterior_model(build_occurrence_model(m, grid),
                                 ClassPrior.uniform(n_classes))
    sel = select_objects(post, n_objects)
    return m, post, sel


class TestEncodeHard:
    def test_single_detection_fills_one_row_per_level(self):
        rng = np.random.default_rng(21)
        _, post, sel = fitted_model(rng)
        obj = sel.selected[0]
        rec = hard_record([HardDetection(obj, 0.3, box_at(0.2, 0.2))])
        layout = PyramidLayout()
        vec = encode_hard(rec, post, sel, layout)
        R, C = len(sel.selected), post.n_classes
        mats = vec.reshape(layout.region_count, R, C)
        expected = post.posteriors[obj, :, oracle_grid_index(post.grid, 0.3)]
        # level regions: (1,1) region 0; (2,2) region 1 (index offset 1);
        # (3,1) top row (offset 5)
        for reg in (0, 1, 5):
            np.testing.assert_array_equal(mats[reg, 0], expected)
        filled = np.zeros((layout.region_count, R), dtype=bool)
        filled[[0, 1, 5], 0] = True
        assert np.all(mats[~filled] == 0)

    def test_two_detections_average(self):
        rng = np.random.default_rng(22)
        _, post, sel = fitted_model(rng)
        obj = sel.selected[0]
        rec = hard_record([
            HardDetection(obj, 0.2, box_at(0.2, 0.2)),
            HardDetection(obj, 0.7, box_at(0.22, 0.22)),
        ])
        vec = encode_hard(rec, post, sel)
        u = post.posteriors[obj, :, oracle_grid_index(post.grid, 0.2)]
        v = post.posteriors[obj, :, oracle_grid_index(post.grid, 0.7)]
        C = post.n_classes
        np.testing.assert_allclose(vec[:C], (u + v) / 2, atol=1e-15)

    def test_zero_detection_record_encodes_to_zero(self):
        rng = np.random.default_rng(23)
        _, post, sel = fitted_model(rng)
        vec = encode_hard(hard_record([]), post, sel)
        assert not vec.any()

    def test_descriptor_length(self):
        rng = np.random.default_rng(24)
        _, post, sel = fitted_model(rng, n_classes=3, n_objects=4)
        vec = encode_hard(hard_record([]), post, sel)
        assert vec.size == descriptor_length(4, 3) == 8 * 4 * 3

    def test_detection_order_invariance_is_bit_exact(self):
        rng = np.random.default_rng(25)
        _, post, sel = fitted_model(rng)
        dets = [
            HardDetection(int(rng.integers(4)), float(rng.random()),
                          random_box(rng))
            for _ in range(12)
        ]
        vec1 = encode_hard(hard_record(dets), post, sel)
        for _ in range(3):
            order = rng.permutation(len(dets))
            vec2 = encode_hard(hard_record([dets[i] for i in order]), post, sel)
            np.testing.assert_array_equal(vec1, vec2)

    def test_level_one_block_equals_posterior_matrix(self):
        rng = np.random.default_rng(26)
        m, post, sel = fitted_model(rng)
        layout = PyramidLayout()
        R, C = len(sel.selected), post.n_classes
        for rec in m.records[:6]:
            vec = encode_hard(rec, post, sel, layout)
            np.testing.assert_array_equal(vec[: R * C].reshape(R, C),
                                          whole_image(rec, post, sel))

    def test_detected_rows_sum_to_one(self):
        rng = np.random.default_rng(27)
        m, post, sel = fitted_model(rng)
        for rec in m.records[:8]:
            M = whole_image(rec, post, sel)
            detected = {d.object_index for d in rec.detections}
            for i, obj in enumerate(sel.selected):
                if obj in detected:
                    assert M[i].sum() == pytest.approx(1.0, abs=1e-9)
                else:
                    assert not M[i].any()

    def test_sub_grid_score_perturbation_leaves_bits_unchanged(self):
        rng = np.random.default_rng(28)
        _, post, sel = fitted_model(rng)
        grid_vals = post.grid.values
        dets, moved = [], []
        for _ in range(10):
            base = float(grid_vals[rng.integers(len(grid_vals))])
            delta = float(rng.uniform(-0.012, 0.012))
            eps = float(rng.uniform(-0.009, 0.009))
            box = random_box(rng)
            obj = int(rng.integers(4))
            dets.append(HardDetection(obj, base + delta, box))
            moved.append(HardDetection(obj, base + delta + eps, box))
        v1 = encode_hard(hard_record(dets), post, sel)
        v2 = encode_hard(hard_record(moved), post, sel)
        np.testing.assert_array_equal(v1, v2)

    def test_soft_record_rejected(self):
        rng = np.random.default_rng(29)
        _, post, sel = fitted_model(rng)
        rec = ImageRecord("s", 0, (SoftPatch(0, np.zeros(4)),), "soft")
        with pytest.raises(VariantError):
            encode_hard(rec, post, sel)

    def test_region_detection_multiset_consistency(self):
        # per level, detections of a selected object distribute over regions:
        # weighted row sums reproduce the whole-image accumulations
        rng = np.random.default_rng(30)
        m, post, sel = fitted_model(rng)
        layout = PyramidLayout(((2, 2),))
        for rec in m.records[:5]:
            vec = encode_hard(rec, post, sel, layout)
            R, C = len(sel.selected), post.n_classes
            mats = vec.reshape(4, R, C)
            whole = whole_image(rec, post, sel)
            counts = np.zeros((4, R))
            for det in rec.detections:
                i = sel.selected.index(det.object_index)
                counts[oracle_region(det.box, (2, 2)), i] += 1
            recon = (mats * counts[:, :, None]).sum(axis=0)
            total = counts.sum(axis=0)
            detected = total > 0
            np.testing.assert_allclose(
                recon[detected] / total[detected, None],
                whole[detected], atol=1e-12)


# boxes whose centres sit on interior boundaries of the 2x2, 3x1 and 4x4 grids
_BOUNDARY_BOXES = [(0.4, 0.4, 0.6, 0.6), (0.0, 0.0, 0.5, 0.5), (0.25, 0.5, 0.75, 1.0),
                   (0.0, 0.0, 1.0, 2 / 3), (0.5, 0.0, 1.0, 1.0)]


@st.composite
def hard_manifests(draw):
    n_obj = draw(st.integers(2, 6))
    n_records = draw(st.integers(1, 6))
    grid_points = [round(0.1 * t, 10) for t in range(11)]
    score = st.one_of(st.floats(-0.5, 1.5), st.sampled_from(grid_points),
                      st.sampled_from([v + 0.05 for v in grid_points]))
    box = st.one_of(st.sampled_from(_BOUNDARY_BOXES),
                    st.tuples(st.floats(0.0, 0.45), st.floats(0.0, 0.45),
                              st.floats(0.55, 1.0), st.floats(0.55, 1.0)))
    det = st.builds(HardDetection, st.integers(0, n_obj - 1), score, box)
    records = tuple(
        ImageRecord(f"r{i}", 0, tuple(draw(st.lists(det, max_size=12))), "hard")
        for i in range(n_records))
    return DatasetManifest(make_vocab(n_obj), make_classes(1), records, "test", "hard")


class TestManifestEncoderMatchesOracle:
    @settings(max_examples=150, deadline=None)
    @given(manifest=hard_manifests(), data=st.data())
    def test_bit_identical_to_per_record_oracle(self, manifest, data):
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        n_obj, n_cls = len(manifest.vocabulary), 3
        grid = ThresholdGrid(0.0, 1.0, 0.1)
        post = build_posterior_model(
            build_occurrence_model(random_hard_manifest(rng, n_cls, n_obj, 12), grid),
            ClassPrior.uniform(n_cls))
        count = data.draw(st.integers(1, n_obj))
        sel = select_objects(post, count)  # unselected objects are skipped
        layout = PyramidLayout(((1, 1), (2, 2), (3, 1), (4, 4)))
        X = encode_hard_manifest(manifest, post, sel, layout)
        assert X.shape == (len(manifest), descriptor_length(count, n_cls, layout))
        for row, rec in zip(X, manifest.records):
            np.testing.assert_array_equal(row, oracle_encode_hard(rec, post, sel, layout))
        # shuffling every record's detections changes no bit
        shuffled = DatasetManifest(
            manifest.vocabulary, manifest.classes,
            tuple(ImageRecord(r.image_id, 0, tuple(data.draw(st.permutations(r.detections))),
                              "hard") for r in manifest.records),
            "test", "hard")
        np.testing.assert_array_equal(encode_hard_manifest(shuffled, post, sel, layout), X)
