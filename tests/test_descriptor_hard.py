import numpy as np
import pytest

from oomscene import (
    ClassPrior,
    HardDetection,
    PyramidLayout,
    ThresholdGrid,
    VariantError,
    assign_region,
    build_occurrence_model,
    build_posterior_model,
    descriptor_length,
    encode_hard,
    posterior_at_score,
    select_objects,
)
from oomscene.ingest import ImageRecord, SoftPatch
from helpers import hard_record, random_box, random_hard_manifest


def box_at(cx, cy, half=0.05):
    return (cx - half, cy - half, cx + half, cy + half)


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


class TestPyramidLayout:
    def test_default_region_count(self):
        assert PyramidLayout().region_count == 8  # 1 + 4 + 3

    def test_validation(self):
        with pytest.raises(ValueError):
            PyramidLayout(())
        with pytest.raises(ValueError):
            PyramidLayout(((0, 1),))


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
        expected = posterior_at_score(post, obj, 0.3)
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
        u = posterior_at_score(post, obj, 0.2)
        v = posterior_at_score(post, obj, 0.7)
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
                counts[assign_region(det.box, (2, 2)), i] += 1
            recon = (mats * counts[:, :, None]).sum(axis=0)
            total = counts.sum(axis=0)
            detected = total > 0
            np.testing.assert_allclose(
                recon[detected] / total[detected, None],
                whole[detected], atol=1e-12)
