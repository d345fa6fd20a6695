import dataclasses
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oomscene import (
    ClassPrior,
    DatasetManifest,
    DomainShift,
    HardDetection,
    PyramidLayout,
    ScoreModel,
    ThresholdGrid,
    VariantError,
    adjusted_rand_index,
    apply_shift,
    assign_topics_batch,
    build_occurrence_model,
    build_posterior_model,
    encode_hard_manifest,
    encode_rawscore_manifest,
    fit_topics,
    generate,
    hidden_topics,
    planted_spec,
    select_objects,
    to_text,
)
from oomscene.ingest import SOFT, ImageRecord, SoftPatch
from oomscene.synth import _MAX_DRAWS, _check_draws, _random_box
from helpers import (
    hard_record,
    one_record_manifest,
    oracle_apply_shift,
    oracle_rawscore,
    random_hard_manifest,
    random_soft_manifest,
    single_class_manifest,
)


PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def text_fields(manifest):
    """Everything ``to_text`` serializes of a soft manifest: equal fields give
    equal texts, since repr gives distinct floats distinct text, without
    formatting a float of the manifest."""
    arrays = (manifest.labels, manifest.image, manifest.patch_id, manifest.scores)
    return (manifest.vocabulary.names, manifest.classes.names, manifest.mode,
            manifest.split_tag, manifest.image_ids, manifest.domain_tags,
            *((a.dtype.str, a.shape, a.tobytes()) for a in arrays))


def small_spec(seed=0, shift=DomainShift(), images_per_class=20):
    return planted_spec(3, 12, 2, images_per_class, shift=shift, seed=seed)


class TestGenerate:
    def test_seed_deterministic(self):
        s1, t1 = generate(small_spec(seed=5))
        s2, t2 = generate(small_spec(seed=5))
        assert to_text(s1) == to_text(s2)
        assert to_text(t1) == to_text(t2)

    def test_identity_shift_matches_source_statistics(self):
        source, target = generate(small_spec(seed=7))
        mean_src = np.mean([len(r.detections) for r in source.records])
        mean_tgt = np.mean([len(r.detections) for r in target.records])
        assert abs(mean_src - mean_tgt) / mean_src < 0.15

    def test_heavy_dropout_empties_target(self):
        shift = DomainShift(0.0, 1.0, 0.99)
        source, target = generate(small_spec(seed=8, shift=shift))
        mean_src = np.mean([len(r.detections) for r in source.records])
        mean_tgt = np.mean([len(r.detections) for r in target.records])
        assert mean_tgt < 0.05 * mean_src

    def test_hidden_topics_recoverable_from_ids(self):
        source, _ = generate(small_spec(seed=9))
        topics = hidden_topics(source)
        assert set(topics) <= {0, 1}
        assert len(topics) == len(source.records)

    def test_degenerate_spec_rejected(self):
        with pytest.raises(ValueError):
            planted_spec(0, 10, 2, 5)
        with pytest.raises(ValueError):
            planted_spec(3, 4, 2, 5)  # too few objects for the structure
        # enough objects to plant structure: the count itself is refused
        with pytest.raises(ValueError, match="n_classes must be at least 1, got 0"):
            planted_spec(0, 40, 3, 5)
        with pytest.raises(ValueError, match="n_topics must be at least 1, got 0"):
            planted_spec(6, 40, 0, 5)

    def test_spec_counts_are_the_score_model_shape(self):
        spec = planted_spec(3, 12, 2, 5)
        assert (spec.n_topics_true, spec.n_classes, spec.n_objects) == (2, 3, 12)
        with pytest.raises(ValueError, match=r"at least one of each, got shape \(2, 0, 12\)"):
            ScoreModel(*(np.ones((2, 0, 12)),) * 3)
        with pytest.raises(ValueError, match="images_per_class must be at least 1, got 0"):
            dataclasses.replace(spec, images_per_class=0)

    def test_shift_validation(self):
        with pytest.raises(ValueError):
            DomainShift(score_scale=0.0)
        with pytest.raises(ValueError):
            DomainShift(dropout=1.0)
        with pytest.raises(ValueError, match="score_offset must be finite, got nan"):
            DomainShift(score_offset=float("nan"))
        with pytest.raises(ValueError, match="score_scale must be finite, got inf"):
            DomainShift(score_scale=float("inf"))

    @pytest.mark.parametrize("patches", [0, 3])
    def test_first_images_of_a_class_do_not_depend_on_images_per_class(self, patches):
        # per-image substreams: a draw at k images per class is the first k
        # images per class of a larger draw (dropout aside: it is keyed by
        # record index)
        shift = DomainShift(score_offset=0.2, score_scale=1.1)
        small = generate(small_spec(seed=4, shift=shift, images_per_class=3), patches)
        large = generate(small_spec(seed=4, shift=shift, images_per_class=7), patches)
        for a, b in zip(small, large):
            first = tuple(b.records[c * 7 + i] for c in range(3) for i in range(3))
            assert to_text(a) == to_text(DatasetManifest(b.vocabulary, b.classes, first,
                                                         b.split_tag, b.mode))

    @pytest.mark.parametrize("spec, patches, serialized", [
        *[(planted_spec(18, 200, 3, 56, shift=DomainShift(score_offset=0.15), seed=s), 8,
           text_fields) for s in (1, 2, 3)],
        (planted_spec(18, 30, 3, 24, shift=DomainShift(score_offset=0.15), seed=3), 4,
         to_text),
        (planted_spec(4, 12, 2, 6, shift=DomainShift(-0.1, 1.3, 0.4), seed=9), 3, to_text),
    ], ids=["soft-paper-1", "soft-paper-2", "soft-paper-3", "soft-paper-tiny", "dropout"])
    def test_soft_draw_matches_the_benchmark_generator(self, monkeypatch, spec, patches,
                                                       serialized):
        # soft-paper's set-up spec and the smoke test's tiny one: swapping
        # the benchmark's record-at-a-time generator for this one keeps its
        # inputs byte-identical
        monkeypatch.syspath_prepend(str(PERFBENCH))
        from soft_synth import generate_soft
        ours, theirs = generate(spec, patches), generate_soft(spec, patches)
        assert ours[0].mode == SOFT
        for a, b in zip(ours, theirs):
            assert serialized(a) == serialized(b)

    def test_draw_bound_admits_its_limit(self):
        _check_draws("draws", n=_MAX_DRAWS)
        with pytest.raises(ValueError, match=f"n 3 x m {_MAX_DRAWS // 3 + 1} is "
                                             f"{3 * (_MAX_DRAWS // 3 + 1)} draws, more than"):
            _check_draws("draws", n=3, m=_MAX_DRAWS // 3 + 1)
        # soft-paper's set-up draw is about a tenth of the bound
        spec = planted_spec(18, 200, 3, 56)
        assert 10 * 18 * 56 * 200 * 8 < _MAX_DRAWS
        with pytest.raises(ValueError, match="patches 1000 is 201600000 draws per manifest"):
            generate(spec, patches=1000)

    def test_soft_draw_shifts_every_target_score(self):
        source, target = generate(small_spec(seed=6, shift=DomainShift(0.15)), patches=4)
        assert np.all(np.diff(source.bounds) == 4)
        assert 0.0 <= source.scores.min() and source.scores.max() <= 1.0
        assert target.scores.min() >= 0.15

    def test_labels_and_domains(self):
        source, target = generate(small_spec(seed=10))
        assert all(r.domain_tag == "source" for r in source.records)
        assert all(r.domain_tag == "target" for r in target.records)
        assert source.split_tag == "train"
        for c in range(3):
            assert np.sum(source.labels == c) == 20


def test_random_box_matches_four_uniform_draws():
    # the same boxes and the same next draw as the four-call formula
    for seed in range(20):
        ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(50):
            w = theirs.uniform(0.05, 0.3)
            h = theirs.uniform(0.05, 0.3)
            x0 = theirs.uniform(0.0, 1.0 - w)
            y0 = theirs.uniform(0.0, 1.0 - h)
            assert _random_box(ours) == (x0, y0, min(1.0, x0 + w), min(1.0, y0 + h))
        assert ours.random() == theirs.random()


class TestApplyShift:
    def test_offset_shifts_raw_baseline_entries_exactly(self):
        source, _ = generate(small_spec(seed=11))
        shift = DomainShift(0.3, 1.0, 0.0)
        shifted = apply_shift(source, shift, seed=0)
        layout = PyramidLayout()
        V = encode_rawscore_manifest(source, 12, layout)
        VS = encode_rawscore_manifest(shifted, 12, layout)
        # cells without any detection stay empty (a clipped score of exactly
        # 0.0 counts as a detection and shifts to 0.3)
        all_high = single_class_manifest(
            [hard_record([HardDetection(d.object_index, 1.0, d.box) for d in rec.detections])
             for rec in source.records], 12, n_classes=3, split_tag="test")
        detected = encode_rawscore_manifest(all_high, 12, layout) > 0
        for v, vs, det in list(zip(V, VS, detected))[:10]:
            nz = v != 0
            np.testing.assert_array_equal(vs[nz], v[nz] + 0.3)
            assert not vs[~det].any()

    def test_scale_applied_before_offset(self):
        rec = hard_record([HardDetection(0, 0.5, (0.1, 0.1, 0.3, 0.3))])
        m = single_class_manifest([rec], 2)
        out = apply_shift(m, DomainShift(0.1, 2.0, 0.0), seed=0)
        assert out.records[0].detections[0].score == 2.0 * 0.5 + 0.1

    @pytest.mark.parametrize("mode", ["hard", "soft"])
    @pytest.mark.parametrize("shift", [DomainShift(0.15), DomainShift(-0.1, 1.3, 0.4)],
                             ids=["offset", "scale-dropout"])
    def test_matches_record_by_record_reference(self, mode, shift):
        make = random_hard_manifest if mode == "hard" else random_soft_manifest
        m = make(np.random.default_rng(21), 2, 4, 10, split_tag="test")
        assert to_text(apply_shift(m, shift, seed=5)) == \
            to_text(oracle_apply_shift(m, shift, seed=5))

    def test_negative_seed_refused(self):
        # abs() used to draw seed 5's dropout for seed -5
        m = random_hard_manifest(np.random.default_rng(21), 2, 4, 10, split_tag="test")
        with pytest.raises(ValueError, match="seed must be non-negative, got -1"):
            apply_shift(m, DomainShift(0.0, 1.0, 0.5), seed=-1)

    def test_dropout_deterministic(self):
        source, _ = generate(small_spec(seed=12))
        a = apply_shift(source, DomainShift(0.0, 1.0, 0.5), seed=3)
        b = apply_shift(source, DomainShift(0.0, 1.0, 0.5), seed=3)
        assert to_text(a) == to_text(b)


def encode_rawscore_baseline(rec, n_objects, layout=PyramidLayout()):
    """One record's baseline through the manifest encoder."""
    return encode_rawscore_manifest(one_record_manifest(rec, n_objects), n_objects,
                                    layout)[0]


class TestRawScoreBaseline:
    def test_single_detection(self):
        box = (0.1, 0.1, 0.3, 0.3)  # center (0.2, 0.2): regions 0, 1, 5
        rec = hard_record([HardDetection(2, 0.7, box)])
        v = encode_rawscore_baseline(rec, 4, PyramidLayout())
        expected = np.zeros(8 * 4)
        for reg in (0, 1, 5):
            expected[reg * 4 + 2] = 0.7
        np.testing.assert_array_equal(v, expected)

    def test_max_over_detections(self):
        box = (0.1, 0.1, 0.3, 0.3)
        rec = hard_record([HardDetection(1, 0.4, box), HardDetection(1, 0.9, box)])
        v = encode_rawscore_baseline(rec, 2, PyramidLayout(((1, 1),)))
        np.testing.assert_array_equal(v, [0.0, 0.9])

    def test_soft_record_rejected(self):
        rec = ImageRecord("s", 0, (SoftPatch(0, np.zeros(3)),), "soft")
        with pytest.raises(VariantError):
            encode_rawscore_baseline(rec, 3)

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), offset=st.sampled_from([-1.5, -0.2, 0.0, 0.4]))
    def test_matches_per_record_max_oracle(self, seed, offset):
        rng = np.random.default_rng(seed)
        m = apply_shift(random_hard_manifest(rng, 2, 5, 8, split_tag="test"),
                        DomainShift(offset, 1.0, 0.0), seed=0)  # negative scores too
        layout = PyramidLayout(((1, 1), (2, 2), (3, 1)))
        R = encode_rawscore_manifest(m, 5, layout)
        for row, rec in zip(R, m.records):
            np.testing.assert_array_equal(row, oracle_rawscore(rec, 5, layout))


class TestClusterRecovery:
    def test_planted_topics_recovered(self):
        spec = planted_spec(4, 20, 3, 30, seed=13)
        source, _ = generate(spec)
        grid = ThresholdGrid(0.0, 1.0, 0.05)
        post = build_posterior_model(build_occurrence_model(source, grid),
                                     ClassPrior.uniform(4))
        sel = select_objects(post, 20)
        X = encode_hard_manifest(source, post, sel)
        model = fit_topics(X, 3, seed=13)
        labels, _ = assign_topics_batch(model, X)
        assert adjusted_rand_index(labels, hidden_topics(source)) >= 0.8


class TestAdjustedRand:
    def test_identical_labelings(self):
        assert adjusted_rand_index([0, 0, 1, 1, 2], [5, 5, 3, 3, 7]) == 1.0

    def test_known_value(self):
        # hand-checkable: one misplaced item in two 3+3 groups
        a = [0, 0, 0, 1, 1, 1]
        b = [0, 0, 1, 1, 1, 1]
        ari = adjusted_rand_index(a, b)
        # contingency [[2,1],[0,3]]: sum_ij=1+3=4, sum_a=3+3=6, sum_b=1+6=7,
        # total=15, exp=2.8, max=6.5 -> (4-2.8)/(6.5-2.8)
        assert ari == pytest.approx((4 - 2.8) / (6.5 - 2.8))

    def test_single_cluster_each(self):
        assert adjusted_rand_index([0, 0, 0], [1, 1, 1]) == 1.0
