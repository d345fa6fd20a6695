import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from oomscene import (
    CompatibilityError,
    DatasetManifest,
    FormatError,
    PipelineConfig,
    evaluate_bundle,
    fit_pipeline,
    predict_batch,
)
from oomscene import pipeline
from oomscene.pipeline import confusion_matrix, encode_with_bundle
from helpers import make_classes, make_vocab, random_hard_manifest, random_soft_manifest

MAKE = {"hard": random_hard_manifest, "soft": random_soft_manifest}
SMALL = dict(object_count=3, topic_count=2, sgd_lambdas=(1e-3,), sgd_eta0s=(0.5,),
             sgd_epochs=2, seed=1)


@pytest.fixture(scope="module")
def bundles():
    """A small trained bundle per mode, over 3 classes and 5 objects."""
    rng = np.random.default_rng(21)
    return {"hard": fit_pipeline(random_hard_manifest(rng, 3, 5, 24),
                                 PipelineConfig(**SMALL)),
            "soft": fit_pipeline(random_soft_manifest(rng, 3, 5, 24),
                                 PipelineConfig(mode="soft", pca_dim=4, codebook_size=3,
                                                **SMALL))}


def test_block_helper_keeps_the_manifest_in_view():
    m = random_hard_manifest(np.random.default_rng(2), 2, 4, 9)
    block = m._block(3, 7)
    assert block.image_ids == m.image_ids[3:7] and len(block) == 4
    assert np.array_equal(block.labels, m.labels[3:7])
    a, b = m.bounds[3], m.bounds[7]
    assert np.array_equal(block.image, m.image[a:b] - 3)
    assert np.array_equal(block.bounds, m.bounds[3:8] - a)
    assert np.shares_memory(block.score, m.score) and not block.score.flags.writeable
    assert not block.image.flags.writeable


def blocks_of(monkeypatch, bundle, images):
    """Set the evaluation budget to `images` images' descriptors plus a few
    bytes short of one more, and record each block `evaluate_bundle` encodes
    as (its image ids, its descriptors)."""
    dim = bundle.descriptor_dim()
    monkeypatch.setattr(pipeline, "_EVAL_BLOCK_BYTES", 8 * dim * (images + 1) - 1)
    seen = []

    def encode(bundle, manifest):
        X = encode_with_bundle(bundle, manifest)
        seen.append((manifest.image_ids, X))
        return X

    monkeypatch.setattr(pipeline, "encode_with_bundle", encode)
    return seen


@pytest.mark.parametrize("mode", ["hard", "soft"])
@pytest.mark.parametrize("images, sizes", [
    (1, [1] * 12), (3, [3, 3, 3, 3]), (5, [5, 5, 2]), (12, [12]), (50, [12])])
def test_blocked_evaluation_matches_the_full_matrix(bundles, mode, images, sizes,
                                                    monkeypatch):
    bundle = bundles[mode]
    test = MAKE[mode](np.random.default_rng(22), 3, 5, 12, split_tag="test")
    X = encode_with_bundle(bundle, test)
    pred_full, scores_full = predict_batch(bundle.ensemble, X)
    seen = blocks_of(monkeypatch, bundle, images)
    pred, scores, labels = evaluate_bundle(bundle, test)
    assert [len(ids) for ids, _ in seen] == sizes
    assert sum((ids for ids, _ in seen), ()) == test.image_ids
    assert np.array_equal(pred, pred_full) and pred.dtype == pred_full.dtype
    np.testing.assert_allclose(scores, scores_full, rtol=1e-12, atol=1e-12)
    assert labels is test.labels
    blocked = np.vstack([Xb for _, Xb in seen])
    if mode == "hard" or len(sizes) == 1:
        assert blocked.tobytes() == X.tobytes()
    else:
        np.testing.assert_allclose(blocked, X, rtol=1e-12, atol=1e-12)
    if len(sizes) == 1:
        assert scores.tobytes() == scores_full.tobytes()


@pytest.mark.parametrize("mode", ["hard", "soft"])
def test_blocks_of_a_training_manifest_need_not_cover_every_class(bundles, mode,
                                                                   monkeypatch):
    bundle = bundles[mode]
    train = MAKE[mode](np.random.default_rng(23), 3, 5, 7, split_tag="train")
    seen = blocks_of(monkeypatch, bundle, 2)
    pred, _, _ = evaluate_bundle(bundle, train)
    assert len(seen) == 4
    assert np.array_equal(pred, predict_batch(bundle.ensemble,
                                              encode_with_bundle(bundle, train))[0])


def test_record_without_patches_in_a_later_block_is_named(bundles, monkeypatch):
    m = random_soft_manifest(np.random.default_rng(24), 3, 5, 10, split_tag="test")
    keep = m.image != 7
    empty = DatasetManifest.from_arrays(
        m.vocabulary, m.classes, m.split_tag, m.mode, m.image_ids, m.labels,
        m.domain_tags, m.image[keep], patch_id=m.patch_id[keep], scores=m.scores[keep])
    seen = blocks_of(monkeypatch, bundles["soft"], 3)
    with pytest.raises(FormatError, match="record 'img007' has no patches"):
        evaluate_bundle(bundles["soft"], empty)
    assert len(seen) == 2  # the blocks before it were encoded


@pytest.mark.parametrize("mode, other", [
    ("hard", lambda: random_hard_manifest(np.random.default_rng(25), 3, 6, 4)),
    ("hard", lambda: random_hard_manifest(np.random.default_rng(25), 4, 5, 4)),
    ("hard", lambda: random_soft_manifest(np.random.default_rng(25), 3, 5, 4)),
    ("soft", lambda: random_hard_manifest(np.random.default_rng(25), 3, 5, 4)),
], ids=["vocabulary", "classes", "soft-on-hard", "hard-on-soft"])
def test_mismatch_is_refused_before_any_block_is_encoded(bundles, mode, other,
                                                         monkeypatch):
    def refuse(*args):
        raise AssertionError("encoded a block")

    monkeypatch.setattr(pipeline, "encode_hard_manifest", refuse)
    monkeypatch.setattr(pipeline, "encode_soft_manifest", refuse)
    monkeypatch.setattr(pipeline, "_EVAL_BLOCK_BYTES", 1)
    with pytest.raises(CompatibilityError):
        evaluate_bundle(bundles[mode], other())


def test_blocked_evaluation_peak_memory(monkeypatch):
    rng = np.random.default_rng(26)
    config = PipelineConfig(mode="soft", object_count=5, pca_dim=20, codebook_size=20,
                            topic_count=1, sgd_lambdas=(1e-3,), sgd_eta0s=(0.5,),
                            sgd_epochs=1, seed=1)
    bundle = fit_pipeline(random_soft_manifest(rng, 4, 8, 40), config)
    test = random_soft_manifest(rng, 4, 8, 400, split_tag="test")
    dim = bundle.descriptor_dim()  # 400: a 1.28 MB descriptor matrix
    monkeypatch.setattr(pipeline, "_EVAL_BLOCK_BYTES", 8 * dim * 25)  # 16 blocks
    tracemalloc.start()
    try:
        pred_full, scores_full = predict_batch(bundle.ensemble,
                                               encode_with_bundle(bundle, test))
        _, full_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        pred, scores, _ = evaluate_bundle(bundle, test)
        _, blocked_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.array_equal(pred, pred_full)
    np.testing.assert_allclose(scores, scores_full, rtol=1e-12, atol=1e-12)
    assert blocked_peak < full_peak / 4, (blocked_peak, full_peak)


def test_confusion_matrix_matches_the_loop():
    rng = np.random.default_rng(27)
    for n_classes in (1, 3, 7):
        y_true = rng.integers(-1, n_classes, 200)
        y_pred = rng.integers(0, n_classes, 200)
        expected = np.zeros((n_classes, n_classes), dtype=np.int64)
        for t, p in zip(y_true, y_pred):
            if t >= 0:
                expected[t, p] += 1
        cm = confusion_matrix(y_true, y_pred, n_classes)
        assert cm.dtype == np.int64 and np.array_equal(cm, expected)
    assert not confusion_matrix([-1, -1], [0, 1], 2).any()


def test_check_counts_accepts_the_range_and_refuses_outside_it():
    train = random_hard_manifest(np.random.default_rng(3), 2, 5, 9)
    pipeline.check_counts(train, [1, 5], [1, 9])  # both ends of each range
    pipeline.check_counts(train)
    for counts, message in [
        (dict(object_counts=[3, 6]),
         r"object_count must be in \[1, 5\], the vocabulary size, got 6"),
        (dict(object_counts=[0]), r"object_count must be in \[1, 5\].*got 0"),
        (dict(topic_counts=[2, 10]),
         r"topic_count must be in \[1, 9\], the number of training images, got 10"),
        (dict(topic_counts=[0]), r"topic_count must be in \[1, 9\].*got 0"),
    ]:
        with pytest.raises(ValueError, match=message):
            pipeline.check_counts(train, **counts)


def test_check_counts_bounds_soft_pca_dim_and_codebook_size():
    # 12 records of 1 to 5 patches, 6 objects x 3 classes
    train = random_soft_manifest(np.random.default_rng(4), 3, 6, 12)
    patches = int(train.bounds[-1])
    soft = PipelineConfig(mode="soft", pca_dim=15, codebook_size=patches)
    pipeline.check_counts(train, [5, 6], config=soft)  # 15 = 5 x 3 <= patches
    # a hard config's soft keys, and a soft one without object counts, go unchecked
    pipeline.check_counts(train, [1], config=PipelineConfig(pca_dim=999))
    pipeline.check_counts(train, config=replace(soft, pca_dim=999))
    for counts, config, message in [
        ([6, 4], soft, rf"pca_dim must be in \[1, 12\], the smaller of the {patches} "
                       rf"training patches and 4 objects x 3 classes, got 15"),
        ([6], replace(soft, pca_dim=patches + 1),
         rf"pca_dim must be in \[1, {min(patches, 18)}\].*got {patches + 1}"),
        ([6], replace(soft, codebook_size=patches + 1),
         rf"codebook_size must be in \[1, {patches}\], the number of training patches, "
         rf"got {patches + 1}"),
    ]:
        with pytest.raises(ValueError, match=message):
            pipeline.check_counts(train, counts, config=config)
