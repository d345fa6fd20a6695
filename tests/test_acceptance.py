"""Acceptance suite: one test per criterion, each printing a PASS line.

Criteria 5-7 share one synthetic cross-domain harness (5 fixed seeds,
6 classes, 40 objects, 3 hidden topics, 100 train / 100 target images per
class, score offset +0.15).  Source accuracy is measured on the training
manifest itself: the harness budget has no held-out source split, so the
drop is train-set accuracy minus target accuracy, identically for both
encoders.
"""

import time

import numpy as np
import pytest

from oomscene import (
    ClassPrior,
    DomainShift,
    HardDetection,
    OccurrenceModel,
    PyramidLayout,
    SgdConfig,
    ThresholdGrid,
    adjusted_rand_index,
    apply_shift,
    assign_topics_batch,
    build_occurrence_model,
    build_posterior_model,
    discriminability_profile,
    encode_hard_manifest,
    encode_rawscore_manifest,
    encode_soft_manifest,
    fit_codebook,
    fit_topics,
    generate,
    hidden_topics,
    planted_spec,
    predict_batch,
    select_objects,
    soft_assignments,
    train_ensemble,
    vlad,
)
from oomscene.cli import main
from oomscene.pipeline import class_mean_accuracy
from oomscene.bundle import load_bundle
from oomscene.ingest import parse_manifest, write_manifest
from helpers import (
    binary_svm,
    dense_patch_rows,
    dense_project,
    dense_reconstruct,
    fit_pca_dense,
    fit_pca_per_object,
    hard_record,
    hinge_objective,
    one_record_manifest,
    oracle_batch_subgradient,
    oracle_discriminability,
    oracle_occurrence,
    oracle_posterior_cell,
    oracle_vlad,
    random_box,
    random_hard_manifest,
    random_soft_manifest,
)

HARNESS_SEEDS = (11, 22, 33, 44, 55)
N_CLASSES, N_OBJECTS, N_TOPICS, IMAGES_PER_CLASS = 6, 40, 3, 100
OFFSET = 0.15


def report(criterion, text):
    print(f"[criterion {criterion}] PASS — {text}")


def _class_mean(ens, X, y, pooling="average"):
    pred, _ = predict_batch(ens, X, pooling=pooling)
    return class_mean_accuracy(y, pred, N_CLASSES)


def _run_harness_seed(seed):
    spec = planted_spec(N_CLASSES, N_OBJECTS, N_TOPICS, IMAGES_PER_CLASS,
                        seed=seed)
    source, target_clean = generate(spec)  # identity shift: held-out draw
    target = apply_shift(target_clean, DomainShift(OFFSET, 1.0, 0.0),
                         seed=seed + 900)
    grid = ThresholdGrid(0.0, 1.0, 0.05)
    post = build_posterior_model(build_occurrence_model(source, grid),
                                 ClassPrior.uniform(N_CLASSES))
    sel = select_objects(post, N_OBJECTS)
    X_train = encode_hard_manifest(source, post, sel)
    X_target = encode_hard_manifest(target, post, sel)
    R_train = encode_rawscore_manifest(source, N_OBJECTS)
    R_target = encode_rawscore_manifest(target, N_OBJECTS)
    y_train, y_target = source.labels, target_clean.labels

    cfg = SgdConfig(lam=1e-5, eta0=0.5)
    ens_oom = train_ensemble(X_train, y_train, N_CLASSES,
                             fit_topics(X_train, 1, seed), [cfg], folds=5,
                             epochs=20, seed=seed)
    ens_raw = train_ensemble(R_train, y_train, N_CLASSES,
                             fit_topics(R_train, 1, seed), [cfg], folds=5,
                             epochs=20, seed=seed)
    topics = fit_topics(X_train, N_TOPICS, seed)
    ens_topics = train_ensemble(X_train, y_train, N_CLASSES, topics, [cfg],
                                folds=5, epochs=20, seed=seed)
    cluster_labels, _ = assign_topics_batch(topics, X_train)

    return {
        "drop_oom": _class_mean(ens_oom, X_train, y_train)
        - _class_mean(ens_oom, X_target, y_target),
        "drop_raw": _class_mean(ens_raw, R_train, y_train)
        - _class_mean(ens_raw, R_target, y_target),
        "acc_d1": _class_mean(ens_oom, X_target, y_target),
        "acc_topics_avg": _class_mean(ens_topics, X_target, y_target),
        "acc_topics_max": _class_mean(ens_topics, X_target, y_target, "max"),
        "ari": adjusted_rand_index(cluster_labels, hidden_topics(source)),
    }


@pytest.fixture(scope="session")
def harness():
    start = time.perf_counter()
    results = [_run_harness_seed(seed) for seed in HARNESS_SEEDS]
    elapsed = time.perf_counter() - start
    return results, elapsed


def test_criterion_1_occurrence_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    for trial in range(25):
        n_cls = int(rng.integers(2, 6))
        n_obj = int(rng.integers(2, 11))
        n_img = int(rng.integers(n_cls, 31))
        m = random_hard_manifest(rng, n_cls, n_obj, n_img)
        grid = ThresholdGrid(0.0, 1.0, float(rng.choice([0.05, 0.1, 0.25])))
        oom = build_occurrence_model(m, grid)
        np.testing.assert_array_equal(oom.probs, oracle_occurrence(m, grid))
        assert np.all(np.diff(oom.probs, axis=2) <= 0)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    report(1, f"25 manifests equal the brute-force recount exactly, "
              f"monotone along thresholds ({elapsed:.2f}s)")


def test_criterion_2_posterior_normalization_and_bayes_oracle():
    rng = np.random.default_rng(2025)
    checked = 0
    for trial in range(25):
        n_cls = int(rng.integers(2, 6))
        n_obj = int(rng.integers(2, 9))
        m = random_hard_manifest(rng, n_cls, n_obj, int(rng.integers(n_cls, 25)))
        grid = ThresholdGrid(0.0, 1.0, 0.1)
        oom = build_occurrence_model(m, grid)
        w = rng.random(n_cls) + 0.1
        prior = ClassPrior(w / w.sum())
        post = build_posterior_model(oom, prior)
        sums = post.posteriors.sum(axis=1)
        ok = ~post.fallback_mask
        np.testing.assert_allclose(sums[ok], 1.0, atol=1e-9, rtol=0)
        for o in range(n_obj):
            for t in range(len(grid)):
                cell = oracle_posterior_cell(oom.probs, prior.weights, o, t)
                if cell is None:
                    assert post.fallback_mask[o, t]
                    np.testing.assert_array_equal(post.posteriors[o, :, t],
                                                  prior.weights)
                else:
                    np.testing.assert_allclose(post.posteriors[o, :, t], cell,
                                               atol=1e-12, rtol=0)
                    checked += 1
    report(2, f"non-fallback columns sum to 1 (1e-9) and match the Bayes "
              f"oracle entrywise (1e-12) over {checked} cells in 25 models")


def test_criterion_3_discriminability_oracle_and_planted_ranking():
    rng = np.random.default_rng(2026)
    # 1000 random posterior columns, exact sort-and-scan agreement
    for _ in range(1000):
        n_cls = int(rng.integers(2, 8))
        col = rng.random(n_cls)
        col /= col.sum()
        grid = ThresholdGrid(0.0, 1.0, 1.0)
        probs = np.zeros((1, n_cls, 2))
        probs[0, :, 0] = col
        probs[0, :, 1] = col
        post = build_posterior_model(OccurrenceModel(grid, probs),
                                     ClassPrior.uniform(n_cls))
        stored = post.posteriors[0, :, 0]
        assert discriminability_profile(post)[0, 0] == oracle_discriminability(stored)

    # planted one-hot occurrence objects always outrank uniform objects
    for trial in range(10):
        n_obj, n_cls = 12, int(rng.integers(3, 6))
        probs = np.full((n_obj, n_cls, 5), float(rng.uniform(0.3, 0.7)))
        planted = sorted(rng.choice(n_obj, size=4, replace=False))
        for i, o in enumerate(planted):
            probs[o] = 0.0
            probs[o, int(rng.integers(n_cls)), :] = float(rng.uniform(0.5, 0.9))
        grid = ThresholdGrid(0.0, 1.0, 0.25)
        post = build_posterior_model(OccurrenceModel(grid, probs),
                                     ClassPrior.uniform(n_cls))
        sel = select_objects(post, 4)
        assert set(sel.selected) == set(int(o) for o in planted)
    report(3, "sort-and-scan oracle matches exactly on 1000 columns; planted "
              "class-specific objects always outrank uniform ones")


def test_criterion_4_descriptor_dimensional_contract():
    rng = np.random.default_rng(2027)
    n_obj, n_cls = 150, 18
    probs = rng.random((n_obj, n_cls, 21))
    grid = ThresholdGrid(0.0, 1.0, 0.05)
    post = build_posterior_model(OccurrenceModel(grid, probs),
                                 ClassPrior.uniform(n_cls))
    sel = select_objects(post, 140)
    rec = hard_record([HardDetection(sel.selected[0], 0.5, (0.1, 0.1, 0.4, 0.4))])
    vec = encode_hard_manifest(one_record_manifest(rec, n_obj), post, sel, PyramidLayout())[0]
    assert vec.size == 140 * 18 * 8 == 20160
    report(4, "hard descriptor length is exactly 20160 for 140 objects, "
              "18 classes, 1x1+2x2+3x1 pyramid")


def test_criterion_5_quantization_robustness(harness):
    results, elapsed = harness
    assert elapsed < 300.0
    mean_drop_oom = float(np.mean([r["drop_oom"] for r in results]))
    mean_drop_raw = float(np.mean([r["drop_raw"] for r in results]))
    assert mean_drop_oom <= mean_drop_raw

    # sub-grid perturbation leaves the descriptor bit-identical
    rng = np.random.default_rng(31337)
    spec = planted_spec(N_CLASSES, N_OBJECTS, N_TOPICS, 20, seed=11)
    source, _ = generate(spec)
    grid = ThresholdGrid(0.0, 1.0, 0.05)
    post = build_posterior_model(build_occurrence_model(source, grid),
                                 ClassPrior.uniform(N_CLASSES))
    sel = select_objects(post, N_OBJECTS)
    for _ in range(20):
        dets, moved = [], []
        for _ in range(12):
            base = float(grid.values[rng.integers(len(grid.values))])
            delta = float(rng.uniform(-0.012, 0.012))
            eps = float(rng.uniform(-0.009, 0.009))
            obj = int(rng.integers(N_OBJECTS))
            box = random_box(rng)
            dets.append(HardDetection(obj, base + delta, box))
            moved.append(HardDetection(obj, base + delta + eps, box))
        np.testing.assert_array_equal(
            encode_hard_manifest(one_record_manifest(hard_record(dets), N_OBJECTS), post, sel),
            encode_hard_manifest(one_record_manifest(hard_record(moved), N_OBJECTS), post, sel))
    report(5, f"mean drop {mean_drop_oom:+.4f} (posterior descriptor) <= "
              f"{mean_drop_raw:+.4f} (raw baseline) over 5 seeds; sub-grid "
              f"perturbations leave descriptors bit-identical "
              f"(harness {elapsed:.0f}s)")


def test_criterion_6_semantic_clustering_gain(harness):
    results, _ = harness
    wins = sum(r["acc_topics_avg"] >= r["acc_d1"] for r in results)
    assert wins >= 4
    mean_avg = float(np.mean([r["acc_topics_avg"] for r in results]))
    mean_max = float(np.mean([r["acc_topics_max"] for r in results]))
    assert mean_avg >= mean_max
    report(6, f"per-topic ensemble >= single model in {wins}/5 seeds; "
              f"average pooling {mean_avg:.3f} >= max pooling {mean_max:.3f}")


def test_criterion_7_clustering_recovery(harness):
    results, _ = harness
    median_ari = float(np.median([r["ari"] for r in results]))
    assert median_ari >= 0.8
    report(7, f"5-seed median adjusted Rand vs hidden topics = {median_ari:.2f}")


def test_criterion_8_svm_optimizer_check():
    rng = np.random.default_rng(2028)
    # separable problems reach zero hinge loss
    for trial in range(5):
        pos = rng.standard_normal((25, 2)) * 0.5 + 2.5
        neg = rng.standard_normal((25, 2)) * 0.5 - 2.5
        cfg = SgdConfig(lam=1e-5, eta0=0.5)
        clf = binary_svm(pos, neg, cfg, epochs=60, seed=trial)
        X = np.vstack([pos, neg])
        y = np.concatenate([np.ones(25), -np.ones(25)])
        assert np.all(y * (X @ clf.weights + clf.bias) >= 1.0)
    # non-separable problems land within 5% of the batch oracle
    ratios = []
    for trial in range(3):
        pos = rng.standard_normal((30, 2)) + 0.6
        neg = rng.standard_normal((30, 2)) - 0.6
        cfg = SgdConfig(lam=0.01, eta0=0.5)
        clf = binary_svm(pos, neg, cfg, epochs=120, seed=trial)
        X = np.vstack([pos, neg])
        y = np.concatenate([np.ones(30), -np.ones(30)])
        obj = hinge_objective(clf.weights, clf.bias, X, y, cfg.lam)
        oracle_obj, _, _ = oracle_batch_subgradient(X, y, cfg.lam, iters=20000)
        ratios.append(obj / oracle_obj)
        assert obj <= 1.05 * oracle_obj
    report(8, f"zero hinge loss on 5 separable problems; non-separable "
              f"objective ratios vs batch oracle: "
              f"{', '.join(f'{r:.4f}' for r in ratios)}")


def test_criterion_9_soft_path_checks():
    rng = np.random.default_rng(2029)
    # PCA reconstructs rank-deficient data losslessly
    basis = rng.standard_normal((8, 3))
    X = rng.standard_normal((40, 3)) @ basis.T + rng.standard_normal(8)
    pca = fit_pca_dense(X, 3)
    np.testing.assert_allclose(dense_reconstruct(pca, dense_project(pca, X)), X, atol=1e-6)

    # soft pipeline pieces against oracles
    m = random_soft_manifest(rng, 2, 4, 12)
    grid = ThresholdGrid(0.0, 1.0, 0.1)
    post = build_posterior_model(build_occurrence_model(m, grid),
                                 ClassPrior.uniform(2))
    sel = select_objects(post, 4)
    samples = dense_patch_rows(m, post, sel)
    pca2 = fit_pca_per_object(samples.reshape(len(samples), 4, 2), 5)
    cb = fit_codebook(dense_project(pca2, samples), 3, seed=1)
    for rec in m.records[:6]:
        V = dense_project(pca2, dense_patch_rows(one_record_manifest(rec, 4), post, sel))
        W = soft_assignments(cb, V)
        assert np.all(W >= 0)
        np.testing.assert_allclose(W.sum(axis=1), 1.0, atol=1e-12)
        raw = vlad(W, V, cb.centers).reshape(-1)
        np.testing.assert_allclose(raw, oracle_vlad(V, cb.centers, cb.sigma),
                                   atol=1e-9)
        out1 = encode_soft_manifest(one_record_manifest(rec, 4), post, sel, pca2, cb)[0]
        from oomscene.ingest import ImageRecord
        shuffled = ImageRecord(rec.image_id, rec.scene_class,
                               tuple(rec.detections[::-1]), "soft")
        out2 = encode_soft_manifest(one_record_manifest(shuffled, 4), post, sel, pca2, cb)[0]
        np.testing.assert_allclose(out1, out2, atol=1e-10)
    report(9, "PCA lossless on rank-deficient data (1e-6); VLAD matches the "
              "double-loop oracle (1e-9); weights sum to 1; patch-order "
              "invariant (1e-10)")


def test_criterion_10_determinism_and_persistence(tmp_path):
    spec = planted_spec(3, 12, 2, 15, shift=DomainShift(0.1, 1.0, 0.0), seed=21)
    source, target = generate(spec)
    write_manifest(source, tmp_path / "train.txt")
    write_manifest(target, tmp_path / "test.txt")
    small = ["--set", "object_count=8", "--set", "topic_count=2",
             "--set", "sgd_lambdas=1e-4", "--set", "sgd_eta0s=0.5",
             "--set", "sgd_epochs=8", "--set", "seed=5"]
    artifacts = []
    for name in ("run1", "run2"):
        bundle_path = tmp_path / f"{name}.bundle"
        assert main(["train", "--train", str(tmp_path / "train.txt"),
                     "--out", str(bundle_path)] + small) == 0
        prefix = tmp_path / name
        assert main(["eval", "--bundle", str(bundle_path),
                     "--test", str(tmp_path / "test.txt"),
                     "--out-prefix", str(prefix)]) == 0
        artifacts.append((
            bundle_path.read_bytes(),
            (tmp_path / f"{name}_metrics.csv").read_bytes(),
            (tmp_path / f"{name}_predictions.csv").read_bytes(),
            (tmp_path / f"{name}_confusion.csv").read_bytes(),
        ))
    assert artifacts[0] == artifacts[1]

    # save -> load -> predict is bit-identical
    from oomscene.pipeline import encode_with_bundle
    bundle = load_bundle(tmp_path / "run1.bundle")
    test = parse_manifest(tmp_path / "test.txt")
    X1 = encode_with_bundle(bundle, test)
    pred1, scores1 = predict_batch(bundle.ensemble, X1)
    bundle2 = load_bundle(tmp_path / "run1.bundle")
    X2 = encode_with_bundle(bundle2, test)
    pred2, scores2 = predict_batch(bundle2.ensemble, X2)
    np.testing.assert_array_equal(X1, X2)
    np.testing.assert_array_equal(pred1, pred2)
    np.testing.assert_array_equal(scores1, scores2)
    report(10, "train+eval twice is byte-identical (bundle, metrics, "
               "predictions, confusion); bundle round-trip predictions are "
               "bit-identical")
