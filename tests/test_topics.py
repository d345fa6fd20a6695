import numpy as np
import pytest

from oomscene import (
    DimensionError,
    assign_topics_batch,
    fit_topics,
)


def blobs(rng, centers, per_blob, spread=0.05):
    pts, labels = [], []
    for i, c in enumerate(centers):
        pts.append(np.asarray(c) + spread * rng.standard_normal((per_blob, len(c))))
        labels.extend([i] * per_blob)
    return np.vstack(pts), np.array(labels)


class TestFitTopics:
    def test_k_equals_distinct_points_gives_zero_inertia(self):
        rng = np.random.default_rng(1)
        X = rng.random((6, 3))
        model = fit_topics(X, 6, seed=0)
        assert model.inertia == pytest.approx(0.0, abs=1e-20)

    def test_two_blobs_partition_exactly(self):
        rng = np.random.default_rng(2)
        X, truth = blobs(rng, [(0.0, 0.0), (10.0, 10.0)], 30)
        model = fit_topics(X, 2, seed=3)
        labels, _ = assign_topics_batch(model, X)
        same = (labels == truth).mean()
        assert same in (0.0, 1.0)  # up to cluster relabeling

    def test_single_topic_is_mean(self):
        rng = np.random.default_rng(4)
        X = rng.random((20, 5))
        model = fit_topics(X, 1, seed=0)
        np.testing.assert_allclose(model.centroids[0], X.mean(axis=0), atol=1e-12)

    def test_too_many_topics(self):
        with pytest.raises(ValueError):
            fit_topics(np.zeros((3, 2)), 4, seed=0)

    def test_ragged_input(self):
        with pytest.raises(DimensionError):
            fit_topics([[1.0, 2.0], [1.0]], 1, seed=0)

    def test_deterministic(self):
        rng = np.random.default_rng(5)
        X = rng.random((40, 6))
        a = fit_topics(X, 4, seed=9)
        b = fit_topics(X, 4, seed=9)
        np.testing.assert_array_equal(a.centroids, b.centroids)
        assert a.inertia == b.inertia
        assert a.iterations_run == b.iterations_run

    def test_inertia_non_increasing_over_iterations(self):
        rng = np.random.default_rng(6)
        X = rng.random((60, 4))
        inertias = [fit_topics(X, 5, seed=2, max_iter=k).inertia
                    for k in range(1, 12)]
        assert all(a >= b - 1e-12 for a, b in zip(inertias, inertias[1:]))

    def test_inertia_recomputable(self):
        rng = np.random.default_rng(7)
        X = rng.random((30, 4))
        model = fit_topics(X, 3, seed=1)
        _, dists = assign_topics_batch(model, X)
        assert model.inertia == pytest.approx(float((dists**2).sum()), rel=1e-9)

    def test_final_assignments_are_true_nearest(self):
        rng = np.random.default_rng(8)
        X = rng.random((50, 3))
        model = fit_topics(X, 4, seed=2)
        labels, _ = assign_topics_batch(model, X)
        for i in range(len(X)):
            d2 = ((model.centroids - X[i]) ** 2).sum(axis=1)
            assert d2[labels[i]] == d2.min()

    def test_duplicate_points_do_not_crash(self):
        X = np.array([[0.0, 0.0]] * 5 + [[10.0, 0.0]])
        model = fit_topics(X, 3, seed=0)
        assert np.isfinite(model.inertia)
        assert model.centroids.shape == (3, 2)


class TestAssignTopic:
    def test_exact_centroid(self):
        rng = np.random.default_rng(9)
        X = rng.random((12, 4))
        model = fit_topics(X, 4, seed=0)
        labels, dists = assign_topics_batch(model, model.centroids[3][None, :])
        assert labels[0] == 3
        assert dists[0] == pytest.approx(0.0, abs=1e-9)

    def test_tie_goes_to_lower_index(self):
        rng = np.random.default_rng(10)
        X = np.array([[1.0, 0.0], [-1.0, 0.0], [1.0, 0.1], [-1.0, 0.1]])
        model = fit_topics(X, 2, seed=0)
        # midpoint of the two centroids is equidistant
        mid = model.centroids.mean(axis=0)
        assert assign_topics_batch(model, mid[None, :])[0][0] == 0

    def test_matches_bruteforce_scan(self):
        rng = np.random.default_rng(11)
        X = rng.random((40, 5))
        model = fit_topics(X, 6, seed=4)
        for _ in range(50):
            v = rng.random(5)
            d2 = [float(((c - v) ** 2).sum()) for c in model.centroids]
            assert assign_topics_batch(model, v[None, :])[0][0] == int(np.argmin(d2))

    def test_dimension_mismatch(self):
        rng = np.random.default_rng(12)
        model = fit_topics(rng.random((10, 4)), 2, seed=0)
        with pytest.raises(DimensionError):
            assign_topics_batch(model, np.zeros((1, 5)))
