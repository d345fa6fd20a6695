import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oomscene import (
    DimensionError,
    KMeansModel,
    assign_topics_batch,
    fit_codebook,
    fit_topics,
)
from oomscene import topics
from oomscene.topics import _plus_plus_init, _row_norms
from helpers import _oracle_squared_distances, oracle_fit_topics, oracle_plus_plus_init


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

    def test_inertia_non_increasing_over_iterations(self, monkeypatch):
        rng = np.random.default_rng(6)
        X = rng.random((60, 4))
        inertias = []
        for k in range(1, 12):
            monkeypatch.setattr(topics, "_MAX_ITER", k)
            inertias.append(fit_topics(X, 5, seed=2).inertia)
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


    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, 1e200])
    def test_non_finite_descriptors_refused(self, value):
        # 1e200 is finite, but its squared norm overflows
        X = np.random.default_rng(14).random((6, 3))
        X[4, 1] = value
        with pytest.raises(ValueError, match="finite"):
            fit_topics(X, 2, seed=0)

    def test_non_finite_centroids_refused(self):
        with pytest.raises(ValueError, match="finite"):
            KMeansModel(np.array([[0.0, np.nan]]), 0.0, 1)

    def test_no_copy_of_the_descriptors(self):
        # X * X or X[members] would each allocate X.nbytes (64 MB)
        X = np.random.default_rng(15).random((400, 20000))
        tracemalloc.start()
        try:
            model = fit_topics(X, 1, 0)
            _, fit_peak = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            assign_topics_batch(model, X)
            _, assign_peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert fit_peak < X.nbytes / 2
        assert assign_peak < X.nbytes / 2


@st.composite
def kmeans_problems(draw):
    """(X, k, seed): up to 30 rows, some of them repeated, on a coarse grid
    or not, scaled and shifted by a common offset as large as 1e6."""
    n = draw(st.integers(1, 30))
    dim = draw(st.integers(1, 8))
    k = draw(st.integers(1, n))
    distinct = draw(st.integers(1, n))  # fewer distinct rows than k forces repairs
    step = draw(st.sampled_from([0.0, 1e-3, 0.5]))
    scale = draw(st.sampled_from([1.0, 1e-3, 1e3]))
    offset = draw(st.sampled_from([0.0, -2.5, 1e6]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = rng.standard_normal((distinct, dim))
    if step:
        rows = np.round(rows / step) * step
    X = rows[rng.integers(distinct, size=n)] * scale + offset
    return X, k, draw(st.integers(0, 2**16))


class TestDirectFormOracle:
    """The pruned seeding and the Lloyd steps on row norms computed once give
    the direct-form k-means bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(kmeans_problems())
    def test_seeding_matches_oracle(self, problem):
        X, k, seed = problem
        rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        centers = _plus_plus_init(X, _row_norms(X), k, rng)
        assert centers.tobytes() == oracle_plus_plus_init(X, k, oracle_rng).tobytes()
        assert rng.integers(2**62) == oracle_rng.integers(2**62)

    @settings(max_examples=300, deadline=None)
    @given(kmeans_problems())
    def test_fit_matches_oracle(self, problem):
        X, k, seed = problem
        model = fit_topics(X, k, seed)
        centroids, inertia, iterations = oracle_fit_topics(X, k, seed)
        assert model.centroids.tobytes() == centroids.tobytes()
        assert model.inertia == inertia
        assert model.iterations_run == iterations

    @settings(max_examples=300, deadline=None)
    @given(kmeans_problems(), st.integers(0, 6))
    def test_fit_matches_oracle_at_any_iteration_cap(self, problem, max_iter):
        # a loop that stops on a repeated assignment counts the pass it skips
        # only up to the cap
        X, k, seed = problem
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(topics, "_MAX_ITER", max_iter)
            model = fit_topics(X, k, seed)
        centroids, inertia, iterations = oracle_fit_topics(X, k, seed, max_iter=max_iter)
        assert model.centroids.tobytes() == centroids.tobytes()
        assert model.inertia == inertia
        assert model.iterations_run == iterations

    @settings(max_examples=300, deadline=None)
    @given(kmeans_problems())
    def test_codebook_matches_oracle(self, problem):
        # sigma's labels come from the loop's last distances, not a new pass
        X, k, seed = problem
        cb = fit_codebook(X, k, seed)
        centroids, _, _ = oracle_fit_topics(X, k, seed)
        labels = _oracle_squared_distances(X, centroids).argmin(axis=1)
        sigma = float(np.sqrt(((X - centroids[labels]) ** 2).sum(axis=1)).mean())
        assert cb.centers.tobytes() == centroids.tobytes()
        assert cb.sigma == (sigma if sigma > 0.0 else 1.0)

    def test_a_repeated_assignment_ends_the_loop(self, monkeypatch):
        # the oracle computes distances once per pass it counts and once more
        # for the inertia; the repeated pass and the recount are skipped
        X, _ = blobs(np.random.default_rng(17), [[0, 0], [5, 5], [0, 5]], 30)
        calls, distances = [], topics._squared_distances

        def spy(*args):
            calls.append(1)
            return distances(*args)

        monkeypatch.setattr(topics, "_squared_distances", spy)
        model = fit_topics(X, 3, seed=0)
        _, inertia, iterations = oracle_fit_topics(X, 3, 0)
        assert model.iterations_run == iterations >= 2
        assert model.inertia == inertia
        assert len(calls) == iterations - 1

    # blocks of one wide row, and blocks of many narrow rows
    @pytest.mark.parametrize("shape", [(7, 200000), (5000, 50)])
    def test_row_norms_match_the_whole_matrix_expression(self, shape):
        X = np.random.default_rng(16).standard_normal(shape)
        assert _row_norms(X).tobytes() == (X * X).sum(axis=1).tobytes()


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
