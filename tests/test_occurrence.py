import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oomscene import (
    ClassPrior,
    DatasetManifest,
    HardDetection,
    ImageRecord,
    ModelError,
    OccurrenceModel,
    ThresholdGrid,
    build_occurrence_model,
    build_posterior_model,
    discriminability_profile,
    score_grid_indices,
    select_objects,
)
from helpers import (
    hard_record,
    make_classes,
    make_vocab,
    oracle_discriminability,
    oracle_grid_index,
    oracle_last_valid,
    oracle_occurrence,
    oracle_posterior_cell,
    random_hard_manifest,
    random_soft_manifest,
)

BOX = (0.1, 0.1, 0.5, 0.5)


class TestThresholdGrid:
    def test_default_grid_has_21_points(self):
        g = ThresholdGrid(0.0, 1.0, 0.05)
        assert len(g) == 21
        assert g.values[0] == 0.0
        assert g.values[-1] == 1.0
        assert np.all(np.diff(g.values) > 0)

    def test_values_respect_bounds(self):
        g = ThresholdGrid(0.2, 0.9, 0.3)
        np.testing.assert_allclose(g.values, [0.2, 0.5, 0.8])

    def test_invalid_grids(self):
        with pytest.raises(ValueError):
            ThresholdGrid(0.5, 0.5, 0.1)
        with pytest.raises(ValueError):
            ThresholdGrid(0.0, 1.0, -0.1)
        with pytest.raises(ValueError):
            ThresholdGrid(0.0, 0.05, 0.2)  # single point
        # a step from a forged bundle or config must not allocate 10**7 or
        # infinitely many points
        for step in (1e-7, 1e-320):
            with pytest.raises(ValueError, match="points"):
                ThresholdGrid(0.0, 1.0, step)


def small_manifest():
    """Class 0: object 0 present above 0.5 in 3 of 4 images."""
    recs = []
    scores = [0.9, 0.7, 0.6, 0.2]
    for i, s in enumerate(scores):
        recs.append(hard_record([HardDetection(0, s, BOX)], f"a{i}", 0))
    recs.append(hard_record([HardDetection(1, 0.5, BOX)], "b0", 1))
    return DatasetManifest(make_vocab(2), make_classes(2), tuple(recs),
                           "train", "hard")


class TestOccurrenceModel:
    def test_fraction_above_threshold(self):
        m = small_manifest()
        oom = build_occurrence_model(m, ThresholdGrid(0.0, 1.0, 0.5))
        # grid 0.0, 0.5, 1.0; at 0.5 object 0 present in 3 of 4 class-0 images
        assert oom.probs[0, 0, 1] == 0.75

    def test_all_present_below_every_score(self):
        m = small_manifest()
        oom = build_occurrence_model(m, ThresholdGrid(0.0, 1.0, 0.1))
        assert oom.probs[0, 0, 0] == 1.0

    def test_matches_bruteforce_oracle_exactly(self):
        rng = np.random.default_rng(42)
        m = random_hard_manifest(rng, 3, 5, 20)
        grid = ThresholdGrid(0.0, 1.0, 0.1)
        oom = build_occurrence_model(m, grid)
        np.testing.assert_array_equal(oom.probs, oracle_occurrence(m, grid))

    def test_monotone_along_thresholds(self):
        rng = np.random.default_rng(5)
        m = random_hard_manifest(rng, 3, 6, 24)
        oom = build_occurrence_model(m, ThresholdGrid(0.0, 1.0, 0.05))
        assert np.all(np.diff(oom.probs, axis=2) <= 0)

    def test_probabilities_in_range(self):
        rng = np.random.default_rng(6)
        m = random_hard_manifest(rng, 2, 4, 10)
        oom = build_occurrence_model(m, ThresholdGrid(0.0, 1.0, 0.2))
        assert np.all((oom.probs >= 0) & (oom.probs <= 1))

    @pytest.mark.parametrize("value", [-1e-300, 1.0000000000000002])
    def test_probabilities_outside_the_unit_interval_refused(self, value):
        probs = np.zeros((2, 2, 3))
        probs[1, 0, 2] = value
        with pytest.raises(ValueError, match=r"occurrence probabilities must lie in \[0, 1\]"):
            OccurrenceModel(ThresholdGrid(0.0, 1.0, 0.5), probs)

    def test_empty_class_raises_with_name(self):
        m = small_manifest()
        bad = DatasetManifest(m.vocabulary, make_classes(3),
                              m.records, "test", "hard")
        with pytest.raises(ModelError, match="cls2"):
            build_occurrence_model(bad, ThresholdGrid())

    def test_one_class_refused_before_counting(self):
        # discriminability needs two classes, but used to fail only after the
        # occurrence and posterior models were built
        recs = [hard_record([HardDetection(0, 0.5, BOX)], f"a{i}", 0) for i in range(3)]
        m = DatasetManifest(make_vocab(2), make_classes(1), tuple(recs), "train", "hard")
        with pytest.raises(ModelError, match="at least 2 scene classes, got 1"):
            build_occurrence_model(m, ThresholdGrid())

    def test_soft_manifest_uses_best_patch_score(self):
        rng = np.random.default_rng(8)
        m = random_soft_manifest(rng, 2, 3, 8)
        grid = ThresholdGrid(0.0, 1.0, 0.25)
        oom = build_occurrence_model(m, grid)
        # recount from patch maxima
        for c in range(2):
            recs = [r for r in m.records if r.scene_class == c]
            for o in range(3):
                for t, theta in enumerate(grid.values):
                    count = sum(
                        1 for r in recs
                        if max(p.scores[o] for p in r.detections) >= theta
                    )
                    assert oom.probs[o, c, t] == count / len(recs)


class TestClassPrior:
    def test_uniform(self):
        np.testing.assert_allclose(ClassPrior.uniform(4).weights, 0.25)

    def test_empirical_counts_labeled_records(self):
        recs = [hard_record([], f"i{k}", c)
                for k, c in enumerate([0, 0, 0, 1, None, 1, 0])]
        m = DatasetManifest(make_vocab(2), make_classes(2), tuple(recs),
                            "test", "hard")
        np.testing.assert_allclose(ClassPrior.empirical(m).weights,
                                   [4 / 6, 2 / 6])

    def test_validation(self):
        with pytest.raises(ValueError):
            ClassPrior(np.array([0.5, 0.6]))
        with pytest.raises(ValueError):
            ClassPrior(np.array([-0.1, 1.1]))


class TestPosteriorModel:
    def test_bayes_with_uniform_prior(self):
        grid = ThresholdGrid(0.0, 1.0, 0.5)
        probs = np.zeros((1, 2, 3))
        probs[0, 0, :] = 0.9
        probs[0, 1, :] = 0.1
        post = build_posterior_model(OccurrenceModel(grid, probs),
                                     ClassPrior.uniform(2))
        np.testing.assert_allclose(post.posteriors[0, :, 0], [0.9, 0.1])

    def test_zero_denominator_falls_back_to_prior(self):
        grid = ThresholdGrid(0.0, 1.0, 0.5)
        probs = np.zeros((1, 2, 3))
        prior = ClassPrior(np.array([0.7, 0.3]))
        post = build_posterior_model(OccurrenceModel(grid, probs), prior)
        assert post.fallback_mask.all()
        np.testing.assert_array_equal(post.posteriors[0, :, 0], [0.7, 0.3])

    def test_matches_oracle_bayes(self):
        rng = np.random.default_rng(12)
        grid = ThresholdGrid(0.0, 1.0, 0.5)
        probs = rng.random((4, 3, 3))
        prior = ClassPrior(np.array([0.5, 0.3, 0.2]))
        post = build_posterior_model(OccurrenceModel(grid, probs), prior)
        for o in range(4):
            for t in range(3):
                cell = oracle_posterior_cell(probs, prior.weights, o, t)
                np.testing.assert_allclose(post.posteriors[o, :, t], cell,
                                           atol=1e-12, rtol=0)

    def test_normalization(self):
        rng = np.random.default_rng(13)
        m = random_hard_manifest(rng, 3, 5, 15)
        oom = build_occurrence_model(m, ThresholdGrid(0.0, 1.0, 0.05))
        post = build_posterior_model(oom, ClassPrior.uniform(3))
        sums = post.posteriors.sum(axis=1)
        ok = ~post.fallback_mask
        np.testing.assert_allclose(sums[ok], 1.0, atol=1e-9, rtol=0)

    def test_one_hot_prior_sanity(self):
        rng = np.random.default_rng(14)
        grid = ThresholdGrid(0.0, 1.0, 0.25)
        probs = rng.random((3, 3, 5))
        prior = ClassPrior(np.array([0.0, 1.0, 0.0]))
        post = build_posterior_model(OccurrenceModel(grid, probs), prior)
        ok = ~post.fallback_mask
        assert ok.any()
        for o in range(3):
            for t in range(5):
                if ok[o, t]:
                    assert probs[o, 1, t] > 0
                    np.testing.assert_allclose(post.posteriors[o, :, t],
                                               [0.0, 1.0, 0.0], atol=1e-12)

    def test_last_valid_fallback_carries_forward(self):
        grid = ThresholdGrid(0.0, 1.0, 0.25)  # 5 points
        probs = np.zeros((1, 2, 5))
        probs[0, 0, :2] = [0.8, 0.4]
        probs[0, 1, :2] = [0.2, 0.4]
        post = build_posterior_model(OccurrenceModel(grid, probs),
                                     ClassPrior.uniform(2), fallback="last-valid")
        np.testing.assert_allclose(post.posteriors[0, :, 1], [0.5, 0.5])
        for t in (2, 3, 4):
            assert post.fallback_mask[0, t]
            np.testing.assert_allclose(post.posteriors[0, :, t], [0.5, 0.5])

    def test_last_valid_with_no_valid_cell_uses_prior(self):
        grid = ThresholdGrid(0.0, 1.0, 0.5)
        probs = np.zeros((1, 2, 3))
        prior = ClassPrior(np.array([0.6, 0.4]))
        post = build_posterior_model(OccurrenceModel(grid, probs), prior,
                                     fallback="last-valid")
        np.testing.assert_array_equal(post.posteriors[0, :, 0], [0.6, 0.4])

    def test_last_valid_matches_the_scan_oracle(self):
        # flagged cells anywhere on the threshold axis, not only a suffix,
        # and one object flagged at every threshold
        rng = np.random.default_rng(16)
        grid = ThresholdGrid(0.0, 1.0, 0.05)
        for _ in range(20):
            probs = rng.random((30, 4, len(grid))) * (rng.random((30, 1, len(grid))) > 0.4)
            probs[rng.integers(30)] = 0.0
            oom = OccurrenceModel(grid, probs)
            prior = ClassPrior(rng.dirichlet(np.ones(4)))
            by_prior = build_posterior_model(oom, prior)
            post = build_posterior_model(oom, prior, fallback="last-valid")
            mask = post.fallback_mask
            assert (mask[:, :-1] & ~mask[:, 1:]).any()
            np.testing.assert_array_equal(mask, by_prior.fallback_mask)
            want = oracle_last_valid(by_prior.posteriors, mask, prior.weights)
            assert post.posteriors.tobytes() == want.tobytes()

    def test_prior_fallback_matches_the_whole_tensor_form(self):
        # flagged cells take the prior column, as a where over every cell gives it
        rng = np.random.default_rng(17)
        grid = ThresholdGrid(0.0, 1.0, 0.05)
        probs = rng.random((30, 4, len(grid))) * (rng.random((30, 1, len(grid))) > 0.4)
        prior = ClassPrior(rng.dirichlet(np.ones(4)))
        post = build_posterior_model(OccurrenceModel(grid, probs), prior)
        num = probs * prior.weights[None, :, None]
        denom = num.sum(axis=1)
        mask = denom == 0.0
        want = np.where(mask[:, None, :], prior.weights[None, :, None],
                        num / np.where(mask, 1.0, denom)[:, None, :])
        assert mask.any() and (~mask).any()
        assert post.posteriors.tobytes() == want.tobytes()

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(15)
        m = random_hard_manifest(rng, 4, 6, 20)
        grid = ThresholdGrid(0.0, 1.0, 0.1)
        perm = np.array([2, 0, 3, 1])
        # permute class labels and names consistently
        recs = tuple(
            ImageRecord(r.image_id, int(np.argwhere(perm == r.scene_class)[0][0]),
                        r.detections, r.mode)
            for r in m.records
        )
        m2 = DatasetManifest(m.vocabulary,
                             make_classes(4), recs, "train", "hard")
        post1 = build_posterior_model(build_occurrence_model(m, grid),
                                      ClassPrior.uniform(4))
        post2 = build_posterior_model(build_occurrence_model(m2, grid),
                                      ClassPrior.uniform(4))
        # row for original class c sits at position argwhere(perm==c); the
        # reordered Bayes denominator sum allows ulp-level differences
        for c in range(4):
            c2 = int(np.argwhere(perm == c)[0][0])
            np.testing.assert_allclose(post1.posteriors[:, c, :],
                                       post2.posteriors[:, c2, :],
                                       atol=1e-12, rtol=0)
        np.testing.assert_allclose(discriminability_profile(post1),
                                   discriminability_profile(post2),
                                   atol=1e-12, rtol=0)
        sel1 = select_objects(post1, 3)
        sel2 = select_objects(post2, 3)
        assert sel1.selected == sel2.selected


class TestDiscriminability:
    def _post_from_columns(self, columns):
        """PosteriorModel whose first object has the given posterior columns."""
        cols = np.asarray(columns, float)
        n_cls, n_t = cols.shape
        grid = ThresholdGrid(0.0, 1.0, 1.0 / max(n_t - 1, 1))
        probs = np.zeros((1, n_cls, n_t))
        probs[0] = cols  # occurrence proportional to posterior, uniform prior
        return build_posterior_model(OccurrenceModel(grid, probs),
                                     ClassPrior.uniform(n_cls))

    def test_hand_example(self):
        post = self._post_from_columns(np.array([[0.6], [0.3], [0.08], [0.02]]))
        assert discriminability_profile(post)[0, 0] == pytest.approx(0.3)

    def test_uniform_gives_zero(self):
        post = self._post_from_columns(np.full((4, 1), 0.25))
        assert discriminability_profile(post)[0, 0] == 0.0

    def test_one_hot_gives_one(self):
        post = self._post_from_columns(np.array([[1.0], [0.0], [0.0]]))
        assert discriminability_profile(post)[0, 0] == 1.0

    def test_fallback_cell_returns_zero(self):
        grid = ThresholdGrid(0.0, 1.0, 0.5)
        probs = np.zeros((1, 3, 3))
        post = build_posterior_model(OccurrenceModel(grid, probs),
                                     ClassPrior(np.array([0.5, 0.4, 0.1])))
        assert discriminability_profile(post)[0, 0] == 0.0

    def test_two_classes_required(self):
        grid = ThresholdGrid(0.0, 1.0, 0.5)
        probs = np.ones((1, 1, 3))
        post = build_posterior_model(OccurrenceModel(grid, probs),
                                     ClassPrior.uniform(1))
        with pytest.raises(ValueError):
            discriminability_profile(post)[0, 0]

    def test_matches_sort_scan_oracle(self):
        rng = np.random.default_rng(100)
        for _ in range(200):
            n_cls = int(rng.integers(2, 7))
            col = rng.random(n_cls)
            col /= col.sum()
            post = self._post_from_columns(col[:, None])
            stored = post.posteriors[0, :, 0]
            assert discriminability_profile(post)[0, 0] == oracle_discriminability(stored)

    def test_range_zero_to_one(self):
        rng = np.random.default_rng(101)
        m = random_hard_manifest(rng, 4, 5, 16)
        post = build_posterior_model(
            build_occurrence_model(m, ThresholdGrid(0.0, 1.0, 0.1)),
            ClassPrior.uniform(4))
        phi = discriminability_profile(post)
        assert np.all((phi >= 0) & (phi <= 1))


class TestSelection:
    def _post(self, phi_profiles):
        """Build a model where object o's posterior gap profile is phi[o]."""
        phi = np.asarray(phi_profiles, float)
        n_obj, n_t = phi.shape
        grid = ThresholdGrid(0.0, 1.0, 1.0 / max(n_t - 1, 1))
        probs = np.zeros((n_obj, 2, n_t))
        # two classes: posterior gap = |p0 - p1| = phi when p0 = (1+phi)/2
        probs[:, 0, :] = (1 + phi) / 2
        probs[:, 1, :] = (1 - phi) / 2
        return build_posterior_model(OccurrenceModel(grid, probs),
                                     ClassPrior.uniform(2))

    def test_max_aggregation_picks_peak_object(self):
        post = self._post([[0.1, 0.9], [0.2, 0.2]])
        sel = select_objects(post, 1, aggregation="max")
        assert sel.selected == (0,)

    def test_mean_aggregation(self):
        post = self._post([[0.1, 0.9], [0.4, 0.4]])
        sel = select_objects(post, 1, aggregation="mean")
        assert sel.selected == (0,)  # 0.5 vs 0.4

    def test_full_count_is_identity_in_score_order(self):
        post = self._post([[0.3, 0.3], [0.8, 0.8], [0.1, 0.1]])
        sel = select_objects(post, 3)
        assert sel.selected == (1, 0, 2)

    def test_ties_break_by_object_index(self):
        post = self._post([[0.5, 0.5], [0.5, 0.5], [0.9, 0.9]])
        sel = select_objects(post, 2)
        assert sel.selected == (2, 0)

    def test_count_out_of_range(self):
        post = self._post([[0.5], [0.4]])
        with pytest.raises(ValueError):
            select_objects(post, 0)
        with pytest.raises(ValueError):
            select_objects(post, 3)

    def test_planted_class_specific_objects_rank_first(self):
        rng = np.random.default_rng(55)
        n_obj, n_cls, n_t = 10, 4, 6
        probs = np.full((n_obj, n_cls, n_t), 0.5)  # uniform -> phi 0
        special = (1, 4, 7)
        for i, o in enumerate(special):
            probs[o] = 0.0
            probs[o, i % n_cls, :] = 0.8  # one-hot occurrence column
        grid = ThresholdGrid(0.0, 1.0, 0.2)
        post = build_posterior_model(OccurrenceModel(grid, probs),
                                     ClassPrior.uniform(n_cls))
        sel = select_objects(post, 3)
        assert set(sel.selected) == set(special)


def posterior_at_score(post, object_index, score):
    """The posterior column the encoders look up for one score."""
    return post.posteriors[object_index, :, score_grid_indices(post.grid, score)]


class TestPosteriorAtScore:
    def _post(self):
        grid = ThresholdGrid(0.0, 1.0, 0.1)
        rng = np.random.default_rng(9)
        probs = np.sort(rng.random((2, 3, 11)), axis=2)[:, :, ::-1]
        return build_posterior_model(OccurrenceModel(grid, probs),
                                     ClassPrior.uniform(3))

    def test_exact_grid_point(self):
        post = self._post()
        np.testing.assert_array_equal(posterior_at_score(post, 0, 0.3),
                                      post.posteriors[0, :, 3])

    def test_above_max_clamps(self):
        post = self._post()
        np.testing.assert_array_equal(posterior_at_score(post, 1, 7.5),
                                      post.posteriors[1, :, 10])

    def test_below_min_clamps(self):
        post = self._post()
        np.testing.assert_array_equal(posterior_at_score(post, 1, -3.0),
                                      post.posteriors[1, :, 0])

    def test_nearest_point(self):
        post = self._post()
        np.testing.assert_array_equal(posterior_at_score(post, 0, 0.34),
                                      post.posteriors[0, :, 3])
        np.testing.assert_array_equal(posterior_at_score(post, 0, 0.36),
                                      post.posteriors[0, :, 4])

    def test_midpoint_resolves_low(self):
        post = self._post()
        # 0.05 == 0.1/2 exactly in binary floating point
        np.testing.assert_array_equal(posterior_at_score(post, 0, 0.05),
                                      post.posteriors[0, :, 0])

    def test_batch_matches_scalar(self):
        post = self._post()
        rng = np.random.default_rng(10)
        scores = rng.uniform(-0.5, 1.5, size=(4, 5))
        ts = score_grid_indices(post.grid, scores)
        assert ts.shape == scores.shape
        for t, score in zip(ts.reshape(-1), scores.reshape(-1)):
            assert t == oracle_grid_index(post.grid, score)


@st.composite
def grids_and_scores(draw):
    lo = draw(st.floats(-2.0, 1.0))
    step = draw(st.floats(1e-3, 1.0))
    hi = lo + step * draw(st.floats(1.5, 60.0))
    grid = ThresholdGrid(lo, hi, step)
    vals = grid.values
    t = st.integers(0, len(vals) - 1)
    midpoint = st.builds(lambda i: 0.5 * (vals[max(i - 1, 0)] + vals[i]), t)
    score = st.one_of(
        st.floats(lo - 1.0, hi + 1.0),                          # random, out of range
        st.builds(lambda i: float(vals[i]), t),                 # on a grid point
        midpoint,                                               # exact midpoints
        st.builds(np.nextafter, midpoint, st.sampled_from([-np.inf, np.inf])),
    )
    return grid, draw(st.lists(score, min_size=1, max_size=30))


class TestScoreGridIndices:
    @settings(max_examples=300, deadline=None)
    @given(grids_and_scores())
    def test_matches_the_argmin_oracle(self, case):
        grid, scores = case
        got = score_grid_indices(grid, scores)
        assert list(got) == [oracle_grid_index(grid, s) for s in scores]
