import tracemalloc

import numpy as np
import pytest

from oomscene import (
    DimensionError,
    ModelError,
    SgdConfig,
    fit_topics,
    assign_topics_batch,
    predict_batch,
    train_ensemble,
    train_one_vs_rest,
)
from oomscene import ensemble as ensemble_module
from oomscene.ensemble import (
    TopicEnsemble,
    _derive_seed,
    _gram,
    _sgd_lockstep,
    _validation_masks,
)
from hypothesis import given, settings, strategies as st

from helpers import (
    binary_svm,
    hinge_objective,
    oracle_batch_subgradient,
    oracle_lockstep_unguarded,
    oracle_sgd,
    oracle_two_pass_one_vs_rest,
)


def assert_close_to_oracle(w, b, w_oracle, b_oracle, rtol=1e-12):
    """Weights and bias within rtol of the oracle's largest magnitude."""
    scale = max(np.abs(w_oracle).max(initial=0.0), abs(b_oracle))
    err = max(np.abs(w - w_oracle).max(initial=0.0), abs(b - b_oracle))
    assert err <= rtol * scale, (err, scale)


def separable_2d(rng, n=30, margin=2.0):
    pos = rng.standard_normal((n, 2)) * 0.5 + np.array([margin, margin])
    neg = rng.standard_normal((n, 2)) * 0.5 - np.array([margin, margin])
    return pos, neg


CFG = SgdConfig(lam=1e-4, eta0=0.5, epochs=40, seed=0)


class TestTrainBinary:
    def test_two_point_problem(self):
        clf = binary_svm([[1.0]], [[-1.0]], CFG)
        assert clf.weights @ [1.0] + clf.bias > 0
        assert clf.weights @ [-1.0] + clf.bias < 0

    def test_identical_descriptors_mixed_labels(self):
        X = np.ones((1, 3))
        pos = np.repeat(X, 3, axis=0)
        neg = np.repeat(X, 2, axis=0)
        cfg = SgdConfig(lam=0.05, eta0=0.2, epochs=60, seed=0)
        clf = binary_svm(pos, neg, cfg)
        data = np.vstack([pos, neg])
        y = np.array([1, 1, 1, -1, -1])
        # objective at w=0, b=0 is exactly 1; training must not do worse
        assert hinge_objective(clf.weights, clf.bias, data, y, cfg.lam) <= 1.0

    def test_separable_reaches_zero_hinge_loss(self):
        rng = np.random.default_rng(60)
        pos, neg = separable_2d(rng)
        cfg = SgdConfig(lam=1e-5, eta0=0.5, epochs=60, seed=1)
        clf = binary_svm(pos, neg, cfg)
        X = np.vstack([pos, neg])
        y = np.concatenate([np.ones(len(pos)), -np.ones(len(neg))])
        margins = y * (X @ clf.weights + clf.bias)
        assert np.all(margins >= 1.0)

    def test_nonseparable_objective_near_batch_oracle(self):
        rng = np.random.default_rng(60)
        pos = rng.standard_normal((30, 2)) + np.array([0.7, 0.7])
        neg = rng.standard_normal((30, 2)) - np.array([0.7, 0.7])
        cfg = SgdConfig(lam=0.01, eta0=0.5, epochs=100, seed=1)
        clf = binary_svm(pos, neg, cfg)
        X = np.vstack([pos, neg])
        y = np.concatenate([np.ones(len(pos)), -np.ones(len(neg))])
        obj = hinge_objective(clf.weights, clf.bias, X, y, cfg.lam)
        oracle_obj, _, _ = oracle_batch_subgradient(X, y, cfg.lam, iters=20000)
        assert obj <= 1.05 * oracle_obj

    def test_deterministic(self):
        rng = np.random.default_rng(61)
        pos, neg = separable_2d(rng, n=10)
        a = binary_svm(pos, neg, CFG)
        b = binary_svm(pos, neg, CFG)
        np.testing.assert_array_equal(a.weights, b.weights)
        assert a.bias == b.bias

    def test_class_zero_row_is_the_negation(self):
        # the two one-vs-rest problems see the same samples with swapped labels
        pos, neg = separable_2d(np.random.default_rng(63), n=10)
        _, W, b = train_one_vs_rest(np.vstack([pos, neg]), [1] * 10 + [0] * 10, 2,
                                    [CFG], folds=2)
        assert np.array_equal(W[1], -W[0]) and b[1] == -b[0]

    def test_best_epoch_objective_not_above_initial(self):
        rng = np.random.default_rng(62)
        pos = rng.standard_normal((20, 3)) + 0.3
        neg = rng.standard_normal((20, 3)) - 0.3
        X = np.vstack([pos, neg])
        y = np.concatenate([np.ones(20), -np.ones(20)])
        objs = []
        for epochs in range(1, 12):
            cfg = SgdConfig(lam=1e-3, eta0=0.5, epochs=epochs, seed=4)
            clf = binary_svm(pos, neg, cfg)
            objs.append(hinge_objective(clf.weights, clf.bias, X, y, cfg.lam))
        assert all(np.isfinite(objs))
        assert min(objs) <= 1.0  # objective at the zero classifier

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SgdConfig(lam=0.0, eta0=1.0, epochs=1, seed=0)
        with pytest.raises(ValueError):
            SgdConfig(lam=1.0, eta0=-1.0, epochs=1, seed=0)
        with pytest.raises(ValueError):
            SgdConfig(lam=1.0, eta0=1.0, epochs=0, seed=0)

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_config_rejects_non_finite(self, bad):
        # an infinite lambda or step size trains NaN weights
        with pytest.raises(ValueError, match="lam"):
            SgdConfig(lam=bad, eta0=1.0, epochs=1, seed=0)
        with pytest.raises(ValueError, match="eta0"):
            SgdConfig(lam=1.0, eta0=bad, epochs=1, seed=0)

    def test_config_rejects_negative_seed(self):
        # _derive_seed's abs would train seed 1's classifiers
        with pytest.raises(ValueError, match="seed must be non-negative, got -1"):
            SgdConfig(lam=1.0, eta0=1.0, epochs=1, seed=-1)


# (lam, eta0) per problem; eta0 * lam >= 1 makes the first decay factor <= 0
STEP_PARAMS = st.one_of(
    st.tuples(st.floats(1e-5, 10.0), st.floats(1e-2, 10.0)),
    st.sampled_from([(2.0, 0.5), (1e6, 0.5), (10.0, 0.5)]),
)


class TestSgdLockstep:
    @settings(max_examples=200, deadline=None)
    @given(
        data_seed=st.integers(0, 2**32 - 1),
        perm_seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 20),
        d=st.integers(1, 16),
        epochs=st.integers(1, 4),
        problems=st.lists(
            st.tuples(STEP_PARAMS, st.sampled_from([0.0, 0.3, 0.7, 1.0])),
            min_size=1, max_size=5),
    )
    def test_matches_independent_scalar_runs(self, data_seed, perm_seed, n, d,
                                             epochs, problems):
        rng = np.random.default_rng(data_seed)
        # each row is dense or about 15% nonzero
        keep = rng.random((n, d)) < np.where(rng.random((n, 1)) < 0.5, 0.15, 1.0)
        X = rng.standard_normal((n, d)) * keep
        Y = rng.choice([-1.0, 1.0], size=(len(problems), n))
        active = rng.random((len(problems), n)) < [[q] for _, q in problems]
        lam = [lam for (lam, _), _ in problems]
        eta0 = [eta0 for (_, eta0), _ in problems]
        args = (_gram(X), Y, active, lam, eta0, epochs)
        A, b = _sgd_lockstep(*args, np.random.default_rng(perm_seed))
        # the per-epoch fold check changes no bit of the per-step one
        A_ref, b_ref = oracle_lockstep_unguarded(*args, np.random.default_rng(perm_seed),
                                                 ensemble_module._TINY_SCALE)
        assert np.array_equal(A, A_ref) and np.array_equal(b, b_ref)
        W = A @ X
        perm_rng = np.random.default_rng(perm_seed)
        order = np.concatenate([perm_rng.permutation(n) for _ in range(epochs)])
        for p in range(len(problems)):
            w, bias = oracle_sgd(X, Y[p], lam[p], eta0[p], order[active[p, order]])
            assert_close_to_oracle(W[p], b[p], w, bias)

    def test_fold_in_a_later_epoch(self):
        # every decay is positive, and the fast problem's scale after t visits
        # (eta0 = 1), (1 - lam) / (1 + lam (t - 1)), falls below _TINY_SCALE at
        # t = 11, the third visit of the second epoch; the slow problem's
        # scale stays far above it, so only the fast one can open an epoch's
        # fold check.  The scale stays near _TINY_SCALE, so a missed fold
        # would change only the last bits: compare bit for bit as well.
        n, epochs = 8, 3
        lam, eta0 = [1e-3, 1.0 - 1e-8], [0.5, 1.0]
        scale = [(1 - lam[1]) / (1 + lam[1] * (t - 1)) for t in (n, n + 3)]
        assert scale[0] > ensemble_module._TINY_SCALE > scale[1]
        rng = np.random.default_rng(73)
        X = rng.standard_normal((n, 2))
        Y = rng.choice([-1.0, 1.0], size=(2, n))
        args = (_gram(X), Y, np.ones((2, n), dtype=bool), lam, eta0, epochs)
        A, b = _sgd_lockstep(*args, np.random.default_rng(74))
        A_ref, b_ref = oracle_lockstep_unguarded(*args, np.random.default_rng(74),
                                                 ensemble_module._TINY_SCALE)
        assert np.array_equal(A, A_ref) and np.array_equal(b, b_ref)
        perm_rng = np.random.default_rng(74)
        order = np.concatenate([perm_rng.permutation(n) for _ in range(epochs)])
        W = A @ X
        for p in range(2):
            w, bias = oracle_sgd(X, Y[p], lam[p], eta0[p], order)
            assert_close_to_oracle(W[p], b[p], w, bias)

    def test_gram_bound_refuses_before_allocating(self):
        n = ensemble_module._GRAM_MAX_SAMPLES + 1
        X = np.broadcast_to(np.ones(3), (n, 3))   # a view: no sample memory
        tracemalloc.start()
        try:
            with pytest.raises(ModelError, match=str(n)):
                _gram(X)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20  # the Gram matrix alone would take 8 * n^2 bytes


def chosen_entry(X, y, n_classes, grid, folds, salt=0):
    return train_one_vs_rest(X, y, n_classes, grid, folds, salt=salt)[0]


class TestCrossValidate:
    def _labeled_blobs(self, rng, n_per=20):
        X = np.vstack([
            rng.standard_normal((n_per, 2)) * 0.3 + np.array([2.0, 0.0]),
            rng.standard_normal((n_per, 2)) * 0.3 + np.array([-2.0, 0.0]),
        ])
        y = np.array([0] * n_per + [1] * n_per)
        return X, y

    def test_single_entry_short_circuit(self):
        cfg = CFG
        assert chosen_entry(np.zeros((2, 1)), [0, 1], 2, [cfg], 5) is cfg
        # nothing to choose: the fold count is not checked
        assert chosen_entry(np.zeros((2, 1)), [0, 1], 2, [cfg], 1) is cfg
        with pytest.raises(ValueError, match="2 folds"):
            chosen_entry(np.zeros((2, 1)), [0, 1], 2, [cfg, cfg], 1)

    def test_dominant_config_wins(self):
        rng = np.random.default_rng(63)
        X, y = self._labeled_blobs(rng)
        good = SgdConfig(lam=1e-4, eta0=0.5, epochs=20, seed=0)
        bad = SgdConfig(lam=1e6, eta0=0.5, epochs=20, seed=0)  # crushes weights
        assert chosen_entry(X, y, 2, [bad, good], 5) is good

    def test_tie_keeps_first(self):
        rng = np.random.default_rng(64)
        X, y = self._labeled_blobs(rng)
        a = SgdConfig(lam=1e-4, eta0=0.5, epochs=20, seed=0)
        b = SgdConfig(lam=1e-4, eta0=0.5, epochs=20, seed=0)
        assert chosen_entry(X, y, 2, [a, b], 5) is a

    def test_underfitting_lambda_rejected(self):
        rng = np.random.default_rng(65)
        # planted thin margin: huge lambda cannot push |w| high enough
        X, y = self._labeled_blobs(rng, n_per=30)
        grid = [
            SgdConfig(lam=10.0, eta0=0.5, epochs=25, seed=1),
            SgdConfig(lam=1e-4, eta0=0.5, epochs=25, seed=1),
        ]
        chosen = chosen_entry(X, y, 2, grid, 5)
        assert chosen.lam == 1e-4

    @pytest.mark.parametrize("other", [
        SgdConfig(lam=1e-3, eta0=0.5, epochs=20, seed=1),
        SgdConfig(lam=1e-3, eta0=0.5, epochs=25, seed=0),
    ], ids=["seed", "epochs"])
    def test_mixed_grid_refused(self, other):
        # the cross-validation pass draws one permutation stream, so a grid
        # shares one seed and one epoch count
        X, y = self._labeled_blobs(np.random.default_rng(66))
        first = SgdConfig(lam=1e-4, eta0=0.5, epochs=20, seed=0)
        with pytest.raises(ValueError, match="one seed and one epoch count"):
            train_one_vs_rest(X, y, 2, [first, other], 5)

    @settings(max_examples=60, deadline=None)
    @given(
        data_seed=st.integers(0, 2**32 - 1),
        n_classes=st.integers(2, 3),
        n=st.integers(4, 24),
        dim=st.integers(1, 3),
        folds=st.integers(2, 4),
        salt=st.integers(0, 3),
        seed=st.integers(0, 1),
        epochs=st.integers(1, 3),
        steps=st.lists(st.tuples(st.sampled_from([1e-4, 1e-2, 1.0, 1e3]),
                                 st.sampled_from([0.1, 0.5])),
                       min_size=2, max_size=4),
    )
    def test_matches_bruteforce_oracle(self, data_seed, n_classes, n, dim, folds,
                                       salt, seed, epochs, steps):
        # overlapping, unbalanced classes: validation scores, not training
        # scores, and the biases decide which entry wins
        rng = np.random.default_rng(data_seed)
        y = rng.integers(0, n_classes, n)
        X = rng.standard_normal((n_classes, dim))[y] + rng.standard_normal((n, dim))
        grid = [SgdConfig(lam=lam, eta0=eta0, epochs=epochs, seed=seed)
                for lam, eta0 in steps]
        chosen, W, b = train_one_vs_rest(X, y, n_classes, grid, folds, salt=salt)
        assert chosen is oracle_cross_validate(X, y, n_classes, grid, folds, salt)
        W_oracle, b_oracle = oracle_one_vs_rest(X, y, n_classes, chosen,
                                                np.ones(n, dtype=bool), salt)
        for c in range(n_classes):
            assert_close_to_oracle(W[c], b[c], W_oracle[c], b_oracle[c])

    @settings(max_examples=60, deadline=None)
    @given(
        data_seed=st.integers(0, 2**32 - 1),
        class_sizes=st.lists(st.integers(0, 6), min_size=2, max_size=4).filter(any),
        dim=st.integers(1, 3),
        folds=st.integers(2, 4),
        salt=st.integers(0, 3),
        seed=st.integers(0, 1),
        epochs=st.integers(1, 3),
        steps=st.lists(st.tuples(st.sampled_from([1e-4, 1.0, 1e3]),
                                 st.sampled_from([0.1, 0.5])),
                       min_size=1, max_size=4),
    )
    def test_one_pass_matches_two_passes(self, data_seed, class_sizes, dim, folds,
                                         salt, seed, epochs, steps):
        # classes of 0 to 6 samples: small ones miss some folds' training or
        # validation sets, and repeated entries tie on accuracy
        rng = np.random.default_rng(data_seed)
        n_classes = len(class_sizes)
        y = rng.permutation(np.repeat(np.arange(n_classes), class_sizes))
        X = rng.standard_normal((n_classes, dim))[y] + rng.standard_normal((len(y), dim))
        grid = [SgdConfig(lam=lam, eta0=eta0, epochs=epochs, seed=seed)
                for lam, eta0 in steps]
        chosen, W, b = train_one_vs_rest(X, y, n_classes, grid, folds, salt=salt)
        chosen_ref, W_ref, b_ref = oracle_two_pass_one_vs_rest(X, y, n_classes, grid,
                                                               folds, salt)
        assert chosen is chosen_ref
        assert chosen is oracle_cross_validate(X, y, n_classes, grid, folds, salt)
        # tolerances, not bits: gemv may round a row differently for another
        # number of problems under another BLAS
        np.testing.assert_allclose(W, W_ref, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(b, b_ref, rtol=1e-12, atol=1e-12)

    def test_no_usable_fold_keeps_first(self):
        # one sample per class: the only nonempty fold holds every sample
        a = SgdConfig(lam=1e-4, eta0=0.5, epochs=5, seed=0)
        b = SgdConfig(lam=1e-3, eta0=0.5, epochs=5, seed=0)
        assert chosen_entry(np.eye(2), [0, 1], 2, [a, b], 5) is a

    def test_empty_grid(self):
        with pytest.raises(ValueError):
            train_one_vs_rest(np.zeros((2, 1)), [0, 1], 2, [], 5)

    def test_fold_count_past_the_largest_class_adds_no_mask(self):
        # folds has no upper bound: a mask per requested fold would take
        # memory linear in it, for folds that no sample can fall in
        y = np.repeat(np.arange(4), [7, 12, 3, 9])
        want = _validation_masks(y, 12)
        assert len(want) == 12
        tracemalloc.start()
        try:
            got = _validation_masks(y, 10**5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert [m.tobytes() for m in got] == [m.tobytes() for m in want]
        assert peak < 100_000


def oracle_one_vs_rest(X, y, n_classes, cfg, train, salt):
    """One scalar SGD run per class on the samples where ``train`` holds,
    over the permutations of ``default_rng(_derive_seed(cfg.seed, salt))``;
    a class without positives or negatives there is the constant -1 or +1."""
    perm_rng = np.random.default_rng(_derive_seed(cfg.seed, salt))
    order = np.concatenate([perm_rng.permutation(len(y)) for _ in range(cfg.epochs)])
    W, b = np.zeros((n_classes, X.shape[1])), np.empty(n_classes)
    for c in range(n_classes):
        pos, neg = (train & (y == c)).any(), (train & (y != c)).any()
        if pos and neg:
            W[c], b[c] = oracle_sgd(X, np.where(y == c, 1.0, -1.0), cfg.lam, cfg.eta0,
                                    order[train[order]])
        else:
            b[c] = 1.0 if pos else -1.0
    return W, b


def oracle_cross_validate(X, y, n_classes, grid, folds, salt):
    """The cross-validation choice by brute force: ``oracle_one_vs_rest`` per
    (grid entry, fold), validation scores ``X[val] @ w + b``, the first best
    entry."""
    fold_of = np.zeros(len(y), dtype=int)
    for c in np.unique(y):
        idx = np.flatnonzero(y == c)
        fold_of[idx] = np.arange(idx.size) % folds
    vals = [fold_of == f for f in range(folds)]
    vals = [v for v in vals if v.any() and not v.all()]
    if not vals:
        return grid[0]
    accs = []
    for cfg in grid:
        fold_accs = []
        for val in vals:
            W, b = oracle_one_vs_rest(X, y, n_classes, cfg, ~val, salt)
            scores = X[val] @ W.T + b
            fold_accs.append((scores.argmax(axis=1) == y[val]).mean())
        accs.append(np.mean(fold_accs))
    return grid[int(np.argmax(accs))]


def make_blob_problem(rng, n_classes=3, n_per=15, dim=4):
    centers = rng.standard_normal((n_classes, dim)) * 4
    X = np.vstack([
        centers[c] + 0.4 * rng.standard_normal((n_per, dim))
        for c in range(n_classes)
    ])
    y = np.repeat(np.arange(n_classes), n_per)
    return X, y


class TestTrainEnsemble:
    def test_single_topic_equals_plain_one_vs_rest(self):
        rng = np.random.default_rng(66)
        X, y = make_blob_problem(rng)
        topics = fit_topics(X, 1, seed=0)
        ens = train_ensemble(X, y, 3, topics, [CFG], folds=5)
        # topic 0's one-vs-rest pass: one shared permutation per epoch
        perm_rng = np.random.default_rng(_derive_seed(CFG.seed, 0))
        order = np.concatenate([perm_rng.permutation(len(X))
                                for _ in range(CFG.epochs)])
        for c in range(3):
            w, b = oracle_sgd(X, np.where(y == c, 1.0, -1.0), CFG.lam, CFG.eta0,
                              order)
            assert_close_to_oracle(ens.weights[c, 0], ens.biases[c, 0], w, b)

    def test_degenerate_topic_slots(self):
        # each topic holds a single class: its own-class slot has no
        # negatives (constant +1), every other slot no positives (-1)
        X = np.vstack([np.full((5, 2), 10.0), np.full((5, 2), -10.0)])
        y = np.array([0] * 5 + [1] * 5)
        topics = fit_topics(X, 2, seed=0)
        ens = train_ensemble(X, y, 2, topics, [CFG], folds=5)
        d0 = int(assign_topics_batch(topics, np.full((1, 2), 10.0))[0][0])  # class-0 topic
        d1 = 1 - d0
        assert not ens.weights.any()
        assert ens.biases[0, d0] == 1.0
        assert ens.biases[1, d0] == -1.0
        assert ens.biases[0, d1] == -1.0
        assert ens.biases[1, d1] == 1.0
        # pooled sums tie at zero for every input; ties pick class 0
        assert predict_one(ens, np.full(2, 10.0))[0] == 0

    def test_planted_topics_per_topic_training_accuracy(self):
        rng = np.random.default_rng(67)
        # two topic modes per class; per-topic models fit each cleanly
        base = rng.standard_normal((2, 2, 6)) * 5  # [topic, class, dim]
        X, y, t = [], [], []
        for topic in range(2):
            for c in range(2):
                pts = base[topic, c] + 0.3 * rng.standard_normal((20, 6))
                X.append(pts)
                y.extend([c] * 20)
                t.extend([topic] * 20)
        X = np.vstack(X)
        y = np.array(y)
        topics = fit_topics(X, 2, seed=3)
        ens2 = train_ensemble(X, y, 2, topics, [CFG], folds=5)
        ens1 = train_ensemble(X, y, 2, fit_topics(X, 1, seed=3), [CFG], folds=5)
        acc2 = (predict_batch(ens2, X)[0] == y).mean()
        acc1 = (predict_batch(ens1, X)[0] == y).mean()
        assert acc2 >= acc1

    def test_training_meta_recorded(self):
        rng = np.random.default_rng(68)
        X, y = make_blob_problem(rng)
        topics = fit_topics(X, 2, seed=0)
        ens = train_ensemble(X, y, 3, topics, [CFG], folds=5)
        assert sum(ens.topic_sizes) == len(X)
        assert ens.configs == (CFG, CFG)

    def test_one_gram_and_one_pass_per_topic(self, monkeypatch):
        # a topic trains every grid entry's classes on each fold's complement
        # and on all samples in one lockstep pass over one Gram matrix
        rng = np.random.default_rng(72)
        X, y = make_blob_problem(rng, n_per=20)
        topics = fit_topics(X, 3, seed=0)
        grid = [SgdConfig(lam=lam, eta0=eta0, epochs=3, seed=0)
                for lam in (1e-5, 1e-4, 1e-3) for eta0 in (0.1, 1.0)]
        grams, problems = [], []

        def gram(X):
            grams.append(len(X))
            return _gram(X)

        def lockstep(K, Y, *args):
            problems.append(len(Y))
            return _sgd_lockstep(K, Y, *args)

        monkeypatch.setattr(ensemble_module, "_gram", gram)
        monkeypatch.setattr(ensemble_module, "_sgd_lockstep", lockstep)
        ens = train_ensemble(X, y, 3, topics, grid, folds=5)
        assert grams == list(ens.topic_sizes)
        assert problems == [6 * 6 * 3] * 3
        # one sample per class holds out no usable fold: grid[0]'s classes only
        problems.clear()
        assert train_one_vs_rest(np.eye(3), [0, 1, 2], 3, grid, 5)[0] is grid[0]
        assert problems == [3]

    def test_oversized_topic_refused_before_any_training(self, monkeypatch):
        # a small topic that would train first and a large one over the limit
        rng = np.random.default_rng(69)
        X = np.vstack([rng.standard_normal((6, 2)) + 10, rng.standard_normal((20, 2)) - 10])
        y = np.arange(len(X)) % 2
        topics = fit_topics(X, 2, seed=0)
        big = int(assign_topics_batch(topics, X[-1:])[0][0])
        calls = []
        monkeypatch.setattr(ensemble_module, "_GRAM_MAX_SAMPLES", 10)
        monkeypatch.setattr(ensemble_module, "_sgd_lockstep",
                            lambda *args: calls.append(args))
        with pytest.raises(ModelError, match=f"topic {big} has 20 training samples"):
            train_ensemble(X, y, 2, topics, [CFG, CFG], folds=2)
        assert calls == []


def train_through(entry, X, y, n_classes):
    if entry == "one_vs_rest":
        return train_one_vs_rest(X, y, n_classes, [CFG, CFG], folds=2)
    return train_ensemble(X, y, n_classes, fit_topics(X, 2, seed=0), [CFG, CFG], folds=2)


class TestLabelChecks:
    @pytest.mark.parametrize("entry", ["one_vs_rest", "ensemble"])
    @pytest.mark.parametrize("change, error, message", [
        (lambda y: y[:18], DimensionError, "18 labels for 20 samples"),
        (lambda y: np.r_[y[:19], 5], ModelError, "label 5 of sample 19"),
        (lambda y: np.r_[-1, y[1:]], ModelError, "label -1 of sample 0"),
    ], ids=["count", "too_large", "negative"])
    def test_refused_before_any_training(self, entry, change, error, message,
                                         monkeypatch):
        rng = np.random.default_rng(73)
        X = rng.standard_normal((20, 2))
        y = np.arange(20) % 2
        calls = []
        monkeypatch.setattr(ensemble_module, "_gram", lambda *args: calls.append(args))
        monkeypatch.setattr(ensemble_module, "_sgd_lockstep",
                            lambda *args: calls.append(args))
        with pytest.raises(error, match=message):
            train_through(entry, X, change(y), 2)
        assert calls == []


def tiny_ensemble(decisions):
    """Ensemble of constant classifiers with given [class][topic] decisions."""
    biases = np.array(decisions, dtype=float)
    return TopicEnsemble(weights=np.zeros(biases.shape + (2,)), biases=biases,
                         topic_sizes=(0,) * biases.shape[1],
                         configs=(CFG,) * biases.shape[1])


def predict_one(ens, x, pooling="average"):
    """predict_batch on a single descriptor: (label, pooled scores)."""
    labels, scores = predict_batch(ens, np.asarray(x, dtype=float)[None, :], pooling)
    return int(labels[0]), scores[0]


class TestPredict:
    def test_average_pooling_example(self):
        ens = tiny_ensemble([[0.5, 0.5], [2.0, -1.5]])
        label, scores = predict_one(ens, np.zeros(2))
        assert label == 0
        np.testing.assert_allclose(scores, [1.0, 0.5])

    def test_max_pooling_example(self):
        ens = tiny_ensemble([[0.5, 0.5], [2.0, -1.5]])
        label, scores = predict_one(ens, np.zeros(2), pooling="max")
        assert label == 1
        np.testing.assert_allclose(scores, [0.5, 2.0])

    def test_single_topic_pooling_agrees(self):
        rng = np.random.default_rng(69)
        X, y = make_blob_problem(rng)
        ens = train_ensemble(X, y, 3, fit_topics(X, 1, seed=0), [CFG], folds=5)
        probes = rng.standard_normal((30, X.shape[1]))
        np.testing.assert_array_equal(predict_batch(ens, probes)[0],
                                      predict_batch(ens, probes, pooling="max")[0])

    def test_matches_bruteforce_accumulation(self):
        rng = np.random.default_rng(70)
        X, y = make_blob_problem(rng)
        ens = train_ensemble(X, y, 3, fit_topics(X, 2, seed=1), [CFG], folds=5)
        for x in rng.standard_normal((20, X.shape[1])):
            label, scores = predict_one(ens, x)
            manual = np.array([
                sum(float(ens.weights[c, d] @ x) + ens.biases[c, d] for d in range(2))
                for c in range(3)
            ])
            assert label == int(np.argmax(manual))
            np.testing.assert_allclose(scores, manual, atol=1e-9)

    def test_argmax_invariant_to_per_topic_constant(self):
        ens = tiny_ensemble([[0.4, -0.2], [0.1, 0.3], [-0.5, 0.2]])
        shifted = tiny_ensemble([[0.4 + 7.0, -0.2 - 3.0],
                                 [0.1 + 7.0, 0.3 - 3.0],
                                 [-0.5 + 7.0, 0.2 - 3.0]])
        x = np.zeros(2)
        assert predict_one(ens, x)[0] == predict_one(shifted, x)[0]

    def test_tie_breaks_low_index(self):
        ens = tiny_ensemble([[1.0], [1.0]])
        assert predict_one(ens, np.zeros(2))[0] == 0

    def test_dimension_mismatch(self):
        ens = tiny_ensemble([[1.0], [0.5]])
        with pytest.raises(DimensionError):
            predict_batch(ens, np.zeros((1, 5)))

    def test_ensemble_determinism_bit_identical(self):
        rng = np.random.default_rng(71)
        X, y = make_blob_problem(rng)
        t1 = fit_topics(X, 2, seed=5)
        t2 = fit_topics(X, 2, seed=5)
        e1 = train_ensemble(X, y, 3, t1, [CFG], folds=5)
        e2 = train_ensemble(X, y, 3, t2, [CFG], folds=5)
        np.testing.assert_array_equal(e1.weights, e2.weights)
        np.testing.assert_array_equal(e1.biases, e2.biases)
