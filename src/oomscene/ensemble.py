"""Per-topic one-vs-rest linear classifiers with decision pooling.

Training minimizes (lam/2)||w||^2 + mean hinge loss by stochastic subgradient
descent with the step schedule eta0 / (1 + eta0 * lam * t), shuffling samples
each epoch.  At prediction time a descriptor is scored by every topic's
classifiers; the per-class decisions are pooled (sum by default, max for the
ablation) and the argmax wins, ties toward the lower class index.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import DimensionError
from .topics import KMeansModel, assign_topics_batch


@dataclass(frozen=True)
class SgdConfig:
    lam: float
    eta0: float
    epochs: int
    seed: int

    def __post_init__(self):
        if not self.lam > 0:
            raise ValueError("lam must be positive")
        if not self.eta0 > 0:
            raise ValueError("eta0 must be positive")
        if self.epochs < 1:
            raise ValueError("epochs must be at least 1")


@dataclass(frozen=True, eq=False)
class LinearClassifier:
    weights: np.ndarray
    bias: float

    def decision(self, x) -> float:
        return float(self.weights @ np.asarray(x, dtype=float) + self.bias)


def constant_classifier(dim: int, decision: float) -> LinearClassifier:
    """Degenerate classifier emitting a fixed decision value."""
    return LinearClassifier(weights=np.zeros(dim), bias=float(decision))


def hinge_objective(clf: LinearClassifier, X, y, lam: float) -> float:
    """(lam/2)||w||^2 + mean hinge loss of the classifier on (X, y)."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    y = np.asarray(y, dtype=float)
    margins = y * (X @ clf.weights + clf.bias)
    reg = 0.5 * lam * float(clf.weights @ clf.weights)
    return reg + float(np.maximum(0.0, 1.0 - margins).mean())


def _as_sample_matrix(samples) -> np.ndarray:
    X = np.asarray(samples, dtype=float)
    if X.ndim == 1:
        X = X[None, :]
    return X


def train_binary(positives, negatives, cfg: SgdConfig) -> LinearClassifier:
    """Stochastic subgradient descent on the regularized hinge loss.

    Deterministic for a fixed config: the epoch shuffles come from a
    generator seeded with cfg.seed.  Returns the final iterate.
    """
    P, N = _as_sample_matrix(positives), _as_sample_matrix(negatives)
    if P.size == 0 or N.size == 0:
        raise ValueError("training needs at least one positive and one negative sample")
    X = np.vstack([P, N])
    y = np.concatenate([np.ones(len(P)), -np.ones(len(N))])
    rng = np.random.default_rng(cfg.seed)
    w = np.zeros(X.shape[1])
    b = 0.0
    t = 0
    for _ in range(cfg.epochs):
        for i in rng.permutation(len(X)):
            eta = cfg.eta0 / (1.0 + cfg.eta0 * cfg.lam * t)
            violated = y[i] * (X[i] @ w + b) < 1.0
            w *= 1.0 - eta * cfg.lam
            if violated:
                w += (eta * y[i]) * X[i]
                b += eta * y[i]
            t += 1
    return LinearClassifier(weights=w, bias=b)


def _derive_seed(base_seed: int, *parts: int) -> int:
    ss = np.random.SeedSequence([abs(int(base_seed))] + [abs(int(p)) for p in parts])
    return int(ss.generate_state(1, np.uint32)[0])


def train_one_vs_rest(X, labels, n_classes: int, cfg: SgdConfig,
                      salt: int = 0) -> list[LinearClassifier]:
    """One binary classifier per class; degenerate classes get constants.

    A class with no positives decides -1 everywhere; one with no negatives
    decides +1.  That keeps pooled sums well-defined on any partition.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(labels, dtype=int)
    out = []
    for c in range(n_classes):
        pos, neg = X[y == c], X[y != c]
        if len(pos) == 0:
            out.append(constant_classifier(X.shape[1], -1.0))
        elif len(neg) == 0:
            out.append(constant_classifier(X.shape[1], +1.0))
        else:
            out.append(
                train_binary(pos, neg, replace(cfg, seed=_derive_seed(cfg.seed, salt, c)))
            )
    return out


def _decision_matrix(classifiers: list[LinearClassifier], X: np.ndarray) -> np.ndarray:
    W = np.stack([c.weights for c in classifiers])
    b = np.array([c.bias for c in classifiers])
    return X @ W.T + b


def _fold_assignments(labels: np.ndarray, folds: int) -> np.ndarray:
    """Stratified round-robin folds, deterministic in sample order."""
    fold_of = np.zeros(len(labels), dtype=int)
    for c in np.unique(labels):
        idx = np.flatnonzero(labels == c)
        fold_of[idx] = np.arange(idx.size) % folds
    return fold_of


def cross_validate(descriptors, labels, n_classes: int, grid, folds: int) -> SgdConfig:
    """Pick the grid entry with the best mean validation accuracy.

    Samples are stratified into round-robin folds per class; ties keep the
    earlier grid entry.  A single-entry grid short-circuits.
    """
    grid = list(grid)
    if not grid:
        raise ValueError("empty hyperparameter grid")
    if folds < 2:
        raise ValueError("cross-validation needs at least 2 folds")
    if len(grid) == 1:
        return grid[0]
    X = np.asarray(descriptors, dtype=float)
    y = np.asarray(labels, dtype=int)
    fold_of = _fold_assignments(y, folds)
    best, best_acc = None, -1.0
    for cfg in grid:
        accs = []
        for f in range(folds):
            val = fold_of == f
            tr = ~val
            if not val.any() or not tr.any():
                continue
            clfs = train_one_vs_rest(X[tr], y[tr], n_classes, cfg, salt=f + 1)
            pred = _decision_matrix(clfs, X[val]).argmax(axis=1)
            accs.append(float((pred == y[val]).mean()))
        acc = float(np.mean(accs)) if accs else 0.0
        if acc > best_acc:
            best, best_acc = cfg, acc
    return best


@dataclass(frozen=True, eq=False)
class TopicEnsemble:
    """classifiers[c][d] scores class c from topic d's training samples."""

    topics: KMeansModel
    classifiers: tuple[tuple[LinearClassifier, ...], ...]
    training_meta: dict

    @property
    def n_classes(self) -> int:
        return len(self.classifiers)

    @property
    def n_topics(self) -> int:
        return len(self.classifiers[0])

    @property
    def dim(self) -> int:
        return self.classifiers[0][0].weights.size


def train_ensemble(descriptors, labels, n_classes: int, topics: KMeansModel,
                   grid, folds: int) -> TopicEnsemble:
    """Partition training samples by topic and train one-vs-rest per topic.

    Hyperparameters come from cross-validation on each topic's samples.
    Topics too small to validate fall back to the first grid entry.
    """
    X = np.asarray(descriptors, dtype=float)
    y = np.asarray(labels, dtype=int)
    grid = list(grid)
    if not grid:
        raise ValueError("empty hyperparameter grid")
    if X.ndim != 2 or X.shape[1] != topics.dim:
        raise DimensionError("descriptors do not match the topic model dimension")
    topic_of, _ = assign_topics_batch(topics, X)

    per_topic, topic_sizes, chosen = [], [], []
    for d in range(topics.n_topics):
        mask = topic_of == d
        Xd, yd = X[mask], y[mask]
        topic_sizes.append(int(mask.sum()))
        if len(grid) == 1 or len(Xd) < 2:
            cfg = grid[0]
        else:
            cfg = cross_validate(Xd, yd, n_classes, grid, folds)
        chosen.append(cfg)
        per_topic.append(train_one_vs_rest(Xd, yd, n_classes, cfg, salt=d))
    return TopicEnsemble(
        topics=topics,
        classifiers=tuple(zip(*per_topic)),
        training_meta={"topic_sizes": topic_sizes, "configs": chosen},
    )


def decision_values(ens: TopicEnsemble, X) -> np.ndarray:
    """Raw decisions for every (sample, class, topic): [n, C, D]."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if X.shape[1] != ens.dim:
        raise DimensionError(
            f"descriptors have dimension {X.shape[1]}, ensemble expects {ens.dim}"
        )
    C, D = ens.n_classes, ens.n_topics
    W = np.stack([ens.classifiers[c][d].weights for c in range(C) for d in range(D)])
    b = np.array([ens.classifiers[c][d].bias for c in range(C) for d in range(D)])
    return (X @ W.T + b).reshape(len(X), C, D)


def predict_batch(ens: TopicEnsemble, X, pooling: str = "average"):
    """Pooled class scores and argmax labels for a batch of descriptors."""
    dec = decision_values(ens, X)
    if pooling == "average":
        scores = dec.sum(axis=2)
    elif pooling == "max":
        scores = dec.max(axis=2)
    else:
        raise ValueError(f"unknown pooling {pooling!r}")
    return scores.argmax(axis=1), scores


def predict(ens: TopicEnsemble, descriptor):
    """Sum each class's decisions over all topics; argmax wins (low index on ties).

    Test descriptors are never routed to a single topic: every topic's
    classifiers contribute.
    """
    x = np.asarray(descriptor, dtype=float)
    if x.ndim != 1:
        raise DimensionError("predict takes a single descriptor vector")
    labels, scores = predict_batch(ens, x[None, :], pooling="average")
    return int(labels[0]), scores[0]


def predict_max_pool(ens: TopicEnsemble, descriptor):
    """predict with max pooling over topics instead of the sum (ablation)."""
    x = np.asarray(descriptor, dtype=float)
    if x.ndim != 1:
        raise DimensionError("predict takes a single descriptor vector")
    labels, scores = predict_batch(ens, x[None, :], pooling="max")
    return int(labels[0]), scores[0]
