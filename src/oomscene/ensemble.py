"""Per-topic one-vs-rest linear classifiers with decision pooling.

Training minimizes (lam/2)||w||^2 + mean hinge loss by stochastic subgradient
descent with the step schedule eta0 / (1 + eta0 * lam * t), shuffling samples
each epoch.  Every binary problem on one set of samples trains in lockstep:
one pass over the samples updates all of them.  Each weight vector is kept
as a scale times coefficients over the samples (lazy scaling, Bottou 2010;
the kernelised Pegasos, Shalev-Shwartz et al. 2011, section 4), so the decay
costs one multiply per problem, a margin is a row of coefficients times a
column of the Gram matrix X X^T, and an update writes one coefficient.  On
topic d, every grid entry's problems (one per class) on each fold's
complement and on all samples train in one pass over one Gram matrix, its
permutations seeded with ``_derive_seed(seed, d)``; the cross-validation
winner's all-sample problems are the topic's classifiers.

At prediction time a descriptor is scored by every topic's classifiers; the
per-class decisions are pooled (sum by default, max for the ablation) and the
argmax wins, ties toward the lower class index.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, ModelError
from .topics import KMeansModel, assign_topics_batch


@dataclass(frozen=True)
class SgdConfig:
    lam: float
    eta0: float
    epochs: int
    seed: int

    def __post_init__(self):
        if not 0 < self.lam < np.inf:
            raise ValueError(f"lam must be finite and positive, got {self.lam}")
        if not 0 < self.eta0 < np.inf:
            raise ValueError(f"eta0 must be finite and positive, got {self.eta0}")
        if self.epochs < 1:
            raise ValueError("epochs must be at least 1")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")


# A scale below this is folded into its coefficient row before the next update.
_TINY_SCALE = 1e-9

# A lockstep call on n samples and P problems holds the Gram matrix, 8 * n^2
# bytes, and about 50 * P * n bytes of coefficients, labels and step schedule;
# a Gram matrix, or a topic in train_ensemble, of more samples is refused.
_GRAM_MAX_SAMPLES = 8192


def _gram(X: np.ndarray) -> np.ndarray:
    """K = X X^T.  More than ``_GRAM_MAX_SAMPLES`` rows raise a ModelError
    before anything is allocated."""
    n = len(X)
    if n > _GRAM_MAX_SAMPLES:
        raise ModelError(f"SGD on {n} samples exceeds the limit of {_GRAM_MAX_SAMPLES} "
                         "(its Gram matrix takes 8 * n^2 bytes)")
    return X @ X.T


def _sgd_lockstep(K, Y, active, lam, eta0, epochs: int, rng):
    """Train P binary problems on n samples in one pass per epoch.

    Problem p sees the samples where ``active[p]`` holds, with labels
    ``Y[p]`` in {-1, +1}, step size ``eta0[p] / (1 + eta0[p] * lam[p] * t_p)``
    and ``t_p`` counting only its own samples.  Each epoch draws one
    ``rng.permutation(n)`` that every problem follows.  Per sample a problem
    does what the scalar loop does: margin test, decay by
    ``1 - eta * lam``, then the hinge update if the margin was below 1.

    Weights are held as coefficients over the samples, ``w_p = s_p * A[p] @ X``
    (the kernelised Pegasos iteration): with the Gram matrix K = X X^T
    (``_gram``) a sample's margins are ``A @ K[i]``, the decay is one
    multiply of the scale vector and an update writes one column of A.
    Returns the coefficients [P, n], whose product with X is the weight
    matrix, and the biases [P].
    """
    n = len(K)
    YT = np.ascontiguousarray(np.asarray(Y, dtype=float).T)   # [n, P]
    AT = np.ascontiguousarray(np.asarray(active, dtype=bool).T)
    lam = np.asarray(lam, dtype=float)
    eta0 = np.asarray(eta0, dtype=float)
    eta0_lam = eta0 * lam
    A = np.zeros((lam.size, n))
    s = np.ones(lam.size)
    b = np.zeros(lam.size)
    t = np.zeros(lam.size)
    for _ in range(epochs):
        order = rng.permutation(n)
        # every problem's step count, step size and decay at each visit
        seen = AT[order]
        t_at = t + (np.cumsum(seen, axis=0) - seen)
        eta = eta0 / (1.0 + eta0_lam * t_at)
        decay = np.where(seen, 1.0 - eta * lam, 1.0)
        t += seen.sum(axis=0)
        # with every decay in (0, 1) a scale only falls, so the epoch's last
        # scale is its least; 2x covers the rounding of prod against the steps
        can_fold = not ((decay > 0).all()
                        and (s * decay.prod(axis=0)).min(initial=1.0) >= 2 * _TINY_SCALE)
        for k, i in enumerate(order):
            y = YT[i]
            violated = seen[k] & (y * (s * (A @ K[i]) + b) < 1.0)
            s *= decay[k]
            if can_fold and s.min(initial=1.0) < _TINY_SCALE:
                low = s < _TINY_SCALE
                A[low] *= s[low, None]
                s[low] = 1.0
            upd = violated.nonzero()[0]
            if upd.size:
                step = eta[k, upd] * y[upd]
                b[upd] += step
                A[upd, i] += step / s[upd]
    A *= s[:, None]
    return A, b


def _derive_seed(base_seed: int, *parts: int) -> int:
    ss = np.random.SeedSequence([abs(int(base_seed))] + [abs(int(p)) for p in parts])
    return int(ss.generate_state(1, np.uint32)[0])


def _checked_labels(labels, n_samples: int, n_classes: int) -> np.ndarray:
    """The labels as ints, one per sample and each in [0, n_classes)."""
    y = np.asarray(labels, dtype=int)
    if y.shape != (n_samples,):
        raise DimensionError(f"{y.size} labels for {n_samples} samples")
    bad = np.flatnonzero((y < 0) | (y >= n_classes))
    if bad.size:
        raise ModelError(f"label {y[bad[0]]} of sample {bad[0]} is outside "
                         f"[0, {n_classes})")
    return y


def _validation_masks(labels: np.ndarray, folds: int) -> list[np.ndarray]:
    """Stratified round-robin folds, deterministic in sample order; a fold
    that is empty or holds every sample is dropped."""
    fold_of = np.zeros(len(labels), dtype=int)
    classes, sizes = np.unique(labels, return_counts=True)
    for c in classes:
        idx = np.flatnonzero(labels == c)
        fold_of[idx] = np.arange(idx.size) % folds
    # no sample falls in a fold at or past the largest class's size
    masks = [fold_of == f for f in range(min(folds, sizes.max(initial=0)))]
    return [v for v in masks if v.any() and not v.all()]


def train_one_vs_rest(descriptors, labels, n_classes: int, grid, folds: int,
                      salt: int = 0):
    """Pick a grid entry by cross-validation and train its one-vs-rest classifiers.

    Every grid entry must share one seed and epoch count.  K = X X^T is built
    once.  One lockstep pass, seeded with ``_derive_seed(seed, salt)``,
    trains the G·(F+1)·C problems of every (grid entry, training set, class),
    the training sets being the F folds' complements and all samples.  A
    fold's validation samples are scored from the coefficients and the Gram
    columns ``K[:, val]``; the entry with the best mean validation accuracy
    wins, ties to the earlier entry, and its all-sample problems are
    returned.  Problems in a pass are independent: each trains as it would
    alone.  A single-entry grid, or samples too few to hold out a fold, train
    only ``grid[0]``'s C problems on all samples and take it.  Within a
    training set, a class with no positives decides -1 everywhere and one
    with no negatives +1, with zero weights.
    A binary SVM is a two-class call: label the positives 1, the negatives 0,
    and read row 1 (row 0 is its negation).

    Returns (chosen config, weights [C, dim], biases [C]).
    """
    grid = list(grid)
    if not grid:
        raise ValueError("empty hyperparameter grid")
    if len({(cfg.seed, cfg.epochs) for cfg in grid}) > 1:
        raise ValueError("grid entries must share one seed and one epoch count")
    X = np.asarray(descriptors, dtype=float)
    n = len(X)
    y = _checked_labels(labels, n, n_classes)
    vals = []
    if len(grid) > 1:
        if folds < 2:
            raise ValueError("cross-validation needs at least 2 folds")
        vals = _validation_masks(y, folds)
    onehot = y[None, :] == np.arange(n_classes)[:, None]                     # [C, n]
    K = _gram(X)

    def fit(entries, train_masks):
        """Coefficients [E, M, C, n] and biases [E, M, C] of every (entry,
        training mask, class) problem, from one lockstep pass."""
        masks = np.array(train_masks)[:, None, :]                            # [M, 1, n]
        has_pos = (masks & onehot).any(axis=2)                               # [M, C]
        trained = has_pos & (masks & ~onehot).any(axis=2)
        shape = (len(entries),) + trained.shape + (n,)
        P = len(entries) * trained.size
        A, b = _sgd_lockstep(
            K,
            np.broadcast_to(np.where(onehot, 1.0, -1.0), shape).reshape(P, n),
            np.broadcast_to(masks & trained[:, :, None], shape).reshape(P, n),
            np.repeat([cfg.lam for cfg in entries], trained.size),
            np.repeat([cfg.eta0 for cfg in entries], trained.size),
            grid[0].epochs,
            np.random.default_rng(_derive_seed(grid[0].seed, salt)),
        )
        b = np.where(trained, b.reshape(shape[:-1]), np.where(has_pos, 1.0, -1.0))
        return A.reshape(shape), b

    # every entry's all-sample problems train alongside its fold problems
    A, b = fit(grid if vals else grid[:1], [~v for v in vals] + [np.ones(n, dtype=bool)])
    best = 0
    if vals:
        accs = np.empty((len(grid), len(vals)))
        for m, val in enumerate(vals):
            scores = A[:, m] @ K[:, val] + b[:, m, :, None]                 # [G, C, n_val]
            accs[:, m] = (scores.argmax(axis=1) == y[val]).mean(axis=1)
        best = int(np.argmax(accs.mean(axis=1)))  # the first of tied entries
    return grid[best], A[best, -1] @ X, b[best, -1]


@dataclass(frozen=True, eq=False)
class TopicEnsemble:
    """weights[c, d] and biases[c, d] score class c from topic d's training
    samples; topic d had topic_sizes[d] of them and trained with configs[d]."""

    weights: np.ndarray  # [C, D, dim]
    biases: np.ndarray   # [C, D]
    topic_sizes: tuple[int, ...]
    configs: tuple[SgdConfig, ...]

    def __post_init__(self):
        for name in ("weights", "biases"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise ValueError(f"ensemble {name} must be finite")

    @property
    def n_classes(self) -> int:
        return self.weights.shape[0]

    @property
    def n_topics(self) -> int:
        return self.weights.shape[1]

    @property
    def dim(self) -> int:
        return self.weights.shape[2]


def train_ensemble(descriptors, labels, n_classes: int, topics: KMeansModel,
                   grid, folds: int) -> TopicEnsemble:
    """Partition training samples by topic and train one-vs-rest per topic.

    Each topic trains in one ``train_one_vs_rest`` call, which picks its
    hyperparameters by cross-validation on the topic's samples; topics too
    small to validate take the first grid entry.  A class
    with no positives in a topic decides -1 everywhere there, one with no
    negatives +1, which keeps pooled sums well-defined on any partition.
    Labels other than one per descriptor in [0, n_classes), and a topic with
    more than ``_GRAM_MAX_SAMPLES`` samples, are refused before any topic
    trains.
    """
    X = np.asarray(descriptors, dtype=float)
    grid = list(grid)
    if X.ndim != 2 or X.shape[1] != topics.dim:
        raise DimensionError("descriptors do not match the topic model dimension")
    y = _checked_labels(labels, len(X), n_classes)
    topic_of, _ = assign_topics_batch(topics, X)
    topic_sizes = np.bincount(topic_of, minlength=topics.n_topics)
    if topic_sizes.max(initial=0) > _GRAM_MAX_SAMPLES:
        d = int(topic_sizes.argmax())
        raise ModelError(f"topic {d} has {topic_sizes[d]} training samples, above "
                         f"the SGD limit of {_GRAM_MAX_SAMPLES}")

    weights = np.empty((n_classes, topics.n_topics, X.shape[1]))
    biases = np.empty((n_classes, topics.n_topics))
    chosen = []
    for d in range(topics.n_topics):
        mask = topic_of == d
        Xd = X if topic_sizes[d] == len(X) else X[mask]  # no copy for a topic of every sample
        cfg, weights[:, d], biases[:, d] = train_one_vs_rest(Xd, y[mask], n_classes,
                                                             grid, folds, salt=d)
        chosen.append(cfg)
    return TopicEnsemble(weights=weights, biases=biases,
                         topic_sizes=tuple(int(v) for v in topic_sizes),
                         configs=tuple(chosen))


def predict_batch(ens: TopicEnsemble, X, pooling: str = "average"):
    """Pooled class scores and argmax labels for a batch of descriptors.

    Every topic's classifiers score every descriptor; "average" sums each
    class's decisions over the topics, "max" (the ablation) takes their
    maximum.  The argmax wins, ties toward the lower class index.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if X.shape[1] != ens.dim:
        raise DimensionError(
            f"descriptors have dimension {X.shape[1]}, ensemble expects {ens.dim}"
        )
    C, D, dim = ens.weights.shape
    W = ens.weights.reshape(C * D, dim)
    dec = (X @ W.T + ens.biases.reshape(C * D)).reshape(len(X), C, D)  # [n, C, D]
    if pooling == "average":
        scores = dec.sum(axis=2)
    elif pooling == "max":
        scores = dec.max(axis=2)
    else:
        raise ValueError(f"unknown pooling {pooling!r}")
    return scores.argmax(axis=1), scores
