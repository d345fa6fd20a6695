"""Per-topic one-vs-rest linear classifiers with decision pooling.

Training minimizes (lam/2)||w||^2 + mean hinge loss by stochastic subgradient
descent with the step schedule eta0 / (1 + eta0 * lam * t), shuffling samples
each epoch.  Every binary problem on one set of samples trains in lockstep:
one pass over the samples updates all of them, with each weight vector kept
as a scale times a vector (Bottou 2010; Pegasos, Shalev-Shwartz et al. 2007)
so the decay costs one multiply per problem and a sparse sample touches only
its nonzero columns.  On topic d, every cross-validation pass (grid entries,
folds and classes sharing a seed and epoch count, split so that a pass's
weights stay small) and the final one-vs-rest pass each draw one permutation
per epoch from a generator seeded with ``_derive_seed(seed, d)``.

At prediction time a descriptor is scored by every topic's classifiers; the
per-class decisions are pooled (sum by default, max for the ablation) and the
argmax wins, ties toward the lower class index.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    """One binary classifier, as ``train_binary`` returns it."""

    weights: np.ndarray
    bias: float


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


# A scale below this is folded into its weight row before the next update.
_TINY_SCALE = 1e-9


def _sgd_lockstep(X, Y, active, lam, eta0, epochs: int, rng):
    """Train P binary problems on the rows of X in one pass per epoch.

    Problem p sees the samples where ``active[p]`` holds, with labels
    ``Y[p]`` in {-1, +1}, step size ``eta0[p] / (1 + eta0[p] * lam[p] * t_p)``
    and ``t_p`` counting only its own samples.  Each epoch draws one
    ``rng.permutation(n)`` that every problem follows.  Per sample a problem
    does what the scalar loop does: margin test, decay by
    ``1 - eta * lam``, then the hinge update if the margin was below 1.

    Weights are held as ``w_p = s_p * V[p]`` so the decay is one multiply of
    the scale vector.  A row with fewer than half its entries nonzero reads
    and updates only those columns of V; any other row uses all of them.
    Returns the weight matrix [P, d] and the biases [P].
    """
    X = np.asarray(X, dtype=float)
    n, d = X.shape
    YT = np.ascontiguousarray(np.asarray(Y, dtype=float).T)   # [n, P]
    AT = np.ascontiguousarray(np.asarray(active, dtype=bool).T)
    lam = np.asarray(lam, dtype=float)
    eta0 = np.asarray(eta0, dtype=float)
    eta0_lam = eta0 * lam
    P = lam.size
    rows = []
    for x in X:
        cols = np.flatnonzero(x)
        rows.append((cols, x[cols]) if 2 * cols.size < d else (None, x))
    # Sparse rows read a few columns of V for every problem, dense rows update
    # whole rows of V: store V contiguous along what most rows need.
    n_sparse = sum(cols is not None for cols, _ in rows)
    V = np.zeros((P, d), order="F" if 2 * n_sparse > n else "C")
    s = np.ones(P)
    b = np.zeros(P)
    t = np.zeros(P)
    for _ in range(epochs):
        order = rng.permutation(n)
        # every problem's step count, step size and decay at each visit
        seen = AT[order]
        t_at = t + (np.cumsum(seen, axis=0) - seen)
        eta = eta0 / (1.0 + eta0_lam * t_at)
        decay = np.where(seen, 1.0 - eta * lam, 1.0)
        t += seen.sum(axis=0)
        for k, i in enumerate(order):
            cols, x = rows[i]
            dots = V @ x if cols is None else V[:, cols] @ x
            y = YT[i]
            violated = seen[k] & (y * (s * dots + b) < 1.0)
            s *= decay[k]
            if s.min(initial=1.0) < _TINY_SCALE:
                low = s < _TINY_SCALE
                V[low] *= s[low, None]
                s[low] = 1.0
            upd = np.flatnonzero(violated)
            if upd.size:
                step = eta[k, upd] * y[upd]
                b[upd] += step
                coef = (step / s[upd])[:, None] * x
                if cols is None:
                    V[upd] += coef
                else:
                    V[np.ix_(upd, cols)] += coef
    V *= s[:, None]
    return np.ascontiguousarray(V), b


def train_binary(positives, negatives, cfg: SgdConfig) -> LinearClassifier:
    """Stochastic subgradient descent on the regularized hinge loss.

    Deterministic for a fixed config: the epoch shuffles of the stacked
    positives-then-negatives come from a generator seeded with cfg.seed.
    Returns the final iterate.
    """
    P, N = _as_sample_matrix(positives), _as_sample_matrix(negatives)
    if P.size == 0 or N.size == 0:
        raise ValueError("training needs at least one positive and one negative sample")
    X = np.vstack([P, N])
    y = np.concatenate([np.ones(len(P)), -np.ones(len(N))])
    W, b = _sgd_lockstep(X, y[None, :], np.ones((1, len(X)), dtype=bool),
                         [cfg.lam], [cfg.eta0], cfg.epochs,
                         np.random.default_rng(cfg.seed))
    return LinearClassifier(weights=W[0], bias=float(b[0]))


def _derive_seed(base_seed: int, *parts: int) -> int:
    ss = np.random.SeedSequence([abs(int(base_seed))] + [abs(int(p)) for p in parts])
    return int(ss.generate_state(1, np.uint32)[0])


# Cross-validation trains its (grid entry, fold) one-vs-rest sets in passes
# whose weight matrices stay within this many bytes, and validates a pass's
# weights before it trains the next: with dense descriptors (soft VLAD,
# d = 50000) all grid x fold x class problems at once would hold hundreds of MB.
_CV_PASS_BYTES = 8 << 20


def _one_vs_rest_lockstep(X, y, n_classes: int, units, salt: int):
    """One-vs-rest problems for every (config, training mask) unit, in one pass.

    All configs must share seed and epochs.  The pass draws its permutations
    from a generator seeded with ``_derive_seed(seed, salt)``, so units split
    over several passes see the same sample order.  Within a mask, a class
    with no positives decides -1 everywhere and one with no negatives +1.
    Returns weights [U, C, d] and biases [U, C].
    """
    cfgs = [cfg for cfg, _ in units]
    U, n, d = len(units), len(y), X.shape[1]
    train_masks = np.array([mask for _, mask in units], dtype=bool).reshape(U, n)
    onehot = y[None, :] == np.arange(n_classes)[:, None]               # [C, n]
    has_pos = (train_masks[:, None, :] & onehot).any(axis=2)            # [U, C]
    has_neg = (train_masks[:, None, :] & ~onehot).any(axis=2)
    trained = has_pos & has_neg
    active = train_masks[:, None, :] & trained[:, :, None]              # [U, C, n]
    Y = np.where(onehot, 1.0, -1.0)
    P = U * n_classes
    W, b = _sgd_lockstep(
        X,
        np.broadcast_to(Y, (U, n_classes, n)).reshape(P, n),
        active.reshape(P, n),
        np.repeat([c.lam for c in cfgs], n_classes),
        np.repeat([c.eta0 for c in cfgs], n_classes),
        cfgs[0].epochs,
        np.random.default_rng(_derive_seed(cfgs[0].seed, salt)),
    )
    b = np.where(trained, b.reshape(U, n_classes), np.where(has_pos, 1.0, -1.0))
    return W.reshape(U, n_classes, d), b


def _fold_assignments(labels: np.ndarray, folds: int) -> np.ndarray:
    """Stratified round-robin folds, deterministic in sample order."""
    fold_of = np.zeros(len(labels), dtype=int)
    for c in np.unique(labels):
        idx = np.flatnonzero(labels == c)
        fold_of[idx] = np.arange(idx.size) % folds
    return fold_of


def cross_validate(descriptors, labels, n_classes: int, grid, folds: int,
                   salt: int = 0) -> SgdConfig:
    """Pick the grid entry with the best mean validation accuracy.

    Samples are stratified into round-robin folds per class; ties keep the
    earlier grid entry.  A single-entry grid short-circuits.  The (grid
    entry, fold, class) problems of each distinct (seed, epochs) train in
    lockstep passes seeded with ``_derive_seed(seed, salt)``, as many
    (grid entry, fold) sets per pass as fit in ``_CV_PASS_BYTES`` of weights.
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
    val_masks = [fold_of == f for f in range(folds)]
    val_masks = [v for v in val_masks if v.any() and not v.all()]
    per_pass = max(1, _CV_PASS_BYTES // (8 * n_classes * X.shape[1]))
    accs = np.zeros((len(grid), len(val_masks)))
    for key in dict.fromkeys((cfg.seed, cfg.epochs) for cfg in grid):
        units = [(g, m) for g, cfg in enumerate(grid) if (cfg.seed, cfg.epochs) == key
                 for m in range(len(val_masks))]
        for start in range(0, len(units), per_pass):
            batch = units[start:start + per_pass]
            W, b = _one_vs_rest_lockstep(
                X, y, n_classes, [(grid[g], ~val_masks[m]) for g, m in batch], salt)
            for (g, m), Wu, bu in zip(batch, W, b):
                val = val_masks[m]
                accs[g, m] = ((X[val] @ Wu.T + bu).argmax(axis=1) == y[val]).mean()
    acc = accs.mean(axis=1) if val_masks else np.zeros(len(grid))
    return grid[int(np.argmax(acc))]  # the first of tied entries


@dataclass(frozen=True, eq=False)
class TopicEnsemble:
    """weights[c, d] and biases[c, d] score class c from topic d's training samples."""

    weights: np.ndarray  # [C, D, dim]
    biases: np.ndarray   # [C, D]
    training_meta: dict

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

    Hyperparameters come from cross-validation on each topic's samples.
    Topics too small to validate fall back to the first grid entry.  A class
    with no positives in a topic decides -1 everywhere there, one with no
    negatives +1, which keeps pooled sums well-defined on any partition.
    """
    X = np.asarray(descriptors, dtype=float)
    y = np.asarray(labels, dtype=int)
    grid = list(grid)
    if not grid:
        raise ValueError("empty hyperparameter grid")
    if X.ndim != 2 or X.shape[1] != topics.dim:
        raise DimensionError("descriptors do not match the topic model dimension")
    topic_of, _ = assign_topics_batch(topics, X)

    weights = np.empty((n_classes, topics.n_topics, X.shape[1]))
    biases = np.empty((n_classes, topics.n_topics))
    topic_sizes, chosen = [], []
    for d in range(topics.n_topics):
        mask = topic_of == d
        Xd, yd = X[mask], y[mask]
        topic_sizes.append(int(mask.sum()))
        if len(grid) == 1 or len(Xd) < 2:
            cfg = grid[0]
        else:
            cfg = cross_validate(Xd, yd, n_classes, grid, folds, salt=d)
        chosen.append(cfg)
        W, b = _one_vs_rest_lockstep(Xd, yd, n_classes,
                                     [(cfg, np.ones(len(yd), dtype=bool))], salt=d)
        weights[:, d], biases[:, d] = W[0], b[0]
    return TopicEnsemble(
        weights=weights,
        biases=biases,
        training_meta={"topic_sizes": tuple(topic_sizes), "configs": tuple(chosen)},
    )


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
