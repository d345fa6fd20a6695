"""Object occurrence statistics over a detection-threshold grid, their Bayes
inversion into class posteriors, and discriminant object selection.

The occurrence model tabulates, for every (object, class, threshold) cell, the
fraction of the class's training images that contain the object at least once
at confidence >= threshold.  Posteriors invert that table under a class prior;
an object's discriminability at a threshold is the largest gap between
consecutive class posteriors after ranking them in descending order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ModelError
from .ingest import DatasetManifest, max_scores

FALLBACK_PRIOR = "prior"
FALLBACK_LAST_VALID = "last-valid"
AGG_MAX = "max"
AGG_MEAN = "mean"
# every (object, class) pair keeps one cell per grid point, and a bundle's
# grid comes from its file: bound the grid before allocating it
_MAX_GRID_POINTS = 100_000


def _require_finite(values, what: str) -> None:
    """A bundle's arrays come from its file: refuse NaN and infinities."""
    if not np.all(np.isfinite(values)):
        raise ValueError(f"{what} must be finite")


@dataclass(frozen=True)
class ThresholdGrid:
    """Ascending confidence thresholds theta_min, theta_min + step, ... <= theta_max."""

    theta_min: float = 0.0
    theta_max: float = 1.0
    delta_theta: float = 0.05

    def __post_init__(self):
        if not self.delta_theta > 0:
            raise ValueError("delta_theta must be positive")
        if not self.theta_min < self.theta_max:
            raise ValueError("theta_min must be below theta_max")
        span = (self.theta_max - self.theta_min) / self.delta_theta
        if not span < _MAX_GRID_POINTS:
            raise ValueError(f"threshold grid would have more than {_MAX_GRID_POINTS} points")
        n = int(math.floor(span * (1.0 + 1e-12) + 1e-12)) + 1
        if n < 2:
            raise ValueError("threshold grid needs at least 2 points")
        vals = self.theta_min + self.delta_theta * np.arange(n, dtype=float)
        # the last multiple may overshoot theta_max by a few ulps
        np.minimum(vals, self.theta_max, out=vals)
        vals.setflags(write=False)
        object.__setattr__(self, "_values", vals)

    @property
    def values(self) -> np.ndarray:
        return self._values

    def __len__(self) -> int:
        return self._values.size


def score_grid_indices(grid: ThresholdGrid, scores) -> np.ndarray:
    """Nearest grid point of each score after clamping into the bandwidth;
    exact midpoints go to the lower point."""
    vals = grid.values
    s = np.clip(np.asarray(scores, dtype=float), vals[0], vals[-1])
    hi = np.searchsorted(vals, s)  # first point >= s; in range after the clamp
    lo = np.maximum(hi - 1, 0)
    return np.where(s - vals[lo] <= vals[hi] - s, lo, hi)


@dataclass(frozen=True, eq=False)
class ClassPrior:
    """Non-negative class weights summing to one."""

    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        object.__setattr__(self, "weights", w)
        if w.ndim != 1 or w.size == 0:
            raise ValueError("prior must be a non-empty vector")
        _require_finite(w, "prior weights")
        if np.any(w < 0):
            raise ValueError("prior weights must be non-negative")
        if abs(float(w.sum()) - 1.0) > 1e-9:
            raise ValueError("prior weights must sum to 1")

    @classmethod
    def uniform(cls, n_classes: int) -> "ClassPrior":
        return cls(np.full(n_classes, 1.0 / n_classes))

    @classmethod
    def empirical(cls, manifest: DatasetManifest) -> "ClassPrior":
        """Training class frequencies over the labeled records."""
        labels = manifest.labels
        counts = np.bincount(labels[labels >= 0], minlength=len(manifest.classes))
        total = counts.sum()
        if total == 0:
            raise ModelError("cannot build an empirical prior from an unlabeled manifest")
        return cls(counts / total)


@dataclass(frozen=True, eq=False)
class OccurrenceModel:
    """probs[o, c, t]: fraction of class c images containing object o at >= theta_t."""

    grid: ThresholdGrid
    probs: np.ndarray

    def __post_init__(self):
        _require_finite(self.probs, "occurrence probabilities")

    @property
    def n_objects(self) -> int:
        return self.probs.shape[0]

    @property
    def n_classes(self) -> int:
        return self.probs.shape[1]


@dataclass(frozen=True, eq=False)
class PosteriorModel:
    """posteriors[o, c, t] = p(class c | object o seen at confidence theta_t).

    fallback_mask[o, t] marks cells whose Bayes denominator was zero; their
    columns hold the prior (default) or the last valid column carried forward.
    """

    grid: ThresholdGrid
    posteriors: np.ndarray
    prior: ClassPrior
    fallback_mask: np.ndarray

    def __post_init__(self):
        _require_finite(self.posteriors, "posteriors")

    @property
    def n_objects(self) -> int:
        return self.posteriors.shape[0]

    @property
    def n_classes(self) -> int:
        return self.posteriors.shape[1]


@dataclass(frozen=True, eq=False)
class DiscriminantSelection:
    """Per-object discriminability scores and the chosen top subset."""

    scores: np.ndarray
    selected: tuple[int, ...]

    def __post_init__(self):
        _require_finite(self.scores, "discriminability scores")

    def __len__(self) -> int:
        return len(self.selected)


def build_occurrence_model(train: DatasetManifest, grid: ThresholdGrid) -> OccurrenceModel:
    """Count object occurrences ("at least once per image") over the grid.

    Soft manifests participate through each object's best patch score, which
    stands in for the image-level detection confidence.  The manifest must
    have at least 2 classes, and every record must be labeled.
    """
    n_obj, n_cls = len(train.vocabulary), len(train.classes)
    if n_cls < 2:
        raise ModelError(f"training needs at least 2 scene classes, got {n_cls}")
    labels = train.labels
    if np.any(labels < 0):
        bad = [train.image_ids[i] for i in np.flatnonzero(labels < 0)]
        raise ModelError(f"training manifest has unlabeled records: {bad[:3]}...")
    thetas = grid.values
    best = max_scores(train)  # [n_records, n_obj]
    probs = np.zeros((n_obj, n_cls, thetas.size))
    for c in range(n_cls):
        rows = best[labels == c]
        if not len(rows):
            raise ModelError(
                f"scene class {train.classes.names[c]!r} has no labeled images"
            )
        counts = (rows[:, :, None] >= thetas).sum(axis=0)  # [n_obj, n_theta]
        probs[:, c, :] = counts / len(rows)
    return OccurrenceModel(grid=grid, probs=probs)


def build_posterior_model(oom: OccurrenceModel, prior: ClassPrior,
                          fallback: str = FALLBACK_PRIOR) -> PosteriorModel:
    """Bayes-invert the occurrence model under the prior.

    Cells where no class has any occurrence mass (zero denominator) are
    flagged and filled per `fallback`: "prior" installs the prior column,
    "last-valid" carries the highest-threshold valid column forward (falling
    back to the prior when no threshold is valid at all).
    """
    w = prior.weights
    if w.size != oom.n_classes:
        raise ValueError(
            f"prior has {w.size} classes, occurrence model has {oom.n_classes}"
        )
    num = oom.probs * w[None, :, None]
    denom = num.sum(axis=1)                   # [n_obj, n_theta]
    mask = denom == 0.0
    safe = np.where(mask, 1.0, denom)
    post = num / safe[:, None, :]
    if fallback == FALLBACK_PRIOR:
        post = np.where(mask[:, None, :], w[None, :, None], post)
    elif fallback == FALLBACK_LAST_VALID:
        o, t = np.nonzero(mask)
        # the last valid threshold below each flagged cell, -1 where none is
        last = np.maximum.accumulate(np.where(mask, -1, np.arange(mask.shape[1])), axis=1)[o, t]
        post[o, :, t] = np.where(last[:, None] >= 0, post[o, :, last], w)
    else:
        raise ValueError(f"unknown fallback rule {fallback!r}")
    return PosteriorModel(
        grid=oom.grid,
        posteriors=post,
        prior=prior,
        fallback_mask=mask,
    )


def discriminability_profile(post: PosteriorModel) -> np.ndarray:
    """[n_objects, n_thresholds]: the largest gap between consecutive class
    posteriors of each cell, ranked descending.

    Fallback cells score 0: they carry no evidence about the object.
    """
    if post.n_classes < 2:
        raise ValueError("discriminability needs at least 2 classes")
    srt = np.sort(post.posteriors, axis=1)[:, ::-1, :]
    phi = (srt[:, :-1, :] - srt[:, 1:, :]).max(axis=1)
    return np.where(post.fallback_mask, 0.0, phi)


def select_objects(post: PosteriorModel, count: int,
                   aggregation: str = AGG_MAX) -> DiscriminantSelection:
    """Keep the `count` most discriminant objects.

    Per-object score aggregates the discriminability profile over the grid
    (max by default, mean optionally); ties break toward the lower object index.
    """
    n_obj = post.n_objects
    if not 1 <= count <= n_obj:
        raise ValueError(f"object_count must be in [1, {n_obj}], the vocabulary size, "
                         f"got {count}")
    phi = discriminability_profile(post)
    if aggregation == AGG_MAX:
        scores = phi.max(axis=1)
    elif aggregation == AGG_MEAN:
        scores = phi.mean(axis=1)
    else:
        raise ValueError(f"unknown aggregation {aggregation!r}")
    order = np.argsort(-scores, kind="stable")
    return DiscriminantSelection(
        scores=scores,
        selected=tuple(int(i) for i in order[:count]),
    )
