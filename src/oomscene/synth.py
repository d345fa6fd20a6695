"""Synthetic multi-domain manifests with planted structure.

The generator draws hard- or soft-detection manifests whose images carry a
hidden topic.  Detection probabilities depend on (topic, class, object);
detection scores come from clipped Gaussians.  A hard image holds 1 to 3
boxed detections of each detected object; a soft image holds a fixed number
of patches, where a detected object lights 1 to 3 of them and every other
score is a uniform noise floor in [0, NOISE_FLOOR).  The target domain
re-draws images from the same model and then applies a score shift
(scale/offset, unclamped, noise floor included) plus detection dropout.
Hidden topics are encoded in the image ids so oracle checks can recover them.

Also home to the raw-score baseline encoder, the un-quantized counterpart of
the posterior descriptor, and a small adjusted-Rand helper for cluster
recovery checks.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

from .errors import VariantError
from .descriptor_hard import PyramidLayout, pyramid_regions
from .ingest import (
    HARD,
    SOFT,
    DatasetManifest,
    ObjectVocabulary,
    SceneClassSet,
)

_TOPIC_RE = re.compile(r"_t(\d+)_")
NOISE_FLOOR = 0.1  # soft scores of undetected (patch, object) pairs
# planted_spec's score model: detection probabilities, then the centres
# and spreads of the clipped Gaussian scores
MARKER_PROB = 0.92  # a topic marker, in every class of its topic
CLASS_HI = 0.7  # a class object in its own class
CLASS_LO = 0.35  # a class object in the next class
CONTEXT_BASE = 0.15  # a context object: CONTEXT_BASE + CONTEXT_SPAN times
CONTEXT_SPAN = 0.5  # a class grade in [0, 1]
NOISE_PROB = 0.04  # every other (topic, class, object)
SCORE_CENTER = 0.95  # every object but context objects
SCORE_SPREAD = 0.15
CONTEXT_SCORE_CENTER = 0.45  # context objects
CONTEXT_SCORE_SPREAD = 0.2
# the most values a spec's score tensors or a manifest's draws may hold: the
# draw loops over every image in Python and keeps every score.  2^24 is ten
# times the benchmark's largest draw (18 x 56 images x 200 objects x 8
# patches, about 1.6 M scores), and 128 MiB of float64
_MAX_DRAWS = 1 << 24


def _check_draws(what: str, **factors: int) -> None:
    """Refuse, before anything is allocated, factors whose product is above
    ``_MAX_DRAWS``, naming each factor."""
    total = math.prod(factors.values())
    if total > _MAX_DRAWS:
        named = " x ".join(f"{name} {n}" for name, n in factors.items())
        raise ValueError(f"{named} is {total} {what}, more than {_MAX_DRAWS}")


@dataclass(frozen=True)
class DomainShift:
    """Score transform score' = scale * score + offset, plus detection dropout."""

    score_offset: float = 0.0
    score_scale: float = 1.0
    dropout: float = 0.0

    def __post_init__(self):
        for name in ("score_offset", "score_scale"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if not self.score_scale > 0:
            raise ValueError("score_scale must be positive")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError("dropout must be in [0, 1)")


@dataclass(frozen=True, eq=False)
class ScoreModel:
    """Per (topic, class, object): detection probability and score mean/spread."""

    detect_prob: np.ndarray
    score_mean: np.ndarray
    score_spread: np.ndarray

    def __post_init__(self):
        for name in ("detect_prob", "score_mean", "score_spread"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        if not (self.detect_prob.shape == self.score_mean.shape == self.score_spread.shape):
            raise ValueError("score model tensors must share one (topics, classes, objects) shape")
        if self.detect_prob.ndim != 3 or 0 in self.detect_prob.shape:
            raise ValueError(f"score model tensors must be 3-D (topics, classes, objects) "
                             f"with at least one of each, got shape {self.detect_prob.shape}")
        if np.any(self.detect_prob < 0) or np.any(self.detect_prob > 1):
            raise ValueError("detection probabilities must lie in [0, 1]")
        if np.any(self.score_spread <= 0):
            raise ValueError("score spreads must be positive")


@dataclass(frozen=True)
class SynthSpec:
    images_per_class: int
    score_model: ScoreModel
    shift: DomainShift
    seed: int

    def __post_init__(self):
        if self.images_per_class < 1:
            raise ValueError(f"images_per_class must be at least 1, "
                             f"got {self.images_per_class}")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")

    @property
    def n_topics_true(self) -> int:
        return self.score_model.detect_prob.shape[0]

    @property
    def n_classes(self) -> int:
        return self.score_model.detect_prob.shape[1]

    @property
    def n_objects(self) -> int:
        return self.score_model.detect_prob.shape[2]


def planted_spec(n_classes: int, n_objects: int, n_topics: int,
                 images_per_class: int, shift: DomainShift = DomainShift(),
                 seed: int = 0) -> SynthSpec:
    """Spec with three kinds of planted objects, scored by the module's
    score-model constants.

    A count below 1, or score tensors (topics x classes x objects) above
    ``_MAX_DRAWS``, is refused before anything is allocated.

    Topic markers fire in all classes of their topic so clustering can
    recover the hidden partition (and so a single pooled classifier carries
    noisy weights a per-topic one avoids).  Class objects carry the scene
    signal but overlap adjacent classes, keeping margins thin.  Context
    objects fire at class-graded rates on a much lower score scale: a score
    offset re-weights their raw values against the high-scoring objects,
    while threshold-grid lookups stay on stable posterior columns.
    """
    for name, n in (("n_classes", n_classes), ("n_objects", n_objects),
                    ("n_topics", n_topics), ("images_per_class", images_per_class)):
        if n < 1:
            raise ValueError(f"{name} must be at least 1, got {n}")
    _check_draws("spec scores", n_topics=n_topics, n_classes=n_classes, n_objects=n_objects)
    if n_objects < n_topics + n_classes:
        raise ValueError("need at least n_topics + n_classes objects to plant structure")
    per_topic = max(1, int(0.6 * n_objects) // n_topics)
    while n_topics * per_topic > n_objects - n_classes:
        per_topic -= 1
    n_markers = n_topics * per_topic
    n_context = max(0, min(6, n_objects - n_markers - n_classes))
    n_class_obj = n_objects - n_markers - n_context

    prob = np.full((n_topics, n_classes, n_objects), NOISE_PROB)
    mean = np.full_like(prob, SCORE_CENTER)
    spread = np.full_like(prob, SCORE_SPREAD)
    for t in range(n_topics):
        prob[t, :, t * per_topic : (t + 1) * per_topic] = MARKER_PROB
    for k in range(n_class_obj):
        o = n_markers + k
        prob[:, k % n_classes, o] = CLASS_HI
        prob[:, (k + 1) % n_classes, o] = CLASS_LO
    for j in range(n_context):
        o = n_markers + n_class_obj + j
        for c in range(n_classes):
            grade = ((c + j) % n_classes) / max(n_classes - 1, 1)
            prob[:, c, o] = CONTEXT_BASE + CONTEXT_SPAN * grade
        mean[:, :, o] = CONTEXT_SCORE_CENTER
        spread[:, :, o] = CONTEXT_SCORE_SPREAD

    return SynthSpec(images_per_class=images_per_class,
                     score_model=ScoreModel(prob, mean, spread), shift=shift, seed=seed)


def _random_box(rng) -> tuple[float, float, float, float]:
    # one draw of four uniforms; the same numbers, in the same order, as
    # rng.uniform(0.05, 0.3) twice and then rng.uniform(0, 1 - w), (0, 1 - h)
    a, b, c, d = rng.random(4).tolist()
    w = 0.05 + 0.25 * a
    h = 0.05 + 0.25 * b
    x0 = (1.0 - w) * c
    y0 = (1.0 - h) * d
    return (x0, y0, min(1.0, x0 + w), min(1.0, y0 + h))


def _soft_scores(rng, prob, mean, spread, patches: int) -> np.ndarray:
    """[patches, objects] scores: a detected object lights 1 to 3 patches
    with its clipped Gaussian score; every other score is the noise floor."""
    shape = (patches, prob.size)
    present = rng.random(prob.size) < prob
    hits = np.minimum(rng.integers(1, 4, prob.size), patches)
    rank = rng.random(shape).argsort(axis=0).argsort(axis=0)
    signal = np.clip(rng.normal(mean, spread, shape), 0.0, 1.0)
    floor = rng.uniform(0.0, NOISE_FLOOR, shape)
    return np.where(present & (rank < hits), signal, floor)


def _draw_manifest(spec: SynthSpec, patches: int, domain_tag: str, domain_code: int,
                   split_tag: str) -> DatasetManifest:
    model = spec.score_model
    n_topics, n_classes, n_objects = model.detect_prob.shape
    ids, labels, image, obj, score, box = [], [], [], [], [], []
    for c in range(n_classes):
        for i in range(spec.images_per_class):
            # per-image substream: generation order never matters
            rng = np.random.default_rng([spec.seed, domain_code, c, i])
            topic = int(rng.integers(n_topics))
            prob, mean, spread = (model.detect_prob[topic, c], model.score_mean[topic, c],
                                  model.score_spread[topic, c])
            if patches:
                score.append(_soft_scores(rng, prob, mean, spread, patches))
            else:
                for o in range(n_objects):
                    if rng.random() < prob[o]:
                        for _ in range(int(rng.integers(1, 4))):
                            image.append(len(ids))
                            obj.append(o)
                            # clipped to [0, 1] as np.clip would, without its call cost
                            score.append(min(max(float(rng.normal(mean[o], spread[o])),
                                                 0.0), 1.0))
                            box.append(_random_box(rng))
            ids.append(f"{domain_tag}_c{c:02d}_t{topic}_{i:04d}")
            labels.append(c)
    if patches:
        image = np.repeat(np.arange(len(ids)), patches)
        dets = dict(patch_id=np.tile(np.arange(patches), len(ids)),
                    scores=np.concatenate(score))
    else:
        dets = dict(object_index=obj, score=score, box=box)
    return DatasetManifest.from_arrays(
        ObjectVocabulary(tuple(f"obj{i:03d}" for i in range(n_objects))),
        SceneClassSet(tuple(f"class{i:02d}" for i in range(n_classes))),
        split_tag, SOFT if patches else HARD, ids, labels, [domain_tag] * len(ids),
        image, **dets)


def apply_shift(manifest: DatasetManifest, shift: DomainShift,
                seed: int) -> DatasetManifest:
    """Transform every detection score and drop detections at the dropout rate.

    Shifted scores are stored raw (no clamping); encoders clamp into their
    own threshold bandwidth.  A shift whose scores overflow is refused.
    Dropout draws are keyed by record index, so unlike the generator's
    per-image draws they change when records are added before a record.  A
    soft record can lose every patch; encoding refuses such an empty bag.
    """
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    keep = np.ones(manifest.image.size, dtype=bool)
    if shift.dropout > 0:
        # one draw per detection from each record's own substream
        bounds = manifest.bounds.tolist()
        for ri, (start, stop) in enumerate(zip(bounds[:-1], bounds[1:])):
            rng = np.random.default_rng([int(seed), 424243, ri])
            keep[start:stop] = rng.random(stop - start) >= shift.dropout
    hard = manifest.mode == HARD
    with np.errstate(over="ignore"):
        shifted = (shift.score_scale * (manifest.score if hard else manifest.scores)[keep]
                   + shift.score_offset)
    if not np.isfinite(shifted).all():
        raise ValueError(f"score_scale {shift.score_scale} and score_offset "
                         f"{shift.score_offset} overflow the shifted scores")
    if hard:
        dets = dict(object_index=manifest.object_index[keep], score=shifted,
                    box=manifest.box[keep])
    else:
        dets = dict(patch_id=manifest.patch_id[keep], scores=shifted)
    return DatasetManifest.from_arrays(
        manifest.vocabulary, manifest.classes, manifest.split_tag, manifest.mode,
        manifest.image_ids, manifest.labels, manifest.domain_tags, manifest.image[keep],
        **dets)


def generate(spec: SynthSpec, patches: int = 0) -> tuple[DatasetManifest, DatasetManifest]:
    """Draw (source, target) manifests; the target applies the spec's shift.

    ``patches`` 0 draws hard manifests; ``patches`` >= 1 draws soft ones
    with that many patches per image; a manifest of more than ``_MAX_DRAWS``
    draws (images x objects, times ``patches`` in soft mode) is refused
    before anything is drawn.  Deterministic per seed.  Each image
    has its own substream, so the first k images of a class are the same
    whatever ``images_per_class``.  With an identity shift the target is a
    fresh same-distribution draw, i.e. a held-out source-domain test set.
    """
    if patches < 0:
        raise ValueError(f"patches must be non-negative, got {patches}")
    _check_draws("draws per manifest", n_classes=spec.n_classes,
                 images_per_class=spec.images_per_class, n_objects=spec.n_objects,
                 **({"patches": patches} if patches else {}))
    source = _draw_manifest(spec, patches, "source", 0, "train")
    target = _draw_manifest(spec, patches, "target", 1, "test")
    return source, apply_shift(target, spec.shift, seed=spec.seed)


def hidden_topic_of(image_id: str) -> int:
    """Recover the generator's hidden topic from an image id."""
    m = _TOPIC_RE.search(image_id)
    if m is None:
        raise ValueError(f"image id {image_id!r} carries no hidden topic")
    return int(m.group(1))


def hidden_topics(manifest: DatasetManifest) -> np.ndarray:
    return np.array([hidden_topic_of(i) for i in manifest.image_ids], dtype=int)


def encode_rawscore_manifest(manifest: DatasetManifest, n_objects: int,
                             layout: PyramidLayout = PyramidLayout()) -> np.ndarray:
    """[n_records, region_count * n_objects]: per pyramid region, each
    object's best raw score (0 where it is not detected or scores below 0).

    The un-quantized counterpart of the posterior descriptor: it inherits any
    score shift between domains verbatim.  Scores are used as-is (no clamp).
    """
    if manifest.mode != HARD:
        raise VariantError("the raw-score baseline needs hard detections")
    region = pyramid_regions(manifest.box, layout)  # [n_levels, n]
    out = np.zeros((len(manifest), layout.region_count * n_objects))
    np.maximum.at(out, (np.broadcast_to(manifest.image, region.shape),
                        region * n_objects + manifest.object_index),
                  np.broadcast_to(manifest.score, region.shape))
    return out


def adjusted_rand_index(labels_a, labels_b) -> float:
    """Chance-corrected agreement between two labelings of the same items."""
    a = np.asarray(labels_a, dtype=int)
    b = np.asarray(labels_b, dtype=int)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError("labelings must be 1-D and the same length")
    n = a.size
    if n < 2:
        return 1.0
    _, ai = np.unique(a, return_inverse=True)
    _, bi = np.unique(b, return_inverse=True)
    table = np.zeros((ai.max() + 1, bi.max() + 1), dtype=np.int64)
    np.add.at(table, (ai, bi), 1)

    def comb2(x):
        return x * (x - 1) / 2.0

    sum_ij = comb2(table).sum()
    sum_a = comb2(table.sum(axis=1)).sum()
    sum_b = comb2(table.sum(axis=0)).sum()
    total = comb2(n)
    expected = sum_a * sum_b / total
    max_index = 0.5 * (sum_a + sum_b)
    if max_index == expected:
        return 1.0
    return float((sum_ij - expected) / (max_index - expected))
