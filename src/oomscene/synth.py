"""Synthetic multi-domain manifests with planted structure.

The generator draws hard-detection manifests whose images carry a hidden
topic.  Detection probabilities depend on (topic, class, object); detection
scores come from clipped Gaussians.  The target domain re-draws images from
the same model and then applies a score shift (scale/offset, unclamped) plus
detection dropout.  Hidden topics are encoded in the image ids so oracle
checks can recover them.

Also home to the raw-score baseline encoder, the un-quantized counterpart of
the posterior descriptor, and a small adjusted-Rand helper for cluster
recovery checks.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .errors import VariantError
from .descriptor_hard import PyramidLayout, pyramid_regions
from .ingest import (
    HARD,
    DatasetManifest,
    ObjectVocabulary,
    SceneClassSet,
)

_TOPIC_RE = re.compile(r"_t(\d+)_")


@dataclass(frozen=True)
class DomainShift:
    """Score transform score' = scale * score + offset, plus detection dropout."""

    score_offset: float = 0.0
    score_scale: float = 1.0
    dropout: float = 0.0

    def __post_init__(self):
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
        if self.detect_prob.ndim != 3:
            raise ValueError("score model tensors must be 3-D (topics, classes, objects)")
        if np.any(self.detect_prob < 0) or np.any(self.detect_prob > 1):
            raise ValueError("detection probabilities must lie in [0, 1]")
        if np.any(self.score_spread <= 0):
            raise ValueError("score spreads must be positive")


@dataclass(frozen=True)
class SynthSpec:
    n_classes: int
    n_objects: int
    n_topics_true: int
    images_per_class: int
    score_model: ScoreModel
    shift: DomainShift
    seed: int

    def __post_init__(self):
        if self.n_classes < 1 or self.n_objects < 1:
            raise ValueError("spec needs at least one class and one object")
        if self.n_topics_true < 1 or self.images_per_class < 1:
            raise ValueError("spec needs at least one topic and one image per class")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        want = (self.n_topics_true, self.n_classes, self.n_objects)
        if self.score_model.detect_prob.shape != want:
            raise ValueError(
                f"score model shape {self.score_model.detect_prob.shape} "
                f"does not match spec {want}"
            )


def planted_spec(n_classes: int, n_objects: int, n_topics: int,
                 images_per_class: int, shift: DomainShift = DomainShift(),
                 seed: int = 0, marker_prob: float = 0.92,
                 class_hi: float = 0.7, class_lo: float = 0.35,
                 context_base: float = 0.15, context_span: float = 0.5,
                 noise_prob: float = 0.04, score_center: float = 0.95,
                 score_spread: float = 0.15, context_score_center: float = 0.45,
                 context_score_spread: float = 0.2) -> SynthSpec:
    """Spec with three kinds of planted objects.

    Topic markers fire in all classes of their topic so clustering can
    recover the hidden partition (and so a single pooled classifier carries
    noisy weights a per-topic one avoids).  Class objects carry the scene
    signal but overlap adjacent classes, keeping margins thin.  Context
    objects fire at class-graded rates on a much lower score scale: a score
    offset re-weights their raw values against the high-scoring objects,
    while threshold-grid lookups stay on stable posterior columns.
    """
    if n_objects < n_topics + n_classes:
        raise ValueError("need at least n_topics + n_classes objects to plant structure")
    per_topic = max(1, int(0.6 * n_objects) // n_topics)
    while n_topics * per_topic > n_objects - n_classes:
        per_topic -= 1
    n_markers = n_topics * per_topic
    n_context = max(0, min(6, n_objects - n_markers - n_classes))
    n_class_obj = n_objects - n_markers - n_context

    prob = np.full((n_topics, n_classes, n_objects), noise_prob)
    mean = np.full_like(prob, score_center)
    spread = np.full_like(prob, score_spread)
    for t in range(n_topics):
        prob[t, :, t * per_topic : (t + 1) * per_topic] = marker_prob
    for k in range(n_class_obj):
        o = n_markers + k
        prob[:, k % n_classes, o] = class_hi
        prob[:, (k + 1) % n_classes, o] = class_lo
    for j in range(n_context):
        o = n_markers + n_class_obj + j
        for c in range(n_classes):
            grade = ((c + j) % n_classes) / max(n_classes - 1, 1)
            prob[:, c, o] = context_base + context_span * grade
        mean[:, :, o] = context_score_center
        spread[:, :, o] = context_score_spread

    return SynthSpec(
        n_classes=n_classes,
        n_objects=n_objects,
        n_topics_true=n_topics,
        images_per_class=images_per_class,
        score_model=ScoreModel(prob, mean, spread),
        shift=shift,
        seed=seed,
    )


def _random_box(rng) -> tuple[float, float, float, float]:
    # one draw of four uniforms; the same numbers, in the same order, as
    # rng.uniform(0.05, 0.3) twice and then rng.uniform(0, 1 - w), (0, 1 - h)
    a, b, c, d = rng.random(4).tolist()
    w = 0.05 + 0.25 * a
    h = 0.05 + 0.25 * b
    x0 = (1.0 - w) * c
    y0 = (1.0 - h) * d
    return (x0, y0, min(1.0, x0 + w), min(1.0, y0 + h))


def _draw_manifest(spec: SynthSpec, domain_tag: str, domain_code: int,
                   split_tag: str) -> DatasetManifest:
    model = spec.score_model
    ids, labels, image, obj, score, box = [], [], [], [], [], []
    for c in range(spec.n_classes):
        for i in range(spec.images_per_class):
            # per-image substream: generation order never matters
            rng = np.random.default_rng([spec.seed, domain_code, c, i])
            topic = int(rng.integers(spec.n_topics_true))
            for o in range(spec.n_objects):
                if rng.random() < model.detect_prob[topic, c, o]:
                    for _ in range(int(rng.integers(1, 4))):
                        image.append(len(ids))
                        obj.append(o)
                        # clipped to [0, 1] as np.clip would, without its call cost
                        score.append(min(max(float(rng.normal(
                            model.score_mean[topic, c, o],
                            model.score_spread[topic, c, o])), 0.0), 1.0))
                        box.append(_random_box(rng))
            ids.append(f"{domain_tag}_c{c:02d}_t{topic}_{i:04d}")
            labels.append(c)
    return DatasetManifest.from_arrays(
        ObjectVocabulary(tuple(f"obj{i:03d}" for i in range(spec.n_objects))),
        SceneClassSet(tuple(f"class{i:02d}" for i in range(spec.n_classes))),
        split_tag, HARD, ids, labels, [domain_tag] * len(ids), image,
        object_index=obj, score=score, box=box)


def apply_shift(manifest: DatasetManifest, shift: DomainShift,
                seed: int) -> DatasetManifest:
    """Transform every detection score and drop detections at the dropout rate.

    Shifted scores are stored raw (no clamping); encoders clamp into their
    own threshold bandwidth.
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
    if manifest.mode == HARD:
        dets = dict(object_index=manifest.object_index[keep],
                    score=shift.score_scale * manifest.score[keep] + shift.score_offset,
                    box=manifest.box[keep])
    else:
        dets = dict(patch_id=manifest.patch_id[keep],
                    scores=shift.score_scale * manifest.scores[keep] + shift.score_offset)
    return DatasetManifest.from_arrays(
        manifest.vocabulary, manifest.classes, manifest.split_tag, manifest.mode,
        manifest.image_ids, manifest.labels, manifest.domain_tags, manifest.image[keep],
        **dets)


def generate(spec: SynthSpec) -> tuple[DatasetManifest, DatasetManifest]:
    """Draw (source, target) manifests; the target applies the spec's shift.

    Deterministic per seed.  With an identity shift the target is a fresh
    same-distribution draw, i.e. a held-out source-domain test set.
    """
    source = _draw_manifest(spec, "source", 0, "train")
    target = _draw_manifest(spec, "target", 1, "test")
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
