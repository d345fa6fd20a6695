"""Planted soft-detection manifests for the benchmark.

Each image keeps the hard generator's structure: a hidden topic, and per
object a detection with probability ``detect_prob[topic, class, object]`` of
``oomscene.planted_spec``.  A detected object lights up 1 to 3 of the image's
patches with scores drawn from the spec's clipped Gaussian; every other
(patch, object) score is a uniform noise floor in [0, NOISE_FLOOR).  The
target domain is a fresh draw with the spec's score shift applied to every
score, noise floor included.
"""

from __future__ import annotations

import numpy as np

from oomscene import (
    DatasetManifest,
    ImageRecord,
    ObjectVocabulary,
    SceneClassSet,
    SoftPatch,
    SynthSpec,
    apply_shift,
)

NOISE_FLOOR = 0.1


def _draw(spec: SynthSpec, patches: int, domain_tag: str, domain_code: int,
          split_tag: str) -> DatasetManifest:
    model = spec.score_model
    shape = (patches, spec.n_objects)
    records = []
    for c in range(spec.n_classes):
        for i in range(spec.images_per_class):
            # per-image substream, as in the hard generator
            rng = np.random.default_rng([spec.seed, domain_code, c, i])
            topic = int(rng.integers(spec.n_topics_true))
            present = rng.random(spec.n_objects) < model.detect_prob[topic, c]
            hits_per_object = np.minimum(rng.integers(1, 4, spec.n_objects), patches)
            rank = rng.random(shape).argsort(axis=0).argsort(axis=0)
            hit = present & (rank < hits_per_object)
            signal = np.clip(rng.normal(model.score_mean[topic, c],
                                        model.score_spread[topic, c], shape), 0.0, 1.0)
            floor = rng.uniform(0.0, NOISE_FLOOR, shape)
            scores = np.where(hit, signal, floor)
            records.append(ImageRecord(
                image_id=f"{domain_tag}_c{c:02d}_t{topic}_{i:04d}",
                scene_class=c,
                detections=tuple(SoftPatch(p, scores[p]) for p in range(patches)),
                mode="soft",
                domain_tag=domain_tag,
            ))
    return DatasetManifest(
        vocabulary=ObjectVocabulary(tuple(f"obj{i:03d}" for i in range(spec.n_objects))),
        classes=SceneClassSet(tuple(f"class{i:02d}" for i in range(spec.n_classes))),
        records=tuple(records),
        split_tag=split_tag,
        mode="soft",
    )


def generate_soft(spec: SynthSpec, patches: int):
    """(source, target) soft manifests; the target carries the spec's shift."""
    source = _draw(spec, patches, "source", 0, "train")
    target = _draw(spec, patches, "target", 1, "test")
    return source, apply_shift(target, spec.shift, seed=spec.seed)
