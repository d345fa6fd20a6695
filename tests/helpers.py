"""Shared builders and independent oracles for the test suite."""

import json
import struct

import numpy as np

from oomscene import (
    DatasetManifest,
    HardDetection,
    ImageRecord,
    ObjectVocabulary,
    SceneClassSet,
    SoftPatch,
)


def container(magic, header, payload=b""):
    """Version-2 container bytes around a hand-written header, padded so the
    payload starts 8-byte aligned."""
    text = json.dumps(header).encode("utf-8")
    text += b" " * (-(len(magic) + 6 + len(text)) % 8)
    return magic + struct.pack(">HI", 2, len(text)) + text + payload


def make_vocab(n):
    return ObjectVocabulary(tuple(f"obj{i}" for i in range(n)))


def make_classes(n):
    return SceneClassSet(tuple(f"cls{i}" for i in range(n)))


def random_box(rng):
    w = rng.uniform(0.05, 0.4)
    h = rng.uniform(0.05, 0.4)
    x0 = rng.uniform(0.0, 1.0 - w)
    y0 = rng.uniform(0.0, 1.0 - h)
    return (x0, y0, min(1.0, x0 + w), min(1.0, y0 + h))


def random_hard_manifest(rng, n_classes, n_objects, n_images,
                         max_dets_per_image=8, split_tag="train"):
    """Random labeled hard manifest; every class gets at least one image."""
    records = []
    for i in range(n_images):
        c = i % n_classes  # guarantees class coverage
        n_det = int(rng.integers(0, max_dets_per_image + 1))
        dets = tuple(
            HardDetection(int(rng.integers(n_objects)), float(rng.random()),
                          random_box(rng))
            for _ in range(n_det)
        )
        records.append(ImageRecord(f"img{i:03d}", c, dets, "hard"))
    return DatasetManifest(make_vocab(n_objects), make_classes(n_classes),
                           tuple(records), split_tag, "hard")


def random_soft_manifest(rng, n_classes, n_objects, n_images,
                         max_patches=5, split_tag="train"):
    records = []
    for i in range(n_images):
        c = i % n_classes
        n_patch = int(rng.integers(1, max_patches + 1))
        patches = tuple(
            SoftPatch(k, rng.random(n_objects)) for k in range(n_patch)
        )
        records.append(ImageRecord(f"img{i:03d}", c, patches, "soft"))
    return DatasetManifest(make_vocab(n_objects), make_classes(n_classes),
                           tuple(records), split_tag, "soft")


def hard_record(dets, image_id="img", scene_class=0):
    return ImageRecord(image_id, scene_class, tuple(dets), "hard")


def soft_record(patches, image_id="img", scene_class=0):
    return ImageRecord(image_id, scene_class, tuple(patches), "soft")


def single_class_manifest(records, n_objects, n_classes=1, split_tag="train"):
    return DatasetManifest(make_vocab(n_objects), make_classes(n_classes),
                           tuple(records), split_tag, "hard")


# ----------------------------------------------------------------- oracles

def oracle_occurrence(manifest, grid):
    """Brute-force recount: triple loop over (object, class, threshold)."""
    n_obj, n_cls = len(manifest.vocabulary), len(manifest.classes)
    thetas = grid.values
    probs = np.zeros((n_obj, n_cls, thetas.size))
    for c in range(n_cls):
        recs = [r for r in manifest.records if r.scene_class == c]
        for o in range(n_obj):
            for t, theta in enumerate(thetas):
                count = 0
                for rec in recs:
                    best = max(
                        (d.score for d in rec.detections if d.object_index == o),
                        default=None,
                    )
                    if best is not None and best >= theta:
                        count += 1
                probs[o, c, t] = count / len(recs)
    return probs


def oracle_posterior_cell(occ_probs, weights, o, t):
    """Scalar Bayes evaluation of one (object, threshold) column."""
    n_cls = occ_probs.shape[1]
    num = [occ_probs[o, c, t] * weights[c] for c in range(n_cls)]
    denom = sum(num)
    if denom == 0.0:
        return None
    return np.array([v / denom for v in num])


def oracle_discriminability(column):
    """Sort-and-scan evaluation of the largest consecutive posterior gap."""
    ranked = sorted(column, reverse=True)
    return max(ranked[r] - ranked[r + 1] for r in range(len(ranked) - 1))


def oracle_vlad(V, centers, sigma):
    """Naive double-loop soft-assignment VLAD, no normalization."""
    k, p = centers.shape
    out = np.zeros(k * p)
    for v in V:
        d2 = np.array([np.sum((v - centers[j]) ** 2) for j in range(k)])
        w = np.exp(-(d2 - d2.min()) / (2 * sigma**2))
        w = w / w.sum()
        for j in range(k):
            out[j * p : (j + 1) * p] += w[j] * (v - centers[j])
    return out


def oracle_batch_subgradient(X, y, lam, iters=20000):
    """Long-run deterministic batch subgradient descent on the hinge objective."""
    X = np.asarray(X, float)
    y = np.asarray(y, float)
    w = np.zeros(X.shape[1])
    b = 0.0
    best = None
    for t in range(1, iters + 1):
        margins = y * (X @ w + b)
        active = margins < 1.0
        gw = lam * w - (y[active, None] * X[active]).sum(axis=0) / len(X)
        gb = -y[active].sum() / len(X)
        eta = 1.0 / (lam * t + 10.0)
        w -= eta * gw
        b -= eta * gb
        obj = 0.5 * lam * w @ w + np.maximum(0.0, 1.0 - y * (X @ w + b)).mean()
        if best is None or obj < best[0]:
            best = (obj, w.copy(), b)
    return best


def oracle_sgd(X, y, lam, eta0, order):
    """Scalar hinge-loss SGD visiting the rows of X in the given order.

    Per visit: margin test, decay by 1 - eta * lam, then the update if the
    margin was below 1, with eta = eta0 / (1 + eta0 * lam * t).
    """
    X = np.asarray(X, float)
    w = np.zeros(X.shape[1])
    b = 0.0
    for t, i in enumerate(order):
        eta = eta0 / (1.0 + eta0 * lam * t)
        violated = y[i] * (X[i] @ w + b) < 1.0
        w *= 1.0 - eta * lam
        if violated:
            w += (eta * y[i]) * X[i]
            b += eta * y[i]
    return w, b
