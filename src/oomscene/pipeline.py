"""The training and evaluation pipeline as library calls.

Training is one chain of stages, ``STAGES``: the occurrence and posterior
models, the object selection, the encoder (in soft mode the PCA and codebook,
then the training descriptors), the topics and the ensemble.  ``run_stages``
folds a run of them over a bundle and the training descriptors, and
``fit_pipeline`` runs them all.  ``encode_with_bundle`` encodes a manifest
with a bundle's frozen models; ``evaluate_bundle`` predicts block by block.
"""

from __future__ import annotations

import time
from dataclasses import replace
from typing import Callable, NamedTuple

import numpy as np

from .bundle import ModelBundle, PipelineConfig
from .descriptor_hard import encode_hard_manifest
from .descriptor_soft import (
    encode_projected,
    encode_soft_manifest,
    fit_codebook,
    fit_pca_cells,
    patch_cells,
)
from .ensemble import predict_batch, train_ensemble
from .errors import CompatibilityError
from .ingest import HARD, SOFT, DatasetManifest
from .occurrence import (
    ClassPrior,
    build_occurrence_model,
    build_posterior_model,
    select_objects,
)
from .topics import fit_topics

# The most descriptor bytes evaluate_bundle holds at once: 83 images at the
# soft paper shape's 50000 dims, 208 at the hard paper shape's 20160.
_EVAL_BLOCK_BYTES = 32 << 20


# ---------------------------------------------------------------- metrics

def confusion_matrix(y_true, y_pred, n_classes: int) -> np.ndarray:
    """[true class, predicted class] counts; unlabeled (-1) samples are skipped."""
    y_true, y_pred = np.asarray(y_true, int), np.asarray(y_pred, int)
    labeled = y_true >= 0
    cm = np.zeros((n_classes, n_classes), dtype=np.int64)
    np.add.at(cm, (y_true[labeled], y_pred[labeled]), 1)
    return cm


def per_class_accuracy(y_true, y_pred, n_classes: int) -> np.ndarray:
    """Recall per class; NaN where a class has no labeled samples."""
    cm = confusion_matrix(y_true, y_pred, n_classes)
    support = cm.sum(axis=1)
    with np.errstate(invalid="ignore"):
        return np.where(support > 0, np.diag(cm) / np.maximum(support, 1), np.nan)


def class_mean_accuracy(y_true, y_pred, n_classes: int) -> float:
    """Average classification accuracy over the classes that have samples."""
    acc = per_class_accuracy(y_true, y_pred, n_classes)
    valid = ~np.isnan(acc)
    if not valid.any():
        return float("nan")
    return float(acc[valid].mean())


# ------------------------------------------------------------- pipeline

def check_counts(train: DatasetManifest, object_counts=(), topic_counts=(),
                 config: PipelineConfig | None = None) -> None:
    """Refuse, before anything is fitted, an object count outside [1, the
    vocabulary size] or a topic count outside [1, the number of training
    images] of ``train``.  For a soft ``config``, also refuse a ``pca_dim``
    outside [1, min(training patches, object count x classes)] for any of
    the object counts, or a ``codebook_size`` outside [1, training patches]."""
    checks = [("object_count", count, len(train.vocabulary), "the vocabulary size")
              for count in object_counts]
    checks += [("topic_count", count, len(train), "the number of training images")
               for count in topic_counts]
    if config is not None and config.mode == SOFT:
        patches, n_classes = int(train.bounds[-1]), len(train.classes)
        checks += [("pca_dim", config.pca_dim, min(patches, count * n_classes),
                    f"the smaller of the {patches} training patches and "
                    f"{count} objects x {n_classes} classes")
                   for count in object_counts]
        checks.append(("codebook_size", config.codebook_size, patches,
                       "the number of training patches"))
    for key, count, limit, what in checks:
        if not 1 <= count <= limit:
            raise ValueError(f"{key} must be in [1, {limit}], {what}, got {count}")


def encode_with_bundle(bundle: ModelBundle, manifest: DatasetManifest) -> np.ndarray:
    """Encode a manifest with the bundle's frozen components."""
    if manifest.vocabulary.names != bundle.vocabulary.names:
        raise CompatibilityError("manifest vocabulary differs from the bundle's")
    if manifest.classes.names != bundle.classes.names:
        raise CompatibilityError("manifest classes differ from the bundle's")
    bundle.descriptor_dim()  # refuses a bundle whose encoder is not fitted
    if manifest.mode != bundle.config.mode:
        raise CompatibilityError(
            f"manifest is {manifest.mode}-mode, bundle expects {bundle.config.mode}"
        )
    if bundle.config.mode == HARD:
        return encode_hard_manifest(manifest, bundle.posterior, bundle.selection,
                                    bundle.config.pyramid_layout())
    return encode_soft_manifest(manifest, bundle.posterior, bundle.selection,
                                bundle.pca, bundle.codebook)


def _posterior(config, train, bundle, X):
    occurrence = build_occurrence_model(train, config.threshold_grid())
    prior = (ClassPrior.empirical(train) if config.prior == "empirical"
             else ClassPrior.uniform(len(train.classes)))
    posterior = build_posterior_model(occurrence, prior, config.fallback)
    bundle = ModelBundle(config=config, vocabulary=train.vocabulary, classes=train.classes,
                         occurrence=occurrence, posterior=posterior)
    return bundle, X, {"objects": occurrence.n_objects, "classes": occurrence.n_classes,
                       "thresholds": len(occurrence.grid)}


def _selection(config, train, bundle, X):
    # the descriptor space changes: drop every model fitted on the old one
    selection = select_objects(bundle.posterior, config.object_count,
                               config.phi_aggregation)
    bundle = replace(bundle, config=config, selection=selection, pca=None, codebook=None,
                     topics=None, ensemble=None)
    return bundle, None, {"kept": len(selection.selected)}


def _encoder(config, train, bundle, X):
    steps = []
    if config.mode == SOFT:
        t0 = time.perf_counter()
        bounds, tables, cells = patch_cells(train, bundle.posterior, bundle.selection)
        pca = fit_pca_cells(tables, cells, config.pca_dim)
        t1 = time.perf_counter()
        steps.append(("pca", t1 - t0, f"{len(cells)} patches, "
                                      f"dim {pca.mean.size} -> {config.pca_dim}"))
        # project once: the codebook and the training VLADs read the same V
        V = pca.project_cells(tables, cells)
        codebook = fit_codebook(V, config.codebook_size, config.seed)
        steps.append(("codebook", time.perf_counter() - t1, f"{config.codebook_size} words"))
        bundle = replace(bundle, pca=pca, codebook=codebook)
        X = encode_projected(bounds, V, codebook)
    else:
        X = encode_with_bundle(bundle, train)
    return bundle, X, {"steps": steps, "descriptors": X.shape[0], "dim": X.shape[1]}


def _topics(config, train, bundle, X):
    # the ensemble was trained per topic: drop it
    topics = fit_topics(X, config.topic_count, config.seed)
    bundle = replace(bundle, config=config, topics=topics, ensemble=None)
    return bundle, X, {"topics": config.topic_count, "inertia": topics.inertia,
                       "iterations": topics.iterations_run}


def _ensemble(config, train, bundle, X):
    ensemble = train_ensemble(X, train.labels, len(bundle.classes), bundle.topics,
                              config.sgd_grid(), config.folds,
                              epochs=config.sgd_epochs, seed=config.seed)
    return (replace(bundle, ensemble=ensemble), X,
            {"classes": ensemble.n_classes, "topics": ensemble.n_topics})


class Stage(NamedTuple):
    """One link of the training chain.  ``fit(config, train, bundle, X)``
    takes the bundle and training descriptors of the stage before (None
    before the first) and returns new ones and a dict of diagnostics, which
    ``detail`` formats for the stage's log line.  A step inside the stage
    with a line of its own is in the dict's ``steps``: (name, seconds, detail).
    The posterior, selection and topic stages record ``config`` in the
    bundle they return.
    """
    name: str
    fit: Callable
    detail: str


STAGES = (
    Stage("occurrence and posterior models", _posterior,
          "{objects} objects x {classes} classes"),
    Stage("object selection", _selection, "kept {kept}"),
    Stage("encoding", _encoder, "{descriptors} descriptors of dim {dim}"),
    Stage("topic clustering", _topics, "{topics} topics"),
    Stage("ensemble training", _ensemble, "{classes} classes x {topics} topics"),
)
POSTERIOR, SELECTION, ENCODER, TOPICS, ENSEMBLE = STAGES


def run_stages(stages, config: PipelineConfig, train: DatasetManifest, bundle=None,
               X=None, log=lambda stage, seconds, diagnostics: None):
    """Fold ``stages`` over (bundle, X) and return the last pair; as each
    stage ends, ``log(stage, seconds, diagnostics)``."""
    for stage in stages:
        t0 = time.perf_counter()
        bundle, X, diagnostics = stage.fit(config, train, bundle, X)
        log(stage, time.perf_counter() - t0, diagnostics)
    return bundle, X


def fit_pipeline(train: DatasetManifest, config: PipelineConfig,
                 log=lambda stage, seconds, diagnostics: None) -> ModelBundle:
    """Check the counts, then run every stage on a labeled manifest and
    return a complete bundle; ``log`` is ``run_stages``'s."""
    check_counts(train, [config.object_count], [config.topic_count], config)
    return run_stages(STAGES, config, train, log=log)[0]


def evaluate_bundle(bundle: ModelBundle, test: DatasetManifest, pooling="average"):
    """Returns (labels_pred, scores, labels_true).

    Encodes and predicts a block of whole images at a time, each block's
    descriptors at most ``_EVAL_BLOCK_BYTES`` (one image if a single one is
    larger), so memory does not grow with the manifest.  One block gets the
    scores of ``predict_batch(encode_with_bundle(...))`` bit for bit; over
    several, soft projections round by their row count.
    """
    if bundle.ensemble is None:
        raise CompatibilityError("bundle has no trained ensemble")
    step = max(1, _EVAL_BLOCK_BYTES // (8 * bundle.descriptor_dim()))
    n = len(test)
    pred = np.empty(n, dtype=np.intp)
    scores = np.empty((n, bundle.ensemble.n_classes))
    for start in range(0, n, step):
        stop = min(start + step, n)
        X = encode_with_bundle(bundle, test._block(start, stop))
        pred[start:stop], scores[start:stop] = predict_batch(bundle.ensemble, X,
                                                             pooling=pooling)
        del X  # free the block before the next one is encoded
    return pred, scores, test.labels
