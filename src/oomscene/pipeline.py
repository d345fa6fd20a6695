"""The training and evaluation pipeline as library calls.

``fit_pipeline`` runs the whole chain on a labeled manifest in two stages:
``fit_encoder`` (``fit_posterior``, ``with_selection``, soft PCA and codebook,
training descriptors) and ``fit_classifier`` (``with_topics`` and the
ensemble).  The staged commands run those three bundle stages one at a time.
``encode_with_bundle`` turns a manifest into descriptors with a bundle's
frozen components, choosing the hard or soft encoder by the bundle's mode.
``fit_encoder`` encodes the training set itself in soft mode, from the
projected patches it fitted the codebook on, and gets the same descriptors
bit for bit.  ``evaluate_bundle`` encodes and predicts in blocks of whole
images, at most 32 MiB of descriptors each, so its memory does not grow with
the test manifest; ``encode_with_bundle`` returns the full matrix.  A manifest
that fits one block gets the scores of ``predict_batch(encode_with_bundle(...))``
bit for bit.  Over several blocks, hard descriptors stay bit-identical, but
the soft PCA projection and the prediction product are matrix products whose
rounding depends on their row count, so scores can differ from the full
matrix's in the last bits.
"""

from __future__ import annotations

import time
from dataclasses import replace

import numpy as np

from .bundle import ModelBundle, PipelineConfig
from .descriptor_hard import encode_hard_manifest
from .descriptor_soft import (
    encode_projected,
    encode_soft_manifest,
    fit_codebook,
    fit_pca,
    training_patch_samples,
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

def fit_posterior(train: DatasetManifest, config: PipelineConfig) -> ModelBundle:
    """The first stage: a bundle holding the occurrence and posterior models
    of a labeled manifest, and no selection yet."""
    occurrence = build_occurrence_model(train, config.threshold_grid())
    prior = (ClassPrior.empirical(train) if config.prior == "empirical"
             else ClassPrior.uniform(len(train.classes)))
    posterior = build_posterior_model(occurrence, prior, config.fallback)
    return ModelBundle(config=config, vocabulary=train.vocabulary, classes=train.classes,
                       occurrence=occurrence, posterior=posterior,
                       layout=config.pyramid_layout())


def _check_object_count(count: int, n_objects: int) -> None:
    if not 1 <= count <= n_objects:
        raise ValueError(f"object_count must be in [1, {n_objects}], the vocabulary "
                         f"size, got {count}")


def check_counts(train: DatasetManifest, object_counts=(), topic_counts=()) -> None:
    """Refuse, before anything is fitted, an object count outside [1, the
    vocabulary size] or a topic count outside [1, the number of training
    images] of ``train``."""
    for count in object_counts:
        _check_object_count(count, len(train.vocabulary))
    for count in topic_counts:
        if not 1 <= count <= len(train):
            raise ValueError(f"topic_count must be in [1, {len(train)}], the number of "
                             f"training images, got {count}")


def with_selection(bundle: ModelBundle, count: int) -> ModelBundle:
    """The bundle with its ``count`` most discriminative objects selected and
    ``object_count`` set to ``count``.  The descriptor space changes, so the
    PCA, codebook, topics and ensemble are dropped."""
    _check_object_count(count, len(bundle.vocabulary))
    selection = select_objects(bundle.posterior, count, bundle.config.phi_aggregation)
    return replace(bundle, config=replace(bundle.config, object_count=count),
                   selection=selection, pca=None, codebook=None, topics=None,
                   ensemble=None)


def with_topics(bundle: ModelBundle, X, count: int) -> ModelBundle:
    """The bundle with ``count`` topics clustered from the descriptors ``X``
    and ``topic_count`` set to ``count``.  The ensemble is dropped: it was
    trained per topic."""
    topics = fit_topics(X, count, bundle.config.seed)
    return replace(bundle, config=replace(bundle.config, topic_count=count),
                   topics=topics, ensemble=None)


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
                                    bundle.layout)
    return encode_soft_manifest(manifest, bundle.posterior, bundle.selection,
                                bundle.pca, bundle.codebook)


def _stage_logger(log):
    """A callable that logs one stage line with the time since the last one."""
    t0 = time.perf_counter()

    def stage(name, detail=""):
        nonlocal t0
        now = time.perf_counter()
        log(f"[train] {name}: {now - t0:.3f}s{(' (' + detail + ')') if detail else ''}")
        t0 = now

    return stage


def fit_encoder(train: DatasetManifest, config: PipelineConfig,
                log=lambda msg: None) -> tuple[ModelBundle, np.ndarray, np.ndarray]:
    """Fit the stages before clustering and encode the training set.

    Returns a bundle without topics or ensemble, the training descriptors
    and their labels.  Nothing here depends on the topic count or the SGD
    grid.
    """
    _check_object_count(config.object_count, len(train.vocabulary))
    stage = _stage_logger(log)
    bundle = fit_posterior(train, config)
    stage("occurrence and posterior models",
          f"{bundle.occurrence.n_objects} objects x {bundle.occurrence.n_classes} classes")
    bundle = with_selection(bundle, config.object_count)
    stage("object selection", f"kept {len(bundle.selection.selected)}")

    if config.mode == SOFT:
        samples = training_patch_samples(train, bundle.posterior, bundle.selection)
        pca = fit_pca(samples, config.pca_dim)
        stage("pca", f"{samples.shape[0]} patches, dim {samples.shape[1]} -> "
                     f"{config.pca_dim}")
        # project once: the codebook and the training VLADs read the same V
        V = pca.project(samples)
        del samples
        codebook = fit_codebook(V, config.codebook_size, config.seed)
        stage("codebook", f"{config.codebook_size} words")
        bundle = replace(bundle, pca=pca, codebook=codebook)
        X = encode_projected(train.bounds, V, codebook)
    else:
        X = encode_with_bundle(bundle, train)
    stage("encoding", f"{X.shape[0]} descriptors of dim {X.shape[1]}")
    return bundle, X, train.labels


def fit_classifier(bundle: ModelBundle, X, labels,
                   log=lambda msg: None) -> ModelBundle:
    """Cluster the training descriptors into topics and train the ensemble.

    Reads the topic count, seed, SGD grid and folds from ``bundle.config``;
    returns a copy of the bundle with topics and ensemble set.
    """
    stage = _stage_logger(log)
    config = bundle.config
    bundle = with_topics(bundle, X, config.topic_count)
    stage("topic clustering", f"{config.topic_count} topics")
    ensemble = train_ensemble(X, labels, len(bundle.classes), bundle.topics,
                              config.sgd_grid(), config.folds)
    stage("ensemble training", f"{ensemble.n_classes} classes x {ensemble.n_topics} topics")
    return replace(bundle, ensemble=ensemble)


def fit_pipeline(train: DatasetManifest, config: PipelineConfig,
                 log=lambda msg: None) -> ModelBundle:
    """Run the full training pipeline and return a complete bundle."""
    bundle, X, labels = fit_encoder(train, config, log)
    return fit_classifier(bundle, X, labels, log)


def evaluate_bundle(bundle: ModelBundle, test: DatasetManifest, pooling="average"):
    """Returns (labels_pred, scores, labels_true).

    Encodes and predicts a block of whole images at a time, each block's
    descriptors at most ``_EVAL_BLOCK_BYTES`` (one image if a single one is
    larger), so memory does not grow with the manifest.
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
