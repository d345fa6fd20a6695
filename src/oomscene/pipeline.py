"""The training and evaluation pipeline as library calls.

``fit_pipeline`` runs the whole chain on a labeled manifest in two stages:
``fit_encoder`` (occurrence and posterior models, object selection, soft PCA
and codebook, training descriptors) and ``fit_classifier`` (topics and the
ensemble).
``encode_with_bundle`` turns a manifest into descriptors with a bundle's
frozen components; it is the only place that chooses between the hard and
soft encoders.  ``evaluate_bundle`` encodes and predicts.
"""

from __future__ import annotations

import time
from dataclasses import replace

import numpy as np

from .bundle import ModelBundle, PipelineConfig
from .descriptor_hard import encode_hard_manifest
from .descriptor_soft import (
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


# ---------------------------------------------------------------- metrics

def confusion_matrix(y_true, y_pred, n_classes: int) -> np.ndarray:
    cm = np.zeros((n_classes, n_classes), dtype=np.int64)
    for t, p in zip(np.asarray(y_true, int), np.asarray(y_pred, int)):
        if t >= 0:
            cm[t, p] += 1
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

def _build_prior(manifest: DatasetManifest, config: PipelineConfig) -> ClassPrior:
    if config.prior == "empirical":
        return ClassPrior.empirical(manifest)
    return ClassPrior.uniform(len(manifest.classes))


def encode_with_bundle(bundle: ModelBundle, manifest: DatasetManifest) -> np.ndarray:
    """Encode a manifest with the bundle's frozen components."""
    if manifest.vocabulary.names != bundle.vocabulary.names:
        raise CompatibilityError("manifest vocabulary differs from the bundle's")
    if manifest.classes.names != bundle.classes.names:
        raise CompatibilityError("manifest classes differ from the bundle's")
    if bundle.selection is None:
        raise CompatibilityError("bundle has no object selection; run select-objects")
    if manifest.mode != bundle.config.mode:
        raise CompatibilityError(
            f"manifest is {manifest.mode}-mode, bundle expects {bundle.config.mode}"
        )
    if bundle.config.mode == HARD:
        return encode_hard_manifest(manifest, bundle.posterior, bundle.selection,
                                    bundle.layout)
    if bundle.pca is None or bundle.codebook is None:
        raise CompatibilityError("soft-mode bundle is missing PCA or codebook; run train")
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
    stage = _stage_logger(log)
    occurrence = build_occurrence_model(train, config.threshold_grid())
    stage("occurrence model", f"{occurrence.n_objects} objects x {occurrence.n_classes} classes")
    posterior = build_posterior_model(occurrence, _build_prior(train, config),
                                      config.fallback)
    stage("posterior model")
    selection = select_objects(posterior, config.object_count, config.phi_aggregation)
    stage("object selection", f"kept {len(selection.selected)}")
    bundle = ModelBundle(
        config=config,
        vocabulary=train.vocabulary,
        classes=train.classes,
        occurrence=occurrence,
        posterior=posterior,
        layout=config.pyramid_layout(),
        selection=selection,
    )

    if config.mode == SOFT:
        samples = training_patch_samples(train, posterior, selection)
        bundle.pca = fit_pca(samples, config.pca_dim)
        bundle.codebook = fit_codebook(bundle.pca.project(samples),
                                       config.codebook_size, config.seed)
        stage("pca + codebook", f"{samples.shape[0]} patches")
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
    topics = fit_topics(X, config.topic_count, config.seed)
    stage("topic clustering", f"{config.topic_count} topics")
    ensemble = train_ensemble(X, labels, len(bundle.classes), topics,
                              config.sgd_grid(), config.folds)
    stage("ensemble training", f"{ensemble.n_classes} classes x {ensemble.n_topics} topics")
    return replace(bundle, topics=topics, ensemble=ensemble)


def fit_pipeline(train: DatasetManifest, config: PipelineConfig,
                 log=lambda msg: None) -> ModelBundle:
    """Run the full training pipeline and return a complete bundle."""
    bundle, X, labels = fit_encoder(train, config, log)
    return fit_classifier(bundle, X, labels, log)


def evaluate_bundle(bundle: ModelBundle, test: DatasetManifest, pooling="average"):
    """Returns (labels_pred, scores, labels_true)."""
    if bundle.ensemble is None:
        raise CompatibilityError("bundle has no trained ensemble")
    X = encode_with_bundle(bundle, test)
    pred, scores = predict_batch(bundle.ensemble, X, pooling=pooling)
    return pred, scores, test.labels
