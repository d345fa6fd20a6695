"""Scene recognition from pre-computed object detection scores.

The pipeline counts object occurrences over a detection-threshold grid,
inverts them into class posteriors, keeps the most discriminant objects,
encodes images as posterior-based semantic descriptors (spatial-pyramid hard
variant or PCA + soft-VLAD soft variant), discovers latent topics by k-means,
and trains one linear classifier per (class, topic) whose decisions are
pooled at prediction time.
"""

from .bundle import (
    ModelBundle,
    PipelineConfig,
    load_bundle,
    save_bundle,
)
from .descriptor_hard import (
    PyramidLayout,
    assign_region,
    descriptor_length,
    encode_hard,
    encode_hard_manifest,
    posterior_matrix,
)
from .descriptor_soft import (
    PcaTransform,
    VladCodebook,
    encode_soft,
    encode_soft_manifest,
    fit_codebook,
    fit_pca,
    patch_matrices,
    soft_assignments,
)
from .ensemble import (
    LinearClassifier,
    SgdConfig,
    TopicEnsemble,
    cross_validate,
    hinge_objective,
    predict,
    predict_batch,
    predict_max_pool,
    train_binary,
    train_ensemble,
)
from .errors import (
    CompatibilityError,
    DimensionError,
    FormatError,
    ModelError,
    ParseError,
    PipelineError,
    VariantError,
    VocabularyError,
)
from .ingest import (
    DatasetManifest,
    HardDetection,
    ImageRecord,
    ObjectVocabulary,
    SceneClassSet,
    SoftPatch,
    max_scores,
    parse_manifest,
    parse_manifest_text,
    threshold_indicator,
    to_text,
    write_manifest,
)
from .occurrence import (
    ClassPrior,
    DiscriminantSelection,
    OccurrenceModel,
    PosteriorModel,
    ThresholdGrid,
    build_occurrence_model,
    build_posterior_model,
    discriminability_at,
    discriminability_profile,
    posterior_at_score,
    posterior_columns,
    select_objects,
)
from .pipeline import (
    encode_with_bundle,
    evaluate_bundle,
    fit_pipeline,
)
from .synth import (
    DomainShift,
    ScoreModel,
    SynthSpec,
    adjusted_rand_index,
    apply_shift,
    encode_rawscore_baseline,
    encode_rawscore_manifest,
    generate,
    hidden_topics,
    planted_spec,
)
from .topics import (
    KMeansModel,
    TopicAssignment,
    assign_topic,
    assign_topics_batch,
    fit_topics,
)

__version__ = "0.1.0"
