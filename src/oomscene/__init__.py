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
    descriptor_length,
    encode_hard_manifest,
    pyramid_regions,
)
from .descriptor_soft import (
    PcaTransform,
    VladCodebook,
    encode_soft_manifest,
    fit_codebook,
    fit_pca_cells,
    patch_cells,
    soft_assignments,
    vlad,
)
from .ensemble import (
    SgdConfig,
    TopicEnsemble,
    predict_batch,
    train_ensemble,
    train_one_vs_rest,
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
    discriminability_profile,
    score_grid_indices,
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
    encode_rawscore_manifest,
    generate,
    hidden_topics,
    planted_spec,
)
from .topics import (
    KMeansModel,
    assign_topics_batch,
    fit_topics,
)

__version__ = "0.1.0"
