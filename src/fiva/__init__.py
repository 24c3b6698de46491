"""Embedding-space toolkit for face anonymization pipelines.

Everything operates on identity embeddings living on the unit hypersphere:
sampling fake identities from anchor sets, tracking identities across
frames so a person keeps one fake identity, scoring anonymization through
retrieval and temporal-consistency metrics, defending against
reconstruction attacks, and flagging deepfakes by identity displacement.
Feature extraction itself is out of scope; embeddings are ingested from
files.
"""

from .defense import (
    GradientOracle,
    NoiseSpec,
    fgsm_defense,
    fraction_sweep,
    parameter_noise,
    toy_oracle,
    uniform_pixel_noise,
)
from .detector import (
    DEFAULT_DETECT_THRESHOLD,
    DetectionScore,
    ScoreDistribution,
    detect,
    score_distribution,
    score_rows,
)
from .errors import (
    AntipodalPair,
    BadMagic,
    ConfigError,
    CorruptState,
    DimensionMismatch,
    EmptyAnchorSet,
    EmptyGallery,
    EmptyList,
    FivaError,
    IoFailure,
    LabelCountMismatch,
    MissingLabels,
    NonFinite,
    NotUnitNorm,
    ShapeMismatch,
    TooFewMeans,
    Truncated,
    UnsupportedFormat,
    ZeroVector,
)
from .gallery import Gallery, LabeledEmbedding
from .io import (
    MAGIC,
    load_embeddings,
    load_gallery,
    load_labeled_embeddings,
    load_labeled_rows,
    load_rows,
    pack_container,
    parse_container,
    read_container,
    read_image_ppm,
    write_container,
    write_embeddings,
    write_image_ppm,
)
from .metrics import (
    ProbeOutcome,
    RetrievalReport,
    TemporalReport,
    VideoConsistency,
    anti_id_loss,
    id_loss,
    id_retrieval_rate,
    neg_id_retrieval_rate,
    pairwise_distance_matrix,
    recon_l1,
    retrieval_report,
    retrieval_reports,
    retrieve,
    temporal_consistency,
)
from .sampling import SampleResult, sample_batch, sample_fake
from .sphere import (
    UNIT_NORM_TOL,
    AnchorProvenance,
    AnchorSet,
    Embedding,
    SkippedPair,
    build_anchor_set,
    cosine,
    cosine_distance,
    mean_embedding,
    negate,
    normalize,
    slerp,
)
from .synth import (
    ANONYMIZER_MODES,
    BenchmarkResult,
    BenchmarkVariant,
    MockAnonymizer,
    SynthConfig,
    end_to_end_benchmark,
    generate_frames,
    generate_identities,
    mock_anonymize,
)
from .tracking import (
    DEFAULT_MATCH_THRESHOLD,
    TrackResult,
    TrackerState,
    load_state,
    save_state,
)

__version__ = "0.1.0"
