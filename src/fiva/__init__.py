"""Embedding-space toolkit for face anonymization pipelines.

Everything operates on identity embeddings living on the unit hypersphere:
sampling fake identities from anchor sets, tracking identities across
frames so a person keeps one fake identity, scoring anonymization through
retrieval and temporal-consistency metrics, defending against
reconstruction attacks, and flagging deepfakes by identity displacement.
Feature extraction itself is out of scope; embeddings are ingested from
files.
"""

import importlib

# Each public name and the module that defines it. A name's module is imported
# when the name is first read, so ``import fiva`` loads no submodule and each
# command of ``fiva.cli`` loads only the layers it runs.
_HOMES = {
    "defense": (
        "GradientOracle", "NoiseSpec", "fgsm_defense", "fraction_sweep", "parameter_noise", "toy_oracle",
        "uniform_pixel_noise",
    ),
    "detector": (
        "DEFAULT_DETECT_THRESHOLD", "DetectionScore", "ScoreDistribution", "detect", "score_distribution",
        "score_rows",
    ),
    "errors": (
        "AntipodalPair", "BadMagic", "ConfigError", "CorruptState", "DimensionMismatch", "EmptyAnchorSet",
        "EmptyGallery", "EmptyList", "FivaError", "IoFailure", "LabelCountMismatch", "MissingLabels",
        "NonFinite", "NotUnitNorm", "ShapeMismatch", "TooFewMeans", "Truncated", "UnsupportedFormat",
        "ZeroVector",
    ),
    "gallery": ("Gallery", "LabeledEmbedding"),
    "io": (
        "MAGIC", "load_embeddings", "load_gallery", "load_labeled_embeddings", "load_labeled_rows", "load_rows",
        "pack_container", "parse_container", "read_container", "read_image_ppm", "write_container",
        "write_embeddings", "write_image_ppm",
    ),
    "metrics": (
        "ProbeOutcome", "RetrievalReport", "TemporalReport", "VideoConsistency", "anti_id_loss", "id_loss",
        "id_retrieval_rate", "neg_id_retrieval_rate", "pairwise_distance_matrix", "recon_l1",
        "retrieval_report", "retrieval_reports", "retrieve", "temporal_consistency",
    ),
    "sampling": ("SampleResult", "sample_batch", "sample_fake"),
    "sphere": (
        "UNIT_NORM_TOL", "AnchorProvenance", "AnchorSet", "Embedding", "SkippedPair", "build_anchor_set",
        "cosine", "cosine_distance", "mean_embedding", "negate", "normalize", "slerp",
    ),
    "synth": (
        "ANONYMIZER_MODES", "BenchmarkResult", "BenchmarkVariant", "MockAnonymizer", "SynthConfig",
        "end_to_end_benchmark", "generate_frames", "generate_identities", "mock_anonymize",
    ),
    "tracking": ("DEFAULT_MATCH_THRESHOLD", "TrackResult", "TrackerState", "load_state", "save_state"),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}

__all__ = list(_HOME)

__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
