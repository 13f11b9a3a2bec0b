"""Segment-level speaker reassignment for meeting transcription output.

Re-clusters per-segment speaker embeddings (duration-attenuated spectral
clustering or k-means++), rewrites the speaker labels, and quantifies the
gain with cpWER, oracle assignment, and the relative confusion-error
measure.
"""

from .affinity import AttenuationConfig, attenuate, attenuation_factor, cosine_affinity
from .corpus import (
    LabelAssignment,
    ReferenceTranscript,
    Segment,
    SessionHypothesis,
    parse_reference,
    parse_segments,
    write_assignment,
)
from .kmeans import kmeans_pp, unit_normalize
from .metrics import (
    CpWerReport,
    EditCounts,
    brute_force_cpwer,
    cpwer,
    cpwer_from_segments,
    edit_distance,
)
from .oracle import oracle_assignment, relative_confusion_error
from .pipeline import (
    DurationBucket,
    PipelineConfig,
    ReassignReport,
    SynthSpec,
    generate_session,
    reassign,
)
from .spectral import (
    degree,
    discretize,
    normalized_laplacian,
    spectral_cluster,
    symmetric_eig,
)

__all__ = [
    "AttenuationConfig",
    "CpWerReport",
    "DurationBucket",
    "EditCounts",
    "LabelAssignment",
    "PipelineConfig",
    "ReassignReport",
    "ReferenceTranscript",
    "Segment",
    "SessionHypothesis",
    "SynthSpec",
    "attenuate",
    "attenuation_factor",
    "brute_force_cpwer",
    "cosine_affinity",
    "cpwer",
    "cpwer_from_segments",
    "degree",
    "discretize",
    "edit_distance",
    "generate_session",
    "kmeans_pp",
    "normalized_laplacian",
    "oracle_assignment",
    "parse_reference",
    "parse_segments",
    "reassign",
    "relative_confusion_error",
    "spectral_cluster",
    "symmetric_eig",
    "unit_normalize",
    "write_assignment",
]

__version__ = "0.1.0"
