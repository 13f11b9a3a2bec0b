"""End-to-end reassignment, evaluation sweeps, and synthetic corpus generation."""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .affinity import AttenuationConfig, cosine_affinity, duration_factors
from .corpus import LabelAssignment, ReferenceTranscript, SessionHypothesis, Segment
from .kmeans import kmeans_pp, unit_normalize
from .metrics import CpWerReport, cpwer, cpwer_from_segments
from .oracle import exact_fits_budget, oracle_assignment, relative_confusion_error
from .spectral import spectral_cluster

ALGORITHMS = ("sc", "kmeans")

CENTROID_REJECTION_TRIES = 10_000


@dataclass(frozen=True)
class PipelineConfig:
    """Which clusterer to run and how."""

    algorithm: str = "sc"
    attenuation: AttenuationConfig = field(default_factory=AttenuationConfig)
    num_speakers: int | None = None

    def __post_init__(self):
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"algorithm must be one of {ALGORITHMS}")


@dataclass(frozen=True)
class ReassignReport:
    """Evaluation bundle emitted by :func:`reassign` when a reference is given."""

    cpwer_before: CpWerReport | None = None
    cpwer_after: CpWerReport | None = None
    cpwer_oracle: CpWerReport | None = None
    oracle_mode: str | None = None
    relative_confusion_error: float | None = None


def session_seed(master_seed: int, session_index: int) -> int:
    """Per-session child seed; all randomness flows from one master seed."""
    seq = np.random.SeedSequence(entropy=master_seed, spawn_key=(session_index,))
    return int(seq.generate_state(1, np.uint64)[0])


def initial_speaker_streams(session: SessionHypothesis) -> dict[str, tuple[str, ...]]:
    """Per-speaker word streams under the initial labels, in stream order."""
    streams: dict[str, list[str]] = {}
    for seg in session.segments:
        streams.setdefault(seg.initial_speaker, []).extend(seg.words)
    return {label: tuple(words) for label, words in streams.items()}


def cluster_session(
    session: SessionHypothesis,
    cfg: PipelineConfig,
    seed=0,
    *,
    affinity: np.ndarray | None = None,
) -> LabelAssignment:
    """Run the configured clusterer on one session.

    ``affinity`` is passed on to :func:`spectral_cluster`; k-means ignores it.
    """
    k = cfg.num_speakers if cfg.num_speakers is not None else session.num_speakers
    if not 1 <= k <= len(session.segments):
        raise ValueError(
            f"session {session.session_id!r}: speaker count {k} invalid for "
            f"{len(session.segments)} segments"
        )
    if cfg.algorithm == "kmeans":
        if cfg.attenuation.mode != "none":
            warnings.warn(
                "attenuation is ignored by the k-means clusterer", stacklevel=2
            )
        labels = kmeans_pp(unit_normalize(session.embeddings()), k, seed)
        return LabelAssignment(session_id=session.session_id, labels=tuple(labels))
    return spectral_cluster(
        session, cfg.attenuation, seed, num_speakers=k, affinity=affinity
    )


def _safe_relative(
    cpwer_none: float, cpwer_slr: float, cpwer_oracle: float
) -> float | None:
    """Relative confusion error, or None where the measure is undefined."""
    if cpwer_none == cpwer_oracle and cpwer_slr != cpwer_oracle:
        return None
    return relative_confusion_error(cpwer_none, cpwer_slr, cpwer_oracle)


def _evaluate(
    session: SessionHypothesis,
    reference: ReferenceTranscript,
    assignments: list[LabelAssignment],
) -> tuple[CpWerReport, list[CpWerReport], CpWerReport, str]:
    """cpWER of one session's initial labels, of each assignment, and of its oracle.

    Each distinct label tuple is scored once, and its report is shared by
    the assignments that repeat it.  The oracle (exact when the enumeration
    fits its budget, greedy otherwise) starts from every distinct labeling
    scored here, so it bounds them all; a repeat would lose the oracle's
    ties to its first occurrence anyway.
    """
    before = cpwer(reference, initial_speaker_streams(session))
    starts = [([seg.initial_speaker for seg in session.segments], before)]
    scored: dict[tuple[int, ...], CpWerReport] = {}
    for assignment in assignments:
        if assignment.labels not in scored:
            after = cpwer_from_segments(reference, session, assignment)
            scored[assignment.labels] = after
            starts.append(([f"spk{c}" for c in assignment.labels], after))
    afters = [scored[a.labels] for a in assignments]
    fits = exact_fits_budget(len(reference.per_speaker), len(session.segments))
    mode = "exact" if fits else "greedy"
    _, oracle_report = oracle_assignment(session, reference, mode, starts=starts)
    return before, afters, oracle_report, mode


def reassign(
    session: SessionHypothesis,
    reference: ReferenceTranscript | None = None,
    cfg: PipelineConfig | None = None,
    *,
    seed=0,
) -> tuple[LabelAssignment, ReassignReport]:
    """Re-cluster one session and, with a reference, quantify the gain.

    Returns the new labels plus, with a reference, the report of
    :func:`_evaluate` for them: cpWER before and after reassignment, the
    oracle cpWER and its mode, and the relative confusion error.
    Deterministic for a fixed seed.
    """
    cfg = cfg or PipelineConfig()
    assignment = cluster_session(session, cfg, seed)
    if reference is None:
        return assignment, ReassignReport()

    before, (after,), oracle_report, mode = _evaluate(session, reference, [assignment])
    relative = _safe_relative(before.cpwer, after.cpwer, oracle_report.cpwer)
    return assignment, ReassignReport(
        cpwer_before=before,
        cpwer_after=after,
        cpwer_oracle=oracle_report,
        oracle_mode=mode,
        relative_confusion_error=relative,
    )


@dataclass(frozen=True)
class DurationBucket:
    """A group of synthetic segments sharing a duration range and noise level."""

    count: int
    min_duration: float
    max_duration: float
    embed_sigma: float

    def __post_init__(self):
        if self.count < 1:
            raise ValueError("bucket count must be >= 1")
        if not 0 < self.min_duration <= self.max_duration:
            raise ValueError("need 0 < min_duration <= max_duration")
        if self.embed_sigma < 0:
            raise ValueError("embed_sigma must be >= 0")


@dataclass(frozen=True)
class SynthSpec:
    """Parameters of a synthetic session: cluster geometry, durations, and noise."""

    num_speakers: int
    dim: int
    min_angle_deg: float = 45.0
    buckets: tuple[DurationBucket, ...] = (DurationBucket(24, 2.0, 10.0, 0.1),)
    words_per_segment: tuple[int, int] = (2, 4)
    corruption: float = 0.0
    confusion: float = 0.0
    noise_correlation: float = 0.0
    shared_vocabulary: bool = False
    vocab_size: int = 40

    def __post_init__(self):
        object.__setattr__(
            self, "buckets", tuple(DurationBucket(**b) if isinstance(b, dict) else b
                                   for b in self.buckets)
        )
        object.__setattr__(self, "words_per_segment", tuple(self.words_per_segment))
        if self.num_speakers < 1 or self.dim < 1:
            raise ValueError("num_speakers and dim must be >= 1")
        if not 0 < self.min_angle_deg < 180:
            raise ValueError("min_angle_deg must be in (0, 180)")
        if not self.buckets:
            raise ValueError("at least one duration bucket required")
        lo, hi = self.words_per_segment
        if not 0 <= lo <= hi:
            raise ValueError("words_per_segment must be 0 <= lo <= hi")
        if not 0 <= self.corruption <= 1 or not 0 <= self.confusion <= 1:
            raise ValueError("corruption and confusion must be in [0, 1]")
        if not 0 <= self.noise_correlation <= 1:
            raise ValueError("noise_correlation must be in [0, 1]")
        if self.total_segments < self.num_speakers:
            raise ValueError("need at least one segment per speaker")
        if self.vocab_size < 1:
            raise ValueError("vocab_size must be >= 1")

    @property
    def total_segments(self) -> int:
        return sum(b.count for b in self.buckets)


def _sample_centroids(spec: SynthSpec, rng: np.random.Generator) -> np.ndarray:
    """Standard-normal centroids with pairwise |cosine| below cos(min_angle).

    Components have unit variance so a bucket's noise stddev reads as
    noise-to-signal per component, independent of the dimension.  Separation
    uses the absolute cosine because the affinity does too.
    """
    max_abs_cos = math.cos(math.radians(spec.min_angle_deg))
    centroids = np.empty((spec.num_speakers, spec.dim))
    units = np.empty_like(centroids)
    for k in range(spec.num_speakers):
        for _ in range(CENTROID_REJECTION_TRIES):
            v = rng.standard_normal(spec.dim)
            u = v / np.linalg.norm(v)
            if k == 0 or np.max(np.abs(units[:k] @ u)) <= max_abs_cos:
                centroids[k] = v
                units[k] = u
                break
        else:
            raise ValueError(
                f"could not place {spec.num_speakers} centroids with "
                f"min angle {spec.min_angle_deg} deg in dimension {spec.dim}"
            )
    return centroids


def generate_session(
    spec: SynthSpec, seed, session_id: str = "synth0"
) -> tuple[SessionHypothesis, ReferenceTranscript, LabelAssignment]:
    """Build a synthetic session, its reference transcript, and the true labels.

    Speakers cycle over the bucket segments so every speaker receives
    segments from every bucket.  Each segment embedding is the speaker
    centroid plus bucket-level Gaussian noise, re-normalized to unit length;
    hypothesis words are the reference words with per-token corruption, and
    initial labels are the true labels with per-segment confusion applied.

    ``noise_correlation`` routes that fraction of the noise variance through
    one fixed per-session direction, so heavily noised segments drift toward
    common junk and show similarities that are not speaker identity; the
    marginal per-component noise stddev stays at the bucket value.
    """
    rng = np.random.default_rng(seed)
    k = spec.num_speakers
    centroids = _sample_centroids(spec, rng)
    junk_direction = rng.standard_normal(spec.dim)
    shared_scale = math.sqrt(spec.noise_correlation)
    private_scale = math.sqrt(1.0 - spec.noise_correlation)

    if spec.shared_vocabulary:
        vocab = [[f"w{j}" for j in range(spec.vocab_size)] for _ in range(k)]
    else:
        vocab = [[f"s{s}w{j}" for j in range(spec.vocab_size)] for s in range(k)]

    drafts = []
    index = 0
    for bucket in spec.buckets:
        for _ in range(bucket.count):
            speaker = index % k
            duration = float(rng.uniform(bucket.min_duration, bucket.max_duration))
            noise = bucket.embed_sigma * (
                shared_scale * junk_direction
                + private_scale * rng.standard_normal(spec.dim)
            )
            embedding = centroids[speaker] + noise
            embedding = embedding / np.linalg.norm(embedding)
            lo, hi = spec.words_per_segment
            n_words = int(rng.integers(lo, hi + 1))
            ref_words = tuple(
                vocab[speaker][int(rng.integers(spec.vocab_size))]
                for _ in range(n_words)
            )
            hyp_words = tuple(
                f"err{int(rng.integers(10_000))}"
                if rng.random() < spec.corruption
                else w
                for w in ref_words
            )
            drafts.append((speaker, duration, embedding, ref_words, hyp_words))
            index += 1

    order = rng.permutation(len(drafts))
    segments = []
    true_labels = []
    ref_streams: dict[str, tuple[str, ...]] = {f"spk{s}": () for s in range(k)}
    clock = 0.0
    for position, draft_index in enumerate(order):
        speaker, duration, embedding, ref_words, hyp_words = drafts[draft_index]
        label = speaker
        if k > 1 and rng.random() < spec.confusion:
            label = int((speaker + 1 + rng.integers(k - 1)) % k)
        start = clock
        end = start + duration
        clock = end + float(rng.uniform(0.05, 0.5))
        segments.append(
            Segment(
                session_id=session_id,
                segment_id=f"{session_id}-seg{position:04d}",
                start=start,
                end=end,
                initial_speaker=f"spk{label}",
                words=hyp_words,
                embedding=embedding,
            )
        )
        true_labels.append(speaker)
        ref_streams[f"spk{speaker}"] = ref_streams[f"spk{speaker}"] + ref_words

    session = SessionHypothesis(
        session_id=session_id, segments=tuple(segments), num_speakers=k
    )
    reference = ReferenceTranscript(session_id=session_id, per_speaker=ref_streams)
    truth = LabelAssignment(session_id=session_id, labels=tuple(true_labels))
    return session, reference, truth


def references_by_session(
    sessions: list[SessionHypothesis], references: list[ReferenceTranscript]
) -> dict[str, ReferenceTranscript]:
    """Reference transcripts keyed by session id, for scoring ``sessions`` as a set.

    Both sides must hold the same sessions: a hypothesis session without a
    reference cannot be scored, and a reference session without a hypothesis
    would drop its words from pooled cpWER.
    """
    refs_by_session = {ref.session_id: ref for ref in references}
    missing = [s.session_id for s in sessions if s.session_id not in refs_by_session]
    if missing:
        raise ValueError(f"no reference for sessions {missing}")
    hypothesized = {s.session_id for s in sessions}
    unscored = [sid for sid in refs_by_session if sid not in hypothesized]
    if unscored:
        raise ValueError(f"reference sessions {unscored} have no hypothesis session")
    return refs_by_session


def pooled_cpwer(reports: list[CpWerReport]) -> float:
    """Corpus-level rate: summed errors over summed reference words."""
    errors = sum(r.errors for r in reports)
    words = sum(r.ref_words for r in reports)
    if words == 0:
        raise ValueError("cpWER undefined: no reference words")
    return errors / words


def macro_cpwer(reports: list[CpWerReport]) -> float:
    """Unweighted mean of the per-session rates."""
    return sum(r.cpwer for r in reports) / len(reports)


def parse_sweep(text: str) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Parse a sweep such as ``step:0,0.1,0.25,1;poly:1,2,4,8,16``.

    A value that ``AttenuationConfig`` rejects raises ``ValueError`` naming
    its part of the sweep.
    """
    sweep: dict[str, tuple[float, ...]] = {"step": (), "poly": ()}
    for part in filter(None, (p.strip() for p in text.split(";"))):
        kind, _, values = part.partition(":")
        if kind not in sweep:
            raise ValueError(f"unknown sweep kind {kind!r} (expected step/poly)")
        try:
            sweep[kind] = tuple(float(v) for v in values.split(",") if v.strip())
            _grid_configs(sweep["step"], sweep["poly"])
        except ValueError as exc:
            raise ValueError(f"bad sweep values in {part!r}: {exc}") from exc
    return sweep["step"], sweep["poly"]


def _grid_configs(
    step_alphas: tuple[float, ...], poly_betas: tuple[float, ...]
) -> list[PipelineConfig]:
    """Clustered rows in report order: k-means, then SC plain, per alpha, per beta."""
    attenuations = [AttenuationConfig(mode="none")]
    attenuations += [AttenuationConfig(mode="stepwise", alpha=a) for a in step_alphas]
    attenuations += [AttenuationConfig(mode="polynomial", beta=b) for b in poly_betas]
    return [PipelineConfig(algorithm="kmeans")] + [
        PipelineConfig(algorithm="sc", attenuation=a) for a in attenuations
    ]


def _grid_assignments(
    session: SessionHypothesis, configs: list[PipelineConfig], seed
) -> list[LabelAssignment]:
    """Labels of one session under each grid configuration, all with ``seed``.

    The session's cosine affinity is computed once.  Configurations whose
    per-segment attenuation factors are equal give the same graph, so the
    same labels, and share one clustering.
    """
    affinity = cosine_affinity(session.embeddings())
    durations = session.durations()
    by_graph: dict[bytes, LabelAssignment] = {}
    assignments = []
    for cfg in configs:
        if cfg.algorithm == "kmeans":
            assignments.append(cluster_session(session, cfg, seed))
            continue
        graph = duration_factors(durations, cfg.attenuation).tobytes()
        if graph not in by_graph:
            by_graph[graph] = cluster_session(session, cfg, seed, affinity=affinity)
        assignments.append(by_graph[graph])
    return assignments


def run_report(
    sessions: list[SessionHypothesis],
    references: list[ReferenceTranscript],
    step_alphas: tuple[float, ...],
    poly_betas: tuple[float, ...],
    seed: int,
) -> list[dict]:
    """Evaluate the attenuation grid over all sessions.

    Each session is clustered under every grid configuration with its child
    seed (:func:`_grid_assignments`) and scored by one :func:`_evaluate`
    call.  Returns one row dict per system ("none", each configuration,
    "oracle") with pooled and macro-averaged cpWER plus relative confusion
    errors against the shared oracle.  Rows are deterministic for fixed
    inputs and seed.
    """
    refs_by_session = references_by_session(sessions, references)
    configs = _grid_configs(step_alphas, poly_betas)
    none_reports: list[CpWerReport] = []
    afters: list[list[CpWerReport]] = []
    oracle_reports: list[CpWerReport] = []
    oracle_modes: set[str] = set()
    for i, s in enumerate(sessions):
        assignments = _grid_assignments(s, configs, session_seed(seed, i))
        before, session_afters, oracle_report, mode = _evaluate(
            s, refs_by_session[s.session_id], assignments
        )
        none_reports.append(before)
        afters.append(session_afters)
        oracle_reports.append(oracle_report)
        oracle_modes.add(mode)

    pooled_none, macro_none = pooled_cpwer(none_reports), macro_cpwer(none_reports)
    pooled_oracle = pooled_cpwer(oracle_reports)
    macro_oracle = macro_cpwer(oracle_reports)

    def row(algorithm: str, cfg: PipelineConfig | None, reports: list[CpWerReport]):
        attenuation = cfg.attenuation if cfg and cfg.algorithm == "sc" else None
        pooled, macro = pooled_cpwer(reports), macro_cpwer(reports)
        return {
            "algorithm": algorithm,
            "attenuation": attenuation.mode if attenuation else None,
            "alpha": attenuation.alpha if attenuation and attenuation.mode == "stepwise" else None,
            "beta": attenuation.beta if attenuation and attenuation.mode == "polynomial" else None,
            "pooled_cpwer": pooled,
            "macro_cpwer": macro,
            "relative_confusion_error": _safe_relative(
                pooled_none, pooled, pooled_oracle
            ),
            "macro_relative_confusion_error": _safe_relative(
                macro_none, macro, macro_oracle
            ),
            "oracle_modes": sorted(oracle_modes) if algorithm == "oracle" else None,
        }

    # afters holds one list per session; a row takes one entry of each
    clustered = zip(configs, zip(*afters))
    return [
        row("none", None, none_reports),
        *(row(cfg.algorithm, cfg, reports) for cfg, reports in clustered),
        row("oracle", None, oracle_reports),
    ]
