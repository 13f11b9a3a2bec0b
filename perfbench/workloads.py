"""The benchmark's workloads: seeded synthetic sessions and the CLI call each one times.

Every workload is a fixed list of ``SynthSpec`` tiers.  The seed changes what
is generated, never how much: segment counts, speaker counts and word ranges
are constants here.  Session ``i`` of a workload is generated from
``pipeline.session_seed(seed, i)``, so adding or removing a session leaves the
others unchanged.
"""

from __future__ import annotations

import hashlib
import io
import json
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from slrkit import corpus, pipeline
from slrkit.pipeline import DurationBucket, SynthSpec

SEGMENTS = "segments.jsonl"
REFERENCE = "reference.jsonl"
SIDECAR = "embeddings.slre"
OUT = "out.jsonl"
REPORT = "report.jsonl"

# The CLI's default sweep; the sweep workload runs ``report`` without
# ``--sweep`` and its check expects one row per value of this grid.
DEFAULT_SWEEP = "step:0,0.1,0.25,1;poly:1,2,4,8,16"


def _mixed_durations(count: int, long_sigma: float, short_sigma: float):
    """40 % long segments (8-15 s) and 60 % short ones (0.5-1.9 s)."""
    long_count = round(0.4 * count)
    return (
        DurationBucket(long_count, 8.0, 15.0, long_sigma),
        DurationBucket(count - long_count, 0.5, 1.9, short_sigma),
    )


def _relabel_spec(count: int, speakers: int) -> SynthSpec:
    return SynthSpec(
        num_speakers=speakers,
        dim=192,
        buckets=_mixed_durations(count, 0.3, 1.0),
        words_per_segment=(2, 6),
        corruption=0.1,
        confusion=0.3,
        noise_correlation=0.9,
    )


def _evaluate_spec(count: int, speakers: int, words: tuple[int, int]) -> SynthSpec:
    return SynthSpec(
        num_speakers=speakers,
        dim=192,
        buckets=_mixed_durations(count, 0.3, 1.0),
        words_per_segment=words,
        corruption=0.1,
        confusion=0.3,
        noise_correlation=0.9,
        shared_vocabulary=True,
        vocab_size=300,
    )


def _sweep_spec(count: int, speakers: int) -> SynthSpec:
    return SynthSpec(
        num_speakers=speakers,
        dim=8,
        min_angle_deg=50.0,
        buckets=_mixed_durations(count, 0.05, 0.5),
        words_per_segment=(2, 4),
        corruption=0.3,
        confusion=0.3,
        noise_correlation=0.9,
        shared_vocabulary=True,
        vocab_size=15,
    )


@dataclass(frozen=True)
class Workload:
    """Input tiers of one workload and the ``slrkit`` command it times."""

    name: str
    command: str  # "reassign" or "report"
    specs: tuple[SynthSpec, ...]
    sidecar: bool
    scored: bool  # whether reassign sees the reference

    def argv(self, directory: Path, seed: int) -> list[str]:
        d = str(directory)
        if self.command == "report":
            return [
                "report",
                "--segments", f"{d}/{SEGMENTS}",
                "--reference", f"{d}/{REFERENCE}",
                "--seed", str(seed),
                "--out", f"{d}/{REPORT}",
            ]
        argv = [
            "reassign",
            "--segments", f"{d}/{SEGMENTS}",
            "--attenuation", "step:0.25",
            "--seed", str(seed),
            "--out", f"{d}/{OUT}",
        ]
        if self.scored:
            argv += ["--reference", f"{d}/{REFERENCE}", "--report", f"{d}/{REPORT}"]
        return argv

    def inputs(self, directory: Path) -> list[Path]:
        names = [SEGMENTS, REFERENCE] + ([SIDECAR] if self.sidecar else [])
        return [directory / name for name in names]

    def outputs(self, directory: Path) -> list[Path]:
        """Files the timed command writes."""
        if self.command == "report":
            return [directory / REPORT]
        if self.scored:
            return [directory / OUT, directory / REPORT]
        return [directory / OUT]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "relabel",
            "reassign",
            tuple(_relabel_spec(n, k) for n, k in ((100, 4), (125, 6), (150, 8)) * 2),
            sidecar=True,
            scored=False,
        ),
        Workload(
            "evaluate",
            "reassign",
            (_evaluate_spec(40, 4, (90, 110)),),
            sidecar=False,
            scored=True,
        ),
        Workload(
            "sweep",
            "report",
            tuple(_sweep_spec(45, k) for k in (4, 6, 4, 6)),
            sidecar=False,
            scored=True,
        ),
    )
}


def _sidecar_record(seg: corpus.Segment, index: int) -> str:
    return json.dumps(
        {
            "session_id": seg.session_id,
            "segment_id": seg.segment_id,
            "start": seg.start,
            "end": seg.end,
            "speaker": seg.initial_speaker,
            "words": " ".join(seg.words),
            "embedding_ref": {"file": SIDECAR, "index": index},
        }
    )


def write_inputs(workload: Workload, seed: int, directory: Path) -> tuple[float, float]:
    """Generate the workload's sessions and write them; returns (generate_s, write_s)."""
    started = time.perf_counter()
    generated = [
        pipeline.generate_session(
            spec, pipeline.session_seed(seed, i), session_id=f"{workload.name}{i}"
        )
        for i, spec in enumerate(workload.specs)
    ]
    generate_s = time.perf_counter() - started

    started = time.perf_counter()
    segments, references = io.StringIO(), io.StringIO()
    embeddings = []
    for session, reference, _ in generated:
        if workload.sidecar:
            for seg in session.segments:
                segments.write(_sidecar_record(seg, len(embeddings)) + "\n")
                embeddings.append(seg.embedding)
        else:
            corpus.write_segments(session, segments)
        corpus.write_reference(reference, references)
    directory.mkdir(parents=True, exist_ok=True)
    if workload.sidecar:
        corpus.write_embeddings_sidecar(directory / SIDECAR, np.stack(embeddings))
    (directory / SEGMENTS).write_text(segments.getvalue(), encoding="utf-8")
    (directory / REFERENCE).write_text(references.getvalue(), encoding="utf-8")
    return generate_s, time.perf_counter() - started


def digest(paths: list[Path]) -> str:
    """SHA-256 over the names and bytes of ``paths``, in order."""
    h = hashlib.sha256()
    for path in paths:
        h.update(path.name.encode("utf-8") + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()
