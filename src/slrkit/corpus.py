"""Data model and line-delimited I/O for session hypotheses and reference transcripts.

A session hypothesis is the per-segment output of a meeting transcription
system: segment boundaries, an initial speaker label, the recognized words,
and a speaker embedding per segment.  References hold the true per-speaker
transcripts.  Both are stored as line-delimited JSON records; embeddings may
live inline or in a compact binary sidecar (magic ``SLRE``).
"""

from __future__ import annotations

import io
import json
import os
import re
import struct
from dataclasses import dataclass
from operator import attrgetter
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

SIDECAR_MAGIC = b"SLRE"

# ASCII whitespace only; no other normalization is applied to words.
_ASCII_WS = re.compile(r"[ \t\n\r\f\v]+")


def tokenize(text: str) -> tuple[str, ...]:
    """Split ``text`` on ASCII whitespace into a word tuple."""
    return tuple(t for t in _ASCII_WS.split(text) if t)


@dataclass(frozen=True, eq=False)
class Segment:
    """One enhanced audio segment: boundaries, words, and its speaker embedding."""

    session_id: str
    segment_id: str
    start: float
    end: float
    initial_speaker: str
    words: tuple[str, ...]
    embedding: np.ndarray
    # (resolved sidecar path, index) when the embedding was read through
    # ``embedding_ref``; writers keep the reference instead of the floats
    embedding_ref: tuple[str, int] | None = None

    def __post_init__(self):
        if not self.start >= 0:
            raise ValueError(
                f"segment {self.segment_id!r}: start must be >= 0, got {self.start}"
            )
        if not self.end > self.start:
            raise ValueError(
                f"segment {self.segment_id!r}: end ({self.end}) must be greater "
                f"than start ({self.start})"
            )
        emb = np.asarray(self.embedding, dtype=np.float64)
        if emb.ndim != 1 or emb.size == 0:
            raise ValueError(
                f"segment {self.segment_id!r}: embedding must be a non-empty vector"
            )
        if not np.all(np.isfinite(emb)):
            raise ValueError(
                f"segment {self.segment_id!r}: embedding contains non-finite values"
            )
        if not emb.any():
            raise ValueError(f"segment {self.segment_id!r}: zero-norm embedding")
        emb.setflags(write=False)
        object.__setattr__(self, "embedding", emb)
        object.__setattr__(self, "words", tuple(self.words))

    @property
    def duration(self) -> float:
        """Segment duration in seconds, always recomputed from the boundaries."""
        return self.end - self.start

    def __eq__(self, other) -> bool:
        if not isinstance(other, Segment):
            return NotImplemented
        return (
            self.session_id == other.session_id
            and self.segment_id == other.segment_id
            and self.start == other.start
            and self.end == other.end
            and self.initial_speaker == other.initial_speaker
            and self.words == other.words
            and self.embedding.shape == other.embedding.shape
            and bool(np.array_equal(self.embedding, other.embedding))
        )


@dataclass(frozen=True, eq=False)
class SessionHypothesis:
    """All segments of one meeting in stream order (ascending start, ties by
    segment id), plus the speaker count of the initial diarization."""

    session_id: str
    segments: tuple[Segment, ...]
    num_speakers: int

    def __post_init__(self):
        object.__setattr__(self, "segments", tuple(self.segments))
        if not self.segments:
            raise ValueError(f"session {self.session_id!r}: no segments")
        if self.num_speakers < 1:
            raise ValueError(
                f"session {self.session_id!r}: num_speakers must be >= 1"
            )
        if self.num_speakers > len(self.segments):
            raise ValueError(
                f"session {self.session_id!r}: num_speakers "
                f"({self.num_speakers}) exceeds segment count ({len(self.segments)})"
            )
        previous = self.segments[0]
        for seg in self.segments:
            if seg.session_id != self.session_id:
                raise ValueError(
                    f"session {self.session_id!r}: segment {seg.segment_id!r} "
                    f"belongs to session {seg.session_id!r}"
                )
            if (seg.start, seg.segment_id) < (previous.start, previous.segment_id):
                raise ValueError(
                    f"session {self.session_id!r}: segment {seg.segment_id!r} "
                    "is out of stream order (start, then segment id)"
                )
            previous = seg
        dims = {seg.embedding.shape[0] for seg in self.segments}
        if len(dims) != 1:
            raise ValueError(
                f"session {self.session_id!r}: inconsistent embedding "
                f"dimensions {sorted(dims)}"
            )

    def embeddings(self) -> np.ndarray:
        """Stack of all segment embeddings, shape (segments, dim)."""
        return np.stack([seg.embedding for seg in self.segments])

    def durations(self) -> np.ndarray:
        return np.array([seg.duration for seg in self.segments])

    def __eq__(self, other) -> bool:
        if not isinstance(other, SessionHypothesis):
            return NotImplemented
        return (
            self.session_id == other.session_id
            and self.num_speakers == other.num_speakers
            and self.segments == other.segments
        )


@dataclass(frozen=True)
class ReferenceTranscript:
    """Per-speaker concatenated reference words of one session."""

    session_id: str
    per_speaker: dict[str, tuple[str, ...]]

    @property
    def total_words(self) -> int:
        return sum(len(words) for words in self.per_speaker.values())


@dataclass(frozen=True)
class LabelAssignment:
    """Cluster label per segment, aligned with the session's segments (stream order)."""

    session_id: str
    labels: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "labels", tuple(int(v) for v in self.labels))
        if any(v < 0 for v in self.labels):
            raise ValueError("labels must be non-negative")

    def validate_for(self, session: SessionHypothesis, num_labels: int) -> None:
        if len(self.labels) != len(session.segments):
            raise ValueError(
                f"assignment has {len(self.labels)} labels for "
                f"{len(session.segments)} segments"
            )
        if self.labels and max(self.labels) >= num_labels:
            raise ValueError(
                f"label {max(self.labels)} out of range for {num_labels} clusters"
            )


def _iter_json_lines(stream) -> Iterator[tuple[int, dict]]:
    if isinstance(stream, (str, Path)):
        with open(stream, "rb") as fh:
            yield from _iter_json_lines(fh)
        return
    if isinstance(stream, bytes):
        stream = io.BytesIO(stream)
    for lineno, raw in enumerate(stream, start=1):
        if isinstance(raw, bytes):
            raw = raw.decode("utf-8")
        line = raw.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ValueError(f"line {lineno}: malformed JSON: {exc.msg}") from exc
        if not isinstance(record, dict):
            raise ValueError(f"line {lineno}: record must be a JSON object")
        yield lineno, record


class _SidecarCache:
    """Lazily opened SLRE sidecar files, resolved relative to a base directory.

    Each distinct ``file`` string is resolved once, and each resolved path
    is read once.
    """

    def __init__(self, base_dir: Path):
        self.base_dir = base_dir
        self._paths: dict[str, str] = {}
        self._loaded: dict[str, np.ndarray] = {}

    def lookup(self, ref, lineno: int) -> tuple[tuple[str, int], np.ndarray]:
        """The reference as (resolved path, index), and the embedding it names."""
        if not isinstance(ref, dict):
            ref = {}
        file_name, index = ref.get("file"), ref.get("index")
        # ``type(...) is int`` also turns away booleans
        if not (isinstance(file_name, str) and file_name and type(index) is int):
            raise ValueError(
                f"line {lineno}: embedding_ref needs 'file' and integer 'index'"
            )
        path = self._paths.get(file_name)
        if path is None:
            path = self._paths[file_name] = str((self.base_dir / file_name).resolve())
        table = self._loaded.get(path)
        if table is None:
            table = self._loaded[path] = read_embeddings_sidecar(path)
        if not 0 <= index < table.shape[0]:
            raise ValueError(
                f"line {lineno}: embedding_ref index {index} out of range "
                f"for sidecar with {table.shape[0]} records"
            )
        return (path, index), table[index]


def read_embeddings_sidecar(path: str | Path) -> np.ndarray:
    """Read an SLRE sidecar: magic, u32 dim (little-endian), then dim x f32 per record."""
    data = Path(path).read_bytes()
    if len(data) < 8 or data[:4] != SIDECAR_MAGIC:
        raise ValueError(f"{path}: not an SLRE sidecar")
    (dim,) = struct.unpack("<I", data[4:8])
    if dim == 0:
        raise ValueError(f"{path}: sidecar dimension is zero")
    payload = data[8:]
    if len(payload) % (4 * dim) != 0:
        raise ValueError(f"{path}: truncated sidecar payload")
    flat = np.frombuffer(payload, dtype="<f4")
    return flat.reshape(-1, dim).astype(np.float64)


def write_embeddings_sidecar(path: str | Path, embeddings: np.ndarray) -> None:
    """Write embeddings (records x dim) as an SLRE sidecar in float32."""
    arr = np.asarray(embeddings, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[1] == 0:
        raise ValueError("embeddings must be a non-empty 2-D array")
    with open(path, "wb") as fh:
        fh.write(SIDECAR_MAGIC)
        fh.write(struct.pack("<I", arr.shape[1]))
        fh.write(arr.astype("<f4").tobytes())


_SEGMENT_KEYS = ("session_id", "segment_id", "start", "end", "speaker", "words")
_SEGMENT_ONLY_KEYS = {"segment_id", "start", "end", "embedding", "embedding_ref"}


def parse_segments(stream) -> list[SessionHypothesis]:
    """Parse line-delimited segment records into sessions.

    Segments are grouped by ``session_id`` and sorted into stream order.  A
    session's speaker count is the number of its distinct initial labels.
    Sidecar files named by ``embedding_ref`` resolve relative to the
    segments file when ``stream`` is a path, and to the working directory
    otherwise.

    Raises ``ValueError`` with the offending line number for malformed
    records, segment ids repeated within a session, zero-norm embeddings,
    and non-positive durations, and naming the session for inconsistent
    embedding dimensions (checked by ``SessionHypothesis``).
    """
    base_dir = Path(stream).parent if isinstance(stream, (str, Path)) else Path(".")
    sidecars = _SidecarCache(base_dir)

    by_session: dict[str, list[Segment]] = {}
    seen: dict[tuple[str, str], int] = {}
    for lineno, record in _iter_json_lines(stream):
        missing = [k for k in _SEGMENT_KEYS if k not in record]
        if missing:
            raise ValueError(f"line {lineno}: missing fields {missing}")
        embedding_ref = None
        if "embedding" in record:
            embedding = record["embedding"]
        elif "embedding_ref" in record:
            embedding_ref, embedding = sidecars.lookup(record["embedding_ref"], lineno)
        else:
            raise ValueError(f"line {lineno}: missing 'embedding' or 'embedding_ref'")
        try:
            segment = Segment(
                session_id=str(record["session_id"]),
                segment_id=str(record["segment_id"]),
                start=float(record["start"]),
                end=float(record["end"]),
                initial_speaker=str(record["speaker"]),
                words=tokenize(str(record["words"])),
                embedding=np.asarray(embedding, dtype=np.float64),
                embedding_ref=embedding_ref,
            )
        except (TypeError, ValueError) as exc:
            raise ValueError(f"line {lineno}: {exc}") from exc
        first = seen.setdefault((segment.session_id, segment.segment_id), lineno)
        if first != lineno:
            raise ValueError(
                f"line {lineno}: duplicate segment_id {segment.segment_id!r} in "
                f"session {segment.session_id!r} (first on line {first})"
            )
        by_session.setdefault(segment.session_id, []).append(segment)

    sessions = []
    for session_id, segments in by_session.items():
        sessions.append(
            SessionHypothesis(
                session_id=session_id,
                segments=tuple(sorted(segments, key=attrgetter("start", "segment_id"))),
                num_speakers=len({seg.initial_speaker for seg in segments}),
            )
        )
    return sessions


def parse_reference(stream) -> list[ReferenceTranscript]:
    """Parse line-delimited reference records, concatenating per (session, speaker).

    Raises ``ValueError`` naming the line of a record that carries a field
    only segment records have, such as ``start`` (a segments file passed as
    the reference), and naming the session when a reference speaker ends up
    with no words.  Other unknown fields are ignored.
    """
    per_session: dict[str, dict[str, tuple[str, ...]]] = {}
    for lineno, record in _iter_json_lines(stream):
        missing = [k for k in ("session_id", "speaker", "words") if k not in record]
        if missing:
            raise ValueError(f"line {lineno}: missing fields {missing}")
        segment_keys = record.keys() & _SEGMENT_ONLY_KEYS
        if segment_keys:
            raise ValueError(
                f"line {lineno}: reference record carries segment fields "
                f"{sorted(segment_keys)}"
            )
        session_id = str(record["session_id"])
        speaker = str(record["speaker"])
        words = tokenize(str(record["words"]))
        speakers = per_session.setdefault(session_id, {})
        speakers[speaker] = speakers.get(speaker, ()) + words

    transcripts = []
    for session_id, speakers in per_session.items():
        empty = [spk for spk, words in speakers.items() if not words]
        if empty:
            raise ValueError(
                f"session {session_id!r}: reference speakers {empty} have no words"
            )
        transcripts.append(
            ReferenceTranscript(session_id=session_id, per_speaker=dict(speakers))
        )
    return transcripts


def _dump_record(segment: Segment, speaker: str, ref_file: Callable[[str], str]) -> str:
    record = {
        "session_id": segment.session_id,
        "segment_id": segment.segment_id,
        "start": segment.start,
        "end": segment.end,
        "speaker": speaker,
        "words": " ".join(segment.words),
    }
    if segment.embedding_ref is None:
        record["embedding"] = segment.embedding.tolist()
    else:
        path, index = segment.embedding_ref
        record["embedding_ref"] = {"file": ref_file(path), "index": index}
    return json.dumps(record)


def sidecar_names(ref_dir: str | Path) -> Callable[[str], str]:
    """Sidecar path -> its name relative to ``ref_dir``, each computed once.

    The directory is resolved only when a new sidecar path is seen, so
    inline-only output never touches the file system.  Pass the result as
    ``ref_dir`` to every :func:`write_assignment` call bound for one file
    to share that work.
    """
    names: dict[str, str] = {}

    def ref_file(path: str) -> str:
        if path not in names:
            names[path] = os.path.relpath(path, Path(ref_dir).resolve())
        return names[path]

    return ref_file


def _ref_files(sink, ref_dir) -> Callable[[str], str]:
    """Sidecar path -> its name relative to where ``sink``'s records are read from.

    That is ``ref_dir`` when given (a directory or its :func:`sidecar_names`),
    else the sink's directory for a path and the working directory for a
    stream, as in :func:`parse_segments`.
    """
    if callable(ref_dir):
        return ref_dir
    if ref_dir is None:
        ref_dir = Path(sink).parent if isinstance(sink, (str, Path)) else "."
    return sidecar_names(ref_dir)


def _write_lines(sink, lines: Iterable[str]) -> None:
    if isinstance(sink, (str, Path)):
        with open(sink, "w", encoding="utf-8") as fh:
            _write_lines(fh, lines)
        return
    for line in lines:
        sink.write(line + "\n")


def write_segments(session: SessionHypothesis, sink) -> None:
    """Write a session back out with its initial speaker labels."""
    ref_file = _ref_files(sink, None)
    _write_lines(
        sink,
        (_dump_record(seg, seg.initial_speaker, ref_file) for seg in session.segments),
    )


def write_assignment(
    session: SessionHypothesis,
    assignment: LabelAssignment,
    sink,
    *,
    label_names: Sequence[str] | None = None,
    ref_dir: str | Path | Callable[[str], str] | None = None,
) -> None:
    """Write the session with speakers replaced by the assigned cluster labels.

    Label ``c`` becomes ``spk<c>`` unless ``label_names`` supplies a name per
    cluster index.  Output round-trips through :func:`parse_segments` with
    embeddings preserved to full precision: inline embeddings are written as
    float lists, and segments read through ``embedding_ref`` keep that
    reference, its file relative to ``ref_dir``.  By default that is the
    sink's directory for a path and the working directory for a stream; pass
    the destination's directory when writing to a buffer bound for a file,
    or its :func:`sidecar_names` when several calls write to one file.
    """
    num_labels = len(label_names) if label_names is not None else (
        max(assignment.labels) + 1 if assignment.labels else 0
    )
    assignment.validate_for(session, max(num_labels, 1))

    def name(c: int) -> str:
        if label_names is not None:
            return label_names[c]
        return f"spk{c}"

    ref_file = _ref_files(sink, ref_dir)
    _write_lines(
        sink,
        (
            _dump_record(seg, name(c), ref_file)
            for seg, c in zip(session.segments, assignment.labels)
        ),
    )


def write_reference(reference: ReferenceTranscript, sink) -> None:
    """Write one reference record per speaker."""
    _write_lines(
        sink,
        (
            json.dumps(
                {
                    "session_id": reference.session_id,
                    "speaker": speaker,
                    "words": " ".join(words),
                }
            )
            for speaker, words in reference.per_speaker.items()
        ),
    )
