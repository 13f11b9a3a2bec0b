"""Checks of a workload's outputs, and the quality figures read from them.

Run after the timed call and outside its timing.  Every cpWER the program
reported is compared with ``metrics.brute_force_cpwer`` over labels read back
from the written files: the initial labels of the input, the labels of the
relabeled output, and, for the ``kmeans`` and ``sc`` rows of ``report``,
whose labels are not written, labels re-derived with the library's clusterer
for the row's configuration.  The oracle's labels are not written by
``reassign`` or ``report``, so its cpWER is only range-checked; the program
itself asserts that the oracle's search cost equals the cpWER of its labels.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

from slrkit import corpus, metrics, pipeline
from slrkit.affinity import AttenuationConfig
from slrkit.pipeline import PipelineConfig

import workloads


@dataclass
class Outcome:
    """Sessions that failed a check, why, and the quality figures of the run."""

    sessions: list[str]
    failed: set[str] = field(default_factory=set)
    problems: list[str] = field(default_factory=list)
    cpwer_after: float = 0.0
    cpwer_oracle: float = 0.0
    oracle_violations: int = 0
    relative_confusion_error: float = 0.0

    def fail(self, sessions, problem: str) -> None:
        self.failed.update(sessions)
        self.problems.append(problem)


def _read_lines(path: Path) -> list[dict]:
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]


def _check_relabeled(out: Outcome, inputs, relabeled) -> None:
    """Relabeled sessions carry the input's segments, only with new speakers."""
    if [s.session_id for s in relabeled] != out.sessions:
        out.fail(out.sessions, "relabeled sessions differ from the input sessions")
        return
    for before, after in zip(inputs, relabeled):
        same = len(before.segments) == len(after.segments) and all(
            a.segment_id == b.segment_id
            and a.start == b.start
            and a.end == b.end
            and a.words == b.words
            and a.embedding.shape == b.embedding.shape
            and bool((a.embedding == b.embedding).all())
            for a, b in zip(after.segments, before.segments)
        )
        if not same:
            out.fail([before.session_id], f"{before.session_id}: segments changed")
        labels = {seg.initial_speaker for seg in after.segments}
        allowed = {f"spk{c}" for c in range(before.num_speakers)}
        if not labels <= allowed:
            out.fail([before.session_id], f"{before.session_id}: labels {sorted(labels - allowed)}")


def _pooled(reports) -> float:
    return sum(r.errors for r in reports) / sum(r.ref_words for r in reports)


def check_reassign(workload, directory: Path) -> Outcome:
    inputs = corpus.parse_segments(directory / workloads.SEGMENTS)
    refs = {r.session_id: r for r in corpus.parse_reference(directory / workloads.REFERENCE)}
    out = Outcome(sessions=[s.session_id for s in inputs])
    relabeled = corpus.parse_segments(directory / workloads.OUT)
    _check_relabeled(out, inputs, relabeled)
    if out.failed == set(out.sessions):
        return out
    after = [
        metrics.brute_force_cpwer(refs[s.session_id], pipeline.initial_speaker_streams(s))
        for s in relabeled
    ]
    out.cpwer_after = _pooled(after)
    if not workload.scored:
        return out

    rows = _read_lines(directory / workloads.REPORT)
    if [row["session_id"] for row in rows] != out.sessions:
        out.fail(out.sessions, "report rows do not match the sessions")
        return out
    oracle_errors = words = 0
    relative = []
    for session, row, after_report in zip(inputs, rows, after):
        ref = refs[session.session_id]
        before = metrics.brute_force_cpwer(ref, pipeline.initial_speaker_streams(session)).cpwer
        if row["cpwer_before"] != before or row["cpwer_after"] != after_report.cpwer:
            out.fail(
                [session.session_id],
                f"{session.session_id}: reported before/after "
                f"{row['cpwer_before']}/{row['cpwer_after']}, recomputed "
                f"{before}/{after_report.cpwer}",
            )
        oracle = row["cpwer_oracle"]
        if not (isinstance(oracle, float) and math.isfinite(oracle) and oracle >= 0):
            out.fail([session.session_id], f"{session.session_id}: oracle cpWER {oracle!r}")
            continue
        oracle_errors += round(oracle * ref.total_words)
        words += ref.total_words
        if min(before, after_report.cpwer) < oracle:
            out.oracle_violations += 1
        if row["relative_confusion_error"] is not None:
            relative.append(row["relative_confusion_error"])
    out.cpwer_oracle = oracle_errors / words if words else 0.0
    out.relative_confusion_error = sum(relative) / len(relative) if relative else 0.0
    return out


def _expected_grid() -> list[tuple]:
    alphas, betas = pipeline.parse_sweep(workloads.DEFAULT_SWEEP)
    return (
        [("none", None, None, None), ("kmeans", None, None, None), ("sc", "none", None, None)]
        + [("sc", "stepwise", a, None) for a in alphas]
        + [("sc", "polynomial", None, b) for b in betas]
        + [("oracle", None, None, None)]
    )


def check_report(directory: Path, seed: int) -> Outcome:
    inputs = corpus.parse_segments(directory / workloads.SEGMENTS)
    refs = {r.session_id: r for r in corpus.parse_reference(directory / workloads.REFERENCE)}
    out = Outcome(sessions=[s.session_id for s in inputs])
    rows = _read_lines(directory / workloads.REPORT)
    grid = [(r["algorithm"], r["attenuation"], r["alpha"], r["beta"]) for r in rows]
    if grid != _expected_grid():
        out.fail(out.sessions, f"report has {len(rows)} rows, grid {grid}")
        return out
    bad = [r for r in rows if not (math.isfinite(r["pooled_cpwer"]) and r["pooled_cpwer"] >= 0)]
    if bad:
        out.fail(out.sessions, f"{len(bad)} rows with an invalid pooled cpWER")

    def streams_of(algorithm, attenuation):
        if algorithm == "none":
            return [pipeline.initial_speaker_streams(s) for s in inputs]
        cfg = PipelineConfig(algorithm=algorithm, attenuation=attenuation)
        return [
            metrics.assignment_streams(
                s, pipeline.cluster_session(s, cfg, pipeline.session_seed(seed, i))
            )
            for i, s in enumerate(inputs)
        ]

    for row, (algorithm, mode, alpha, beta) in zip(rows[:-1], _expected_grid()):
        given = {k: v for k, v in (("alpha", alpha), ("beta", beta)) if v is not None}
        attenuation = AttenuationConfig(mode=mode or "none", **given)
        reports = [
            metrics.brute_force_cpwer(refs[s.session_id], streams)
            for s, streams in zip(inputs, streams_of(algorithm, attenuation))
        ]
        expected = (_pooled(reports), pipeline.macro_cpwer(reports))
        if (row["pooled_cpwer"], row["macro_cpwer"]) != expected:
            out.fail(
                out.sessions,
                f"{algorithm} {mode} {alpha} {beta} row reports "
                f"{row['pooled_cpwer']}, recomputed {expected[0]}",
            )

    systems = [r for r in rows if r["algorithm"] in ("kmeans", "sc")]
    oracle = rows[-1]["pooled_cpwer"]
    out.cpwer_after = sum(r["pooled_cpwer"] for r in systems) / len(systems)
    out.cpwer_oracle = oracle
    out.oracle_violations = sum(r["pooled_cpwer"] < oracle for r in rows[:-1])
    relative = [r["relative_confusion_error"] for r in systems]
    if None not in relative:
        out.relative_confusion_error = sum(relative) / len(relative)
    return out


def check(workload, directory: Path, seed: int) -> Outcome:
    """Check the outputs in ``directory`` of one run of ``workload``."""
    if workload.command == "report":
        return check_report(directory, seed)
    return check_reassign(workload, directory)
