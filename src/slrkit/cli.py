"""Command-line interface.

Subcommands: ``reassign`` (re-cluster and relabel segment records), ``cpwer``
(score a hypothesis against a reference), ``oracle`` (best possible
segment-to-speaker labels), ``report`` (attenuation sweep grid), and
``synth`` (generate a synthetic corpus).  Exit codes: 0 success, 1
validation error, 2 runtime error.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import sys
from pathlib import Path

from . import corpus, metrics, pipeline
from .affinity import AttenuationConfig
from .oracle import oracle_assignment
from .pipeline import PipelineConfig, SynthSpec


class UsageError(ValueError):
    """Bad command-line arguments; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def parse_attenuation(text: str) -> AttenuationConfig:
    """Parse ``none``, ``step:ALPHA``, or ``poly:BETA``."""
    kind, _, value = text.partition(":")
    if kind == "none" and not value:
        return AttenuationConfig(mode="none")
    try:
        if kind == "step":
            return AttenuationConfig(mode="stepwise", alpha=float(value))
        if kind == "poly":
            return AttenuationConfig(mode="polynomial", beta=float(value))
    except ValueError as exc:
        raise UsageError(f"bad attenuation {text!r}: {exc}") from exc
    raise UsageError(f"bad attenuation {text!r} (expected none|step:ALPHA|poly:BETA)")


def parse_num_speakers(text: str) -> int | None:
    if text == "auto":
        return None
    try:
        value = int(text)
    except ValueError as exc:
        raise UsageError(f"bad --num-speakers {text!r} (expected auto or integer)") from exc
    if value < 1:
        raise UsageError("--num-speakers must be >= 1")
    return value


def parse_seed(text: str) -> int:
    """A ``--seed``: a non-negative integer, as ``numpy.random.SeedSequence`` takes."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return int(text)


def parse_sessions(text: str) -> int:
    """A ``--sessions`` count: a positive integer."""
    if not text.isdecimal() or int(text) == 0:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="slrkit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("reassign", help="re-cluster segments and rewrite speaker labels")
    p.add_argument("--segments", required=True, help="segment records (JSONL)")
    p.add_argument("--algorithm", choices=["sc", "kmeans"], default="sc")
    p.add_argument("--attenuation", default="none", help="none|step:ALPHA|poly:BETA")
    p.add_argument("--num-speakers", default="auto", help="auto or a fixed count")
    p.add_argument("--seed", type=parse_seed, default=0)
    p.add_argument("--out", required=True, help="relabeled segment records (JSONL)")
    p.add_argument("--reference", help="reference records (JSONL); enables scoring")
    p.add_argument("--report", help="where to write per-session score lines (JSONL)")

    p = sub.add_parser("cpwer", help="score hypothesis segments against a reference")
    p.add_argument("--reference", required=True)
    p.add_argument("--hyp", required=True, help="segment records with speaker labels")
    p.add_argument("--per-session", action="store_true")

    p = sub.add_parser("oracle", help="cpWER-minimal segment-to-speaker labels")
    p.add_argument("--segments", required=True)
    p.add_argument("--reference", required=True)
    p.add_argument("--mode", choices=["exact", "greedy"], default="greedy")
    p.add_argument("--out", required=True)

    p = sub.add_parser("report", help="attenuation sweep over all sessions")
    p.add_argument("--segments", required=True)
    p.add_argument("--reference", required=True)
    p.add_argument("--sweep", default="step:0,0.1,0.25,1;poly:1,2,4,8,16")
    p.add_argument("--seed", type=parse_seed, default=0)
    p.add_argument("--out", required=True)

    p = sub.add_parser("synth", help="generate a synthetic corpus")
    p.add_argument("--spec", required=True, help="SynthSpec as JSON")
    p.add_argument("--seed", type=parse_seed, default=0)
    p.add_argument("--out-prefix", required=True)
    p.add_argument("--sessions", type=parse_sessions, default=1)

    return parser


def _score_line(session_id: str, report: metrics.CpWerReport) -> str:
    return json.dumps(
        {
            "session_id": session_id,
            "cpwer": report.cpwer,
            "errors": report.errors,
            "ref_words": report.ref_words,
            "mapping": report.mapping,
        }
    )


def _read_segments(path: str) -> list[corpus.SessionHypothesis]:
    """Sessions of a segments file, which must hold at least one record."""
    sessions = corpus.parse_segments(path)
    if not sessions:
        raise ValueError(f"no segment records in {path}")
    return sessions


def _flags(args, *names: str) -> list[tuple[str, str | None]]:
    """(flag, path) of each named command-line option."""
    return [(f"--{name}", getattr(args, name)) for name in names]


def _refuse_overwrites(inputs, outputs, sessions=()) -> None:
    """Reject an output path that is an input, another output, or a sidecar read.

    ``inputs`` and ``outputs`` are (flag, path) pairs; unset paths are
    skipped and paths compare resolved.  Relabeled records keep their
    ``embedding_ref``, so writing over a sidecar the sessions read from would
    leave them pointing at something else.  Each command calls this once,
    before it writes anything.
    """
    sidecar = "the embedding sidecar the segments read from (--segments)"
    taken = {
        seg.embedding_ref[0]: sidecar
        for session in sessions
        for seg in session.segments
        if seg.embedding_ref is not None
    }
    for kind, paths in (("input", inputs), ("output", outputs)):
        for flag, path in paths:
            if path is None:
                continue
            resolved = os.path.realpath(path)
            if kind == "output" and resolved in taken:
                raise ValueError(
                    f"{flag} {path} is {taken[resolved]}; refusing to overwrite it"
                )
            taken.setdefault(resolved, f"the {flag} {kind}")


def _write_relabeled(path: str, relabeled) -> None:
    """Write (session, assignment, label names or None) triples to one segments file."""
    ref_dir = corpus.sidecar_names(os.path.dirname(path))
    buf = io.StringIO()
    for session, assignment, label_names in relabeled:
        corpus.write_assignment(
            session, assignment, buf, label_names=label_names, ref_dir=ref_dir
        )
    Path(path).write_text(buf.getvalue(), encoding="utf-8")


def _cmd_reassign(args) -> int:
    if args.report and not args.reference:
        raise UsageError("--report needs --reference: without it nothing is scored")
    cfg = PipelineConfig(
        algorithm=args.algorithm,
        attenuation=parse_attenuation(args.attenuation),
        num_speakers=parse_num_speakers(args.num_speakers),
    )
    sessions = _read_segments(args.segments)
    _refuse_overwrites(
        _flags(args, "segments", "reference"), _flags(args, "out", "report"), sessions
    )
    refs = None
    if args.reference:
        references = corpus.parse_reference(args.reference)
        refs = pipeline.references_by_session(sessions, references)

    relabeled = []
    report_lines: list[str] = []
    for index, session in enumerate(sessions):
        reference = refs[session.session_id] if refs is not None else None
        assignment, report = pipeline.reassign(
            session, reference, cfg, seed=pipeline.session_seed(args.seed, index)
        )
        relabeled.append((session, assignment, None))
        if reference is not None:
            report_lines.append(
                json.dumps(
                    {
                        "session_id": session.session_id,
                        "algorithm": cfg.algorithm,
                        "attenuation": cfg.attenuation.mode,
                        "alpha": cfg.attenuation.alpha,
                        "beta": cfg.attenuation.beta,
                        "cpwer_before": report.cpwer_before.cpwer,
                        "cpwer_after": report.cpwer_after.cpwer,
                        "cpwer_oracle": report.cpwer_oracle.cpwer,
                        "oracle_mode": report.oracle_mode,
                        "relative_confusion_error": report.relative_confusion_error,
                        "mapping": report.cpwer_after.mapping,
                    }
                )
                + "\n"
            )
    _write_relabeled(args.out, relabeled)
    if args.report:
        Path(args.report).write_text("".join(report_lines), encoding="utf-8")
    return 0


def _cmd_cpwer(args) -> int:
    references = corpus.parse_reference(args.reference)
    sessions = _read_segments(args.hyp)
    refs = pipeline.references_by_session(sessions, references)
    reports = []
    for session in sessions:
        report = metrics.cpwer(
            refs[session.session_id], pipeline.initial_speaker_streams(session)
        )
        reports.append(report)
        if args.per_session:
            print(_score_line(session.session_id, report))
    summary = {
        "session_id": "ALL",
        "pooled_cpwer": pipeline.pooled_cpwer(reports),
        "macro_cpwer": pipeline.macro_cpwer(reports),
        "errors": sum(r.errors for r in reports),
        "ref_words": sum(r.ref_words for r in reports),
    }
    print(json.dumps(summary))
    return 0


def _cmd_oracle(args) -> int:
    references = corpus.parse_reference(args.reference)
    sessions = _read_segments(args.segments)
    _refuse_overwrites(
        _flags(args, "segments", "reference"), _flags(args, "out"), sessions
    )
    refs = pipeline.references_by_session(sessions, references)
    relabeled = []
    for session in sessions:
        reference = refs[session.session_id]
        assignment, report = oracle_assignment(session, reference, args.mode)
        relabeled.append((session, assignment, list(reference.per_speaker)))
        print(_score_line(session.session_id, report))
    _write_relabeled(args.out, relabeled)
    return 0


def _cmd_report(args) -> int:
    alphas, betas = pipeline.parse_sweep(args.sweep)
    refs = corpus.parse_reference(args.reference)
    sessions = _read_segments(args.segments)
    _refuse_overwrites(
        _flags(args, "segments", "reference"), _flags(args, "out"), sessions
    )
    rows = pipeline.run_report(sessions, refs, alphas, betas, args.seed)
    Path(args.out).write_text(
        "".join(json.dumps(row) + "\n" for row in rows), encoding="utf-8"
    )
    return 0


def _cmd_synth(args) -> int:
    outputs = {
        kind: Path(f"{args.out_prefix}.{kind}.jsonl")
        for kind in ("segments", "reference", "truth")
    }
    _refuse_overwrites(
        [("--spec", args.spec)], [("--out-prefix", p) for p in outputs.values()]
    )
    raw = json.loads(Path(args.spec).read_text(encoding="utf-8"))
    if not isinstance(raw, dict):
        raise ValueError("synth spec must be a JSON object")
    try:
        spec = SynthSpec(**raw)
    except TypeError as exc:
        raise ValueError(f"bad synth spec: {exc}") from exc

    buffers = {kind: io.StringIO() for kind in outputs}
    for index in range(args.sessions):
        session, reference, truth = pipeline.generate_session(
            spec, pipeline.session_seed(args.seed, index), session_id=f"synth{index}"
        )
        corpus.write_segments(session, buffers["segments"])
        corpus.write_reference(reference, buffers["reference"])
        buffers["truth"].writelines(
            json.dumps(
                {
                    "session_id": session.session_id,
                    "segment_id": seg.segment_id,
                    "speaker": f"spk{label}",
                }
            )
            + "\n"
            for seg, label in zip(session.segments, truth.labels)
        )
    # refuse a reference the scoring commands would reject, before writing
    corpus.parse_reference(io.StringIO(buffers["reference"].getvalue()))
    for kind, path in outputs.items():
        path.write_text(buffers[kind].getvalue(), "utf-8")
    return 0


_COMMANDS = {
    "reassign": _cmd_reassign,
    "cpwer": _cmd_cpwer,
    "oracle": _cmd_oracle,
    "report": _cmd_report,
    "synth": _cmd_synth,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, FileNotFoundError, json.JSONDecodeError) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
