"""CLI subcommands, exit codes, and output determinism."""

import io
import json
import os
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slrkit import cli, corpus
from slrkit.pipeline import DurationBucket, SynthSpec, generate_session


SPEC = {
    "num_speakers": 3,
    "dim": 8,
    "min_angle_deg": 55.0,
    "buckets": [
        {"count": 6, "min_duration": 8.0, "max_duration": 12.0, "embed_sigma": 0.05},
        {"count": 6, "min_duration": 0.5, "max_duration": 1.9, "embed_sigma": 0.3},
    ],
    "words_per_segment": [2, 4],
    "corruption": 0.0,
    "confusion": 0.4,
}


@pytest.fixture()
def synth_corpus(tmp_path):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(SPEC), encoding="utf-8")
    rc = cli.main(
        [
            "synth",
            "--spec",
            str(spec_path),
            "--seed",
            "7",
            "--out-prefix",
            str(tmp_path / "demo"),
            "--sessions",
            "2",
        ]
    )
    assert rc == 0
    return tmp_path


def test_synth_outputs_parse(synth_corpus):
    sessions = corpus.parse_segments(synth_corpus / "demo.segments.jsonl")
    references = corpus.parse_reference(synth_corpus / "demo.reference.jsonl")
    assert len(sessions) == 2
    assert len(references) == 2
    truth_lines = (synth_corpus / "demo.truth.jsonl").read_text().splitlines()
    assert len(truth_lines) == sum(len(s.segments) for s in sessions)


def test_cpwer_command(synth_corpus, capsys):
    rc = cli.main(
        [
            "cpwer",
            "--reference",
            str(synth_corpus / "demo.reference.jsonl"),
            "--hyp",
            str(synth_corpus / "demo.segments.jsonl"),
            "--per-session",
        ]
    )
    assert rc == 0
    lines = [json.loads(l) for l in capsys.readouterr().out.splitlines()]
    assert len(lines) == 3
    assert lines[-1]["session_id"] == "ALL"
    assert {l["session_id"] for l in lines[:-1]} == {"synth0", "synth1"}
    for line in lines[:-1]:
        assert set(line) == {"session_id", "cpwer", "errors", "ref_words", "mapping"}


def test_cpwer_command_rejects_reference_session_without_hypothesis(
    synth_corpus, capsys
):
    # dropping synth1 from the hypothesis must not drop its words from pooled cpWER
    segments = (synth_corpus / "demo.segments.jsonl").read_text().splitlines()
    hyp = synth_corpus / "synth0_only.jsonl"
    hyp.write_text(
        "".join(l + "\n" for l in segments if json.loads(l)["session_id"] == "synth0"),
        encoding="utf-8",
    )
    rc = cli.main(
        [
            "cpwer",
            "--reference",
            str(synth_corpus / "demo.reference.jsonl"),
            "--hyp",
            str(hyp),
        ]
    )
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "reference sessions ['synth1'] have no hypothesis session" in captured.err


def test_reassign_command_improves_and_roundtrips(synth_corpus):
    out = synth_corpus / "out.jsonl"
    report_path = synth_corpus / "report.jsonl"
    rc = cli.main(
        [
            "reassign",
            "--segments",
            str(synth_corpus / "demo.segments.jsonl"),
            "--algorithm",
            "sc",
            "--attenuation",
            "step:0.25",
            "--seed",
            "3",
            "--out",
            str(out),
            "--reference",
            str(synth_corpus / "demo.reference.jsonl"),
            "--report",
            str(report_path),
        ]
    )
    assert rc == 0
    relabeled = corpus.parse_segments(out)
    assert len(relabeled) == 2
    rows = [json.loads(l) for l in report_path.read_text().splitlines()]
    assert len(rows) == 2
    for row in rows:
        assert row["cpwer_after"] <= row["cpwer_before"] + 1e-12
        assert row["cpwer_oracle"] <= row["cpwer_after"] + 1e-12


def test_oracle_command(synth_corpus, capsys):
    out = synth_corpus / "oracle.jsonl"
    rc = cli.main(
        [
            "oracle",
            "--segments",
            str(synth_corpus / "demo.segments.jsonl"),
            "--reference",
            str(synth_corpus / "demo.reference.jsonl"),
            "--mode",
            "greedy",
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    lines = [json.loads(l) for l in capsys.readouterr().out.splitlines()]
    # corruption 0: the oracle reaches zero errors
    assert all(line["cpwer"] == 0.0 for line in lines)
    relabeled = corpus.parse_segments(out)
    speakers = {seg.initial_speaker for s in relabeled for seg in s.segments}
    assert speakers <= {"spk0", "spk1", "spk2"}


def _synth0_only(synth_corpus):
    segments = (synth_corpus / "demo.segments.jsonl").read_text().splitlines()
    hyp = synth_corpus / "synth0_only.jsonl"
    hyp.write_text(
        "".join(l + "\n" for l in segments if json.loads(l)["session_id"] == "synth0"),
        encoding="utf-8",
    )
    return hyp


def _scoring_argv(command, segments, reference, out_dir):
    argv = [command, "--segments", str(segments), "--reference", str(reference)]
    argv += ["--out", str(out_dir / f"{command}.out.jsonl")]
    if command == "reassign":
        argv += ["--report", str(out_dir / "report.jsonl")]
    return argv


@pytest.mark.parametrize("command", ["reassign", "oracle"])
def test_empty_reference_file_names_the_sessions(synth_corpus, capsys, command):
    empty = synth_corpus / "empty.jsonl"
    empty.write_text("", encoding="utf-8")
    argv = _scoring_argv(
        command, synth_corpus / "demo.segments.jsonl", empty, synth_corpus
    )
    assert cli.main(argv) == 1
    assert "no reference for sessions ['synth0', 'synth1']" in capsys.readouterr().err
    assert not (synth_corpus / "report.jsonl").exists()


@pytest.mark.parametrize("command", ["reassign", "oracle"])
def test_reference_session_without_hypothesis_rejected(synth_corpus, capsys, command):
    argv = _scoring_argv(
        command,
        _synth0_only(synth_corpus),
        synth_corpus / "demo.reference.jsonl",
        synth_corpus,
    )
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "reference sessions ['synth1'] have no hypothesis session" in captured.err


def test_reassign_report_without_reference_is_usage_error(synth_corpus, capsys):
    report_path = synth_corpus / "report.jsonl"
    rc = cli.main(
        [
            "reassign",
            "--segments",
            str(synth_corpus / "demo.segments.jsonl"),
            "--out",
            str(synth_corpus / "out.jsonl"),
            "--report",
            str(report_path),
        ]
    )
    assert rc == 1
    err = capsys.readouterr().err
    assert "--report" in err and "--reference" in err
    assert not report_path.exists()


def test_report_deterministic_byte_identical(synth_corpus):
    args = [
        "report",
        "--segments",
        str(synth_corpus / "demo.segments.jsonl"),
        "--reference",
        str(synth_corpus / "demo.reference.jsonl"),
        "--sweep",
        "step:0,0.25,1;poly:1,4",
        "--seed",
        "11",
    ]
    first = synth_corpus / "grid1.jsonl"
    second = synth_corpus / "grid2.jsonl"
    assert cli.main(args + ["--out", str(first)]) == 0
    assert cli.main(args + ["--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()
    rows = [json.loads(l) for l in first.read_text().splitlines()]
    assert [r["algorithm"] for r in rows] == [
        "none",
        "kmeans",
        "sc",
        "sc",
        "sc",
        "sc",
        "sc",
        "sc",
        "oracle",
    ]


def test_exit_code_validation_error(tmp_path, capsys):
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"not": "a segment"}\n', encoding="utf-8")
    rc = cli.main(
        ["reassign", "--segments", str(bad), "--out", str(tmp_path / "x.jsonl")]
    )
    assert rc == 1
    assert "line 1" in capsys.readouterr().err


def test_exit_code_missing_file(tmp_path):
    rc = cli.main(
        [
            "reassign",
            "--segments",
            str(tmp_path / "nope.jsonl"),
            "--out",
            str(tmp_path / "x.jsonl"),
        ]
    )
    assert rc == 1


def test_exit_code_bad_flag():
    assert cli.main(["reassign", "--bogus"]) == 1


def test_exit_code_bad_attenuation(synth_corpus):
    rc = cli.main(
        [
            "reassign",
            "--segments",
            str(synth_corpus / "demo.segments.jsonl"),
            "--attenuation",
            "sigmoid:3",
            "--out",
            str(synth_corpus / "x.jsonl"),
        ]
    )
    assert rc == 1


def test_exact_oracle_over_budget_is_validation_error(tmp_path, capsys):
    # 3 reference speakers and 15 segments: 3^15 exceeds the search budget
    spec = dict(SPEC)
    spec["buckets"] = [
        {"count": 15, "min_duration": 1.0, "max_duration": 5.0, "embed_sigma": 0.1}
    ]
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    assert (
        cli.main(
            [
                "synth",
                "--spec",
                str(spec_path),
                "--seed",
                "1",
                "--out-prefix",
                str(tmp_path / "big"),
            ]
        )
        == 0
    )
    rc = cli.main(
        [
            "oracle",
            "--segments",
            str(tmp_path / "big.segments.jsonl"),
            "--reference",
            str(tmp_path / "big.reference.jsonl"),
            "--mode",
            "exact",
            "--out",
            str(tmp_path / "oracle.jsonl"),
        ]
    )
    assert rc == 1
    assert "budget" in capsys.readouterr().err


def test_num_speakers_flag(synth_corpus):
    rc = cli.main(
        [
            "reassign",
            "--segments",
            str(synth_corpus / "demo.segments.jsonl"),
            "--num-speakers",
            "2",
            "--out",
            str(synth_corpus / "two.jsonl"),
        ]
    )
    assert rc == 0
    sessions = corpus.parse_segments(synth_corpus / "two.jsonl")
    for session in sessions:
        assert len({seg.initial_speaker for seg in session.segments}) <= 2


@pytest.mark.parametrize(
    "command, flags, message",
    [
        ("reassign", ["--num-speakers", "0"], "--num-speakers must be >= 1"),
        ("reassign", ["--attenuation", "step:2"], "bad attenuation 'step:2'"),
        ("report", ["--sweep", "step:2"], "bad sweep values in 'step:2'"),
        ("report", ["--sweep", "poly:-1"], "bad sweep values in 'poly:-1'"),
    ],
)
def test_bad_flag_reported_before_reading_segments(
    tmp_path, capsys, command, flags, message
):
    missing = tmp_path / "missing.jsonl"
    argv = [command, "--segments", str(missing), "--out", str(tmp_path / "x.jsonl")]
    if command == "report":
        argv += ["--reference", str(missing)]
    assert cli.main(argv + flags) == 1
    err = capsys.readouterr().err
    assert message in err
    assert "missing.jsonl" not in err


@pytest.mark.parametrize(
    "command, with_reference",
    [
        ("reassign", False),
        ("reassign", True),
        ("cpwer", True),
        ("oracle", True),
        ("report", True),
    ],
)
def test_segments_file_without_records_rejected(
    synth_corpus, capsys, command, with_reference
):
    empty = synth_corpus / "empty.jsonl"
    empty.write_text("", encoding="utf-8")
    out = synth_corpus / "out.jsonl"
    if command == "cpwer":
        argv = ["cpwer", "--hyp", str(empty)]
    else:
        argv = [command, "--segments", str(empty), "--out", str(out)]
    if with_reference:
        argv += ["--reference", str(synth_corpus / "demo.reference.jsonl")]
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert f"no segment records in {empty}" in captured.err
    assert captured.out == ""
    assert not out.exists()


def _sidecar_inputs(synth_corpus, inline_every=0):
    """The demo corpus under ``in/`` with its embeddings in ``in/emb.slre``.

    Returns the sidecar segments file and an inline copy holding the same
    float32-rounded embeddings.  With ``inline_every`` n > 0, every n-th record
    of the sidecar file keeps its embedding inline.
    """
    in_dir = synth_corpus / "in"
    in_dir.mkdir(exist_ok=True)
    records = [
        json.loads(line)
        for line in (synth_corpus / "demo.segments.jsonl").read_text().splitlines()
    ]
    table = np.array([r.pop("embedding") for r in records], dtype=np.float32)
    corpus.write_embeddings_sidecar(in_dir / "emb.slre", table)
    sidecar, inline = [], []
    for i, (record, embedding) in enumerate(zip(records, table.tolist())):
        inline.append(json.dumps(dict(record, embedding=embedding)))
        if inline_every and i % inline_every == 0:
            sidecar.append(inline[-1])
        else:
            sidecar.append(
                json.dumps(dict(record, embedding_ref={"file": "emb.slre", "index": i}))
            )
    paths = in_dir / "segments.jsonl", in_dir / "inline.jsonl"
    for path, lines in zip(paths, (sidecar, inline)):
        path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    return paths


def _relabel_argv(command, segments, synth_corpus, out):
    if command == "reassign":
        return [
            "reassign", "--segments", str(segments), "--seed", "3", "--out", str(out)
        ]
    return [
        "oracle",
        "--segments",
        str(segments),
        "--reference",
        str(synth_corpus / "demo.reference.jsonl"),
        "--mode",
        "greedy",
        "--out",
        str(out),
    ]


@pytest.mark.parametrize("command", ["reassign", "oracle"])
def test_sidecar_segments_written_back_as_embedding_ref(synth_corpus, command):
    segments, inline = _sidecar_inputs(synth_corpus)
    out_dir = synth_corpus / "out"
    out_dir.mkdir()
    out, inline_out = out_dir / "x.jsonl", out_dir / "inline.jsonl"
    assert cli.main(_relabel_argv(command, segments, synth_corpus, out)) == 0
    assert cli.main(_relabel_argv(command, inline, synth_corpus, inline_out)) == 0

    records = [json.loads(line) for line in out.read_text().splitlines()]
    assert [r["embedding_ref"] for r in records] == [
        {"file": "../in/emb.slre", "index": i} for i in range(len(records))
    ]
    assert not any("embedding" in r for r in records)
    before = [seg for s in corpus.parse_segments(segments) for seg in s.segments]
    after = [seg for s in corpus.parse_segments(out) for seg in s.segments]
    assert [(s.session_id, s.segment_id, s.start, s.end, s.words) for s in after] == [
        (s.session_id, s.segment_id, s.start, s.end, s.words) for s in before
    ]
    assert [s.embedding.tobytes() for s in after] == [
        s.embedding.tobytes() for s in before
    ]
    inline_records = [json.loads(line) for line in inline_out.read_text().splitlines()]
    assert [r["speaker"] for r in records] == [r["speaker"] for r in inline_records]


@pytest.mark.parametrize("command", ["reassign", "oracle"])
def test_inline_records_of_mixed_input_stay_inline(synth_corpus, command):
    segments, _ = _sidecar_inputs(synth_corpus, inline_every=3)
    out_dir = synth_corpus / "out"
    out_dir.mkdir()
    out = out_dir / "x.jsonl"
    assert cli.main(_relabel_argv(command, segments, synth_corpus, out)) == 0
    inputs = [seg for s in corpus.parse_segments(segments) for seg in s.segments]
    lines = out.read_text().splitlines()
    assert len(lines) == len(inputs) == 24
    for i, (line, seg) in enumerate(zip(lines, inputs)):
        record = json.loads(line)
        if i % 3:
            assert record["embedding_ref"] == {"file": "../in/emb.slre", "index": i}
            continue
        assert line == json.dumps(
            {
                "session_id": seg.session_id,
                "segment_id": seg.segment_id,
                "start": seg.start,
                "end": seg.end,
                "speaker": record["speaker"],
                "words": " ".join(seg.words),
                "embedding": [float(v) for v in seg.embedding],
            }
        )


@pytest.mark.parametrize(
    "command, flag",
    [("reassign", "--out"), ("oracle", "--out"), ("reassign", "--report")],
)
def test_output_onto_own_sidecar_rejected_before_writing(
    synth_corpus, capsys, command, flag
):
    segments, _ = _sidecar_inputs(synth_corpus)
    sidecar = synth_corpus / "in" / "emb.slre"
    saved = sidecar.read_bytes()
    target = synth_corpus / "in" / ".." / "in" / "emb.slre"
    if flag == "--out":
        argv = _relabel_argv(command, segments, synth_corpus, target)
    else:
        argv = _relabel_argv(command, segments, synth_corpus, synth_corpus / "x.jsonl")
        argv += ["--reference", str(synth_corpus / "demo.reference.jsonl")]
        argv += ["--report", str(target)]
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert f"{target} is the embedding sidecar the segments read from" in captured.err
    assert captured.out == ""
    assert sidecar.read_bytes() == saved
    assert not (synth_corpus / "x.jsonl").exists()


def _files(directory):
    return {p: p.read_bytes() for p in directory.rglob("*") if p.is_file()}


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            "reassign --segments {S} --reference {R} --out {X} --report {X}",
            "--report {X} is the --out output",
        ),
        (
            "reassign --segments {S} --reference {R} --out {R}",
            "--out {R} is the --reference input",
        ),
        ("oracle --segments {S} --reference {R} --out {S}", "--out {S} is the --segments input"),
        ("report --segments {S} --reference {R} --out {R}", "--out {R} is the --reference input"),
        (
            "report --segments {E} --reference {R} --out {D}/in/emb.slre",
            "--out {D}/in/emb.slre is the embedding sidecar the segments read from",
        ),
    ],
    ids=[
        "reassign-report-is-out",
        "reassign-out-is-reference",
        "oracle-out-is-segments",
        "report-out-is-reference",
        "report-out-is-sidecar",
    ],
)
def test_output_onto_input_or_other_output_rejected_before_writing(
    synth_corpus, capsys, argv, message
):
    sidecar_segments, _ = _sidecar_inputs(synth_corpus)
    names = {
        "S": synth_corpus / "demo.segments.jsonl",
        "R": synth_corpus / "demo.reference.jsonl",
        "E": sidecar_segments,
        "X": synth_corpus / "x.jsonl",
        "D": synth_corpus,
    }
    before = _files(synth_corpus)
    assert cli.main(argv.format(**names).split()) == 1
    captured = capsys.readouterr()
    assert message.format(**names) in captured.err
    assert captured.out == ""
    assert _files(synth_corpus) == before


def test_synth_refuses_to_write_over_its_spec(tmp_path, capsys):
    spec = tmp_path / "d.segments.jsonl"
    spec.write_text(json.dumps(SPEC), encoding="utf-8")
    saved = spec.read_bytes()
    argv = ["synth", "--spec", str(spec), "--out-prefix", str(tmp_path / "d")]
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert f"--out-prefix {spec} is the --spec input" in captured.err
    assert spec.read_bytes() == saved
    assert [p.name for p in tmp_path.iterdir()] == [spec.name]


@pytest.mark.parametrize("command", ["reassign", "oracle"])
def test_sidecar_name_resolved_once_per_command(synth_corpus, monkeypatch, command):
    # two sessions read through one sidecar: its name in the output is
    # derived once for the whole file, not once per session
    segments, _ = _sidecar_inputs(synth_corpus)
    calls = []
    relpath = os.path.relpath
    monkeypatch.setattr(
        os.path, "relpath", lambda *args: calls.append(args) or relpath(*args)
    )
    out = synth_corpus / "x.jsonl"
    assert cli.main(_relabel_argv(command, segments, synth_corpus, out)) == 0
    assert len(calls) == 1
    assert len(corpus.parse_segments(out)) == 2


def test_reference_that_is_a_segments_file_rejected(synth_corpus, capsys):
    segments = str(synth_corpus / "demo.segments.jsonl")
    assert cli.main(["cpwer", "--reference", segments, "--hyp", segments]) == 1
    captured = capsys.readouterr()
    assert "line 1: reference record carries segment fields" in captured.err
    assert captured.out == ""


def test_kmeans_attenuation_warning_follows_the_callers_filters(synth_corpus, capsys):
    argv = [
        "reassign",
        "--segments",
        str(synth_corpus / "demo.segments.jsonl"),
        "--algorithm",
        "kmeans",
        "--attenuation",
        "step:0.5",
        "--out",
        str(synth_corpus / "x.jsonl"),
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert cli.main(argv) == 0
    assert capsys.readouterr().err == ""


PERMUTED_SPEC = SynthSpec(
    num_speakers=4,
    dim=8,
    min_angle_deg=50.0,
    buckets=(
        DurationBucket(10, 8.0, 15.0, 0.05),
        DurationBucket(14, 0.5, 1.9, 0.5),
    ),
    words_per_segment=(2, 4),
    corruption=0.3,
    confusion=0.3,
    noise_correlation=0.9,
    shared_vocabulary=True,
    vocab_size=15,
)


@pytest.mark.parametrize(
    "algorithm, attenuation",
    [("kmeans", "none"), ("sc", "none"), ("sc", "step:0.25"), ("sc", "poly:4")],
)
@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    order=st.permutations(range(PERMUTED_SPEC.total_segments)),
)
def test_reassign_output_independent_of_record_order(algorithm, attenuation, seed, order):
    session, reference, _ = generate_session(PERMUTED_SPEC, seed)
    buf = io.StringIO()
    corpus.write_segments(session, buf)
    records = buf.getvalue().splitlines(keepends=True)
    outputs = []
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp)
        corpus.write_reference(reference, d / "ref.jsonl")
        for name, lines in (("file", records), ("shuffled", [records[i] for i in order])):
            (d / f"{name}.jsonl").write_text("".join(lines), encoding="utf-8")
            argv = [
                "reassign", "--segments", str(d / f"{name}.jsonl"),
                "--algorithm", algorithm, "--attenuation", attenuation, "--seed", "5",
                "--reference", str(d / "ref.jsonl"),
                "--out", str(d / f"{name}.out.jsonl"),
                "--report", str(d / f"{name}.report.jsonl"),
            ]
            assert cli.main(argv) == 0
            out = (d / f"{name}.out.jsonl").read_text(encoding="utf-8")
            speakers = {
                r["segment_id"]: r["speaker"] for r in map(json.loads, out.splitlines())
            }
            report = (d / f"{name}.report.jsonl").read_text(encoding="utf-8")
            outputs.append((speakers, report, out))
    (speakers, report, out), (shuffled_speakers, shuffled_report, shuffled_out) = outputs
    assert shuffled_speakers == speakers
    assert shuffled_report == report
    # both are written in stream order
    assert shuffled_out == out
