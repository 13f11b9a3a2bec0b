"""Parsing, validation, and round-trip behavior of the record formats."""

import io
import json
import re
import sys
from pathlib import Path

import numpy as np
import pytest

from slrkit import cli, corpus


def seg_record(**overrides):
    record = {
        "session_id": "s1",
        "segment_id": "a",
        "start": 0.0,
        "end": 2.5,
        "speaker": "spk0",
        "words": "hello world",
        "embedding": [1.0, 2.0],
    }
    record.update(overrides)
    return record


def lines(*records):
    return ("\n".join(json.dumps(r) for r in records)).encode("utf-8")


def test_parse_single_record_duration():
    sessions = corpus.parse_segments(lines(seg_record()))
    assert len(sessions) == 1
    (session,) = sessions
    assert len(session.segments) == 1
    assert session.segments[0].duration == pytest.approx(2.5, abs=1e-9)
    assert session.segments[0].words == ("hello", "world")


def test_num_speakers_from_distinct_labels():
    sessions = corpus.parse_segments(
        lines(
            seg_record(segment_id="a", speaker="spk0"),
            seg_record(segment_id="b", speaker="spk1"),
        )
    )
    assert sessions[0].num_speakers == 2


def test_duplicate_segment_id_rejected_with_line_and_session():
    records = lines(
        seg_record(segment_id="a"),
        seg_record(segment_id="b", start=3.0, end=4.0),
        seg_record(segment_id="a", start=5.0, end=6.0),
    )
    with pytest.raises(ValueError, match="line 3: duplicate segment_id 'a' in session 's1'"):
        corpus.parse_segments(records)
    # the same id in another session is a different segment
    other = lines(seg_record(segment_id="a"), seg_record(session_id="s2", segment_id="a"))
    assert [len(s.segments) for s in corpus.parse_segments(other)] == [1, 1]


def test_num_speakers_override():
    records = lines(
        seg_record(segment_id="a", speaker="x"),
        seg_record(segment_id="b", speaker="x"),
    )
    assert corpus.parse_segments(records)[0].num_speakers == 1


def test_zero_norm_embedding_rejected():
    with pytest.raises(ValueError, match="zero-norm embedding"):
        corpus.parse_segments(lines(seg_record(embedding=[0.0, 0.0, 0.0])))


@pytest.mark.parametrize(
    "embedding, message",
    [
        ([float("nan"), 1.0], "non-finite values"),
        ([float("inf"), 1.0], "non-finite values"),
        ([], "non-empty vector"),
        ([[1, 2]], "non-empty vector"),
        (None, "non-finite values"),
    ],
    ids=["nan", "infinity", "empty", "nested", "sidecar-nan"],
)
def test_bad_embedding_names_its_line(tmp_path, embedding, message):
    # json writes the floats as NaN and Infinity; ``None`` reads a NaN row
    # through ``embedding_ref`` instead
    corpus.write_embeddings_sidecar(tmp_path / "emb.slre", [[1.0, 2.0], [np.nan, 1.0]])
    bad = seg_record(segment_id="b", start=3.0, end=4.0, embedding=embedding)
    if embedding is None:
        del bad["embedding"]
        bad["embedding_ref"] = {"file": "emb.slre", "index": 1}
    path = tmp_path / "segments.jsonl"
    path.write_bytes(lines(seg_record(), bad))
    with pytest.raises(ValueError, match=f"^line 2: segment 'b': .*{message}$"):
        corpus.parse_segments(path)


@pytest.mark.parametrize(
    "key, value",
    [
        ("words", ["hello", "world"]),
        ("words", None),
        ("speaker", None),
        ("speaker", 0),
        ("session_id", 1),
        ("segment_id", 7),
    ],
)
def test_segment_text_fields_must_be_strings(tmp_path, capsys, key, value):
    bad = {**seg_record(segment_id="b", start=3.0, end=4.0), key: value}
    records = lines(seg_record(), bad)
    message = f"line 2: '{key}' must be a string"
    with pytest.raises(ValueError, match=f"^{message}$"):
        corpus.parse_segments(records)
    path = tmp_path / "segments.jsonl"
    path.write_bytes(records)
    argv = ["reassign", "--segments", str(path), "--out", str(tmp_path / "out.jsonl")]
    assert cli.main(argv) == 1
    assert f"validation error: {message}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "key, value",
    [("words", ["a", "b"]), ("words", None), ("speaker", None), ("session_id", 1)],
)
def test_reference_text_fields_must_be_strings(tmp_path, capsys, key, value):
    ref = {"session_id": "s1", "speaker": "A", "words": "a b"}
    records = lines(ref, {**ref, key: value})
    message = f"line 2: '{key}' must be a string"
    with pytest.raises(ValueError, match=f"^{message}$"):
        corpus.parse_reference(records)
    reference, segments = tmp_path / "reference.jsonl", tmp_path / "segments.jsonl"
    reference.write_bytes(records)
    segments.write_bytes(lines(seg_record()))
    argv = ["cpwer", "--reference", str(reference), "--hyp", str(segments)]
    assert cli.main(argv) == 1
    assert f"validation error: {message}" in capsys.readouterr().err


def _rejected_with(tmp_path, capsys, records, message):
    """``parse_segments`` and ``slrkit reassign`` reject ``records`` with ``message``."""
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        corpus.parse_segments(records)
    path, out = tmp_path / "segments.jsonl", tmp_path / "out.jsonl"
    path.write_bytes(records)
    assert cli.main(["reassign", "--segments", str(path), "--out", str(out)]) == 1
    assert f"validation error: {message}\n" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "key, value",
    [
        ("start", "0.5"),
        ("start", True),
        ("end", False),
        ("end", "4"),
        ("end", None),
        # integers no float can hold; ``float()`` raises ``OverflowError``
        pytest.param("start", 10**400, id="start-huge"),
        pytest.param("end", -(2**1024 - 2**970), id="end-huge"),
    ],
)
def test_segment_time_fields_must_be_numbers(tmp_path, capsys, key, value):
    bad = {**seg_record(segment_id="b", start=3.0, end=4.0), key: value}
    message = f"line 2: '{key}' must be a finite number"
    _rejected_with(tmp_path, capsys, lines(seg_record(), bad), message)


@pytest.mark.parametrize(
    "start, end, message",
    [
        (3.0, float("inf"), "end must be a finite number, got inf"),
        (float("inf"), 4.0, "end (4.0) must be greater than start (inf)"),
        (float("nan"), 4.0, "start must be >= 0, got nan"),
    ],
    ids=["end-inf", "start-inf", "start-nan"],
)
def test_segment_time_fields_must_be_finite(tmp_path, capsys, start, end, message):
    # json writes the floats as Infinity and NaN, which ``json.loads`` reads back
    bad = seg_record(segment_id="b", start=start, end=end)
    records = lines(seg_record(), bad)
    _rejected_with(tmp_path, capsys, records, f"line 2: segment 'b': {message}")
    with pytest.raises(ValueError, match=f"^segment 'b': {re.escape(message)}$"):
        corpus.Segment("s1", "b", start, end, "spk0", (), np.ones(2))


def test_integer_times_are_read_and_written_as_floats():
    (session,) = corpus.parse_segments(lines(seg_record(start=0, end=2)))
    assert (session.segments[0].start, session.segments[0].end) == (0.0, 2.0)
    out = io.StringIO()
    corpus.write_segments(session, out)
    assert json.loads(out.getvalue()) == seg_record(start=0.0, end=2.0)
    assert '"start": 0.0, "end": 2.0' in out.getvalue()


@pytest.mark.parametrize(
    "embedding",
    [["1.5", "2"], [True, False], [1.0, True], [1.0, None], [1.0, {}], "12", 5, None],
)
def test_inline_embedding_must_be_a_list_of_numbers(tmp_path, capsys, embedding):
    bad = seg_record(segment_id="b", start=3.0, end=4.0, embedding=embedding)
    message = "line 2: 'embedding' must be a list of numbers"
    _rejected_with(tmp_path, capsys, lines(seg_record(), bad), message)


@pytest.mark.parametrize("embedding", [[1.0, 10**400], [[-(10**400)]]], ids=["huge", "nested"])
def test_inline_embedding_integer_too_large_for_a_float(tmp_path, capsys, embedding):
    bad = seg_record(segment_id="b", start=3.0, end=4.0, embedding=embedding)
    message = "line 2: 'embedding' values must be finite"
    _rejected_with(tmp_path, capsys, lines(seg_record(), bad), message)


def test_largest_integer_a_float_holds_is_read():
    # one below the overflow bound rounds down to the largest float
    big = 2**1024 - 2**970 - 1
    (session,) = corpus.parse_segments(lines(seg_record(end=big, embedding=[big, 1])))
    assert session.segments[0].end == session.segments[0].embedding[0] == sys.float_info.max


def test_inline_embedding_may_mix_integers_and_floats():
    (session,) = corpus.parse_segments(lines(seg_record(embedding=[1, 2.5, 10**30])))
    np.testing.assert_array_equal(session.segments[0].embedding, [1.0, 2.5, 1e30])


def test_segment_with_empty_asr_output_is_retained():
    # empty word list: the segment still exists (and carries duration), it
    # just contributes no words downstream
    (session,) = corpus.parse_segments(lines(seg_record(words="")))
    assert session.segments[0].words == ()
    assert session.segments[0].duration == pytest.approx(2.5)


def test_end_not_after_start_rejected():
    with pytest.raises(ValueError, match="end"):
        corpus.parse_segments(lines(seg_record(start=2.5, end=2.5)))


def test_malformed_line_reports_line_number():
    data = json.dumps(seg_record()).encode() + b"\n{not json}\n"
    with pytest.raises(ValueError, match="line 2"):
        corpus.parse_segments(data)


def test_missing_field_reports_line_number():
    record = seg_record()
    del record["speaker"]
    with pytest.raises(ValueError, match="line 1.*speaker"):
        corpus.parse_segments(lines(record))


def test_inconsistent_embedding_dimension_rejected():
    with pytest.raises(ValueError, match="dimension"):
        corpus.parse_segments(
            lines(
                seg_record(segment_id="a", embedding=[1.0, 2.0]),
                seg_record(segment_id="b", embedding=[1.0, 2.0, 3.0]),
            )
        )


def test_segments_grouped_by_session_in_file_order():
    sessions = corpus.parse_segments(
        lines(
            seg_record(session_id="s1", segment_id="a"),
            seg_record(session_id="s2", segment_id="b"),
            seg_record(session_id="s1", segment_id="c"),
        )
    )
    assert [s.session_id for s in sessions] == ["s1", "s2"]
    assert [seg.segment_id for seg in sessions[0].segments] == ["a", "c"]


def test_parse_reference_concatenates_in_file_order():
    data = lines(
        {"session_id": "s1", "speaker": "A", "words": "hello"},
        {"session_id": "s1", "speaker": "A", "words": "world"},
    )
    (ref,) = corpus.parse_reference(data)
    assert ref.per_speaker["A"] == ("hello", "world")


def test_parse_reference_empty_stream():
    assert corpus.parse_reference(b"") == []


def test_parse_reference_two_sessions():
    data = lines(
        {"session_id": "s1", "speaker": "A", "words": "x"},
        {"session_id": "s2", "speaker": "B", "words": "y"},
    )
    refs = corpus.parse_reference(data)
    assert [r.session_id for r in refs] == ["s1", "s2"]


def test_parse_reference_empty_words_flag():
    data = lines({"session_id": "s1", "speaker": "A", "words": ""})
    with pytest.raises(ValueError, match="no.*words"):
        corpus.parse_reference(data)


def test_write_assignment_identity_relabel():
    records = lines(
        seg_record(segment_id="a", speaker="spk0"),
        seg_record(segment_id="b", speaker="spk1"),
    )
    (session,) = corpus.parse_segments(records)
    assignment = corpus.LabelAssignment(session_id="s1", labels=(0, 1))
    out = io.StringIO()
    corpus.write_assignment(session, assignment, out)
    reparsed = corpus.parse_segments(out.getvalue().encode())[0]
    assert reparsed == session


def test_write_assignment_label_strings():
    records = lines(
        seg_record(segment_id="a", speaker="x"),
        seg_record(segment_id="b", speaker="y"),
    )
    (session,) = corpus.parse_segments(records)
    out = io.StringIO()
    corpus.write_assignment(
        session, corpus.LabelAssignment(session_id="s1", labels=(1, 0)), out
    )
    speakers = [json.loads(line)["speaker"] for line in out.getvalue().splitlines()]
    assert speakers == ["spk1", "spk0"]


def test_round_trip_preserves_embeddings_bitwise():
    rng = np.random.default_rng(0)
    records = [
        seg_record(
            segment_id=f"seg{i}",
            start=float(i),
            end=float(i) + float(rng.uniform(0.1, 5.0)),
            speaker=f"spk{i % 3}",
            words=" ".join(f"w{j}" for j in range(i + 1)),
            embedding=list(rng.standard_normal(7)),
        )
        for i in range(10)
    ]
    (session,) = corpus.parse_segments(lines(*records))
    out = io.StringIO()
    corpus.write_segments(session, out)
    (reparsed,) = corpus.parse_segments(out.getvalue().encode())
    assert reparsed == session
    for a, b in zip(session.segments, reparsed.segments):
        assert a.embedding.tobytes() == b.embedding.tobytes()


def test_write_assignment_bytes_match_per_element_serialization(tmp_path):
    # inline float64 embeddings: ``embedding.tolist()`` must write the bytes the
    # per-element ``float(v)`` list wrote; sidecar-read segments keep their
    # ``embedding_ref``, the file named relative to ``ref_dir``
    rng = np.random.default_rng(5)
    corpus.write_embeddings_sidecar(tmp_path / "emb.slre", rng.standard_normal((6, 9)))
    records = []
    for i in range(12):
        record = seg_record(segment_id=f"seg{i}", start=float(i), end=i + 0.5)
        if i % 2:
            record["embedding"] = (rng.standard_normal(9) * 10.0 ** (i - 6)).tolist()
        else:
            del record["embedding"]
            record["embedding_ref"] = {"file": "emb.slre", "index": i // 2}
        records.append(record)
    path = tmp_path / "segments.jsonl"
    path.write_bytes(lines(*records))
    (session,) = corpus.parse_segments(path)
    labels = tuple(i % 3 for i in range(12))
    out = io.StringIO()
    corpus.write_assignment(
        session, corpus.LabelAssignment("s1", labels), out, ref_dir=tmp_path
    )
    expected = [
        json.dumps(
            {
                "session_id": seg.session_id,
                "segment_id": seg.segment_id,
                "start": seg.start,
                "end": seg.end,
                "speaker": f"spk{label}",
                "words": " ".join(seg.words),
                "embedding": [float(v) for v in seg.embedding],
            }
        )
        if i % 2
        else (
            f'{{"session_id": "s1", "segment_id": "seg{i}", "start": {float(i)}, '
            f'"end": {i + 0.5}, "speaker": "spk{label}", "words": "hello world", '
            f'"embedding_ref": {{"file": "emb.slre", "index": {i // 2}}}}}'
        )
        for i, (seg, label) in enumerate(zip(session.segments, labels))
    ]
    assert out.getvalue() == "".join(line + "\n" for line in expected)


@pytest.mark.parametrize(
    "key, value",
    [
        ("segment_id", "a"),
        ("start", 0.0),
        ("end", 2.5),
        ("embedding", [1.0, 2.0]),
        ("embedding_ref", {"file": "emb.slre", "index": 0}),
    ],
)
def test_reference_rejects_segment_records(key, value):
    ref = {"session_id": "s1", "speaker": "A", "words": "a b"}
    records = lines(ref, {**ref, key: value})
    with pytest.raises(ValueError, match=f"line 2: .*segment fields \\['{key}'\\]"):
        corpus.parse_reference(records)
    # other unknown keys are allowed
    (parsed,) = corpus.parse_reference(lines({**ref, "channel": 3}))
    assert parsed.per_speaker == {"A": ("a", "b")}


def test_segment_order_preserved_end_to_end():
    rng = np.random.default_rng(1)
    ids = [f"seg{i}" for i in rng.permutation(20)]
    records = [
        seg_record(segment_id=sid, start=float(i), end=float(i) + 1.0)
        for i, sid in enumerate(ids)
    ]
    (session,) = corpus.parse_segments(lines(*records))
    assert [seg.segment_id for seg in session.segments] == ids


def test_sidecar_round_trip(tmp_path):
    rng = np.random.default_rng(2)
    embeddings = rng.standard_normal((4, 5)).astype(np.float32)
    sidecar = tmp_path / "emb.slre"
    corpus.write_embeddings_sidecar(sidecar, embeddings)
    table = corpus.read_embeddings_sidecar(sidecar)
    assert table.shape == (4, 5)
    np.testing.assert_array_equal(table, embeddings.astype(np.float64))

    records = [
        seg_record(
            segment_id=f"seg{i}",
            embedding=None,
            embedding_ref={"file": "emb.slre", "index": i},
        )
        for i in range(4)
    ]
    for r in records:
        del r["embedding"]
    path = tmp_path / "segments.jsonl"
    path.write_bytes(lines(*records))
    (session,) = corpus.parse_segments(path)
    np.testing.assert_array_equal(session.embeddings(), embeddings.astype(np.float64))


def test_sidecar_from_stream_resolves_against_working_directory(tmp_path, monkeypatch):
    embeddings = np.arange(6, dtype=np.float32).reshape(2, 3) + 1
    corpus.write_embeddings_sidecar(tmp_path / "emb.slre", embeddings)
    records = [
        seg_record(segment_id=f"seg{i}", embedding_ref={"file": "emb.slre", "index": i})
        for i in range(2)
    ]
    for r in records:
        del r["embedding"]
    data = lines(*records)
    monkeypatch.chdir(tmp_path)
    (session,) = corpus.parse_segments(data)
    np.testing.assert_array_equal(session.embeddings(), embeddings.astype(np.float64))
    elsewhere = tmp_path / "elsewhere"
    elsewhere.mkdir()
    monkeypatch.chdir(elsewhere)
    with pytest.raises(FileNotFoundError):
        corpus.parse_segments(data)


def test_sidecar_bad_magic(tmp_path):
    path = tmp_path / "bad.slre"
    path.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(ValueError, match="SLRE"):
        corpus.read_embeddings_sidecar(path)


def test_sidecar_index_out_of_range(tmp_path):
    corpus.write_embeddings_sidecar(tmp_path / "emb.slre", np.ones((2, 3)))
    record = seg_record(embedding_ref={"file": "emb.slre", "index": 5})
    del record["embedding"]
    path = tmp_path / "segments.jsonl"
    path.write_bytes(lines(record))
    with pytest.raises(ValueError, match="out of range"):
        corpus.parse_segments(path)


@pytest.mark.parametrize(
    "ref",
    [
        {"file": "emb.slre", "index": 1.7},
        {"file": "emb.slre", "index": True},
        {"file": "emb.slre", "index": "2"},
        {"file": 5, "index": 0},
        {"file": ["emb.slre"], "index": 0},
        {"file": "", "index": 0},
    ],
    ids=["float-index", "bool-index", "str-index", "int-file", "list-file", "no-file"],
)
def test_malformed_embedding_ref_names_its_line(tmp_path, capsys, ref):
    corpus.write_embeddings_sidecar(tmp_path / "emb.slre", np.ones((3, 2)))
    good = seg_record(segment_id="a", embedding_ref={"file": "emb.slre", "index": 0})
    bad = seg_record(segment_id="b", start=3.0, end=4.0, embedding_ref=ref)
    del good["embedding"], bad["embedding"]
    path = tmp_path / "segments.jsonl"
    path.write_bytes(lines(good, bad))
    message = "line 2: embedding_ref needs 'file' and integer 'index'"
    with pytest.raises(ValueError, match=f"^{message}$"):
        corpus.parse_segments(path)
    argv = ["reassign", "--segments", str(path), "--out", str(tmp_path / "out.jsonl")]
    assert cli.main(argv) == 1
    assert f"validation error: {message}" in capsys.readouterr().err


def test_sidecar_read_once_and_each_file_string_resolved_once(tmp_path, monkeypatch):
    embeddings = np.arange(1.0, 9.0).reshape(4, 2)
    corpus.write_embeddings_sidecar(tmp_path / "emb.slre", embeddings)
    names = ["emb.slre", "./emb.slre", "emb.slre", "./emb.slre"]
    records = [
        seg_record(segment_id=f"seg{i}", embedding_ref={"file": name, "index": i})
        for i, name in enumerate(names)
    ]
    for r in records:
        del r["embedding"]
    path = tmp_path / "segments.jsonl"
    path.write_bytes(lines(*records))
    sidecar = str((tmp_path / "emb.slre").resolve())
    reads, resolves = [], []
    read, resolve = corpus.read_embeddings_sidecar, Path.resolve
    monkeypatch.setattr(
        corpus, "read_embeddings_sidecar", lambda p: reads.append(p) or read(p)
    )
    monkeypatch.setattr(
        Path, "resolve", lambda self: resolves.append(self) or resolve(self)
    )
    (session,) = corpus.parse_segments(path)
    assert reads == [sidecar]
    assert len(resolves) == 2  # once per distinct ``file`` string
    assert {seg.embedding_ref[0] for seg in session.segments} == {sidecar}
    assert session.embeddings()[:, 0].tolist() == [1.0, 3.0, 5.0, 7.0]
    # nothing is kept between calls: the next parse reads the file again
    corpus.parse_segments(path)
    assert reads == [sidecar, sidecar]


def test_assignment_validation():
    (session,) = corpus.parse_segments(
        lines(seg_record(segment_id="a"), seg_record(segment_id="b", speaker="spk1"))
    )
    good = corpus.LabelAssignment(session_id="s1", labels=(0, 1))
    good.validate_for(session, 2)
    with pytest.raises(ValueError):
        corpus.LabelAssignment(session_id="s1", labels=(0,)).validate_for(session, 2)
    with pytest.raises(ValueError):
        corpus.LabelAssignment(session_id="s1", labels=(0, 2)).validate_for(session, 2)
