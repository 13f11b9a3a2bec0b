"""Parsing, validation, and round-trip behavior of the record formats."""

import io
import json

import numpy as np
import pytest

from slrkit import corpus


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
    assert corpus.parse_segments(records, num_speakers=2)[0].num_speakers == 2
    assert (
        corpus.parse_segments(records, num_speakers={"s1": 2})[0].num_speakers == 2
    )


def test_zero_norm_embedding_rejected():
    with pytest.raises(ValueError, match="zero-norm embedding"):
        corpus.parse_segments(lines(seg_record(embedding=[0.0, 0.0, 0.0])))


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
    (ref,) = corpus.parse_reference(data, allow_empty=True)
    assert ref.per_speaker["A"] == ()


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
    # ``embedding.tolist()`` must write the bytes the per-element ``float(v)``
    # list wrote, for float32-origin (sidecar) and float64 embeddings
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
    corpus.write_assignment(session, corpus.LabelAssignment("s1", labels), out)
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
        for seg, label in zip(session.segments, labels)
    ]
    assert out.getvalue() == "".join(line + "\n" for line in expected)


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
