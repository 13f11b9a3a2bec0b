"""End-to-end reassignment, synthetic sessions, and the report grid."""

import hashlib
import json

import numpy as np
import pytest

from slrkit.affinity import AttenuationConfig
from slrkit.corpus import Segment, SessionHypothesis
from slrkit.pipeline import (
    DurationBucket,
    PipelineConfig,
    SynthSpec,
    cluster_session,
    generate_session,
    initial_speaker_streams,
    macro_cpwer,
    parse_sweep,
    pooled_cpwer,
    reassign,
    run_report,
    session_seed,
)


def as_partition(labels):
    groups = {}
    for i, label in enumerate(labels):
        groups.setdefault(label, set()).add(i)
    return frozenset(frozenset(g) for g in groups.values())


def orthogonal_session():
    embeddings = np.vstack([np.tile([1.0, 0.0], (4, 1)), np.tile([0.0, 1.0], (3, 1))])
    segments = tuple(
        Segment(
            session_id="s",
            segment_id=f"seg{i}",
            start=float(i) * 3.0,
            end=float(i) * 3.0 + 2.0,
            initial_speaker="spk0" if i % 2 else "spk1",  # scrambled on purpose
            words=(f"w{i}",),
            embedding=embeddings[i],
        )
        for i in range(7)
    )
    return SessionHypothesis(session_id="s", segments=segments, num_speakers=2)


def test_reassign_separates_orthogonal_groups():
    session = orthogonal_session()
    assignment, report = reassign(session, None, PipelineConfig(algorithm="sc"))
    assert as_partition(assignment.labels) == as_partition([0, 0, 0, 0, 1, 1, 1])
    assert report.cpwer_before is None

    # with a reference supplied, before/after rates are reported
    from slrkit.corpus import ReferenceTranscript

    reference = ReferenceTranscript(
        session_id="s",
        per_speaker={
            "A": ("w0", "w1", "w2", "w3"),
            "B": ("w4", "w5", "w6"),
        },
    )
    _, scored = reassign(session, reference, PipelineConfig(algorithm="sc"))
    assert scored.cpwer_after.cpwer == 0.0
    assert scored.cpwer_before.cpwer > 0.0  # scrambled initial labels


def test_reassign_with_reference_reports_all_metrics():
    spec = SynthSpec(
        num_speakers=2,
        dim=6,
        min_angle_deg=60.0,
        buckets=(DurationBucket(8, 3.0, 10.0, 0.05),),
        confusion=0.5,
    )
    session, reference, _ = generate_session(spec, 5)
    assignment, report = reassign(
        session, reference, PipelineConfig(algorithm="sc"), seed=0
    )
    assert report.cpwer_before is not None
    assert report.cpwer_after is not None
    assert report.cpwer_oracle is not None
    assert report.oracle_mode == "exact"
    assert report.cpwer_oracle.cpwer <= report.cpwer_after.cpwer + 1e-12
    assert report.relative_confusion_error is not None


def test_kmeans_ignores_attenuation_with_warning():
    session = orthogonal_session()
    cfg = PipelineConfig(
        algorithm="kmeans",
        attenuation=AttenuationConfig(mode="stepwise", alpha=0.25),
    )
    with pytest.warns(UserWarning, match="attenuation"):
        assignment = cluster_session(session, cfg, seed=0)
    assert as_partition(assignment.labels) == as_partition([0, 0, 0, 0, 1, 1, 1])


def test_reassign_deterministic_per_seed():
    spec = SynthSpec(
        num_speakers=3,
        dim=8,
        min_angle_deg=50.0,
        buckets=(DurationBucket(12, 0.5, 9.0, 0.3),),
        corruption=0.2,
        confusion=0.4,
    )
    session, reference, _ = generate_session(spec, 11)
    runs = [
        reassign(session, reference, PipelineConfig(algorithm="sc"), seed=42)
        for _ in range(2)
    ]
    assert runs[0][0].labels == runs[1][0].labels
    assert runs[0][1] == runs[1][1]


def test_num_speakers_resolution_order():
    session = orthogonal_session()  # 2 distinct initial labels
    # config overrides the session count
    assignment = cluster_session(
        session, PipelineConfig(algorithm="sc", num_speakers=3), seed=0
    )
    assert len(set(assignment.labels)) == 3
    with pytest.raises(ValueError):
        cluster_session(
            session, PipelineConfig(algorithm="sc", num_speakers=9), seed=0
        )


def test_generate_session_noiseless_recovery():
    spec = SynthSpec(
        num_speakers=3,
        dim=8,
        min_angle_deg=60.0,
        buckets=(DurationBucket(9, 2.0, 9.0, 0.0),),
        corruption=0.0,
        confusion=0.5,
    )
    session, reference, truth = generate_session(spec, 3)
    assignment, report = reassign(
        session, reference, PipelineConfig(algorithm="sc"), seed=1
    )
    assert as_partition(assignment.labels) == as_partition(truth.labels)
    assert report.cpwer_after.cpwer == 0.0


def test_generate_session_confusion_zero_keeps_labels():
    spec = SynthSpec(
        num_speakers=3,
        dim=8,
        min_angle_deg=60.0,
        buckets=(DurationBucket(9, 2.0, 9.0, 0.1),),
        confusion=0.0,
    )
    session, reference, truth = generate_session(spec, 7)
    for segment, label in zip(session.segments, truth.labels):
        assert segment.initial_speaker == f"spk{label}"
    streams = initial_speaker_streams(session)
    assert set(streams) <= {f"spk{i}" for i in range(3)}


def test_generate_session_bucket_structure():
    spec = SynthSpec(
        num_speakers=8,
        dim=12,
        min_angle_deg=55.0,
        buckets=(
            DurationBucket(40, 8.0, 15.0, 0.05),
            DurationBucket(60, 0.5, 1.9, 0.5),
        ),
        confusion=0.3,
    )
    session, reference, truth = generate_session(spec, 0)
    assert len(session.segments) == 100
    assert session.num_speakers == 8
    durations = sorted(seg.duration for seg in session.segments)
    assert sum(1 for d in durations if d >= 8.0) == 40
    assert sum(1 for d in durations if d < 2.0) == 60
    # speakers cycle over buckets: every speaker gets long segments
    per_speaker_long = {s: 0 for s in range(8)}
    for seg, label in zip(session.segments, truth.labels):
        if seg.duration >= 8.0:
            per_speaker_long[label] += 1
    assert all(count == 5 for count in per_speaker_long.values())
    # embeddings are unit length
    norms = np.linalg.norm(session.embeddings(), axis=1)
    np.testing.assert_allclose(norms, 1.0, atol=1e-12)
    # disjoint vocabularies: reference streams share no words across speakers
    streams = list(reference.per_speaker.values())
    for i in range(len(streams)):
        for j in range(i + 1, len(streams)):
            assert not (set(streams[i]) & set(streams[j]))


def test_generate_session_rejection_failure():
    spec = SynthSpec(
        num_speakers=40,
        dim=2,
        min_angle_deg=80.0,
        buckets=(DurationBucket(40, 1.0, 2.0, 0.1),),
    )
    with pytest.raises(ValueError, match="centroid"):
        generate_session(spec, 0)


def test_attenuation_identity_settings_match_none():
    spec = SynthSpec(
        num_speakers=3,
        dim=8,
        min_angle_deg=50.0,
        buckets=(DurationBucket(6, 6.0, 12.0, 0.1), DurationBucket(6, 0.5, 1.5, 0.4)),
        confusion=0.3,
    )
    session, _, _ = generate_session(spec, 21)
    base = cluster_session(session, PipelineConfig(algorithm="sc"), seed=9)
    for cfg in (
        AttenuationConfig(mode="stepwise", alpha=1.0),
        AttenuationConfig(mode="polynomial", beta=0.0),
    ):
        other = cluster_session(
            session, PipelineConfig(algorithm="sc", attenuation=cfg), seed=9
        )
        assert other.labels == base.labels


def test_oracle_bound_holds_on_generated_sessions():
    rng = np.random.default_rng(13)
    for trial in range(5):
        spec = SynthSpec(
            num_speakers=int(rng.integers(2, 4)),
            dim=8,
            min_angle_deg=50.0,
            buckets=(DurationBucket(int(rng.integers(6, 10)), 0.5, 9.0, 0.3),),
            corruption=0.2,
            confusion=0.4,
        )
        session, reference, _ = generate_session(spec, trial)
        _, report = reassign(
            session, reference, PipelineConfig(algorithm="sc"), seed=trial
        )
        assert report.cpwer_oracle.cpwer <= report.cpwer_after.cpwer + 1e-12
        assert report.cpwer_oracle.cpwer <= report.cpwer_before.cpwer + 1e-12
        recomputed = (
            (report.cpwer_after.cpwer - report.cpwer_oracle.cpwer)
            / (report.cpwer_before.cpwer - report.cpwer_oracle.cpwer)
            if report.cpwer_before.cpwer > report.cpwer_oracle.cpwer
            else 0.0
        )
        if report.relative_confusion_error is not None:
            assert report.relative_confusion_error == pytest.approx(
                recomputed, abs=1e-12
            )


def test_parse_sweep():
    alphas, betas = parse_sweep("step:0,0.1,0.25,1;poly:1,2,4,8,16")
    assert alphas == (0.0, 0.1, 0.25, 1.0)
    assert betas == (1.0, 2.0, 4.0, 8.0, 16.0)
    assert parse_sweep("step:0.5") == ((0.5,), ())
    assert parse_sweep("") == ((), ())
    with pytest.raises(ValueError):
        parse_sweep("quadratic:1")
    with pytest.raises(ValueError):
        parse_sweep("step:a,b")


def test_run_report_grid_shape_and_bounds():
    spec = SynthSpec(
        num_speakers=2,
        dim=6,
        min_angle_deg=60.0,
        buckets=(DurationBucket(8, 2.0, 10.0, 0.1),),
        confusion=0.4,
    )
    sessions = []
    references = []
    for i in range(2):
        session, reference, _ = generate_session(spec, i, session_id=f"m{i}")
        sessions.append(session)
        references.append(reference)
    rows = run_report(sessions, references, (0.25, 1.0), (2.0,), seed=0)
    algorithms = [row["algorithm"] for row in rows]
    assert algorithms == ["none", "kmeans", "sc", "sc", "sc", "sc", "oracle"]
    oracle_row = rows[-1]
    none_row = rows[0]
    for row in rows:
        assert row["pooled_cpwer"] >= oracle_row["pooled_cpwer"] - 1e-12
    if none_row["pooled_cpwer"] > oracle_row["pooled_cpwer"]:
        assert none_row["relative_confusion_error"] == pytest.approx(1.0)
        assert oracle_row["relative_confusion_error"] == pytest.approx(0.0)


def test_run_report_oracle_row_bounds_every_row_on_sweep_sessions():
    # the sweep benchmark's four sessions at seed 1: 45 short segments of 4
    # and 6 speakers over a shared 15-word vocabulary.  A greedy search from
    # the free-end-gap start alone scored above the clustered rows here; the
    # oracle now starts from the cheapest row, so it bounds every row.
    def sweep_spec(speakers):
        return SynthSpec(
            num_speakers=speakers,
            dim=8,
            min_angle_deg=50.0,
            buckets=(
                DurationBucket(18, 8.0, 15.0, 0.05),
                DurationBucket(27, 0.5, 1.9, 0.5),
            ),
            words_per_segment=(2, 4),
            corruption=0.3,
            confusion=0.3,
            noise_correlation=0.9,
            shared_vocabulary=True,
            vocab_size=15,
        )

    generated = [
        generate_session(sweep_spec(k), session_seed(1, i), session_id=f"sweep{i}")
        for i, k in enumerate((4, 6, 4, 6))
    ]
    alphas, betas = parse_sweep("step:0,0.1,0.25,1;poly:1,2,4,8,16")
    rows = run_report(
        [session for session, _, _ in generated],
        [reference for _, reference, _ in generated],
        alphas,
        betas,
        seed=1,
    )
    oracle_row = rows[-1]
    assert oracle_row["algorithm"] == "oracle" and len(rows) == 13
    for row in rows[:-1]:
        assert oracle_row["pooled_cpwer"] <= row["pooled_cpwer"], row
        assert oracle_row["macro_cpwer"] <= row["macro_cpwer"], row
        assert row["relative_confusion_error"] >= 0
    # the report file's bytes, with k-means rows and greedy oracle rows
    text = "".join(json.dumps(row) + "\n" for row in rows)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "8175a8a9c46f4f000a24ea2b0d05fd386edb74955c59ea26b77f85d0f95a0cef"
    )


def test_run_report_and_reassign_score_a_session_alike():
    # one session through both callers of the shared evaluation: the report's
    # oracle also starts from the k-means and other grid rows, so it can only
    # be lower than the oracle of reassign
    modes = set()
    for trial in range(6):
        speakers, count = (2, 8) if trial % 2 else (3, 16)
        spec = SynthSpec(
            num_speakers=speakers,
            dim=8,
            min_angle_deg=50.0,
            buckets=(DurationBucket(count, 0.5, 9.0, 0.3),),
            corruption=0.2,
            confusion=0.4,
        )
        session, reference, _ = generate_session(spec, trial)
        none_row, _, _, step_row, oracle_row = run_report(
            [session], [reference], (0.25,), (), trial
        )
        cfg = PipelineConfig(attenuation=AttenuationConfig(mode="stepwise", alpha=0.25))
        _, report = reassign(session, reference, cfg, seed=session_seed(trial, 0))
        assert none_row["pooled_cpwer"] == report.cpwer_before.cpwer
        assert (step_row["algorithm"], step_row["alpha"]) == ("sc", 0.25)
        assert step_row["pooled_cpwer"] == report.cpwer_after.cpwer
        assert oracle_row["pooled_cpwer"] <= report.cpwer_oracle.cpwer
        assert oracle_row["oracle_modes"] == [report.oracle_mode]
        modes.add(report.oracle_mode)
    assert modes == {"exact", "greedy"}


def test_run_report_requires_references():
    spec = SynthSpec(
        num_speakers=2,
        dim=6,
        min_angle_deg=60.0,
        buckets=(DurationBucket(4, 2.0, 10.0, 0.1),),
    )
    session, _, _ = generate_session(spec, 0)
    with pytest.raises(ValueError, match="no reference"):
        run_report([session], [], (), (), seed=0)


def test_run_report_rejects_reference_without_hypothesis():
    spec = SynthSpec(
        num_speakers=2,
        dim=6,
        min_angle_deg=60.0,
        buckets=(DurationBucket(4, 2.0, 10.0, 0.1),),
    )
    session, reference, _ = generate_session(spec, 0, session_id="a")
    _, orphan, _ = generate_session(spec, 1, session_id="b")
    with pytest.raises(ValueError, match=r"reference sessions \['b'\] have no hypothesis"):
        run_report([session], [reference, orphan], (), (), seed=0)


def test_pooled_and_macro_aggregation():
    from slrkit.metrics import CpWerReport

    reports = [
        CpWerReport(errors=2, ref_words=10, cpwer=0.2, mapping={}),
        CpWerReport(errors=0, ref_words=30, cpwer=0.0, mapping={}),
    ]
    assert pooled_cpwer(reports) == pytest.approx(2 / 40)
    assert macro_cpwer(reports) == pytest.approx(0.1)


def test_session_seed_stable():
    assert session_seed(7, 0) == session_seed(7, 0)
    assert session_seed(7, 0) != session_seed(7, 1)
    assert session_seed(8, 0) != session_seed(7, 0)
