"""Oracle assignment (exact and greedy) and the relative confusion-error measure.

The greedy search scores candidate moves from cached boundary columns; the
search it replaced, which re-aligns every candidate stream from its first
word, is kept here as an independent reference for it.
"""

import hashlib
import itertools
import tracemalloc

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from slrkit.corpus import LabelAssignment, ReferenceTranscript, Segment, SessionHypothesis
from slrkit.metrics import _advance, _match_masks, cpwer_from_segments, segment_order
from slrkit import oracle
from slrkit.oracle import (
    _free_end_gap_cost,
    _free_end_gap_costs,
    _greedy_search,
    exact_fits_budget,
    oracle_assignment,
    relative_confusion_error,
)
from slrkit.pipeline import DurationBucket, SynthSpec, generate_session, session_seed
from test_metrics import reference_table


def make_session(segment_words, speakers=None):
    n = len(segment_words)
    speakers = speakers or ["spk0"] * n
    segments = tuple(
        Segment(
            session_id="s",
            segment_id=f"seg{i:03d}",
            start=float(i),
            end=float(i) + 0.5,
            initial_speaker=speakers[i],
            words=tuple(words.split()),
            embedding=np.array([1.0, float(i + 1)]),
        )
        for i, words in enumerate(segment_words)
    )
    return SessionHypothesis(
        session_id="s", segments=segments, num_speakers=len(set(speakers))
    )


def random_fixture(rng, max_segments=10, max_speakers=3):
    """Small synthetic session + reference with ASR noise and confusion."""
    k = int(rng.integers(1, max_speakers + 1))
    count = int(rng.integers(max(k, 3), max_segments + 1))
    spec = SynthSpec(
        num_speakers=k,
        dim=6,
        min_angle_deg=40.0,
        buckets=(DurationBucket(count, 0.5, 9.0, 0.3),),
        words_per_segment=(1, 3),
        corruption=float(rng.uniform(0.0, 0.35)),
        confusion=float(rng.uniform(0.0, 0.6)),
        shared_vocabulary=bool(rng.random() < 0.3),
        vocab_size=6,
    )
    return generate_session(spec, int(rng.integers(2**32)))


def test_single_segment_single_speaker():
    session = make_session(["hello world x"])
    ref = ReferenceTranscript(
        session_id="s", per_speaker={"A": ("hello", "world")}
    )
    assignment, report = oracle_assignment(session, ref, "exact")
    assert assignment.labels == (0,)
    assert report.errors == 1  # the extra "x" is an insertion
    assert report.cpwer == 0.5


def test_perfect_asr_wrong_initial_labels_reaches_zero():
    session = make_session(["a b", "c d"], speakers=["spkX", "spkX"])
    ref = ReferenceTranscript(
        session_id="s", per_speaker={"A": ("a", "b"), "B": ("c", "d")}
    )
    for mode in ("exact", "greedy"):
        _, report = oracle_assignment(session, ref, mode)
        assert report.cpwer == 0.0


def test_exact_budget_enforced():
    assert exact_fits_budget(3, 10)
    assert not exact_fits_budget(3, 15)
    session = make_session([f"w{i}" for i in range(21)])
    ref = ReferenceTranscript(
        session_id="s",
        per_speaker={"A": ("w0",), "B": ("w1",), "C": ("w2",)},
    )
    with pytest.raises(ValueError, match="budget"):
        oracle_assignment(session, ref, "exact")


def test_session_mismatch_rejected():
    session = make_session(["a"])
    ref = ReferenceTranscript(session_id="other", per_speaker={"A": ("a",)})
    with pytest.raises(ValueError, match="does not match"):
        oracle_assignment(session, ref, "exact")


def test_greedy_never_beats_exact_and_mostly_matches():
    rng = np.random.default_rng(0)
    trials = 40
    matches = 0
    for _ in range(trials):
        session, ref, _ = random_fixture(rng)
        _, exact_report = oracle_assignment(session, ref, "exact")
        _, greedy_report = oracle_assignment(session, ref, "greedy")
        assert greedy_report.errors >= exact_report.errors
        if greedy_report.errors == exact_report.errors:
            matches += 1
    assert matches >= 0.9 * trials


def test_exact_oracle_lower_bounds_random_assignments():
    rng = np.random.default_rng(1)
    for _ in range(10):
        session, ref, truth = random_fixture(rng, max_segments=8)
        _, exact_report = oracle_assignment(session, ref, "exact")
        k = len(ref.per_speaker)
        names = list(ref.per_speaker)
        for _ in range(25):
            labels = tuple(int(v) for v in rng.integers(0, k, len(session.segments)))
            random_report = cpwer_from_segments(
                ref,
                session,
                LabelAssignment(session_id="s", labels=labels),
                num_clusters=k,
                label_names=names,
            )
            assert exact_report.errors <= random_report.errors
        truth_report = cpwer_from_segments(
            ref, session, truth, num_clusters=k, label_names=names
        )
        assert exact_report.errors <= truth_report.errors


def test_oracle_labels_align_with_reference_order():
    session = make_session(["x x", "y"], speakers=["spk0", "spk1"])
    ref = ReferenceTranscript(
        session_id="s", per_speaker={"B": ("y",), "A": ("x", "x")}
    )
    assignment, report = oracle_assignment(session, ref, "exact")
    # label c refers to the c-th reference speaker in file order: B then A
    assert assignment.labels == (1, 0)
    assert report.cpwer == 0.0


def test_relative_confusion_error_paper_fixed_points():
    assert relative_confusion_error(62.25, 63.74, 51.08) == pytest.approx(
        1.1334, abs=0.0005
    )
    assert relative_confusion_error(5.36, 3.51, 3.27) == pytest.approx(
        0.1148, abs=0.0005
    )


def test_relative_confusion_error_endpoints():
    assert relative_confusion_error(10.0, 10.0, 5.0) == 1.0
    assert relative_confusion_error(10.0, 5.0, 5.0) == 0.0


def test_relative_confusion_error_scale_invariant():
    rng = np.random.default_rng(2)
    for _ in range(20):
        oracle_value = float(rng.uniform(0.0, 10.0))
        none = oracle_value + float(rng.uniform(0.1, 10.0))
        slr = float(rng.uniform(oracle_value, none * 1.5))
        base = relative_confusion_error(none, slr, oracle_value)
        factor = float(rng.uniform(0.1, 10.0))
        scaled = relative_confusion_error(
            none * factor, slr * factor, oracle_value * factor
        )
        assert scaled == pytest.approx(base, rel=1e-9)


def test_relative_confusion_error_above_one_not_clamped():
    value = relative_confusion_error(10.0, 20.0, 5.0)
    assert value == 3.0


def test_relative_confusion_error_zero_denominator():
    assert relative_confusion_error(5.0, 5.0, 5.0) == 0.0
    with pytest.raises(ValueError, match="undefined"):
        relative_confusion_error(5.0, 6.0, 5.0)
    with pytest.raises(ValueError):
        relative_confusion_error(4.0, 5.0, 5.0)
    with pytest.raises(ValueError):
        relative_confusion_error(-1.0, 0.0, 0.0)


def test_free_end_gap_cost_matches_window_enumeration():
    # free-end-gap alignment equals the best full alignment against any
    # contiguous window of the text
    from slrkit.metrics import edit_distance
    from slrkit.oracle import _free_end_gap_cost

    rng = np.random.default_rng(3)
    vocab = [f"w{i}" for i in range(5)]
    for _ in range(80):
        pattern = tuple(rng.choice(vocab, size=int(rng.integers(0, 6))))
        text = tuple(rng.choice(vocab, size=int(rng.integers(0, 10))))
        fast = _free_end_gap_cost(pattern, text)
        windows = [
            edit_distance(pattern, text[i:j]).total
            for i in range(len(text) + 1)
            for j in range(i, len(text) + 1)
        ]
        assert fast == min(windows), (pattern, text)


def test_free_end_gap_costs_match_plain_table():
    # the batched initialization matrix against the O(mn) table with a free
    # start row, kept in test_metrics and independent of the kernel; the
    # sessions hold empty segments and unequal references, and the last one
    # a reference of over 1000 words, so the kernel's pattern spans many
    # big-int digits
    sessions = []
    for seed in range(12):
        rng = np.random.default_rng([11, seed])
        k = 1 + seed % 4
        spec = SynthSpec(
            num_speakers=k,
            dim=6,
            min_angle_deg=40.0,
            buckets=(DurationBucket(int(rng.integers(k + 3, 25)), 0.5, 9.0, 0.3),),
            words_per_segment=(0, 8),
            corruption=float(rng.uniform(0.0, 0.4)),
            shared_vocabulary=bool(seed % 2),
            vocab_size=int(rng.integers(2, 10)),
        )
        sessions.append(generate_session(spec, int(rng.integers(2**32)))[:2])
    spec = SynthSpec(
        num_speakers=2,
        dim=6,
        buckets=(DurationBucket(3, 0.5, 9.0, 0.3),),
        words_per_segment=(500, 520),
        corruption=0.1,
        shared_vocabulary=True,
        vocab_size=300,
    )
    sessions.append(generate_session(spec, session_seed(11, 12))[:2])
    empty = unequal = 0
    for session, ref in sessions:
        segments, refs = stream_inputs(session, ref)
        expected = [
            [min(reference_table(words, r, free_start=True)[-1]) for r in refs]
            for words in segments
        ]
        assert _free_end_gap_costs(segments, refs).tolist() == expected
        empty += any(not words for words in segments)
        unequal += len({len(r) for r in refs}) > 1
    assert empty >= 6 and unequal >= 6
    assert max(len(r) for r in refs) >= 1000


def test_exact_search_matches_plain_enumeration():
    # independent oracle: enumerate every assignment, build the streams, and
    # score them with the full edit-distance path
    import itertools

    from slrkit.metrics import edit_distance, segment_order

    rng = np.random.default_rng(4)
    for _ in range(15):
        session, ref, _ = random_fixture(rng, max_segments=6, max_speakers=3)
        _, report = oracle_assignment(session, ref, "exact")

        names = list(ref.per_speaker)
        order = segment_order(session)
        best = None
        for assignment in itertools.product(range(len(names)), repeat=len(order)):
            streams = {name: [] for name in names}
            for position, segment_index in enumerate(order):
                streams[names[assignment[position]]].extend(
                    session.segments[segment_index].words
                )
            total = sum(
                edit_distance(ref.per_speaker[name], streams[name]).total
                for name in names
            )
            best = total if best is None else min(best, total)
        assert report.errors == best


def test_greedy_oracle_meeting_scale_regression():
    # 40 segments of 90-110 words over 4 speakers sharing a 300-word
    # vocabulary: about 1000 words per reference speaker.  The pinned error
    # count and label digest come from the numpy row recurrence the search
    # used before the bit-parallel kernel, an independent implementation.
    spec = SynthSpec(
        num_speakers=4,
        dim=192,
        buckets=(
            DurationBucket(16, 8.0, 15.0, 0.3),
            DurationBucket(24, 0.5, 1.9, 1.0),
        ),
        words_per_segment=(90, 110),
        corruption=0.1,
        confusion=0.3,
        noise_correlation=0.9,
        shared_vocabulary=True,
        vocab_size=300,
    )
    session, ref, _ = generate_session(spec, session_seed(1, 0), session_id="evaluate0")
    assignment, report = oracle_assignment(session, ref, "greedy")
    assert report.errors == 415
    digest = hashlib.sha256(",".join(map(str, assignment.labels)).encode()).hexdigest()
    assert digest == "30d7af51410b26340090c51f3a22b6d236d62876e0fe18de2d88f59a6402e940"


def full_stream_greedy(segments, refs, moves=None):
    """Greedy search that re-aligns each candidate cluster stream from its first word.

    Same initialization, move order and tie-breaks as ``_greedy_search``.
    ``moves``, when given, receives ``(empties_source, into_empty)`` per
    applied move.
    """
    k = len(refs)
    labels = [
        int(np.argmin([_free_end_gap_cost(words, ref) for ref in refs]))
        for words in segments
    ]
    masks = [_match_masks(ref) for ref in refs]
    column_cache = {}

    def column(members):
        cached = column_cache.get(members)
        if cached is None:
            stream = tuple(itertools.chain.from_iterable(segments[i] for i in members))
            cached = np.array(
                [_advance(masks[r], len(refs[r]), stream).score for r in range(k)],
                dtype=np.int64,
            )
            column_cache[members] = cached
        return cached

    members = [[] for _ in range(k)]
    for i, label in enumerate(labels):
        members[label].append(i)
    cost = np.stack([column(tuple(members[h])) for h in range(k)], axis=1)
    rows, cols = linear_sum_assignment(cost)
    current = int(cost[rows, cols].sum())

    while current > 0:
        best_total = current
        best_move = None
        for i in range(len(segments)):
            a = labels[i]
            removed = tuple(m for m in members[a] if m != i)
            for b in range(k):
                if b == a:
                    continue
                added = tuple(sorted(members[b] + [i]))
                candidate = cost.copy()
                candidate[:, a] = column(removed)
                candidate[:, b] = column(added)
                rows, cols = linear_sum_assignment(candidate)
                total = int(candidate[rows, cols].sum())
                if total < best_total:
                    best_total = total
                    best_move = (i, a, b, candidate)
        if best_move is None:
            break
        i, a, b, cost = best_move
        if moves is not None:
            moves.append((len(members[a]) == 1, not members[b]))
        labels[i] = b
        members[a].remove(i)
        members[b] = sorted(members[b] + [i])
        current = best_total
    return current, labels


def stream_inputs(session, ref):
    segments = [tuple(session.segments[i].words) for i in segment_order(session)]
    return segments, [tuple(words) for words in ref.per_speaker.values()]


def greedy_cases():
    """36 seeded sessions of 1-6 speakers, then two hand-made ones.

    The first hand-made session moves a cluster's only segment out and later
    moves a segment into the emptied cluster; the second reaches 0 errors
    after a move into a cluster the initialization left empty.
    """
    for seed in range(36):
        rng = np.random.default_rng([7, seed])
        k = 1 + seed % 6
        count = int(rng.integers(k + 2, 30))
        spec = SynthSpec(
            num_speakers=k,
            dim=6,
            min_angle_deg=40.0,
            buckets=(DurationBucket(count, 0.5, 9.0, 0.3),),
            words_per_segment=(1, 6),
            corruption=float(rng.uniform(0.0, 0.4)),
            confusion=float(rng.uniform(0.2, 0.8)),
            shared_vocabulary=bool(seed % 2),
            vocab_size=int(rng.integers(3, 12)),
        )
        session, ref, _ = generate_session(spec, int(rng.integers(2**32)))
        yield stream_inputs(session, ref)
    for segments, refs in (
        (["a", "b", "a", "b b", "a", "b"], ["b", "a", "a a b b b"]),
        (["b a", "a a b", "b", "a"], ["b", "b a a a b", "a"]),
    ):
        yield [tuple(s.split()) for s in segments], [tuple(r.split()) for r in refs]


def test_greedy_search_matches_full_stream_reference():
    speaker_counts = set()
    unequal_lengths = emptied = into_empty = zero_after_moves = 0
    for segments, refs in greedy_cases():
        moves = []
        expected = full_stream_greedy(segments, refs, moves)
        assert _greedy_search(segments, refs) == expected, (segments, refs)
        speaker_counts.add(len(refs))
        unequal_lengths += len({len(ref) for ref in refs}) > 1
        emptied += any(source for source, _ in moves)
        into_empty += any(target for _, target in moves)
        zero_after_moves += expected[0] == 0 and bool(moves)
    # the corpus exercises every case the boundary state has to get right
    assert speaker_counts == {1, 2, 3, 4, 5, 6}
    assert unequal_lengths >= 20
    assert emptied and into_empty and zero_after_moves


def test_greedy_oracle_multi_move_regression():
    # the sweep workload's 6-speaker tier: 45 short segments over a shared
    # 15-word vocabulary.  The descent applies at least 16 moves, so every
    # rebuild of a cluster's boundary state is on the path; the pinned error
    # count and label digest come from the full-stream search.
    spec = SynthSpec(
        num_speakers=6,
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
    session, ref, _ = generate_session(spec, session_seed(1, 1), session_id="sweep1")
    moves = []
    errors, _ = full_stream_greedy(*stream_inputs(session, ref), moves)
    assert len(moves) >= 16
    assignment, report = oracle_assignment(session, ref, "greedy")
    assert report.errors == errors == 52
    digest = hashlib.sha256(",".join(map(str, assignment.labels)).encode()).hexdigest()
    assert digest == "8506d258b4eb00b466ef4a86ca498af1e272e7f67022bfd383a27a9d5ddee3bd"


def test_greedy_decode_blocks_bound_memory_not_results(monkeypatch):
    # 120 segments of 15-35 words over 4 references of up to about 800 words.  The
    # first descent round inserts every segment into every other cluster;
    # decoded at once, those 360 x 4 columns would hold about 9 MB per int64
    # array.  Decoded DECODE_BLOCK values at a time, the traced peak stays
    # within three copies of the boundary state the search keeps anyway
    # (prefix, suffix and removal rows of every boundary) plus a few blocks,
    # the initialization within a few blocks alone, and errors and labels do
    # not depend on the block size.
    spec = SynthSpec(
        num_speakers=4,
        dim=8,
        buckets=(DurationBucket(120, 0.5, 9.0, 0.3),),
        words_per_segment=(15, 35),
        corruption=0.1,
        confusion=0.3,
        shared_vocabulary=True,
        vocab_size=300,
    )
    session, ref, _ = generate_session(spec, session_seed(5, 0))
    segments, refs = stream_inputs(session, ref)
    costs, expected = _free_end_gap_costs(segments, refs), _greedy_search(segments, refs)
    k, width = len(refs), max(len(r) for r in refs)
    monkeypatch.setattr(oracle, "DECODE_BLOCK", 1 << 14)
    assert oracle.DECODE_BLOCK < len(segments) * (k - 1) * k * (width + 1) // 20
    tracemalloc.start()
    try:
        assert (_free_end_gap_costs(segments, refs) == costs).all()
        setup_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        assert _greedy_search(segments, refs) == expected
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    blocks = 4 * 8 * oracle.DECODE_BLOCK + (1 << 20)
    assert setup_peak < blocks
    assert peak < 3 * (len(segments) + k) * k * (width + 1) * 8 + blocks
