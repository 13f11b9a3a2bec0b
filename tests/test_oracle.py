"""Oracle assignment (exact and greedy) and the relative confusion-error measure.

The greedy search scores candidate moves from cached boundary columns; a
descent on the same objective that re-aligns every candidate stream from its
first word is kept here as an independent reference for it.
"""

import hashlib
import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from slrkit.corpus import LabelAssignment, ReferenceTranscript, Segment, SessionHypothesis
from slrkit.metrics import (
    _advance,
    _match_masks,
    assignment_streams,
    brute_force_cpwer,
    cpwer,
    cpwer_from_segments,
    token_distance,
)
from slrkit import cli, corpus, oracle
from slrkit.oracle import (
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


@st.composite
def scored_starts(draw, max_segments=9):
    """A session of 1-9 segments, 1-3 reference speakers and 1-3 scored labelings."""
    vocab = st.sampled_from("abc"[: draw(st.integers(1, 3))])
    segment = st.lists(vocab, max_size=3).map(" ".join)
    session = make_session(draw(st.lists(segment, min_size=1, max_size=max_segments)))
    refs = draw(st.lists(st.lists(vocab, max_size=10).map(" ".join), min_size=1, max_size=3))
    assume(any(refs))
    ref = ReferenceTranscript(
        session_id="s", per_speaker={f"R{c}": tuple(r.split()) for c, r in enumerate(refs)}
    )
    starts = []
    for _ in range(draw(st.integers(1, 3))):
        clusters = draw(st.integers(1, 4))
        labels = draw(
            st.lists(
                st.integers(0, clusters - 1),
                min_size=len(session.segments),
                max_size=len(session.segments),
            )
        )
        assignment = LabelAssignment(session_id="s", labels=labels)
        report = cpwer_from_segments(ref, session, assignment, num_clusters=clusters)
        starts.append(([f"spk{c}" for c in labels], report))
    return session, ref, starts


@settings(max_examples=200, deadline=None, derandomize=True)
@given(scored_starts(), st.data())
def test_greedy_bounds_its_starts_and_exact_bounds_greedy(inputs, data):
    # starts may have more or fewer clusters than reference speakers, so
    # some segments sit in clusters the cpWER pairing leaves unmatched; the
    # exact labeling, renamed, is one of them and must be mapped back
    session, ref, starts = inputs
    k = len(ref.per_speaker)
    assert exact_fits_budget(k, len(session.segments))
    exact_assignment, exact = oracle_assignment(session, ref, "exact")
    rename = data.draw(st.permutations(range(k)))
    labels = [rename[c] for c in exact_assignment.labels]
    report = cpwer_from_segments(
        ref, session, LabelAssignment(session_id="s", labels=labels), num_clusters=k
    )
    starts.insert(data.draw(st.integers(0, len(starts))), ([f"spk{c}" for c in labels], report))
    _, greedy = oracle_assignment(session, ref, "greedy", starts=starts)
    assert exact.errors <= greedy.errors <= min(report.errors for _, report in starts)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(scored_starts(), st.data())
def test_free_end_gap_bound_certifies_the_greedy_start(inputs, data):
    # B, the sum of each segment's cheapest window cost, is at most the exact
    # oracle.  The search returns what a full descent from its chosen start
    # returns, also when that start costs B and no descent runs.
    session, ref, starts = inputs
    segments, refs = stream_inputs(session, ref)
    costs = _free_end_gap_costs(segments, refs)
    bound = costs.min(axis=1).sum()
    _, exact = oracle_assignment(session, ref, "exact")
    _, greedy = oracle_assignment(session, ref, "greedy", starts=starts)
    assert bound <= exact.errors <= greedy.errors
    options = st.none() | st.integers(0, len(refs) - 1)
    start = data.draw(st.lists(options, min_size=len(segments), max_size=len(segments)))
    free = costs.argmin(axis=1).tolist()
    mapped = [choice if s is None else s for s, choice in zip(start, free)]
    # min keeps the first of equal costs: the free-end-gap start wins ties
    chosen = min((free, mapped), key=lambda x: oracle._diagonal_cost(segments, refs, x))
    assert _greedy_search(segments, refs, costs, start) == oracle._descend(segments, refs, chosen)


def test_greedy_relabels_through_a_cheaper_cpwer_pairing():
    # the free-end-gap start puts "b" on "c c" and "b c" on "c": 3 errors and
    # no single move helps, but swapping the two clusters costs 2; the search
    # relabels through the cpWER pairing and descends again
    session = make_session(["b", "b c"])
    ref = ReferenceTranscript(
        session_id="s", per_speaker={"A": (), "B": ("c",), "C": ("c", "c")}
    )
    segments, refs = stream_inputs(session, ref)
    assert _greedy_search(segments, refs, _free_end_gap_costs(segments, refs)) == (3, [2, 1])
    assignment, report = oracle_assignment(session, ref, "greedy")
    assert assignment.labels == (1, 2)
    assert report.errors == 2
    assert report.mapping == {"A": "A", "B": "B", "C": "C"}


def test_oracle_starts_need_one_speaker_per_segment():
    session = make_session(["a", "b"])
    ref = ReferenceTranscript(session_id="s", per_speaker={"A": ("a", "b")})
    report = cpwer_from_segments(ref, session, LabelAssignment("s", (0, 0)))
    with pytest.raises(ValueError, match="one speaker per segment"):
        oracle_assignment(session, ref, "greedy", starts=[(["spk0"], report)])


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
    with pytest.raises(ValueError, match="lower bound"):
        relative_confusion_error(4.0, 5.0, 5.0)
    with pytest.raises(ValueError, match="lower bound"):
        relative_confusion_error(6.0, 4.0, 5.0)
    with pytest.raises(ValueError):
        relative_confusion_error(-1.0, 0.0, 0.0)


def test_free_end_gap_cost_matches_window_enumeration():
    # free-end-gap alignment equals the best full alignment against any
    # contiguous window of the text
    from slrkit.metrics import edit_distance

    rng = np.random.default_rng(3)
    vocab = [f"w{i}" for i in range(5)]
    for _ in range(80):
        pattern = tuple(rng.choice(vocab, size=int(rng.integers(0, 6))))
        text = tuple(rng.choice(vocab, size=int(rng.integers(0, 10))))
        fast = _free_end_gap_costs([pattern], [text])[0, 0]
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
    cases = [stream_inputs(session, ref) for session, ref in sessions]
    cases.append(stream_inputs(*generate_session(spec, session_seed(11, 12))[:2]))
    # lanes of 3, 6, 0, 12 and 1 words start at bits 0, 4, 11, 12 and 25, so
    # most lane offsets fall inside a byte, and the segments hold words that
    # no reference contains
    refs = ("a b c", "c a a b d b", "", "d d a b c a b e c a d b", "e")
    segments = ("x", "a y b", "", "c a a b d b q", "z z z z", "e e", "b c a d")
    cases.insert(0, ([tuple(s.split()) for s in segments], [tuple(r.split()) for r in refs]))
    empty = unequal = unaligned = unknown = 0
    for segments, refs in cases:
        expected = [
            [min(reference_table(words, r, free_start=True)[-1]) for r in refs]
            for words in segments
        ]
        assert _free_end_gap_costs(segments, refs).tolist() == expected
        empty += any(not words for words in segments)
        unequal += len({len(r) for r in refs}) > 1
        offsets = np.cumsum([0] + [len(r) + 1 for r in refs[:-1]])
        unaligned += any(offset % 8 for offset in offsets)
        vocabulary = set().union(*refs)
        unknown += any(word not in vocabulary for words in segments for word in words)
    assert empty >= 6 and unequal >= 6 and unaligned >= 6 and unknown >= 1
    assert max(len(r) for r in cases[-1][1]) >= 1000


def test_exact_search_matches_plain_enumeration():
    # independent oracle: enumerate every assignment, build the streams, and
    # score them with the full edit-distance path
    import itertools

    from slrkit.metrics import edit_distance

    rng = np.random.default_rng(4)
    for _ in range(15):
        session, ref, _ = random_fixture(rng, max_segments=6, max_speakers=3)
        _, report = oracle_assignment(session, ref, "exact")

        names = list(ref.per_speaker)
        best = None
        for assignment in itertools.product(
            range(len(names)), repeat=len(session.segments)
        ):
            streams = {name: [] for name in names}
            for label, seg in zip(assignment, session.segments):
                streams[names[label]].extend(seg.words)
            total = sum(
                edit_distance(ref.per_speaker[name], streams[name]).total
                for name in names
            )
            best = total if best is None else min(best, total)
        assert report.errors == best


@settings(max_examples=200, deadline=None, derandomize=True)
@given(scored_starts(max_segments=6))
def test_exact_oracle_is_the_first_brute_force_minimizer(inputs):
    # the exact search starts from the greedy cost, so it is checked against
    # every labeling, enumerated in lexicographic order; a vocabulary of 1-3
    # words makes ties common.  The caller's starts change only that first
    # cost, never the result.
    session, ref, starts = inputs
    segments, refs = stream_inputs(session, ref)
    costs = []
    for labels in itertools.product(range(len(refs)), repeat=len(segments)):
        streams = [[] for _ in refs]
        for words, label in zip(segments, labels):
            streams[label].extend(words)
        costs.append((sum(map(token_distance, refs, streams)), labels))
    best = min(cost for cost, _ in costs)
    first = next(labels for cost, labels in costs if cost == best)
    assignment, report = oracle_assignment(session, ref, "exact")
    assert (report.errors, assignment.labels) == (best, first)
    assert oracle_assignment(session, ref, "exact", starts=starts) == (assignment, report)


def test_exact_oracle_fails_loudly_on_a_wrong_greedy_cost(monkeypatch):
    # a greedy cost below the optimum leaves the branch and bound without a
    # labeling; the oracle must raise rather than return another one
    session, ref, _ = random_fixture(np.random.default_rng(5), max_segments=6)
    _, report = oracle_assignment(session, ref, "exact")
    search = oracle._greedy_search
    monkeypatch.setattr(
        oracle, "_greedy_search", lambda *args: (report.errors - 1, search(*args)[1])
    )
    with pytest.raises(AssertionError, match="no labeling costs at most"):
        oracle_assignment(session, ref, "exact")


def test_oracle_builds_the_free_end_gap_table_once(monkeypatch):
    # the greedy search and the branch and bound share one S x k table
    calls = []
    table = oracle._free_end_gap_costs

    def spy(segments, refs, *packed):
        calls.append(len(segments))
        return table(segments, refs, *packed)

    monkeypatch.setattr(oracle, "_free_end_gap_costs", spy)
    rng = np.random.default_rng(6)
    for _ in range(5):
        session, ref, truth = random_fixture(rng, max_segments=6)
        speakers = [f"spk{c}" for c in truth.labels]
        starts = [(speakers, cpwer_from_segments(ref, session, truth))]
        for mode in ("exact", "greedy"):
            calls.clear()
            oracle_assignment(session, ref, mode, starts=starts)
            assert calls == [len(session.segments)], mode


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


def full_stream_greedy(segments, refs, moves=None, start=None):
    """Descent that re-aligns each candidate cluster stream from its first word.

    Same objective (reference ``c`` against cluster ``c``), start rule, move
    order and tie-breaks as ``_greedy_search``.  ``moves``, when given,
    receives ``(empties_source, into_empty)`` per applied move.
    """
    k = len(refs)
    masks = [_match_masks(ref) for ref in refs]
    cache = {}

    def distance(c, members):
        key = (c, tuple(sorted(members)))
        if key not in cache:
            stream = itertools.chain.from_iterable(segments[i] for i in key[1])
            cache[key] = _advance(masks[c], len(refs[c]), stream).score
        return cache[key]

    def total(labels):
        return sum(
            distance(c, [i for i, label in enumerate(labels) if label == c])
            for c in range(k)
        )

    labels = [
        int(np.argmin([_free_end_gap_costs([words], [ref])[0, 0] for ref in refs]))
        for words in segments
    ]
    if start is not None:
        mapped = [free if s is None else s for s, free in zip(start, labels)]
        if total(mapped) < total(labels):
            labels = mapped
    members = [[i for i, label in enumerate(labels) if label == c] for c in range(k)]

    while True:
        best_delta, best_move = 0, None
        for i in range(len(segments)):
            a = labels[i]
            removed = distance(a, [m for m in members[a] if m != i]) - distance(a, members[a])
            for b in range(k):
                if b == a:
                    continue
                delta = removed + distance(b, members[b] + [i]) - distance(b, members[b])
                if delta < best_delta:
                    best_delta, best_move = delta, (i, a, b)
        if best_move is None:
            break
        i, a, b = best_move
        if moves is not None:
            moves.append((len(members[a]) == 1, not members[b]))
        labels[i] = b
        members[a].remove(i)
        members[b] = sorted(members[b] + [i])
    return total(labels), labels


def stream_inputs(session, ref):
    segments = [seg.words for seg in session.segments]
    return segments, [tuple(words) for words in ref.per_speaker.values()]


def greedy_cases():
    """36 seeded sessions of 1-6 speakers, then two hand-made ones, each with a start.

    A seeded session's start is its true labeling with every third segment
    left to the free-end-gap choice.  The first hand-made session's first
    move takes a cluster's only segment into a cluster the initialization
    left empty, and its second move fills the emptied one; the second
    reaches 0 errors through moves into a cluster the initialization left
    empty.
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
        session, ref, truth = generate_session(spec, int(rng.integers(2**32)))
        start = [
            None if i % 3 == 0 else label for i, label in enumerate(truth.labels)
        ]
        yield (*stream_inputs(session, ref), start)
    for segments, refs, start in (
        (["a b", "a", "a"], ["b", "b b", "a"], [1, None, 2]),
        (["a", "a", "a"], ["a", "a a"], [None, 1, 0]),
    ):
        yield [tuple(s.split()) for s in segments], [tuple(r.split()) for r in refs], start


def test_greedy_search_matches_full_stream_reference():
    speaker_counts = set()
    unequal_lengths = emptied = into_empty = zero_after_moves = 0
    start_changed = start_kept = 0
    for segments, refs, case_start in greedy_cases():
        results = []
        costs = _free_end_gap_costs(segments, refs)
        for start in (None, case_start):
            moves = []
            expected = full_stream_greedy(segments, refs, moves, start)
            assert _greedy_search(segments, refs, costs, start) == expected, (segments, refs, start)
            results.append(expected)
            emptied += any(source for source, _ in moves)
            into_empty += any(target for _, target in moves)
            zero_after_moves += expected[0] == 0 and bool(moves)
        speaker_counts.add(len(refs))
        unequal_lengths += len({len(ref) for ref in refs}) > 1
        assert results[1][0] <= results[0][0]
        start_changed += results[1] != results[0]
        start_kept += results[1] == results[0]
    # the corpus exercises every case the boundary state has to get right,
    # and starts that win and starts that lose
    assert speaker_counts == {1, 2, 3, 4, 5, 6}
    assert unequal_lengths >= 20
    assert emptied and into_empty and zero_after_moves
    assert start_changed >= 5 and start_kept >= 5


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
    # 120 segments of 15-35 words over 4 references of up to about 800 words.
    # Refreshing one cluster's insertion column inserts each of about 90
    # segments outside it; decoded at once, those columns would hold about
    # 0.6 MB per int64 array, four blocks and more.  Decoded DECODE_BLOCK
    # values at a time, the traced peak stays within three copies of the
    # session's boundary rows (prefix, suffix and removal rows of every
    # boundary, each against its own cluster's reference only) plus a few
    # blocks, the initialization within a few blocks alone, and errors and
    # labels do not depend on the block size.
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
    costs = _free_end_gap_costs(segments, refs)
    expected = _greedy_search(segments, refs, costs)
    k, width = len(refs), max(len(r) for r in refs)
    monkeypatch.setattr(oracle, "DECODE_BLOCK", 1 << 14)
    assert 4 * oracle.DECODE_BLOCK < (len(segments) - len(segments) // k) * (width + 1)
    tracemalloc.start()
    try:
        assert (_free_end_gap_costs(segments, refs) == costs).all()
        setup_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        assert _greedy_search(segments, refs, costs) == expected
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    blocks = 4 * 8 * oracle.DECODE_BLOCK + (1 << 20)
    assert setup_peak < blocks
    assert peak < 3 * (len(segments) + k) * (width + 1) * 8 + blocks


def workload_sessions(name, speakers, segments, sigmas, **spec):
    """Sessions of the benchmark workload ``name`` at seed 1, one per speaker count.

    40 % of the segments are long (8-15 s), the rest short (0.5-1.9 s);
    ``sigmas`` are their embedding noise.
    """
    long_count = round(0.4 * segments)
    buckets = (
        DurationBucket(long_count, 8.0, 15.0, sigmas[0]),
        DurationBucket(segments - long_count, 0.5, 1.9, sigmas[1]),
    )
    return [
        generate_session(
            SynthSpec(
                num_speakers=k,
                buckets=buckets,
                confusion=0.3,
                noise_correlation=0.9,
                shared_vocabulary=True,
                **spec,
            ),
            session_seed(1, i),
            session_id=f"{name}{i}",
        )
        for i, k in enumerate(speakers)
    ]


def test_greedy_start_cost_from_report_is_its_diagonal_cost(monkeypatch):
    # when every segment of the cheapest start maps to a reference speaker,
    # the oracle passes that start's cpWER errors as its diagonal cost
    # instead of aligning it again; they must be equal
    from slrkit.affinity import AttenuationConfig
    from slrkit.pipeline import PipelineConfig, reassign, run_report

    passed = []
    search = oracle._greedy_search

    def spy(segments, refs, costs, start=None, start_cost=None):
        if start_cost is not None:
            assert None not in start
            passed.append((start_cost, oracle._diagonal_cost(segments, refs, start)))
        return search(segments, refs, costs, start, start_cost)

    monkeypatch.setattr(oracle, "_greedy_search", spy)
    evaluate = workload_sessions(
        "evaluate", (4,), 40, (0.3, 1.0),
        dim=192, words_per_segment=(90, 110), corruption=0.1, vocab_size=300,
    )
    cfg = PipelineConfig(attenuation=AttenuationConfig(mode="stepwise", alpha=0.25))
    for session, ref, _ in evaluate:
        reassign(session, ref, cfg, seed=session_seed(1, 0))
    sweep = workload_sessions(
        "sweep", (4, 6, 4, 6), 45, (0.05, 0.5),
        dim=8, min_angle_deg=50.0, words_per_segment=(2, 4), corruption=0.3,
        vocab_size=15,
    )
    run_report(
        [s for s, _, _ in sweep], [r for _, r, _ in sweep],
        (0.0, 0.1, 0.25, 1.0), (1.0, 2.0, 4.0, 8.0, 16.0), 1,
    )
    # every one of the five oracle calls starts from a fully mapped labeling
    assert len(passed) == 5
    assert all(given == diagonal for given, diagonal in passed), passed


def test_greedy_oracle_stops_at_the_bound_on_the_evaluate_workload(monkeypatch):
    # the free-end-gap bound is reached on the evaluate workload, so its
    # oracle is proved optimal without a single descent round
    from slrkit.affinity import AttenuationConfig
    from slrkit.pipeline import PipelineConfig, reassign

    calls = []
    descend = oracle._descend

    def spy(*args):
        calls.append(args)
        return descend(*args)

    monkeypatch.setattr(oracle, "_descend", spy)
    ((session, ref, _),) = workload_sessions(
        "evaluate", (4,), 40, (0.3, 1.0),
        dim=192, words_per_segment=(90, 110), corruption=0.1, vocab_size=300,
    )
    cfg = PipelineConfig(attenuation=AttenuationConfig(mode="stepwise", alpha=0.25))
    _, report = reassign(session, ref, cfg, seed=session_seed(1, 0))
    segments, refs = stream_inputs(session, ref)
    bound = _free_end_gap_costs(segments, refs).min(axis=1).sum()
    assert report.cpwer_oracle.errors == bound
    assert calls == []


def certified_tie_fixture():
    """Three segments whose labelings (0, 0, 1) and (0, 1, 1) both cost B = 1.

    The first is the free-end-gap start; the second is scored here as a
    caller's start, under the names ``spk0`` and ``spk1``.
    """
    session = make_session(["a", "b", "a a"])
    ref = ReferenceTranscript(session_id="s", per_speaker={"A": ("a",), "B": ("a", "a")})
    known = cpwer_from_segments(ref, session, LabelAssignment(session_id="s", labels=(0, 1, 1)))
    return session, ref, [(["spk0", "spk1", "spk1"], known)]


def test_greedy_returns_a_caller_start_that_costs_the_bound(monkeypatch):
    # the caller's start is returned before the free-end-gap start is
    # aligned, and its report is the caller's, renamed: nothing is aligned
    session, ref, starts = certified_tie_fixture()
    segments, refs = stream_inputs(session, ref)
    costs = _free_end_gap_costs(segments, refs)
    assert costs.argmin(axis=1).tolist() == [0, 0, 1]
    assert oracle._diagonal_cost(segments, refs, [0, 0, 1]) == costs.min(axis=1).sum() == 1
    (_, known), = starts
    assert (known.errors, known.mapping) == (1, {"spk0": "A", "spk1": "B"})

    def fail(*args, **kwargs):
        raise AssertionError("the certified start was aligned again")

    monkeypatch.setattr(oracle, "_diagonal_cost", fail)
    monkeypatch.setattr(oracle, "cpwer_from_segments", fail)
    assignment, report = oracle_assignment(session, ref, "greedy", starts=starts)
    monkeypatch.undo()

    assert assignment.labels == (0, 1, 1)
    check = brute_force_cpwer(
        ref, assignment_streams(session, assignment, label_names=["A", "B"])
    )
    assert (report.errors, report.ref_words, report.cpwer) == (
        check.errors, check.ref_words, check.cpwer
    )
    assert report.mapping == {"A": "A", "B": "B"}


def test_exact_oracle_given_a_certified_start_keeps_the_smallest_minimizer():
    session, ref, starts = certified_tie_fixture()
    segments, refs = stream_inputs(session, ref)
    costs = []
    for labels in itertools.product(range(len(refs)), repeat=len(segments)):
        costs.append((oracle._diagonal_cost(segments, refs, list(labels)), labels))
    best = min(cost for cost, _ in costs)
    first = next(labels for cost, labels in costs if cost == best)
    assert (best, first) == (1, (0, 0, 1))
    assignment, report = oracle_assignment(session, ref, "exact", starts=starts)
    assert (report.errors, assignment.labels) == (best, first)
    assert oracle_assignment(session, ref, "exact") == (assignment, report)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(scored_starts())
def test_greedy_report_scores_its_labels(inputs):
    # whichever path the greedy oracle takes, its report is the cpWER of its
    # labels; where it returns the caller's start, the report is the
    # caller's with the identity mapping
    session, ref, starts = inputs
    ref_labels = list(ref.per_speaker)
    assignment, report = oracle_assignment(session, ref, "greedy", starts=starts)
    streams = assignment_streams(session, assignment, label_names=ref_labels)
    check = cpwer(ref, streams)
    assert (report.errors, report.ref_words, report.cpwer) == (
        check.errors, check.ref_words, check.cpwer
    )
    speakers, known = min(starts, key=lambda s: s[1].errors)
    start = [known.mapping.get(speaker) for speaker in speakers]
    if None not in start and [ref_labels[c] for c in assignment.labels] == start:
        assert report.errors == known.errors
        assert report.mapping == {label: label for label in ref_labels}


def test_oracle_command_prints_the_hungarian_mapping_of_a_tie(tmp_path, capsys):
    # "a" and "b" against two references "a": the greedy labeling (1, 0)
    # costs B = 1, and both of its cpWER pairings cost 1.  `slrkit oracle`
    # passes no start, so it prints the Hungarian pairing, not the identity.
    session = make_session(["a", "b"])
    ref = ReferenceTranscript(session_id="s", per_speaker={"A": ("a",), "B": ("a",)})
    segments, references = tmp_path / "segments.jsonl", tmp_path / "reference.jsonl"
    with open(segments, "w", encoding="utf-8") as fh:
        corpus.write_segments(session, fh)
    with open(references, "w", encoding="utf-8") as fh:
        corpus.write_reference(ref, fh)
    printed = {}
    for mode in ("greedy", "exact"):
        argv = [
            "oracle", "--segments", str(segments), "--reference", str(references),
            "--mode", mode, "--out", str(tmp_path / f"{mode}.jsonl"),
        ]
        assert cli.main(argv) == 0
        printed[mode] = capsys.readouterr().out
    assert printed["greedy"] == (
        '{"session_id": "s", "cpwer": 0.5, "errors": 1, "ref_words": 2, '
        '"mapping": {"B": "A", "A": "B"}}\n'
    )
    greedy = corpus.parse_segments(tmp_path / "greedy.jsonl")[0]
    assert [seg.initial_speaker for seg in greedy.segments] == ["B", "A"]
    assert printed["exact"] == (
        '{"session_id": "s", "cpwer": 0.5, "errors": 1, "ref_words": 2, '
        '"mapping": {"A": "A", "B": "B"}}\n'
    )


def test_evaluate_session_packs_its_references_once_and_aligns_no_oracle_stream(
    monkeypatch,
):
    # the caller's best start costs B on the evaluate workload: the oracle
    # neither aligns the free-end-gap start nor scores its result again, and
    # the session's cost matrices and free-end-gap table share one packing
    from slrkit import metrics
    from slrkit.affinity import AttenuationConfig
    from slrkit.pipeline import PipelineConfig, reassign

    ((session, ref, _),) = workload_sessions(
        "evaluate", (4,), 40, (0.3, 1.0),
        dim=192, words_per_segment=(90, 110), corruption=0.1, vocab_size=300,
    )
    packings = []
    pack = metrics._packed_masks

    def counted(patterns):
        packings.append(1)
        return pack(patterns)

    def fail(*args, **kwargs):
        raise AssertionError("the oracle aligned a stream it already knows")

    monkeypatch.setattr(metrics, "_packed_masks", counted)
    monkeypatch.setattr(oracle, "_packed_masks", counted)
    monkeypatch.setattr(oracle, "_diagonal_cost", fail)
    monkeypatch.setattr(oracle, "cpwer_from_segments", fail)
    cfg = PipelineConfig(attenuation=AttenuationConfig(mode="stepwise", alpha=0.25))
    _, report = reassign(session, ref, cfg, seed=session_seed(1, 0))
    assert len(packings) == 1
    assert report.oracle_mode == "greedy"
    assert report.cpwer_oracle.mapping == {label: label for label in ref.per_speaker}
