"""Edit distance, cpWER, and the Hungarian-vs-brute-force equivalence.

The bit-parallel alignment kernel is checked against a plain O(mn) dynamic
program kept here, outside the package, so that ``brute_force_cpwer`` and the
exact oracle, which share the kernel, are not the only check on it.
"""

import json

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from slrkit.corpus import (
    LabelAssignment,
    ReferenceTranscript,
    Segment,
    SessionHypothesis,
    parse_segments,
)
from slrkit.metrics import (
    _Column,
    _advance,
    _column_values,
    _cost_matrix,
    _match_masks,
    assignment_streams,
    brute_force_cpwer,
    cpwer,
    cpwer_from_segments,
    edit_distance,
    token_distance,
)
from slrkit.oracle import _free_end_gap_costs


def toks(text):
    return tuple(text.split())


def reference_table(ref, hyp, free_start=False):
    """Full Levenshtein table; row i is ref[:i], column j is hyp[:j].

    With ``free_start`` row 0 stays 0, so ``ref`` may start anywhere in ``hyp``.
    """
    m, n = len(ref), len(hyp)
    dp = [[0] * (n + 1) for _ in range(m + 1)]
    for i in range(m + 1):
        dp[i][0] = i
    if not free_start:
        dp[0] = list(range(n + 1))
    for i in range(1, m + 1):
        prev, cur, ref_word = dp[i - 1], dp[i], ref[i - 1]
        for j in range(1, n + 1):
            cur[j] = min(
                prev[j - 1] + (ref_word != hyp[j - 1]), prev[j] + 1, cur[j - 1] + 1
            )
    return dp


def reference_counts(ref, hyp):
    """(S, D, I) by backtrace, preferring substitution, then insertion, then deletion."""
    dp = reference_table(ref, hyp)
    subs = dels = ins = 0
    i, j = len(ref), len(hyp)
    while i > 0 or j > 0:
        here = dp[i][j]
        if i > 0 and j > 0 and dp[i - 1][j - 1] + (ref[i - 1] != hyp[j - 1]) == here:
            subs += ref[i - 1] != hyp[j - 1]
            i -= 1
            j -= 1
        elif j > 0 and dp[i][j - 1] + 1 == here:
            ins += 1
            j -= 1
        else:
            dels += 1
            i -= 1
    return subs, dels, ins


def random_pairs(seed, count, max_len, vocab_sizes=(1, 2, 3, 4, 5)):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        vocab = [f"w{i}" for i in range(int(rng.choice(vocab_sizes)))]
        ref = tuple(rng.choice(vocab, size=int(rng.integers(0, max_len + 1))))
        hyp = tuple(rng.choice(vocab, size=int(rng.integers(0, max_len + 1))))
        yield ref, hyp


def assert_kernel_matches_reference(ref, hyp):
    dp = reference_table(ref, hyp)
    assert token_distance(ref, hyp) == dp[-1][-1], (ref, hyp)
    counts = edit_distance(ref, hyp)
    assert counts.total == dp[-1][-1]
    sdi = (counts.substitutions, counts.deletions, counts.insertions)
    assert sdi == reference_counts(ref, hyp), (ref, hyp)
    assert _free_end_gap_costs([ref], [hyp])[0, 0] == min(
        reference_table(ref, hyp, free_start=True)[-1]
    ), (ref, hyp)


def test_kernel_matches_reference_short_pairs():
    # small vocabularies give many tied alignments; empty sides included
    for ref, hyp in random_pairs(10, 1500, 40):
        assert_kernel_matches_reference(ref, hyp)
    for ref in ((), ("a",), ("a", "b", "a")):
        for hyp in ((), ("a",), ("b", "b")):
            assert_kernel_matches_reference(ref, hyp)


def test_kernel_matches_reference_multiword_pairs():
    # longer than one 64-bit word, so the column spans several machine words
    for ref, hyp in random_pairs(11, 60, 200):
        assert_kernel_matches_reference(ref, hyp)
    for ref, hyp in random_pairs(12, 20, 200, vocab_sizes=(300,)):
        assert_kernel_matches_reference(ref, hyp)


def test_kernel_matches_reference_meeting_length_pairs():
    rng = np.random.default_rng(13)
    for vocab_size in (2, 300):
        vocab = [f"w{i}" for i in range(vocab_size)]
        ref = tuple(rng.choice(vocab, size=1000))
        hyp = list(ref)
        for _ in range(150):  # a corrupted copy, as a recognizer's output would be
            op = int(rng.integers(3))
            pos = int(rng.integers(len(hyp)))
            if op == 0:
                hyp[pos] = str(rng.choice(vocab))
            elif op == 1:
                del hyp[pos]
            else:
                hyp.insert(pos, str(rng.choice(vocab)))
        assert_kernel_matches_reference(ref, tuple(hyp))


@st.composite
def patterns_and_text(draw):
    """1-3 patterns and one text over a vocabulary of 1-5 words, each 0-40 long."""
    vocab = "abcde"[: draw(st.integers(1, 5))]
    words = st.lists(st.sampled_from(vocab), max_size=40).map(tuple)
    return draw(st.lists(words, min_size=1, max_size=3)), draw(words)


def prefix_values(patterns, text):
    columns = [_advance(_match_masks(p), len(p), text) for p in patterns]
    return _column_values(columns, max(len(p) for p in patterns))


SUFFIX_SENTINEL = 1 << 40


def suffix_values(patterns, text):
    """Row ``r``, entry ``j``: D(patterns[r][j:], text), and a sentinel past the pattern.

    Each pattern's backward column is decoded in the prefix layout and its row
    reversed, as the greedy oracle reads suffix distances.
    """
    width = max(len(p) for p in patterns)
    values = np.full((len(patterns), width + 1), SUFFIX_SENTINEL)
    for row, p in zip(values, patterns):
        column = _advance(_match_masks(p[::-1]), len(p), text[::-1])
        row[: len(p) + 1] = _column_values([column], len(p))[0, ::-1]
    return values


@settings(max_examples=300, deadline=None, derandomize=True)
@given(patterns_and_text())
def test_column_values_match_reference_table(inputs):
    patterns, text = inputs
    width = max(len(p) for p in patterns)
    rows = zip(patterns, prefix_values(patterns, text), suffix_values(patterns, text))
    for pattern, prefix, suffix in rows:
        m = len(pattern)
        column = [row[-1] for row in reference_table(pattern, text)]
        assert prefix.tolist() == column + [column[-1]] * (width - m)
        # row j of the reversed table is the distance of pattern[m - j:]
        backward = [row[-1] for row in reference_table(pattern[::-1], text[::-1])]
        assert suffix[: m + 1].tolist() == backward[::-1]
        assert (suffix[m + 1 :] == SUFFIX_SENTINEL).all()


@settings(max_examples=300, deadline=None, derandomize=True)
@given(patterns_and_text())
def test_prefix_and_suffix_values_split_the_distance(inputs):
    # D(p, X + Y) = min_j D(p[:j], X) + D(p[j:], Y) at every split of the text
    patterns, text = inputs
    whole = [token_distance(p, text) for p in patterns]
    for split in range(len(text) + 1):
        prefix = prefix_values(patterns, text[:split])
        suffix = suffix_values(patterns, text[split:])
        assert (prefix + suffix).min(axis=1).tolist() == whole


def final_column(pattern, text, first):
    """Last DP column over pattern rows 0..m after ``text``, from column ``first``.

    Row 0 grows by one per word, as in the kernel.
    """
    column = list(first)
    for word in text:
        step = [column[0] + 1]
        for i, token in enumerate(pattern, 1):
            step.append(
                min(column[i - 1] + (token != word), column[i] + 1, step[i - 1] + 1)
            )
        column = step
    return column


@settings(max_examples=300, deadline=None, derandomize=True)
@given(patterns_and_text())
def test_kernel_score_matches_plain_table_from_each_start(inputs):
    # the score is read from popcounts at exit, so check it from the default
    # start, from a column carried over half the text, and from the all-zero
    # free-start column
    patterns, text = inputs
    half = len(text) // 2
    for pattern in patterns:
        m, masks = len(pattern), _match_masks(pattern)
        expected = final_column(pattern, text, range(m + 1))
        assert _advance(masks, m, text).score == expected[-1]
        carried = _advance(masks, m, text[:half])
        assert carried.score == final_column(pattern, text[:half], range(m + 1))[-1]
        assert _advance(masks, m, text[half:], carried).score == expected[-1]
        free = final_column(pattern, text, [0] * (m + 1))
        column = _advance(masks, m, text, _Column(0, 0, 0))
        assert column.score == free[-1]
        values = _column_values([column], m)[0]
        assert values.tolist() == free
        assert values.min() == min(free)


def test_edit_distance_equal_sequences():
    counts = edit_distance(toks("a b c"), toks("a b c"))
    assert (counts.substitutions, counts.deletions, counts.insertions) == (0, 0, 0)
    assert counts.total == 0
    assert counts.ref_len == 3


def test_edit_distance_single_substitution():
    counts = edit_distance(toks("a b c"), toks("a x c"))
    assert (counts.substitutions, counts.deletions, counts.insertions) == (1, 0, 0)


def test_edit_distance_all_deletions_and_insertions():
    counts = edit_distance(toks("a b c"), ())
    assert (counts.substitutions, counts.deletions, counts.insertions) == (0, 3, 0)
    counts = edit_distance((), toks("a b"))
    assert (counts.substitutions, counts.deletions, counts.insertions) == (0, 0, 2)


def test_edit_distance_prefers_substitution_on_ties():
    # "a" -> "b" could be del+ins (cost 2) but sub (cost 1) is minimal; with a
    # genuine tie the backtrace must pick substitution
    counts = edit_distance(toks("a"), toks("b"))
    assert (counts.substitutions, counts.deletions, counts.insertions) == (1, 0, 0)


def test_edit_distance_decomposition_sums_to_total():
    rng = np.random.default_rng(0)
    vocab = [f"w{i}" for i in range(6)]
    for _ in range(100):
        ref = tuple(rng.choice(vocab, size=rng.integers(0, 12)))
        hyp = tuple(rng.choice(vocab, size=rng.integers(0, 12)))
        counts = edit_distance(ref, hyp)
        assert counts.total == token_distance(ref, hyp)
        assert counts.substitutions + counts.deletions <= len(ref)


def test_edit_distance_swap_symmetry():
    rng = np.random.default_rng(1)
    vocab = [f"w{i}" for i in range(5)]
    for _ in range(50):
        ref = tuple(rng.choice(vocab, size=rng.integers(0, 10)))
        hyp = tuple(rng.choice(vocab, size=rng.integers(0, 10)))
        forward = edit_distance(ref, hyp)
        backward = edit_distance(hyp, ref)
        assert forward.total == backward.total
        assert forward.deletions == backward.insertions
        assert forward.insertions == backward.deletions


def test_cpwer_perfect_crossed_match():
    report = cpwer(
        {"A": toks("hello world"), "B": toks("good day")},
        {"1": toks("good day"), "2": toks("hello world")},
    )
    assert report.cpwer == 0.0
    assert report.mapping == {"1": "B", "2": "A"}
    assert report.errors == 0


def test_cpwer_one_substitution():
    report = cpwer(
        {"A": toks("a b"), "B": toks("c d")},
        {"1": toks("a b"), "2": toks("c x")},
    )
    assert report.cpwer == 0.25
    assert report.errors == 1
    assert report.ref_words == 4
    # independent check over both pairings
    assert brute_force_cpwer(
        {"A": toks("a b"), "B": toks("c d")},
        {"1": toks("a b"), "2": toks("c x")},
    ).cpwer == 0.25


def test_cpwer_padding_with_dummy_speaker():
    ref = {"A": toks("a b c d")}
    hyp = {"1": toks("a b"), "2": toks("c d")}
    report = cpwer(ref, hyp)
    assert report.cpwer == brute_force_cpwer(ref, hyp).cpwer == 1.0
    assert sorted(report.mapping.values(), key=str) == ["A", None] or sorted(
        report.mapping.values(), key=lambda v: (v is None, v)
    ) == ["A", None]
    unmatched = [h for h, r in report.mapping.items() if r is None]
    assert len(unmatched) == 1


def test_cpwer_reference_with_no_words_rejected():
    with pytest.raises(ValueError, match="no words|no.*words|undefined"):
        cpwer({"A": ()}, {"1": toks("a")})


def test_cpwer_identical_maps_zero():
    ref = {"A": toks("x y z"), "B": toks("p q")}
    assert cpwer(ref, ref).cpwer == 0.0
    assert brute_force_cpwer(ref, ref).cpwer == 0.0


def test_cpwer_relabeling_invariance():
    rng = np.random.default_rng(2)
    vocab = [f"w{i}" for i in range(8)]
    for _ in range(20):
        ref = {
            f"r{i}": tuple(rng.choice(vocab, size=rng.integers(1, 8)))
            for i in range(int(rng.integers(1, 4)))
        }
        hyp = {
            f"h{i}": tuple(rng.choice(vocab, size=rng.integers(0, 8)))
            for i in range(int(rng.integers(1, 4)))
        }
        base = cpwer(ref, hyp)
        renamed = {f"z{i}": words for i, words in enumerate(hyp.values())}
        assert cpwer(ref, renamed).cpwer == base.cpwer


def test_cpwer_extra_wrong_speaker_never_helps():
    rng = np.random.default_rng(3)
    vocab = [f"w{i}" for i in range(8)]
    for trial in range(20):
        ref = {
            f"r{i}": tuple(rng.choice(vocab, size=rng.integers(1, 6)))
            for i in range(int(rng.integers(1, 4)))
        }
        hyp = {
            f"h{i}": tuple(rng.choice(vocab, size=rng.integers(0, 6)))
            for i in range(int(rng.integers(1, 3)))
        }
        base = cpwer(ref, hyp)
        extended = dict(hyp)
        extended["junk"] = tuple(f"zzz{trial}_{j}" for j in range(3))
        assert cpwer(ref, extended).cpwer >= base.cpwer


def test_hungarian_equals_brute_force_random():
    # exact agreement for every padded size the brute force accepts
    rng = np.random.default_rng(4)
    vocab = [f"w{i}" for i in range(10)]
    for _ in range(200):
        n_ref = int(rng.integers(1, 9))
        n_hyp = int(rng.integers(1, 9))
        ref = {
            f"r{i}": tuple(rng.choice(vocab, size=rng.integers(1, 7)))
            for i in range(n_ref)
        }
        hyp = {
            f"h{i}": tuple(rng.choice(vocab, size=rng.integers(0, 7)))
            for i in range(n_hyp)
        }
        fast = cpwer(ref, hyp)
        slow = brute_force_cpwer(ref, hyp)
        assert fast.errors == slow.errors
        assert fast.cpwer == slow.cpwer


speaker_streams = st.dictionaries(
    keys=st.text(alphabet="pqrs", min_size=1, max_size=2),
    values=st.lists(st.sampled_from("abcd"), max_size=8).map(tuple),
    min_size=1,
    max_size=5,
)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(ref=speaker_streams, hyp=speaker_streams, data=st.data())
def test_cpwer_invariant_under_hypothesis_relabeling(ref, hyp, data):
    assume(any(ref.values()))
    names = data.draw(st.permutations([f"z{i}" for i in range(len(hyp))]))
    relabeled = dict(zip(names, hyp.values()))
    base = cpwer(ref, hyp)
    again = cpwer(ref, relabeled)
    assert (again.errors, again.cpwer) == (base.errors, base.cpwer)
    assert sorted(map(str, again.mapping.values())) == sorted(
        map(str, base.mapping.values())
    )


@settings(max_examples=150, deadline=None, derandomize=True)
@given(ref=speaker_streams, hyp=speaker_streams)
def test_hungarian_equals_brute_force_property(ref, hyp):
    assume(any(ref.values()))
    assert cpwer(ref, hyp).errors == brute_force_cpwer(ref, hyp).errors


@st.composite
def speaker_maps(draw):
    """Reference and hypothesis maps of 1-6 speakers each over a 1-3 word vocabulary.

    Streams hold 0-200 words, so packed lanes straddle 64-bit boundaries.
    """
    vocab = "abc"[: draw(st.integers(1, 3))]

    def streams(prefix):
        count = draw(st.integers(1, 6))
        lengths = [
            draw(st.sampled_from((0, 1, 5, 63, 64, 65, 130, 200))) for _ in range(count)
        ]
        return {
            f"{prefix}{i}": tuple(
                draw(st.lists(st.sampled_from(vocab), min_size=n, max_size=n))
            )
            for i, n in enumerate(lengths)
        }

    return streams("r"), streams("h")


@settings(max_examples=100, deadline=None, derandomize=True)
@given(speaker_maps())
def test_packed_cost_matrix_matches_pairwise_distances(maps):
    ref, hyp = maps
    size = max(len(ref), len(hyp))
    ref_streams = list(ref.values()) + [()] * (size - len(ref))
    hyp_streams = list(hyp.values()) + [()] * (size - len(hyp))
    cost = _cost_matrix(ref_streams, hyp_streams)
    assert cost.shape == (max(len(ref), len(hyp)),) * 2
    for i, ref_words in enumerate(ref_streams):
        for j, hyp_words in enumerate(hyp_streams):
            assert cost[i, j] == token_distance(ref_words, hyp_words), (i, j)
    assume(any(ref.values()))
    assert cpwer(ref, hyp).errors == brute_force_cpwer(ref, hyp).errors


def eager_pairs(ref, hyp, report):
    """Breakdown of ``report``'s pairing, aligned here from its mapping."""
    pairs = {
        (r, h): edit_distance(ref[r] if r else (), hyp[h])
        for h, r in report.mapping.items()
    }
    paired = set(report.mapping.values())
    pairs.update({(r, None): edit_distance(ref[r], ()) for r in ref if r not in paired})
    return pairs


def test_lazy_breakdown_equals_eager_breakdown():
    rng = np.random.default_rng(5)
    vocab = [f"w{i}" for i in range(4)]
    for _ in range(100):
        ref = {
            f"r{i}": tuple(rng.choice(vocab, size=rng.integers(1, 30)))
            for i in range(int(rng.integers(1, 5)))
        }
        hyp = {
            f"h{i}": tuple(rng.choice(vocab, size=rng.integers(0, 30)))
            for i in range(int(rng.integers(1, 5)))
        }
        for score in (cpwer, brute_force_cpwer):
            report = score(ref, hyp)
            pairs = eager_pairs(ref, hyp, report)
            assert sum(c.total for c in pairs.values()) == report.errors


def test_brute_force_rejects_large_matrices():
    ref = {f"r{i}": ("a",) for i in range(9)}
    hyp = {f"h{i}": ("a",) for i in range(9)}
    with pytest.raises(ValueError, match="brute-force"):
        brute_force_cpwer(ref, hyp)


# (reference, hypothesis, {scorer: (errors, mapping items)}).
# The mapping order is output (``reassign --report``, ``cpwer --per-session``),
# so it is pinned along with the pairing that tie-breaking picks.
TIE_CASES = {
    "identical hypothesis streams": (
        {"A": toks("a b"), "B": toks("c"), "C": toks("a")},
        {"1": toks("a b"), "2": toks("a b"), "3": toks("a b")},
        {
            cpwer: (3, [("1", "A"), ("2", "B"), ("3", "C")]),
            brute_force_cpwer: (3, [("1", "A"), ("2", "B"), ("3", "C")]),
        },
    ),
    "empty hypothesis speaker": (
        {"A": toks("a b"), "B": toks("c")},
        {"1": (), "2": toks("a b c")},
        {
            cpwer: (2, [("2", "A"), ("1", "B")]),
            brute_force_cpwer: (2, [("2", "A"), ("1", "B")]),
        },
    ),
    "only empty hypothesis speakers": (
        {"A": toks("a"), "B": toks("b")},
        {"1": (), "2": ()},
        {
            cpwer: (2, [("1", "A"), ("2", "B")]),
            brute_force_cpwer: (2, [("1", "A"), ("2", "B")]),
        },
    ),
    "more hypothesis speakers": (
        {"A": toks("a b")},
        {"1": toks("a"), "2": toks("b"), "3": ()},
        {
            cpwer: (2, [("1", "A"), ("3", None), ("2", None)]),
            brute_force_cpwer: (2, [("1", "A"), ("2", None), ("3", None)]),
        },
    ),
    "more reference speakers": (
        {"A": toks("a"), "B": toks("a"), "C": toks("b")},
        {"2": toks("b"), "1": toks("a")},
        {
            cpwer: (1, [("1", "A"), ("2", "C")]),
            brute_force_cpwer: (1, [("1", "A"), ("2", "C")]),
        },
    ),
}


@pytest.mark.parametrize("case", TIE_CASES)
@pytest.mark.parametrize("score", [cpwer, brute_force_cpwer], ids=lambda f: f.__name__)
def test_cpwer_reports_on_ties_are_pinned(case, score):
    ref, hyp, expected = TIE_CASES[case]
    report = score(ref, hyp)
    assert (report.errors, list(report.mapping.items())) == expected[score]


def make_session(words_per_segment, speakers, starts=None, ids=None):
    n = len(words_per_segment)
    starts = starts or [float(i) for i in range(n)]
    ids = ids or [f"seg{i}" for i in range(n)]
    segments = tuple(
        Segment(
            session_id="s",
            segment_id=ids[i],
            start=starts[i],
            end=starts[i] + 0.5,
            initial_speaker=speakers[i],
            words=toks(words_per_segment[i]),
            embedding=np.array([1.0, float(i)]),
        )
        for i in range(n)
    )
    return SessionHypothesis(
        session_id="s", segments=segments, num_speakers=len(set(speakers))
    )


def test_cpwer_from_segments_perfect():
    session = make_session(["a b", "c d"], ["x", "y"])
    ref = ReferenceTranscript(
        session_id="s", per_speaker={"A": toks("a b"), "B": toks("c d")}
    )
    report = cpwer_from_segments(
        ref, session, LabelAssignment(session_id="s", labels=(0, 1))
    )
    assert report.cpwer == 0.0


def test_cpwer_from_segments_same_speaker_swap_invariant():
    # swapping labels of two same-speaker segments keeps the concatenation
    session = make_session(["a b", "c d", "e f"], ["x", "x", "y"])
    ref = ReferenceTranscript(
        session_id="s", per_speaker={"A": toks("a b c d"), "B": toks("e f")}
    )
    base = cpwer_from_segments(
        ref, session, LabelAssignment(session_id="s", labels=(0, 0, 1))
    )
    # same partition, labels permuted within cluster 0's segments: identical
    again = cpwer_from_segments(
        ref, session, LabelAssignment(session_id="s", labels=(0, 0, 1))
    )
    assert base.cpwer == again.cpwer == 0.0


def test_cpwer_from_segments_confusion_counted_twice():
    # a segment on the wrong speaker costs deletions for one reference
    # speaker and insertions for the other
    session = make_session(["a b", "c d"], ["x", "y"])
    ref = ReferenceTranscript(
        session_id="s", per_speaker={"A": toks("a b"), "B": toks("c d")}
    )
    report = cpwer_from_segments(
        ref, session, LabelAssignment(session_id="s", labels=(0, 0))
    )
    assert report.errors == 4  # "c d" inserted with A, deleted from B
    assert report.cpwer == 1.0
    hyp = assignment_streams(session, LabelAssignment(session_id="s", labels=(0, 0)))
    counts = eager_pairs(ref.per_speaker, hyp, report).values()
    assert sum(c.deletions for c in counts) == 2
    assert sum(c.insertions for c in counts) == 2


# "c d" is listed first but belongs second: by start, or on a tied start by id
OUT_OF_ORDER = [([5.0, 1.0], ["seg0", "seg1"]), ([1.0, 1.0], ["zz", "aa"])]


@pytest.mark.parametrize("starts, ids", OUT_OF_ORDER, ids=["start", "tied-start"])
def test_session_rejects_segments_out_of_stream_order(starts, ids):
    with pytest.raises(
        ValueError, match=f"session 's': segment '{ids[1]}' is out of stream order"
    ):
        make_session(["c d", "a b"], ["x", "x"], starts=starts, ids=ids)


@pytest.mark.parametrize("starts, ids", OUT_OF_ORDER, ids=["start", "tied-start"])
def test_parsed_segments_are_in_stream_order(starts, ids):
    records = [
        json.dumps(
            {
                "session_id": "s",
                "segment_id": segment_id,
                "start": start,
                "end": start + 0.5,
                "speaker": "x",
                "words": words,
                "embedding": [1.0, 0.0],
            }
        )
        for words, start, segment_id in zip(["c d", "a b"], starts, ids)
    ]
    (session,) = parse_segments("\n".join(records).encode())
    assert [seg.segment_id for seg in session.segments] == ids[::-1]
    ref = ReferenceTranscript(session_id="s", per_speaker={"A": toks("a b c d")})
    report = cpwer_from_segments(
        ref, session, LabelAssignment(session_id="s", labels=(0, 0))
    )
    assert report.cpwer == 0.0


def test_empty_cluster_streams_allowed():
    session = make_session(["a b", "c d"], ["x", "y"])
    ref = ReferenceTranscript(
        session_id="s", per_speaker={"A": toks("a b"), "B": toks("c d")}
    )
    report = cpwer_from_segments(
        ref,
        session,
        LabelAssignment(session_id="s", labels=(0, 1)),
        num_clusters=3,
    )
    assert report.cpwer == 0.0
    assert report.mapping["spk2"] is None
