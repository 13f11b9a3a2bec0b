"""Word-level edit distance and the concatenated minimum-permutation WER (cpWER).

Every word alignment in the package, here and in the oracle, runs on one
kernel: Myers' bit-parallel Levenshtein recurrence in Hyyrö's formulation
(Myers 1999; Hyyrö 2001), with the DP column held in two Python ints.
``edit_distance`` keeps the per-column deltas of one forward pass and walks
back through them to split the errors into substitutions, deletions and
insertions.

For cpWER, the words of each speaker are concatenated on both sides, the
smaller side is padded with empty dummy speakers, and the speaker pairing
that minimizes the total word errors is found with the Hungarian algorithm.
A brute-force permutation search is provided as an independent check.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np
from scipy.optimize import linear_sum_assignment

from .corpus import LabelAssignment, ReferenceTranscript, SessionHypothesis

BRUTE_FORCE_MAX_SPEAKERS = 8


@dataclass(frozen=True)
class EditCounts:
    """Substitution/deletion/insertion counts of one minimal alignment."""

    substitutions: int
    deletions: int
    insertions: int
    ref_len: int

    @property
    def total(self) -> int:
        return self.substitutions + self.deletions + self.insertions

    def __add__(self, other: "EditCounts") -> "EditCounts":
        return EditCounts(
            self.substitutions + other.substitutions,
            self.deletions + other.deletions,
            self.insertions + other.insertions,
            self.ref_len + other.ref_len,
        )


@dataclass(frozen=True)
class CpWerReport:
    """cpWER value, its error breakdown, and the minimizing speaker mapping.

    ``pairs`` holds (reference speaker, hypothesis speaker, counts) per
    scored pair; a ``None`` side marks a padded dummy.  ``mapping`` is
    hypothesis speaker -> reference speaker (``None`` when unmatched).
    """

    pairs: tuple[tuple[str | None, str | None, EditCounts], ...]
    errors: int
    ref_words: int
    cpwer: float
    mapping: dict[str, str | None]


class _Column(NamedTuple):
    """One column of the Levenshtein DP in the bit-parallel encoding.

    Bit ``i`` of ``pv`` (``mv``) is set when the column's value at pattern
    row ``i + 1`` is one more (one less) than at row ``i``.  ``score`` is the
    value at the last row.
    """

    pv: int
    mv: int
    score: int


def _match_masks(pattern: Sequence[str]) -> dict[str, int]:
    """Bit ``i`` of ``masks[token]`` is set where ``pattern[i] == token``."""
    masks: dict[str, int] = {}
    for i, token in enumerate(pattern):
        masks[token] = masks.get(token, 0) | (1 << i)
    return masks


def _advance(
    masks: Mapping[str, int],
    m: int,
    words: Iterable[str],
    start: _Column | None = None,
    *,
    columns: list[tuple[int, int, int, int]] | None = None,
) -> _Column:
    """Consume ``words`` as text against a length-``m`` pattern (Myers 1999; Hyyrö 2001).

    The whole DP column is held in two Python ints, so one word costs a
    constant number of big-int operations.  ``start`` defaults to the empty
    text (row ``i`` holds ``i``); row 0 grows by one per consumed word.
    ``columns``, when given, receives ``(pv, mv, ph, mh)`` per word, where bit
    ``i`` of ``ph`` (``mh``) marks a +1 (-1) step from the previous column at
    row ``i``.
    """
    full = (1 << m) - 1
    pv, mv, score = (full, 0, m) if start is None else start
    last_row = 1 << m
    get = masks.get
    for word in words:
        eq = get(word, 0)
        xv = eq | mv
        xh = (((eq & pv) + pv) ^ pv) | eq
        # masked only to stay non-negative: big-int ops on negatives are slower
        ph = ((mv | (full & ~(xh | pv))) << 1) | 1
        mh = (pv & xh) << 1
        if ph & last_row:
            score += 1
        elif mh & last_row:
            score -= 1
        pv = (mh | ~(xv | ph)) & full
        mv = ph & xv
        if columns is not None:
            columns.append((pv, mv, ph, mh))
    return _Column(pv, mv, score)


def _column_min(column: _Column, m: int, top: int) -> int:
    """Smallest value of a DP column whose row 0 holds ``top``."""
    value = low = top
    for i in range(m):
        value += ((column.pv >> i) & 1) - ((column.mv >> i) & 1)
        if value < low:
            low = value
    return low


_SUFFIX_SENTINEL = 1 << 40


def _column_values(
    columns: Sequence[_Column],
    lengths: Sequence[int],
    width: int,
    *,
    suffix: bool = False,
) -> np.ndarray:
    """DP values of several kernel columns as one ``(len(columns), width + 1)`` array.

    Column ``r`` belongs to a pattern of ``lengths[r] <= width`` tokens and
    row ``r`` holds its values at pattern rows ``0..lengths[r]``, then repeats
    the last one.  With ``suffix`` the columns were run on reversed patterns
    over reversed text, and each row is read back to front: entry ``j`` is the
    distance of ``pattern[j:]`` and entries past ``lengths[r]`` hold a large
    sentinel.  A prefix row plus a suffix row, minimized, is then the
    distance of the whole text: D(p, X + Y) = min_j D(p[:j], X) + D(p[j:], Y).
    """
    count = len(columns)
    nbytes = width // 8 + 1
    if suffix:
        # bit m - 1 goes to the top, so big-endian unpacking reads rows m - 1, m - 2, ...
        shifts = [8 * nbytes - m for m in lengths]
        ints = [c.pv << s for c, s in zip(columns, shifts)]
        ints += [c.mv << s for c, s in zip(columns, shifts)]
        order = "big"
    else:
        ints = [c.pv for c in columns] + [c.mv for c in columns]
        order = "little"
    raw = b"".join(value.to_bytes(nbytes, order) for value in ints)
    bits = np.unpackbits(
        np.frombuffer(raw, np.uint8).reshape(2, count, nbytes), axis=2, bitorder=order
    )
    values = np.zeros((count, width + 1), dtype=np.int64)
    np.cumsum(
        np.subtract(bits[0, :, :width], bits[1, :, :width], dtype=np.int8),
        axis=1,
        dtype=np.int64,
        out=values[:, 1:],
    )
    scores = np.array([c.score for c in columns], dtype=np.int64)
    if suffix:
        np.subtract(scores[:, None], values, out=values)
        values[np.arange(width + 1) > np.asarray(lengths)[:, None]] = _SUFFIX_SENTINEL
    else:
        values += (scores - values[:, -1])[:, None]
    return values


def token_distance(ref: Sequence[str], hyp: Sequence[str]) -> int:
    """Total minimal edit distance (unit costs) between two token sequences."""
    return _advance(_match_masks(ref), len(ref), hyp).score


def edit_distance(ref: Sequence[str], hyp: Sequence[str]) -> EditCounts:
    """Minimal-cost alignment counts between reference and hypothesis tokens.

    Unit costs for substitution, deletion, and insertion.  When several
    minimal alignments exist the backtrace prefers substitution over
    insertion over deletion; this only affects the count decomposition,
    never the total.  One forward pass of the bit-parallel kernel keeps each
    column's deltas, and the backtrace reads the DP values it needs from
    them, so it takes O(m + n) steps.

    >>> edit_distance("a b c".split(), "a x c".split())
    EditCounts(substitutions=1, deletions=0, insertions=0, ref_len=3)
    """
    ref = tuple(ref)
    hyp = tuple(hyp)
    m, n = len(ref), len(hyp)
    columns = [((1 << m) - 1, 0, 0, 0)]
    here = _advance(_match_masks(ref), m, hyp, columns=columns).score

    # ``here`` is D[i][j]; ``left`` and ``diag`` are D[i][j-1] and D[i-1][j-1],
    # read from the horizontal deltas of column j and the vertical ones of j-1
    subs = dels = ins = 0
    i, j = m, n
    while i > 0 or j > 0:
        if j > 0:
            _, _, ph, mh = columns[j]
            left = here - ((ph >> i) & 1) + ((mh >> i) & 1)
            if i > 0:
                pv, mv, _, _ = columns[j - 1]
                diag = left - ((pv >> (i - 1)) & 1) + ((mv >> (i - 1)) & 1)
                mismatch = ref[i - 1] != hyp[j - 1]
                if diag + mismatch == here:
                    subs += mismatch
                    here = diag
                    i -= 1
                    j -= 1
                    continue
            if left + 1 == here:
                ins += 1
                here = left
                j -= 1
                continue
        dels += 1
        here -= 1
        i -= 1
    return EditCounts(substitutions=subs, deletions=dels, insertions=ins, ref_len=m)


def _speaker_streams(
    reference: ReferenceTranscript | Mapping[str, Sequence[str]],
) -> dict[str, tuple[str, ...]]:
    per_speaker = (
        reference.per_speaker
        if isinstance(reference, ReferenceTranscript)
        else reference
    )
    return {str(label): tuple(words) for label, words in per_speaker.items()}


def _padded_cost_matrix(
    ref_map: dict[str, tuple[str, ...]], hyp_map: dict[str, tuple[str, ...]]
) -> tuple[list[str | None], list[str | None], list[tuple[str, ...]], list[tuple[str, ...]], np.ndarray]:
    """Pad the smaller side with empty dummy speakers and fill the cost matrix."""
    size = max(len(ref_map), len(hyp_map))
    ref_labels: list[str | None] = list(ref_map) + [None] * (size - len(ref_map))
    hyp_labels: list[str | None] = list(hyp_map) + [None] * (size - len(hyp_map))
    ref_streams = [ref_map.get(l, ()) if l is not None else () for l in ref_labels]
    hyp_streams = [hyp_map.get(l, ()) if l is not None else () for l in hyp_labels]
    cost = np.zeros((size, size), dtype=np.int64)
    for i, ref in enumerate(ref_streams):
        masks = _match_masks(ref)
        for j, hyp in enumerate(hyp_streams):
            cost[i, j] = _advance(masks, len(ref), hyp).score
    return ref_labels, hyp_labels, ref_streams, hyp_streams, cost


def _report_from_pairing(
    ref_labels: Sequence[str | None],
    hyp_labels: Sequence[str | None],
    ref_streams: Sequence[tuple[str, ...]],
    hyp_streams: Sequence[tuple[str, ...]],
    pairing: Sequence[tuple[int, int]],
    total_errors: int,
    ref_words: int,
) -> CpWerReport:
    pairs = []
    mapping: dict[str, str | None] = {}
    for i, j in pairing:
        ref_label, hyp_label = ref_labels[i], hyp_labels[j]
        if ref_label is None and hyp_label is None:
            continue
        counts = edit_distance(ref_streams[i], hyp_streams[j])
        pairs.append((ref_label, hyp_label, counts))
        if hyp_label is not None:
            mapping[hyp_label] = ref_label
    assert sum(c.total for _, _, c in pairs) == total_errors
    return CpWerReport(
        pairs=tuple(pairs),
        errors=total_errors,
        ref_words=ref_words,
        cpwer=total_errors / ref_words,
        mapping=mapping,
    )


def cpwer(
    reference: ReferenceTranscript | Mapping[str, Sequence[str]],
    hypothesis: Mapping[str, Sequence[str]],
) -> CpWerReport:
    """cpWER between per-speaker reference and hypothesis token streams.

    The rate is (minimal total word errors over speaker pairings) divided by
    the total number of reference words, including words of reference
    speakers that end up unmatched.

    >>> cpwer({"A": "hello world".split()}, {"1": "hello world".split()}).cpwer
    0.0
    """
    ref_map = _speaker_streams(reference)
    hyp_map = _speaker_streams(hypothesis)
    ref_words = sum(len(w) for w in ref_map.values())
    if ref_words == 0:
        raise ValueError("cpWER undefined: reference contains no words")
    ref_labels, hyp_labels, ref_streams, hyp_streams, cost = _padded_cost_matrix(
        ref_map, hyp_map
    )
    rows, cols = linear_sum_assignment(cost)
    total = int(cost[rows, cols].sum())
    return _report_from_pairing(
        ref_labels,
        hyp_labels,
        ref_streams,
        hyp_streams,
        list(zip(rows.tolist(), cols.tolist())),
        total,
        ref_words,
    )


def brute_force_cpwer(
    reference: ReferenceTranscript | Mapping[str, Sequence[str]],
    hypothesis: Mapping[str, Sequence[str]],
) -> CpWerReport:
    """Exhaustive-permutation cpWER; independent check of the Hungarian result.

    Limited to ``BRUTE_FORCE_MAX_SPEAKERS`` padded speakers.  Ties between
    permutations resolve to the lexicographically smallest one.
    """
    ref_map = _speaker_streams(reference)
    hyp_map = _speaker_streams(hypothesis)
    ref_words = sum(len(w) for w in ref_map.values())
    if ref_words == 0:
        raise ValueError("cpWER undefined: reference contains no words")
    ref_labels, hyp_labels, ref_streams, hyp_streams, cost = _padded_cost_matrix(
        ref_map, hyp_map
    )
    size = cost.shape[0]
    if size > BRUTE_FORCE_MAX_SPEAKERS:
        raise ValueError(
            f"{size} padded speakers exceed the brute-force limit "
            f"({BRUTE_FORCE_MAX_SPEAKERS})"
        )
    rows = cost.tolist()
    best_total = None
    best_perm = None
    for perm in itertools.permutations(range(size)):
        total = sum(rows[i][j] for i, j in enumerate(perm))
        if best_total is None or total < best_total:
            best_total = total
            best_perm = perm
    return _report_from_pairing(
        ref_labels,
        hyp_labels,
        ref_streams,
        hyp_streams,
        list(enumerate(best_perm)),
        best_total,
        ref_words,
    )


def segment_order(session: SessionHypothesis) -> list[int]:
    """Indices of the session's segments in stream order: ascending start, ties by segment id."""
    return sorted(
        range(len(session.segments)),
        key=lambda i: (session.segments[i].start, session.segments[i].segment_id),
    )


def assignment_streams(
    session: SessionHypothesis,
    assignment: LabelAssignment,
    num_clusters: int | None = None,
    label_names: Sequence[str] | None = None,
) -> dict[str, tuple[str, ...]]:
    """Per-cluster hypothesis word streams induced by a label assignment."""
    if num_clusters is None:
        num_clusters = (
            len(label_names)
            if label_names is not None
            else max(assignment.labels) + 1
        )
    assignment.validate_for(session, num_clusters)
    streams: list[list[str]] = [[] for _ in range(num_clusters)]
    for idx in segment_order(session):
        streams[assignment.labels[idx]].extend(session.segments[idx].words)
    if label_names is None:
        label_names = [f"spk{c}" for c in range(num_clusters)]
    return {label_names[c]: tuple(streams[c]) for c in range(num_clusters)}


def cpwer_from_segments(
    reference: ReferenceTranscript | Mapping[str, Sequence[str]],
    session: SessionHypothesis,
    assignment: LabelAssignment,
    *,
    num_clusters: int | None = None,
    label_names: Sequence[str] | None = None,
) -> CpWerReport:
    """cpWER of a session under a label assignment.

    Hypothesis streams concatenate segment words per assigned cluster in
    ascending start time (ties broken by segment id).
    """
    hyp = assignment_streams(session, assignment, num_clusters, label_names)
    return cpwer(reference, hyp)
