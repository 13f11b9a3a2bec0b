"""Word-level edit distance and the concatenated minimum-permutation WER (cpWER).

Every word alignment in the package, here and in the oracle, runs on one
kernel: Myers' bit-parallel Levenshtein recurrence in Hyyrö's formulation
(Myers 1999; Hyyrö 2001), with the DP column held in two Python ints.  The
ints can hold several patterns, one lane each with a zero guard bit between
lanes (Hyyrö, Fredriksson & Navarro 2006), so the cpWER cost matrix takes one
kernel pass per hypothesis stream, and each lane's score is read from the
popcounts of its vertical deltas when the pass ends.  Where every DP value
of a column is needed, it is decoded in one layout, row 0 first; the values
of pattern suffixes come from a column run backwards, read back to front.

For cpWER, each speaker's words are joined in stream order on both sides,
the smaller side is padded with empty dummy speakers, and the pairing that
minimizes the total word errors is found with the Hungarian algorithm.
A brute-force permutation search is provided as an independent check of the
pairing; both pick from the same cost matrix and one function builds the
report from either.  A report holds only the score and the pairing; the
split of a pair's errors into substitutions, deletions and insertions is
``edit_distance`` of its two streams, which keeps the per-column deltas of
one forward pass and walks back through them.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence

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


@dataclass(frozen=True)
class CpWerReport:
    """cpWER value and the minimizing speaker mapping.

    ``mapping`` is hypothesis speaker -> reference speaker (``None`` when
    unmatched), in the pairing's order.  A pair's S/D/I split is
    ``edit_distance(ref[r], hyp[h])`` for each ``h, r`` in ``mapping`` (with
    ``()`` for the words of a ``None`` speaker), plus ``edit_distance(ref[r],
    ())`` for each reference speaker left unmatched.
    """

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


def _packed_masks(patterns: Iterable[Sequence[str]]) -> tuple[dict[str, int], list[int]]:
    """Match masks of several patterns packed into one bit vector, and each one's lane.

    Pattern ``r`` takes the bits of ``lanes[r]``, lowest bit for its first
    token, and one zero guard bit above them: bit ``i`` of ``masks[token]`` is
    set where the packed patterns hold ``token``.
    """
    masks: dict[str, int] = {}
    lanes = []
    offset = 0
    for pattern in patterns:
        for i, token in enumerate(pattern, offset):
            masks[token] = masks.get(token, 0) | (1 << i)
        lanes.append(((1 << len(pattern)) - 1) << offset)
        offset += len(pattern) + 1
    return masks, lanes


class _PackedReference(ReferenceTranscript):
    """A reference that packs its speakers' words (``_packed_masks``) only once.

    ``pipeline._evaluate`` scores one session's labelings and its oracle
    against one, so every cost matrix and the free-end-gap table of that
    session share one packing, which lives as long as the call.
    """

    @functools.cached_property
    def packed(self) -> tuple[dict[str, int], list[int]]:
        return _packed_masks(self.per_speaker.values())


def _reference_packing(
    reference: ReferenceTranscript | Mapping[str, Sequence[str]],
    patterns: Sequence[Sequence[str]],
) -> tuple[dict[str, int], list[int]]:
    """``_packed_masks(patterns)``: ``reference``'s speakers in order, then empty ones.

    An empty pattern adds a lane of no bits, so a ``_PackedReference``'s
    packing serves with one zero lane per padded speaker.
    """
    if not isinstance(reference, _PackedReference):
        return _packed_masks(patterns)
    masks, lanes = reference.packed
    return masks, lanes + [0] * (len(patterns) - len(lanes))


def _match_masks(pattern: Sequence[str]) -> dict[str, int]:
    """Bit ``i`` of ``masks[token]`` is set where ``pattern[i] == token``."""
    return _packed_masks([pattern])[0]


def _myers(
    masks: Mapping[str, int],
    full: int,
    bottoms: int,
    words: Iterable[str],
    pv: int,
    mv: int,
    columns: list[tuple[int, int, int, int]] | None = None,
) -> tuple[int, int]:
    """Step the vertical deltas ``pv``/``mv`` of packed patterns over ``words``.

    Myers' recurrence (Myers 1999) in Hyyrö's formulation (Hyyrö 2001), on
    every lane at once (Hyyrö, Fredriksson & Navarro 2006).  ``full`` has the
    bits of every lane and ``bottoms`` the lowest bit of each non-empty one,
    where row 0 grows by one per word.  The addition's carry out of a lane
    stops at its guard bit, which ``full`` clears, so lanes never interact.
    ``columns``, when given, receives ``(pv, mv, ph, mh)`` per word, where bit
    ``i`` of ``ph`` (``mh``) marks a +1 (-1) step from the previous column at
    row ``i``.
    """
    get = masks.get
    for word in words:
        eq = get(word, 0)
        xv = eq | mv
        xh = (((eq & pv) + pv) ^ pv) | eq
        # masked only to stay non-negative: big-int ops on negatives are slower
        ph = ((mv | (full & ~(xh | pv))) << 1) | bottoms
        mh = (pv & xh) << 1
        pv = (mh | ~(xv | ph)) & full
        mv = ph & xv
        if columns is not None:
            columns.append((pv, mv, ph, mh))
    return pv, mv


def _advance(
    masks: Mapping[str, int],
    m: int,
    words: Iterable[str],
    start: _Column | None = None,
    *,
    columns: list[tuple[int, int, int, int]] | None = None,
) -> _Column:
    """Consume ``words`` as text against a length-``m`` pattern, one lane of ``_myers``.

    The whole DP column is held in two Python ints, so one word costs a
    constant number of big-int operations.  ``start`` defaults to the empty
    text (row ``i`` holds ``i``).  Row 0 grows by one per consumed word, and
    the score is row 0 plus the popcount difference of the vertical deltas.
    """
    words = tuple(words)
    full = (1 << m) - 1
    if start is None:
        pv, mv, top = full, 0, 0
    else:
        pv, mv, score = start
        top = score - pv.bit_count() + mv.bit_count()
    pv, mv = _myers(masks, full, 1, words, pv, mv, columns)
    return _Column(pv, mv, top + len(words) + pv.bit_count() - mv.bit_count())


def _column_min(column: _Column, m: int) -> int:
    """Smallest value of a DP column over pattern rows ``0..m``."""
    value = low = column.score - column.pv.bit_count() + column.mv.bit_count()
    for i in range(m):
        value += ((column.pv >> i) & 1) - ((column.mv >> i) & 1)
        if value < low:
            low = value
    return low


def _column_values(columns: Sequence[_Column], width: int) -> np.ndarray:
    """DP values of several kernel columns as one ``(len(columns), width + 1)`` array.

    Row ``r`` holds column ``r``'s values at pattern rows ``0..width``,
    anchored at the column's score; a pattern shorter than ``width`` has no
    delta bits past its last row, so its row repeats that value.  A column
    run on the reversed pattern over the reversed text holds at row ``i``
    the distance of the pattern's last ``i`` tokens to the text, so for a
    pattern of ``width`` tokens its row read back to front holds at ``j``
    the distance of ``pattern[j:]``.  A prefix row plus such a suffix row,
    minimized, is the distance of the whole text:
    D(p, X + Y) = min_j D(p[:j], X) + D(p[j:], Y).
    """
    count = len(columns)
    nbytes = width // 8 + 1
    ints = [c.pv for c in columns] + [c.mv for c in columns]
    raw = b"".join(value.to_bytes(nbytes, "little") for value in ints)
    bits = np.unpackbits(
        np.frombuffer(raw, np.uint8).reshape(2, count, nbytes), axis=2, bitorder="little"
    )
    values = np.zeros((count, width + 1), dtype=np.int64)
    np.cumsum(
        np.subtract(bits[0, :, :width], bits[1, :, :width], dtype=np.int8),
        axis=1,
        dtype=np.int64,
        out=values[:, 1:],
    )
    scores = np.array([c.score for c in columns], dtype=np.int64)
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


def _cost_matrix(
    ref_streams: Sequence[tuple[str, ...]],
    hyp_streams: Sequence[tuple[str, ...]],
    packed: tuple[dict[str, int], list[int]] | None = None,
) -> np.ndarray:
    """Cost ``[i, j]``: distance of reference stream ``i`` to hypothesis stream ``j``.

    Each reference takes a lane of its own, so a hypothesis stream is one
    kernel pass, and a lane's cost is the hypothesis length (row 0 of every
    lane) plus the popcount difference of its vertical deltas.  ``packed``
    is ``_packed_masks(ref_streams)`` when the caller already has it.
    """
    masks, lanes = _packed_masks(ref_streams) if packed is None else packed
    full = sum(lanes)
    bottoms = sum(lane & -lane for lane in lanes)
    cost = np.empty((len(ref_streams), len(hyp_streams)), dtype=np.int64)
    for j, hyp in enumerate(hyp_streams):
        pv, mv = _myers(masks, full, bottoms, hyp, full, 0)
        cost[:, j] = [
            len(hyp) + (pv & lane).bit_count() - (mv & lane).bit_count()
            for lane in lanes
        ]
    return cost


def _scored(
    reference: ReferenceTranscript | Mapping[str, Sequence[str]],
    hypothesis: Mapping[str, Sequence[str]],
    pairing: Callable[[np.ndarray], Iterable[tuple[int, int]]],
) -> CpWerReport:
    """Report of the speaker pairing that ``pairing`` picks from the cost matrix.

    The smaller side is padded with empty dummy speakers, so the matrix is
    square; ``pairing`` returns (reference, hypothesis) index pairs, and the
    mapping lists the hypothesis speakers in that order.
    """
    ref_map = _speaker_streams(reference)
    hyp_map = _speaker_streams(hypothesis)
    ref_words = sum(len(w) for w in ref_map.values())
    if ref_words == 0:
        raise ValueError("cpWER undefined: reference contains no words")
    size = max(len(ref_map), len(hyp_map))
    refs = list(ref_map.items()) + [(None, ())] * (size - len(ref_map))
    hyps = list(hyp_map.items()) + [(None, ())] * (size - len(hyp_map))
    ref_streams = [words for _, words in refs]
    cost = _cost_matrix(
        ref_streams,
        [words for _, words in hyps],
        _reference_packing(reference, ref_streams),
    )
    errors = 0
    mapping: dict[str, str | None] = {}
    for i, j in pairing(cost):
        errors += int(cost[i, j])
        hyp_label = hyps[j][0]
        if hyp_label is not None:
            mapping[hyp_label] = refs[i][0]
    return CpWerReport(errors, ref_words, errors / ref_words, mapping)


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
    return _scored(
        reference, hypothesis, lambda cost: zip(*linear_sum_assignment(cost))
    )


def brute_force_cpwer(
    reference: ReferenceTranscript | Mapping[str, Sequence[str]],
    hypothesis: Mapping[str, Sequence[str]],
) -> CpWerReport:
    """Exhaustive-permutation cpWER; independent check of the Hungarian result.

    Limited to ``BRUTE_FORCE_MAX_SPEAKERS`` padded speakers.  Ties between
    permutations resolve to the lexicographically smallest one.
    """

    def best_permutation(cost: np.ndarray) -> Iterable[tuple[int, int]]:
        size = len(cost)
        if size > BRUTE_FORCE_MAX_SPEAKERS:
            raise ValueError(
                f"{size} padded speakers exceed the brute-force limit "
                f"({BRUTE_FORCE_MAX_SPEAKERS})"
            )
        rows = cost.tolist()
        # permutations come in lexicographic order and min keeps the first minimum
        return enumerate(
            min(
                itertools.permutations(range(size)),
                key=lambda perm: sum(rows[i][j] for i, j in enumerate(perm)),
            )
        )

    return _scored(reference, hypothesis, best_permutation)


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
    for seg, label in zip(session.segments, assignment.labels):
        streams[label].extend(seg.words)
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

    Hypothesis streams concatenate segment words per assigned cluster in the
    session's stream order.
    """
    hyp = assignment_streams(session, assignment, num_clusters, label_names)
    return cpwer(reference, hyp)
