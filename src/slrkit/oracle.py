"""Oracle segment-to-speaker assignment and the relative confusion-error measure.

The oracle labels each segment with the reference speaker that minimizes the
session cpWER; it lower-bounds what any reassignment method can reach.
Segments are taken in the session's stream order, as cpWER joins them.
Label ``c`` is reference speaker ``c``, so both modes minimize the diagonal
objective, the sum over ``c`` of D(ref_c, stream_c), with no speaker
permutation search of their own.  Greedy mode scales to long sessions by
coordinate descent from the cheaper of a local alignment initialization and
the cheapest labeling the caller has already scored, so it scores no worse
than any of those; exact mode starts from that result and proves or improves
it by branch and bound over every assignment.

The initialization's costs g(i, c), of segment ``i`` against its
best-matching window of reference ``c`` (approximate substring matching,
Sellers 1980), give the lower bound B = sum over ``i`` of min_c g(i, c) on
the objective of every labeling.  The greedy search stops as soon as its
labeling costs B, which proves it optimal, and the exact search adds the
bound of the segments it has not placed yet to its pruning.  A caller's
labeling that already costs B is returned first, with the caller's own cpWER
report renamed to the reference speakers, so nothing is aligned again.

The initialization and both searches align with the bit-parallel
Levenshtein kernel of :mod:`slrkit.metrics`: the initialization in one pass
per segment, every reference a lane of one packed pattern started from an
all-zero column, the exact search by extending one kernel column per speaker
and segment, and the greedy search from cached prefix columns and suffix
values at each cluster's segment boundaries, joined by
D(ref, X + Y) = min_j D(ref[:j], X) + D(ref[j:], Y).
"""

from __future__ import annotations

import bisect
import dataclasses
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .corpus import LabelAssignment, ReferenceTranscript, SessionHypothesis
from .metrics import (
    CpWerReport,
    _Column,
    _advance,
    _column_min,
    _column_values,
    _match_masks,
    _myers,
    _packed_masks,
    _reference_packing,
    cpwer_from_segments,
    token_distance,
)

EXACT_SEARCH_BUDGET = 10**6
# DP values per batched decode in the greedy search (8 MB as one int64 array)
DECODE_BLOCK = 1 << 20


def exact_fits_budget(num_ref_speakers: int, num_segments: int) -> bool:
    """Whether exhaustive assignment enumeration stays within budget."""
    return num_ref_speakers**num_segments <= EXACT_SEARCH_BUDGET


def _blocks(items: list, row_values: int) -> Iterator[list]:
    """Consecutive runs of ``items`` (``row_values`` DP values each) to decode together.

    A run holds at most ``DECODE_BLOCK`` values, or one item if that is larger.
    """
    step = max(1, DECODE_BLOCK // row_values)
    return (items[start : start + step] for start in range(0, len(items), step))


def _free_end_gap_costs(
    segments: Sequence[Sequence[str]],
    refs: Sequence[Sequence[str]],
    packed: tuple[dict[str, int], list[int]] | None = None,
) -> np.ndarray:
    """Edit cost of each segment against its best-matching window of each reference.

    Unconsumed reference words before and after the window are free.  Every
    reference is a lane of one packed kernel pattern and the start column is
    all zeros (``pv = mv = 0``), so the match may start at any row of any
    lane; one kernel pass steps over the segment's words, and a lane's cost
    is the minimum of its rows of the final column.  The packed columns of a
    block of segments are decoded together as one pattern: a lane's row 0
    holds the segment length, and the zero guard bits between lanes leave the
    running sum unchanged, so each lane's rows are re-anchored at its row 0.
    ``packed`` is ``_packed_masks(refs)`` when the caller already has it.
    """
    masks, lanes = _packed_masks(refs) if packed is None else packed
    full = sum(lanes)
    bottoms = sum(lane & -lane for lane in lanes)
    offsets = np.cumsum([0] + [len(ref) + 1 for ref in refs[:-1]])
    width = int(offsets[-1]) + len(refs[-1])
    costs = [np.empty((0, len(refs)), dtype=np.int64)]
    for block in _blocks(list(segments), width + 1):
        # any score will do: each lane is re-anchored at its own row 0
        ends = [
            _Column(*_myers(masks, full, bottoms, words, 0, 0), 0) for words in block
        ]
        values = _column_values(ends, width)
        lows = np.minimum.reduceat(values, offsets, axis=1) - values[:, offsets]
        sizes = np.array([[len(words)] for words in block], dtype=np.int64)
        costs.append(lows + sizes)
    return np.concatenate(costs)


def _exact_search(
    segments: list[tuple[str, ...]], refs: list[tuple[str, ...]], costs: np.ndarray,
    incumbent: int,
) -> tuple[int, list[int]]:
    """Lexicographically smallest minimizer of the total edit cost, and its cost.

    Segments are consumed in the given (stream) order, so each partial
    assignment extends the per-speaker kernel columns in place.  A completion
    costs at least the column minima plus, per remaining segment, its
    cheapest free-end-gap cost in ``costs``: the rest of reference ``c``
    splits into one window per segment that cluster ``c`` still receives.
    The best cost starts above ``incumbent``, the greedy cost, and only a
    lower cost replaces it, so pruning where the bound reaches it never cuts
    the smallest minimizer: every labeling visited before it costs more.
    """
    k = len(refs)
    num_segments = len(segments)
    lows = costs.min(axis=1)
    rest = np.append(np.cumsum(lows[::-1])[::-1], 0).tolist()
    masks = [_match_masks(ref) for ref in refs]
    columns = [_advance(masks[r], len(refs[r]), ()) for r in range(k)]
    mins = [0] * k
    labels = [0] * num_segments
    best_cost = incumbent + 1
    best_labels: list[int] | None = None

    def search(depth: int) -> None:
        nonlocal best_cost, best_labels
        if sum(mins) + rest[depth] >= best_cost:
            return
        if depth == num_segments:
            cost = sum(column.score for column in columns)
            if cost < best_cost:
                best_cost = cost
                best_labels = labels.copy()
            return
        words = segments[depth]
        for r in range(k):
            saved = columns[r], mins[r]
            columns[r] = _advance(masks[r], len(refs[r]), words, columns[r])
            mins[r] = _column_min(columns[r], len(refs[r]))
            labels[depth] = r
            search(depth + 1)
            columns[r], mins[r] = saved

    search(0)
    assert best_labels is not None, f"no labeling costs at most {incumbent}"
    return best_cost, best_labels


class _Boundaries(NamedTuple):
    """Kernel state of one cluster's stream against its own reference.

    Boundary ``p`` falls before the cluster's ``p``-th segment.  ``heads[p]``
    is the kernel column of the stream before it, ``suffixes[p, j]`` the
    distance of ``ref[j:]`` to the stream after it (the backward run's
    ``metrics._column_values`` row, reversed), and ``removals[p]`` the
    distance of the whole stream without its ``p``-th segment.  Cluster
    ``c`` is scored against reference ``c`` only, and the state lives only
    while its cluster's costs are recomputed, so it is O(cluster segments x
    reference length).
    """

    heads: list[_Column]
    suffixes: np.ndarray
    removals: np.ndarray


def _diagonal_cost(
    segments: list[tuple[str, ...]], refs: list[tuple[str, ...]], labels: list[int]
) -> int:
    """Sum over clusters ``c`` of the distance of reference ``c`` to cluster ``c``'s stream."""
    streams: list[list[str]] = [[] for _ in refs]
    for words, label in zip(segments, labels):
        streams[label].extend(words)
    return sum(token_distance(ref, stream) for ref, stream in zip(refs, streams))


def _descend(
    segments: list[tuple[str, ...]],
    refs: list[tuple[str, ...]],
    labels: list[int],
    bound: int = 0,
) -> tuple[int, list[int]]:
    """Best-move coordinate descent on the diagonal objective from ``labels``.

    Label ``c`` is reference ``c``, so the objective is the sum over ``c`` of
    D(ref_c, stream_c) and moving segment ``i`` from ``a`` to ``b`` changes it
    by ``removal[i] - D[a] + insert[i, b] - D[b]``.  Each round evaluates that
    S x k delta array at once and applies its row-major ``argmin``: the move
    that decreases the error count the most, first in (segment, target) order
    on ties.  It stops when no move helps, which it must, because the error
    count strictly decreases, or when the count reaches ``bound``, a lower
    bound on every labeling's objective: no move could help from there, so
    the result is the same.

    No candidate stream is re-aligned from its first word.  A cluster's costs
    come from the kernel column of every stream prefix that ends at a segment
    boundary and the DP values of every suffix, from the kernel run backwards
    on the reversed reference: its column after the reversed suffix Y holds
    D(ref[m - i:], Y) at row ``i``, so its decoded row, reversed, holds
    D(ref[j:], Y) at ``j``.  They combine by the split
    D(ref, X + Y) = min_j D(ref[:j], X) + D(ref[j:], Y) (Hirschberg 1975):
    removing a segment joins the prefix before it to the suffix after it,
    and inserting one advances a prefix column over the segment's words only.
    A move rebuilds the boundary state of the two clusters it touched and
    refreshes their two insertion columns, decoded in blocks of at most
    ``DECODE_BLOCK`` values; no other cost depends on them, so no state is
    kept between rounds.
    """
    k = len(refs)
    num_segments = len(segments)
    lengths = [len(ref) for ref in refs]
    masks = [_match_masks(ref) for ref in refs]
    reversed_masks = [_match_masks(ref[::-1]) for ref in refs]
    members: list[list[int]] = [[] for _ in range(k)]
    for i, label in enumerate(labels):
        members[label].append(i)

    def boundaries(c: int) -> _Boundaries:
        m = lengths[c]
        stream = [segments[i] for i in members[c]]
        head = _advance(masks[c], m, ())
        tail = _advance(reversed_masks[c], m, ())
        heads, tails = [head], [tail]
        for words, back in zip(stream, reversed(stream)):
            head = _advance(masks[c], m, words, head)
            tail = _advance(reversed_masks[c], m, back[::-1], tail)
            heads.append(head)
            tails.append(tail)
        tails.reverse()
        prefix = _column_values(heads, m)
        suffix = _column_values(tails, m)[:, ::-1]
        return _Boundaries(heads, suffix, (prefix[:-1] + suffix[1:]).min(axis=1))

    current = np.array(labels)
    removal = np.zeros(num_segments, dtype=np.int64)
    insert = np.zeros((num_segments, k), dtype=np.int64)
    distance = np.zeros(k, dtype=np.int64)

    def refresh(c: int) -> None:
        """Recompute cluster ``c``'s distance, removal costs and insertion column."""
        m = lengths[c]
        state = boundaries(c)
        removal[members[c]] = state.removals
        distance[c] = state.heads[-1].score
        for block in _blocks(np.flatnonzero(current != c), m + 1):
            at = [bisect.bisect(members[c], i) for i in block]
            ends = [
                _advance(masks[c], m, segments[i], state.heads[p])
                for i, p in zip(block, at)
            ]
            values = _column_values(ends, m) + state.suffixes[at]
            insert[block, c] = values.min(axis=1)

    for c in range(k):
        refresh(c)
    rows = np.arange(num_segments)
    while distance.sum() > bound:
        delta = insert - distance + (removal - distance[current])[:, None]
        delta[rows, current] = 0
        best = int(delta.argmin())
        if delta.flat[best] >= 0:
            break
        i, b = divmod(best, k)
        a = int(current[i])
        current[i] = b
        members[a].remove(i)
        bisect.insort(members[b], i)
        refresh(a)
        refresh(b)
    return int(distance.sum()), current.tolist()


def _greedy_search(
    segments: list[tuple[str, ...]],
    refs: list[tuple[str, ...]],
    costs: np.ndarray,
    start: Sequence[int | None] | None = None,
    start_cost: int | None = None,
) -> tuple[int, list[int]]:
    """Descent on the diagonal objective from the cheaper of two labelings.

    One is the free-end-gap start: each segment at the reference it matches
    best (first on ties), from ``costs``, the ``_free_end_gap_costs`` table.
    The other is ``start``, a reference index per segment, where a ``None``
    takes the free-end-gap choice; ``start_cost``, when the caller knows it,
    is its diagonal cost, and is computed otherwise.  The descent runs at
    most once, from ``start`` only if its diagonal cost is strictly lower;
    it never raises the cost, so the result costs at most as much as either.

    B, the sum over segments of their cheapest free-end-gap cost, bounds
    every labeling's objective from below: an optimal alignment of ``ref_c``
    to cluster ``c``'s stream splits it into one window per segment.  A
    start that costs B is optimal, so it is returned without a descent, and
    the descent stops once it reaches B.  A ``start`` whose known
    ``start_cost`` is B is returned first, before the free-end-gap start is
    aligned; otherwise the free-end-gap start is checked first and wins ties.
    """
    bound = int(costs.min(axis=1).sum())
    labels = costs.argmin(axis=1).tolist()
    if start is not None:
        mapped = [free if s is None else s for s, free in zip(start, labels)]
        if start_cost == bound:
            return start_cost, mapped
    cost = _diagonal_cost(segments, refs, labels)
    if start is not None and cost > bound:
        if start_cost is None:
            start_cost = _diagonal_cost(segments, refs, mapped)
        if start_cost < cost:
            labels, cost = mapped, start_cost
    if cost == bound:
        return cost, labels
    return _descend(segments, refs, labels, bound)


def oracle_assignment(
    session: SessionHypothesis,
    reference: ReferenceTranscript,
    mode: str = "exact",
    *,
    starts: Sequence[tuple[Sequence[str], CpWerReport]] = (),
) -> tuple[LabelAssignment, CpWerReport]:
    """Segment labeling over the reference speakers that minimizes cpWER.

    Label ``c`` stands for the c-th reference speaker (file order), and both
    searches minimize the sum over ``c`` of D(ref_c, stream_c), with no
    speaker permutation of their own.  Exact mode requires
    (#reference speakers) ** (#segments) <= ``EXACT_SEARCH_BUDGET``.

    ``starts`` are labelings the caller has already scored: per segment (in
    session order) the hypothesis speaker name that its ``CpWerReport`` maps.
    The greedy search, which both modes run first, maps the one with the
    fewest errors (first on ties) to reference speakers through
    ``report.mapping``, a segment of an unmapped speaker taking its
    free-end-gap choice, and descends from it when that is cheaper than the
    free-end-gap start.  A mapped labeling's diagonal cost is at most its
    cpWER errors, so the result scores no worse than any start; when every
    segment maps, the cost is those errors and is not aligned again.  If the
    cpWER pairing of the result beats the identity, it relabels and descends.

    When every segment maps and the start costs B, the free-end-gap bound,
    the greedy search returns it before it aligns the free-end-gap start,
    which loses the tie.  When greedy mode returns a fully mapped start
    unchanged, its report is the caller's, with the identity mapping over
    the reference speakers: the caller's optimal pairing proves the identity
    optimal for that labeling, so no cost matrix is built and no stream is
    paired.  Without ``starts`` (``slrkit oracle``), and in
    exact mode, the report is the Hungarian cpWER of the result, and exact
    mode still returns the lexicographically smallest minimizer.
    """
    if mode not in ("exact", "greedy"):
        raise ValueError(f"mode must be 'exact' or 'greedy', got {mode!r}")
    if reference.session_id != session.session_id:
        raise ValueError(
            f"reference session {reference.session_id!r} does not match "
            f"hypothesis session {session.session_id!r}"
        )
    ref_labels = list(reference.per_speaker)
    k = len(ref_labels)
    if k == 0:
        raise ValueError("reference has no speakers")
    if any(len(speakers) != len(session.segments) for speakers, _ in starts):
        raise ValueError("each oracle start needs one speaker per segment")
    if mode == "exact" and not exact_fits_budget(k, len(session.segments)):
        raise ValueError(
            f"exact oracle over budget: {k}^{len(session.segments)} > "
            f"{EXACT_SEARCH_BUDGET}; use greedy mode"
        )

    refs = [tuple(reference.per_speaker[l]) for l in ref_labels]
    segments = [seg.words for seg in session.segments]
    index = {label: c for c, label in enumerate(ref_labels)}

    def mapped(speakers: Sequence[str], report: CpWerReport) -> list[int | None]:
        """Reference index per segment, ``None`` where unmapped."""
        return [index.get(report.mapping.get(speaker)) for speaker in speakers]

    def scored(labels: list[int]) -> tuple[LabelAssignment, CpWerReport]:
        assignment = LabelAssignment(session_id=session.session_id, labels=labels)
        return assignment, cpwer_from_segments(
            reference, session, assignment, num_clusters=k, label_names=ref_labels
        )

    start = start_cost = None
    if starts:
        speakers, known = min(starts, key=lambda s: s[1].errors)
        start = mapped(speakers, known)
        if None not in start:
            # each reference's stream is that of the speaker paired with it
            start_cost = known.errors
    costs = _free_end_gap_costs(segments, refs, _reference_packing(reference, refs))
    cost, labels = _greedy_search(segments, refs, costs, start, start_cost)
    if mode == "exact":
        cost, labels = _exact_search(segments, refs, costs, cost)
    elif start_cost is not None and labels == start:
        # the caller's report scores this labeling: its optimal pairing,
        # renamed to the mapped references, is the identity
        assignment = LabelAssignment(session_id=session.session_id, labels=labels)
        return assignment, dataclasses.replace(
            known, mapping={label: label for label in ref_labels}
        )

    assignment, report = scored(labels)
    while report.errors < cost:
        speakers = [ref_labels[c] for c in assignment.labels]
        cost, labels = _descend(segments, refs, mapped(speakers, report))
        assignment, report = scored(labels)
    assert report.errors == cost
    return assignment, report


def relative_confusion_error(
    cpwer_none: float, cpwer_slr: float, cpwer_oracle: float
) -> float:
    """Share of the fixable speaker-confusion error that remains after reassignment.

    0 means the oracle assignment was reached, 1 means no improvement over
    skipping reassignment; values above 1 (reassignment made things worse)
    are legal and not clamped.  An oracle above either other value is not a
    lower bound, and raises.
    """
    if min(cpwer_none, cpwer_slr, cpwer_oracle) < 0:
        raise ValueError("cpWER values must be non-negative")
    if min(cpwer_none, cpwer_slr) < cpwer_oracle:
        raise ValueError(
            f"oracle cpWER ({cpwer_oracle}) is not a lower bound: no reassignment "
            f"scores {cpwer_none}, reassignment {cpwer_slr}"
        )
    denominator = cpwer_none - cpwer_oracle
    if denominator == 0:
        if cpwer_slr == cpwer_oracle:
            return 0.0
        raise ValueError(
            "relative confusion error undefined: oracle equals the "
            "no-reassignment cpWER but the reassigned cpWER differs"
        )
    return (cpwer_slr - cpwer_oracle) / denominator
