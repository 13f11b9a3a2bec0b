"""Oracle segment-to-speaker assignment and the relative confusion-error measure.

The oracle labels each segment with the reference speaker that minimizes the
session cpWER; it lower-bounds what any reassignment method can reach.
Exact mode enumerates every assignment (with branch-and-bound pruning that
never changes the result); greedy mode scales to long sessions via local
alignment initialization plus coordinate descent.  Both score alignments with
the bit-parallel Levenshtein kernel of :mod:`slrkit.metrics`: the
initialization with its free-start flag, the exact search by extending one
kernel column per speaker and segment, and the greedy search from cached
prefix columns and suffix values at each cluster's segment boundaries,
joined by the split D(ref, X + Y) = min_j D(ref[:j], X) + D(ref[j:], Y).
"""

from __future__ import annotations

import bisect
from typing import NamedTuple, Sequence

import numpy as np
from scipy.optimize import linear_sum_assignment

from .corpus import LabelAssignment, ReferenceTranscript, SessionHypothesis
from .metrics import (
    CpWerReport,
    _Column,
    _advance,
    _column_min,
    _column_values,
    _match_masks,
    cpwer_from_segments,
    segment_order,
)

EXACT_SEARCH_BUDGET = 10**6


def exact_fits_budget(num_ref_speakers: int, num_segments: int) -> bool:
    """Whether exhaustive assignment enumeration stays within budget."""
    return num_ref_speakers**num_segments <= EXACT_SEARCH_BUDGET


def _free_end_gap_cost(pattern: Sequence[str], text: Sequence[str]) -> int:
    """Edit cost of the pattern against its best-matching window of the text.

    Unconsumed text before and after the window is free, approximating the
    cost of the best contiguous match.
    """
    return _advance(_match_masks(pattern), len(pattern), text, free_start=True).low


def _exact_search(
    segments: list[tuple[str, ...]], refs: list[tuple[str, ...]]
) -> tuple[int, list[int]]:
    """Minimum total edit cost over all segment-to-speaker assignments.

    Segments are consumed in stream order so each partial assignment extends
    the per-speaker kernel columns in place.  Pruning uses the column minima,
    a valid lower bound on any completion, and preserves the
    lexicographically smallest minimizing assignment.
    """
    k = len(refs)
    num_segments = len(segments)
    masks = [_match_masks(ref) for ref in refs]
    columns = [_advance(masks[r], len(refs[r]), ()) for r in range(k)]
    consumed = [0] * k
    mins = [0] * k
    labels = [0] * num_segments
    best_cost: int | None = None
    best_labels: list[int] | None = None

    def search(depth: int) -> None:
        nonlocal best_cost, best_labels
        if best_cost is not None and sum(mins) >= best_cost:
            return
        if depth == num_segments:
            cost = sum(column.score for column in columns)
            if best_cost is None or cost < best_cost:
                best_cost = cost
                best_labels = labels.copy()
            return
        words = segments[depth]
        for r in range(k):
            saved = columns[r], consumed[r], mins[r]
            columns[r] = _advance(masks[r], len(refs[r]), words, columns[r])
            consumed[r] += len(words)
            mins[r] = _column_min(columns[r], len(refs[r]), consumed[r])
            labels[depth] = r
            search(depth + 1)
            columns[r], consumed[r], mins[r] = saved

    search(0)
    assert best_cost is not None and best_labels is not None
    return best_cost, best_labels


class _Boundaries(NamedTuple):
    """Kernel state of one cluster's stream at its segment boundaries.

    Boundary ``p`` falls before the cluster's ``p``-th segment.  ``heads[p][r]``
    is the kernel column of the stream before it against reference ``r``,
    ``suffixes[p, r, j]`` the distance of ``refs[r][j:]`` to the stream after
    it (``metrics._column_values`` layout), and ``removals[p, r]`` the
    distance of the whole stream without its ``p``-th segment.
    """

    heads: list[list[_Column]]
    suffixes: np.ndarray
    removals: np.ndarray


def _greedy_search(
    segments: list[tuple[str, ...]], refs: list[tuple[str, ...]]
) -> tuple[int, list[int]]:
    """Free-end-gap initialization followed by best-move coordinate descent.

    Each round evaluates every single-segment reassignment and applies the
    one that decreases the cpWER error count the most (first such move on
    ties); terminates when no move helps, which is guaranteed because the
    error count strictly decreases.

    No candidate stream is re-aligned from its first word.  Each cluster
    keeps, per reference, the kernel column of every stream prefix that ends
    at a segment boundary, and the DP values of every suffix from the kernel
    run backwards on the reversed reference.  They combine by the split
    D(ref, X + Y) = min_j D(ref[:j], X) + D(ref[j:], Y) (Hirschberg 1975):
    removing a segment joins the prefix before it to the suffix after it,
    and adding one advances a prefix column over the segment's words only.
    An applied move rebuilds the two clusters it touched.
    """
    k = len(refs)
    num_segments = len(segments)
    labels = [
        int(np.argmin([_free_end_gap_cost(words, ref) for ref in refs]))
        for words in segments
    ]

    lengths = [len(ref) for ref in refs]
    width = max(lengths)
    masks = [_match_masks(ref) for ref in refs]
    reversed_masks = [_match_masks(ref[::-1]) for ref in refs]
    column_cache: dict[tuple[int, ...], np.ndarray] = {}

    def boundaries(h: int) -> _Boundaries:
        stream = [segments[i] for i in members[h]]
        head = [_advance(masks[r], lengths[r], ()) for r in range(k)]
        tail = [_advance(reversed_masks[r], lengths[r], ()) for r in range(k)]
        heads, tails = [head], [tail]
        for words, back in zip(stream, reversed(stream)):
            head = [_advance(masks[r], lengths[r], words, head[r]) for r in range(k)]
            tail = [
                _advance(reversed_masks[r], lengths[r], back[::-1], tail[r])
                for r in range(k)
            ]
            heads.append(head)
            tails.append(tail)
        tails.reverse()
        shape = (len(heads), k, width + 1)
        flat = lengths * len(heads)
        prefix = _column_values([c for cs in heads for c in cs], flat, width)
        suffix = _column_values([c for cs in tails for c in cs], flat, width, suffix=True)
        prefix, suffix = prefix.reshape(shape), suffix.reshape(shape)
        return _Boundaries(heads, suffix, (prefix[:-1] + suffix[1:]).min(axis=2))

    def insertion(h: int, q: int, words: tuple[str, ...]) -> np.ndarray:
        """Distances of cluster h's stream with ``words`` inserted at boundary q."""
        state = states[h]
        ends = [_advance(masks[r], lengths[r], words, state.heads[q][r]) for r in range(k)]
        return (_column_values(ends, lengths, width) + state.suffixes[q]).min(axis=1)

    members: list[list[int]] = [[] for _ in range(k)]
    for i, label in enumerate(labels):
        members[label].append(i)
    states = [boundaries(h) for h in range(k)]
    cost = np.stack(
        [np.array([c.score for c in state.heads[-1]], dtype=np.int64) for state in states],
        axis=1,
    )
    rows, cols = linear_sum_assignment(cost)
    current = int(cost[rows, cols].sum())

    while current > 0:
        best_total = current
        best_move = None
        for i in range(num_segments):
            a = labels[i]
            p = members[a].index(i)
            removed = tuple(members[a][:p] + members[a][p + 1 :])
            if removed not in column_cache:
                column_cache[removed] = states[a].removals[p]
            for b in range(k):
                if b == a:
                    continue
                q = bisect.bisect(members[b], i)
                added = tuple(members[b][:q] + [i] + members[b][q:])
                if added not in column_cache:
                    column_cache[added] = insertion(b, q, segments[i])
                candidate = cost.copy()
                candidate[:, a] = column_cache[removed]
                candidate[:, b] = column_cache[added]
                rows, cols = linear_sum_assignment(candidate)
                total = int(candidate[rows, cols].sum())
                if total < best_total:
                    best_total = total
                    best_move = (i, a, b, candidate)
        if best_move is None:
            break
        i, a, b, cost = best_move
        labels[i] = b
        members[a].remove(i)
        members[b] = sorted(members[b] + [i])
        states[a], states[b] = boundaries(a), boundaries(b)
        current = best_total
    return current, labels


def oracle_assignment(
    session: SessionHypothesis,
    reference: ReferenceTranscript,
    mode: str = "exact",
) -> tuple[LabelAssignment, CpWerReport]:
    """Segment labeling over the reference speakers that minimizes cpWER.

    Label ``c`` stands for the c-th reference speaker (file order), so the
    cpWER permutation of the result is the identity by construction.  Exact
    mode requires (#reference speakers) ** (#segments) <=
    ``EXACT_SEARCH_BUDGET``.
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

    order = segment_order(session)
    refs = [tuple(reference.per_speaker[l]) for l in ref_labels]
    segments = [tuple(session.segments[i].words) for i in order]

    if mode == "exact":
        if not exact_fits_budget(k, len(segments)):
            raise ValueError(
                f"exact oracle over budget: {k}^{len(segments)} > "
                f"{EXACT_SEARCH_BUDGET}; use greedy mode"
            )
        cost, ordered_labels = _exact_search(segments, refs)
    else:
        cost, ordered_labels = _greedy_search(segments, refs)

    labels = [0] * len(session.segments)
    for position, segment_index in enumerate(order):
        labels[segment_index] = ordered_labels[position]
    assignment = LabelAssignment(session_id=session.session_id, labels=tuple(labels))
    report = cpwer_from_segments(
        reference, session, assignment, num_clusters=k, label_names=ref_labels
    )
    assert report.errors == cost
    return assignment, report


def relative_confusion_error(
    cpwer_none: float, cpwer_slr: float, cpwer_oracle: float
) -> float:
    """Share of the fixable speaker-confusion error that remains after reassignment.

    0 means the oracle assignment was reached, 1 means no improvement over
    skipping reassignment; values above 1 (reassignment made things worse)
    are legal and not clamped.
    """
    if min(cpwer_none, cpwer_slr, cpwer_oracle) < 0:
        raise ValueError("cpWER values must be non-negative")
    if cpwer_none < cpwer_oracle:
        raise ValueError(
            f"cpwer_none ({cpwer_none}) must be >= cpwer_oracle ({cpwer_oracle})"
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
