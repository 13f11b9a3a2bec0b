"""Oracle segment-to-speaker assignment and the relative confusion-error measure.

The oracle labels each segment with the reference speaker that minimizes the
session cpWER; it lower-bounds what any reassignment method can reach.
Exact mode enumerates every assignment (with branch-and-bound pruning that
never changes the result); greedy mode scales to long sessions via local
alignment initialization plus coordinate descent.  Both score alignments with
the bit-parallel Levenshtein kernel of :mod:`slrkit.metrics`: the greedy
columns as plain distances, the initialization with its free-start flag, and
the exact search by extending one kernel column per speaker and segment.
"""

from __future__ import annotations

import itertools
from typing import Sequence

import numpy as np
from scipy.optimize import linear_sum_assignment

from .corpus import LabelAssignment, ReferenceTranscript, SessionHypothesis
from .metrics import (
    CpWerReport,
    _advance,
    _column_min,
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


def _greedy_search(
    segments: list[tuple[str, ...]], refs: list[tuple[str, ...]]
) -> tuple[int, list[int]]:
    """Free-end-gap initialization followed by best-move coordinate descent.

    Each round evaluates every single-segment reassignment and applies the
    one that decreases the cpWER error count the most (first such move on
    ties); terminates when no move helps, which is guaranteed because the
    error count strictly decreases.
    """
    k = len(refs)
    num_segments = len(segments)
    labels = [
        int(np.argmin([_free_end_gap_cost(words, ref) for ref in refs]))
        for words in segments
    ]

    masks = [_match_masks(ref) for ref in refs]
    column_cache: dict[tuple[int, ...], np.ndarray] = {}

    def column(members: tuple[int, ...]) -> np.ndarray:
        cached = column_cache.get(members)
        if cached is None:
            stream = tuple(itertools.chain.from_iterable(segments[i] for i in members))
            cached = np.array(
                [_advance(masks[r], len(refs[r]), stream).score for r in range(k)],
                dtype=np.int64,
            )
            column_cache[members] = cached
        return cached

    members: list[list[int]] = [[] for _ in range(k)]
    for i, label in enumerate(labels):
        members[label].append(i)
    cost = np.stack([column(tuple(members[h])) for h in range(k)], axis=1)
    rows, cols = linear_sum_assignment(cost)
    current = int(cost[rows, cols].sum())

    while current > 0:
        best_total = current
        best_move = None
        for i in range(num_segments):
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
        labels[i] = b
        members[a].remove(i)
        members[b] = sorted(members[b] + [i])
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
