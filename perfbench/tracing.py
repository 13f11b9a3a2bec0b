"""Spans around slrkit's public functions, recorded from the benchmark's side.

A traced pass wraps the functions in ``TARGETS``.  Each wrapped call records
one span (name, start, end, parent) in memory, plus a small note for the
counts derived later.  Modules import each other's functions by name, so a
wrapper is installed by rebinding every name in every ``slrkit`` module that
refers to the original function, and the originals are put back afterwards.

A span's self time is its duration minus the durations of its direct
children.  Because only the functions below are wrapped, private helpers
count towards the self time of the public function that calls them: the
Jacobi eigensolver towards ``spectral_cluster``, the greedy search towards
``oracle_assignment``, the cost matrix and Hungarian step towards ``cpwer``.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np
from slrkit.affinity import attenuate


def _size(path) -> int:
    return os.stat(path).st_size if isinstance(path, (str, os.PathLike)) else 0


def _mode(args, kwargs, _result):
    return args[2] if len(args) > 2 else kwargs.get("mode", "exact")


# (module, function, note); a note runs after the span's end time is taken and
# only picks values out of the arguments or result, so it costs next to nothing.
TARGETS: tuple[tuple[str, str, Callable | None], ...] = (
    ("cli", "main", None),
    ("corpus", "parse_segments", lambda a, k, r: (_size(a[0]), sum(len(s.segments) for s in r))),
    ("corpus", "parse_reference", lambda a, k, r: (_size(a[0]), 0)),
    ("corpus", "read_embeddings_sidecar", lambda a, k, r: (_size(a[0]), 0)),
    ("corpus", "write_assignment", None),
    ("pipeline", "reassign", None),
    ("pipeline", "run_report", None),
    ("spectral", "spectral_cluster", lambda a, k, r: len(a[0].segments)),
    ("spectral", "normalized_laplacian", None),
    ("spectral", "discretize", None),
    ("affinity", "cosine_affinity", None),
    ("affinity", "attenuate", lambda a, k, r: (a[1], a[2])),
    ("kmeans", "kmeans_pp", None),
    ("metrics", "cpwer", None),
    ("metrics", "cpwer_from_segments", None),
    ("metrics", "edit_distance", lambda a, k, r: len(a[0]) * len(a[1])),
    ("oracle", "oracle_assignment", _mode),
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into the span list, -1 at the top
    note: Any = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans of the wrapped calls made while it is installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def _wrap(self, name: str, fn: Callable, note: Callable | None) -> Callable:
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(Span(name, 0.0, 0.0, stack[-1] if stack else -1))
            stack.append(index)
            result = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                span = spans[index]
                span.start, span.end = start, end
                if note is not None and result is not None:
                    span.note = note(args, kwargs, result)

        return wrapper

    @contextmanager
    def installed(self):
        """Rebind the targets in every loaded slrkit module for the duration."""
        modules = [
            m for n, m in list(sys.modules.items())
            if n == "slrkit" or n.startswith("slrkit.")
        ]
        restore = []
        for module_name, func_name, note in TARGETS:
            original = getattr(sys.modules[f"slrkit.{module_name}"], func_name)
            wrapper = self._wrap(f"{module_name}.{func_name}", original, note)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        restore.append((module, attr, original))
        try:
            yield self
        finally:
            for module, attr, original in restore:
                setattr(module, attr, original)


def self_times(spans: list[Span]) -> list[float]:
    own = [s.duration for s in spans]
    for s in spans:
        if s.parent >= 0:
            own[s.parent] -= s.duration
    return own


def _attenuated_pairs(note) -> tuple[int, int]:
    """(pairs with factor < 1, all off-diagonal pairs) of one attenuate call."""
    durations, cfg = note
    n = len(durations)
    factors = attenuate(np.ones((n, n)), durations, cfg)
    below = int(np.count_nonzero(factors[~np.eye(n, dtype=bool)] < 1.0))
    return below, n * (n - 1)


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer times and counts of one traced pass."""
    own = self_times(spans)

    def pick(name):
        return [i for i, s in enumerate(spans) if s.name == name]

    def total(name):
        return sum(spans[i].duration for i in pick(name))

    def self_total(name):
        return sum(own[i] for i in pick(name))

    def notes(name):
        return [spans[i].note for i in pick(name) if spans[i].note is not None]

    parsed = notes("corpus.parse_segments")
    read = parsed + notes("corpus.parse_reference") + notes("corpus.read_embeddings_sidecar")
    pairs = [_attenuated_pairs(n) for n in notes("affinity.attenuate")]
    oracle_modes = notes("oracle.oracle_assignment")
    oracle_spans = set(pick("oracle.oracle_assignment"))
    verify_s = sum(
        spans[i].duration
        for i in pick("metrics.cpwer_from_segments")
        if spans[i].parent in oracle_spans
    )
    reassign_and_report = pick("pipeline.reassign") + pick("pipeline.run_report")
    return {
        "spectral.eig_s": self_total("spectral.spectral_cluster"),
        "spectral.eig_calls": len(pick("spectral.spectral_cluster")),
        "spectral.eig_n3": sum(n**3 for n in notes("spectral.spectral_cluster")),
        "spectral.laplacian_s": total("spectral.normalized_laplacian"),
        "spectral.discretize_s": total("spectral.discretize"),
        "spectral.cluster_s": total("spectral.spectral_cluster"),
        "metrics.cpwer_s": total("metrics.cpwer"),
        "metrics.cpwer_calls": len(pick("metrics.cpwer")),
        "metrics.sdi_s": self_total("metrics.edit_distance"),
        "metrics.sdi_cells": sum(notes("metrics.edit_distance")),
        "metrics.cost_matrix_s": self_total("metrics.cpwer"),
        "oracle.oracle_s": total("oracle.oracle_assignment"),
        "oracle.search_s": total("oracle.oracle_assignment") - verify_s,
        "oracle.verify_s": verify_s,
        "oracle.calls": len(oracle_spans),
        "oracle.greedy_calls": oracle_modes.count("greedy"),
        "oracle.exact_calls": oracle_modes.count("exact"),
        "affinity.cosine_s": total("affinity.cosine_affinity"),
        "affinity.cosine_calls": len(pick("affinity.cosine_affinity")),
        "affinity.attenuate_s": total("affinity.attenuate"),
        "affinity.attenuated_pair_frac": (
            sum(b for b, _ in pairs) / sum(a for _, a in pairs)
            if sum(a for _, a in pairs)
            else 0.0
        ),
        "kmeans.kmeans_s": total("kmeans.kmeans_pp"),
        "kmeans.calls": len(pick("kmeans.kmeans_pp")),
        "corpus.parse_s": total("corpus.parse_segments") + total("corpus.parse_reference"),
        "corpus.write_s": total("corpus.write_assignment"),
        "corpus.segments_parsed": sum(count for _, count in parsed),
        "corpus.bytes_read": sum(size for size, _ in read),
        "pipeline.reassign_s": total("pipeline.reassign"),
        "pipeline.run_report_s": total("pipeline.run_report"),
        "pipeline.self_s": sum(own[i] for i in reassign_and_report),
        "cli.main_s": total("cli.main"),
        "cli.self_s": self_total("cli.main"),
        "trace.spans": len(spans),
    }


def covered_s(spans: list[Span], layers: set[str]) -> float:
    """Time inside spans of ``layers``, counting nested spans of those layers once."""
    covered = 0.0
    for s in spans:
        if s.name.split(".")[0] not in layers:
            continue
        parent = s.parent
        while parent >= 0 and spans[parent].name.split(".")[0] not in layers:
            parent = spans[parent].parent
        if parent < 0:
            covered += s.duration
    return covered
