"""In-memory span recorder and self-time accounting.

Spans are recorded by wrapping the public entry points of each layer for the
duration of a traced run (:meth:`Tracer.instrument`); the program's own
source is untouched.  A span is ``(span_id, parent_id, trace_id, name,
start, end)``: the parent is the span open on this thread when it started,
and ``trace_id`` is the operation (iteration or query) it belongs to.  Spans
stay in memory until :meth:`Tracer.write` dumps them as one JSON document
when the run ends.

Workers forked while tracing inherit the wrappers, but their spans stay in
the worker; the parent records its wait for them instead.
"""

from __future__ import annotations

import array
import contextlib
import functools
import json
import pathlib
import time
from collections import defaultdict
from typing import Any, Callable, Iterable, Iterator, Sequence

SPAN_FIELDS = ("span_id", "parent_id", "trace_id", "name", "start", "end")
NO_PARENT = -1


class Tracer:
    """Records nested spans around wrapped calls.

    Spans are kept column-wise in typed arrays, which hold no Python objects,
    so recording adds nothing for the cyclic garbage collector to scan: a
    long trace must not make the traced program's own collections dearer.
    """

    def __init__(self) -> None:
        self.trace_id = 0
        self._names: list[str] = []
        self._name_index: dict[str, int] = {}
        self._parents = array.array("q")
        self._trace_ids = array.array("q")
        self._name_ids = array.array("q")
        self._starts = array.array("d")
        self._ends = array.array("d")
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        """Start a span under the innermost open span; returns its id."""
        span_id = len(self._starts)
        name_id = self._name_index.get(name)
        if name_id is None:
            name_id = self._name_index[name] = len(self._names)
            self._names.append(name)
        self._parents.append(self._stack[-1] if self._stack else NO_PARENT)
        self._trace_ids.append(self.trace_id)
        self._name_ids.append(name_id)
        self._ends.append(0.0)
        self._stack.append(span_id)
        self._starts.append(time.perf_counter())
        return span_id

    def close(self, span_id: int) -> None:
        """End span ``span_id`` (the innermost open one)."""
        self._ends[span_id] = time.perf_counter()
        self._stack.pop()

    @property
    def spans(self) -> list[tuple[Any, ...]]:
        """Every span as ``(span_id, parent_id, trace_id, name, start, end)``."""
        names = self._names
        return [
            (span_id, parent, trace_id, names[name_id], start, end)
            for span_id, (parent, trace_id, name_id, start, end) in enumerate(
                zip(self._parents, self._trace_ids, self._name_ids, self._starts, self._ends)
            )
        ]

    def wrap(self, name: str, function: Callable) -> Callable:
        """``function`` with every call recorded as a span named ``name``."""
        tracer = self

        @functools.wraps(function)
        def traced(*args, **kwargs):
            span_id = tracer.open(name)
            try:
                return function(*args, **kwargs)
            finally:
                tracer.close(span_id)

        return traced

    @contextlib.contextmanager
    def instrument(self, targets: Iterable[tuple[Any, str, str]]) -> Iterator[None]:
        """Wrap each ``(owner, attribute, span_name)`` for the ``with`` body.

        ``owner`` is a class or a module; the original attribute is restored
        on exit, whatever happens inside.
        """
        originals = []
        try:
            for owner, attribute, name in targets:
                original = owner.__dict__[attribute]
                originals.append((owner, attribute, original))
                setattr(owner, attribute, self.wrap(name, original))
            yield
        finally:
            for owner, attribute, original in reversed(originals):
                setattr(owner, attribute, original)

    def write(self, path: pathlib.Path, extra: dict[str, Any]) -> None:
        """Dump every span (and ``extra`` run facts) as one JSON document."""
        path.parent.mkdir(parents=True, exist_ok=True)
        document = {"fields": list(SPAN_FIELDS), "spans": self.spans, **extra}
        path.write_text(json.dumps(document, separators=(",", ":")), encoding="utf-8")


def covered_length(intervals: Sequence[tuple[float, float]], start: float, end: float) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    clipped = sorted(
        (max(lo, start), min(hi, end)) for lo, hi in intervals if hi > start and lo < end
    )
    total = 0.0
    run_start, run_end = None, None
    for lo, hi in clipped:
        if run_end is None or lo > run_end:
            if run_end is not None:
                total += run_end - run_start
            run_start, run_end = lo, hi
        else:
            run_end = max(run_end, hi)
    if run_end is not None:
        total += run_end - run_start
    return total


def self_times(spans: Sequence[Sequence[Any]]) -> list[float]:
    """Each span's duration minus the part of it its child spans cover.

    Children may nest or overlap one another; overlapping time is counted
    once.  Indexed like ``spans`` (whose ``span_id`` is its position).
    """
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for _, parent, _, _, start, end in spans:
        if parent != NO_PARENT:
            children[parent].append((start, end))
    return [
        (end - start) - covered_length(children.get(span_id, ()), start, end)
        for span_id, _, _, _, start, end in spans
    ]


def layer_totals(spans: Sequence[Sequence[Any]]) -> dict[str, dict[str, float]]:
    """Per span name: ``calls``, ``busy_s`` and ``self_s``.

    ``calls`` and ``busy_s`` count only outermost spans of a name (a span
    whose parent has the same name is a re-entrant call already inside its
    parent's duration); ``self_s`` sums every span's self time.
    """
    selfs = self_times(spans)
    names = [span[3] for span in spans]
    totals: dict[str, dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0}
    )
    for index, (_, parent, _, name, start, end) in enumerate(spans):
        entry = totals[name]
        entry["self_s"] += selfs[index]
        if parent == NO_PARENT or names[parent] != name:
            entry["calls"] += 1
            entry["busy_s"] += end - start
    return dict(totals)

