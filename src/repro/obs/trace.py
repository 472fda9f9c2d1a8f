"""A lightweight span tracer over the runtime's own clock.

A *span* is one timed operation — planning, a store roundtrip, a pool
lifetime, a fetch — with a name ("kind"), start/end timestamps, an
optional parent span and free-form key/value attributes. Timestamps are
whatever clock the active :class:`~repro.network.executor.ExecContext`
exposes, so under :class:`~repro.network.executor.VirtualRuntime` spans
are placed on the deterministic virtual timeline and under
:class:`~repro.network.executor.RealRuntime` on the wall clock. Tracing
only *reads* the clock; it never charges CPU or latency, so virtual-time
accounting is bit-identical with and without it (the smoke guard in
``tests/test_benchmark_guard.py`` pins this).

Retention is bounded and comes in two kinds:

* **Untraced spans** (``trace_id is None``: a classic run, which resets
  the tracer first) share one buffer of ``max_spans``. Past the cap the
  *newest* span is dropped and counted, so the roots of the run's tree
  stay renderable and tracing a 10,000-result augmentation cannot
  exhaust memory.
* **Request spans** (served requests stamp their ``trace_id``) live in
  one bucket per trace, with their own budget of ``max_spans`` in total.
  Past it the *oldest traces with no span still open* are evicted whole
  and counted, so a long-lived server keeps the spans of its recent
  requests, and reading one request costs its own spans, not the
  buffer's.
"""

from __future__ import annotations

import threading
from typing import Any


class Span:
    """One finished or in-flight traced operation."""

    __slots__ = (
        "span_id", "name", "parent_id", "start", "end", "attrs", "trace_id",
    )

    def __init__(
        self,
        span_id: int,
        name: str,
        start: float,
        parent_id: int | None = None,
        attrs: dict[str, Any] | None = None,
        trace_id: str | None = None,
    ) -> None:
        self.span_id = span_id
        self.name = name
        self.parent_id = parent_id
        self.start = start
        self.end: float | None = None
        self.attrs: dict[str, Any] = attrs or {}
        #: The owning request's trace id (serving), or ``None`` for
        #: classic single-run spans.
        self.trace_id = trace_id

    @property
    def duration(self) -> float:
        return 0.0 if self.end is None else self.end - self.start

    def as_dict(self) -> dict[str, Any]:
        return {
            "id": self.span_id,
            "name": self.name,
            "parent": self.parent_id,
            "start": self.start,
            "end": self.end,
            "duration": self.duration,
            "trace_id": self.trace_id,
            "attrs": dict(self.attrs),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Span({self.span_id}, {self.name!r}, start={self.start:.6f}, "
            f"end={self.end}, parent={self.parent_id})"
        )


class Tracer:
    """Collects spans (thread-safe, bounded; see the module docstring).

    Span ids are monotonic for the tracer's lifetime — they do NOT
    restart on :meth:`reset`. Under the serving layer many requests
    share one tracer, and a reset (issued by a concurrent classic run
    via ``Runtime.root()``) must not recycle ids that in-flight spans
    still reference: recycled ids would stitch new spans onto dead
    parents. Instead, ``reset`` raises a *floor*: spans begun before the
    reset are silently discarded when they end (counted as dropped from
    the run they belonged to, which no longer exists).
    """

    def __init__(self, max_spans: int = 10_000) -> None:
        if max_spans < 1:
            raise ValueError(f"max_spans must be >= 1, got {max_spans}")
        self.max_spans = max_spans
        self._lock = threading.Lock()
        #: Finished untraced spans, in completion order.
        self._spans: list[Span] = []
        #: Trace id -> that request's finished spans in completion
        #: order; buckets sit oldest trace first (dict insertion order).
        self._traces: dict[str, list[Span]] = {}
        #: Spans held across all buckets (their shared budget).
        self._traced = 0
        #: Trace id -> spans begun and not yet ended. An entry lives
        #: only while its count is positive; a trace listed here is in
        #: flight and never evicted.
        self._open: dict[str, int] = {}
        self._next_id = 1
        self._dropped = 0
        self._evicted = 0
        #: Spans with ``span_id < _reset_floor`` predate the last reset
        #: and belong to a discarded run; :meth:`end` drops them.
        self._reset_floor = 1

    def begin(
        self,
        name: str,
        start: float,
        parent_id: int | None = None,
        trace_id: str | None = None,
        **attrs: Any,
    ) -> Span:
        """Open a span; it is retained once :meth:`end` closes it."""
        with self._lock:
            span = Span(
                self._next_id, name, start, parent_id, attrs, trace_id
            )
            self._next_id += 1
            if trace_id is not None:
                self._open[trace_id] = self._open.get(trace_id, 0) + 1
        return span

    def end(self, span: Span, end: float) -> None:
        """Close ``span`` at time ``end`` and retain it (cap permitting).

        A span begun before the last :meth:`reset` belongs to a run
        whose trace was discarded; it is not retained (and not counted
        as dropped — its run's counters are gone too).
        """
        span.end = end
        trace_id = span.trace_id
        with self._lock:
            if span.span_id < self._reset_floor:
                return
            if trace_id is None:
                if len(self._spans) >= self.max_spans:
                    self._dropped += 1
                else:
                    self._spans.append(span)
                return
            if self._make_room(trace_id):
                self._traces.setdefault(trace_id, []).append(span)
                self._traced += 1
            else:
                self._dropped += 1
            still_open = self._open.get(trace_id, 1) - 1
            if still_open > 0:
                self._open[trace_id] = still_open
            else:
                self._open.pop(trace_id, None)

    def _make_room(self, trace_id: str) -> bool:
        """Get the request spans under budget for one more span of
        ``trace_id`` (lock held).

        Evicts whole buckets, oldest first, skipping ``trace_id``'s own
        and every trace in flight. ``False`` when those are all that is
        left — the request spans in flight alone fill the budget — and
        the new span has to be dropped instead.
        """
        while self._traced >= self.max_spans:
            for victim in self._traces:
                if victim != trace_id and victim not in self._open:
                    break
            else:
                return False
            self._traced -= len(self._traces.pop(victim))
            self._evicted += 1
        return True

    def record(
        self,
        name: str,
        start: float,
        end: float,
        parent_id: int | None = None,
        trace_id: str | None = None,
        **attrs: Any,
    ) -> Span:
        """One-shot: open and immediately close a span."""
        span = self.begin(name, start, parent_id, trace_id, **attrs)
        self.end(span, end)
        return span

    def reset(self) -> None:
        """Start a fresh trace: drop finished spans (both kinds) and
        orphan in-flight ones (they are discarded at ``end``). Called by
        ``Runtime.root()`` so each classic run starts clean; span ids
        keep counting up so concurrent serving requests never see their
        parent ids recycled.
        """
        with self._lock:
            self._spans = []
            self._traces = {}
            self._traced = 0
            self._open = {}
            self._dropped = 0
            self._evicted = 0
            self._reset_floor = self._next_id

    def spans(self) -> list[Span]:
        """A snapshot of every finished span retained: the untraced ones
        in completion order, then each trace's, oldest trace first."""
        with self._lock:
            out = list(self._spans)
            for bucket in self._traces.values():
                out.extend(bucket)
            return out

    def spans_for(self, trace_id: str) -> list[Span]:
        """Finished spans of one request, in completion order (empty
        once the trace has been evicted)."""
        with self._lock:
            return list(self._traces.get(trace_id, ()))

    @property
    def dropped(self) -> int:
        """Spans discarded because a cap was reached (locked read)."""
        with self._lock:
            return self._dropped

    @property
    def evicted(self) -> int:
        """Whole traces evicted to make room for newer requests' spans
        (locked read)."""
        with self._lock:
            return self._evicted

    def stats(self) -> dict[str, int]:
        """Span count, drop count and cap, read under one lock."""
        with self._lock:
            return {
                "spans": len(self._spans) + self._traced,
                "dropped": self._dropped,
                "max_spans": self.max_spans,
            }

    def __len__(self) -> int:
        with self._lock:
            return len(self._spans) + self._traced

    def summary(
        self, trace_id: str | None = None
    ) -> dict[str, dict[str, float]]:
        """Per span kind: ``{"count": n, "total_s": seconds}`` — over
        one request's spans when given its ``trace_id``, else over
        everything retained."""
        spans = self.spans() if trace_id is None else self.spans_for(trace_id)
        out: dict[str, dict[str, float]] = {}
        for span in spans:
            entry = out.setdefault(span.name, {"count": 0, "total_s": 0.0})
            entry["count"] += 1
            entry["total_s"] += span.duration
        return out

    def as_dicts(self) -> list[dict[str, Any]]:
        return [span.as_dict() for span in self.spans()]


def tree_lines(spans: list[Span | dict[str, Any]]) -> list[str]:
    """Render spans as an indented tree, ordered by start time.

    Takes :class:`Span` objects or their :meth:`Span.as_dict` form (what
    the ``trace`` report and ``GET /trace`` return). Orphan spans
    (parent evicted by the cap, or none) sit at depth 0. Used by the CLI
    ``trace`` subcommand.
    """
    rows = [
        span.as_dict() if isinstance(span, Span) else span for span in spans
    ]
    by_parent: dict[int | None, list[dict[str, Any]]] = {}
    ids = {row["id"] for row in rows}
    for row in rows:
        parent = row["parent"] if row["parent"] in ids else None
        by_parent.setdefault(parent, []).append(row)
    lines: list[str] = []

    def walk(parent: int | None, depth: int) -> None:
        for row in sorted(
            by_parent.get(parent, []), key=lambda r: (r["start"], r["id"])
        ):
            attrs = " ".join(
                f"{key}={value}" for key, value in sorted(row["attrs"].items())
            )
            lines.append(
                "  " * depth
                + f"{row['name']}  start={row['start']:.6f}s "
                + f"dur={row['duration'] * 1000:.3f}ms"
                + (f"  {attrs}" if attrs else "")
            )
            walk(row["id"], depth + 1)

    walk(None, 0)
    return lines
