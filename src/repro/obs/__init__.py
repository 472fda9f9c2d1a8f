"""Observability: pipeline-wide tracing and metrics (ROADMAP item).

The paper's adaptive optimizer learns from logs of completed
augmentations (Section V); its Figs 9-11 dissect *where* time goes —
planning vs. cache probes vs. per-store roundtrips vs. pool
synchronization. This package provides that visibility for the
reproduction:

* :class:`~repro.obs.trace.Tracer` — spans on the runtime's own clock
  (virtual or wall), with parent/child structure and attributes: one
  run's tree for a classic search, one bucket per served request;
* :class:`~repro.obs.metrics.MetricsRegistry` — cumulative thread-safe
  counters, gauges and fixed-bucket histograms (per-database latency);
* :class:`Observability` — one bundle of both, created per
  :class:`~repro.network.executor.Runtime` (hence per ``Quepa``) and
  reached from any :class:`~repro.network.executor.ExecContext` via
  ``ctx.obs``.

Results surface three ways: ``AugmentationOutcome.trace`` /
``RunRecord`` fields (Python API), ``GET /metrics`` + ``GET /trace`` on
the UI server, and the ``stats`` / ``trace`` CLI subcommands.

Tracing never charges the clocks it reads — virtual-time numbers are
bit-identical with instrumentation on (see tests/test_benchmark_guard).
"""

from __future__ import annotations

from typing import Any

from repro.obs.events import SEVERITIES, Event, EventJournal
from repro.obs.export import (
    parse_prometheus_text,
    to_chrome_trace,
    to_prometheus,
)
from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.requests import (
    FlightRecorder,
    RequestDigest,
    TraceIdAllocator,
    latency_breakdown,
)
from repro.obs.trace import Span, Tracer, tree_lines


class Observability:
    """Tracer + metrics registry + event journal, shared by a runtime's
    contexts.

    The tracer and the journal keep their own default bounds.
    ``slow_query_threshold`` (seconds, ``None`` = disabled, the default;
    ``repro events --slow-ms`` sets it) arms the per-store slow-query
    log: any store roundtrip whose elapsed time meets the threshold
    emits a ``slow_query`` warning event with the store name, native
    query text and elapsed time in its attrs.
    """

    def __init__(self) -> None:
        self.tracer = Tracer()
        self.metrics = MetricsRegistry()
        self.events = EventJournal()
        self.slow_query_threshold: float | None = None

    def trace_summary(self, trace_id: str | None = None) -> dict[str, Any]:
        """Structured summary of the current run's trace — of one served
        request when given its ``trace_id`` (``"spans"`` is then that
        request's count), else of everything the tracer retains."""
        stats = self.tracer.stats()
        by_kind = self.tracer.summary(trace_id)
        return {
            "spans": (
                stats["spans"]
                if trace_id is None
                else sum(entry["count"] for entry in by_kind.values())
            ),
            "dropped": stats["dropped"],
            "by_kind": by_kind,
        }

    def snapshot(self) -> dict[str, Any]:
        """Everything, JSON-ready (the UI ``/metrics`` payload)."""
        return {
            "metrics": self.metrics.snapshot(),
            "trace": self.trace_summary(),
            "events": self.events.stats(),
        }


__all__ = [
    "DEFAULT_BUCKETS",
    "SEVERITIES",
    "Counter",
    "Event",
    "EventJournal",
    "FlightRecorder",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Observability",
    "RequestDigest",
    "Span",
    "TraceIdAllocator",
    "Tracer",
    "latency_breakdown",
    "parse_prometheus_text",
    "to_chrome_trace",
    "to_prometheus",
    "tree_lines",
]
