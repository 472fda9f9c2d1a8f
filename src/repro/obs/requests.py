"""Request-scoped tracing support: trace ids, digests, flight recorder.

PR 5-7 made the reproduction a concurrent serving system, but the obs
layer stayed per-run: one shared tracer, reset between runs, spans from
concurrent sessions interleaved with no attribution. This module is the
request-scoped half:

* **Trace ids** — every request the scheduler admits gets a
  ``trace_id`` from :class:`TraceIdAllocator` (deterministic counter,
  ``"t-000001"``-style, so tests and journals are stable). The id rides
  the :class:`~repro.network.executor.ExecContext` through pool workers,
  coalesced flights and per-shard scatter tasks, and is
  stamped on every span those paths record.
* **Latency breakdown** — :func:`latency_breakdown` folds one request's
  spans into "where did the time go": queue wait vs store time by
  database vs per-shard fetches vs coalesce waits.
  Attached to serving digests and :class:`~repro.core.runlog.RunRecord`.
* **Flight recorder** — :class:`FlightRecorder` keeps a bounded ring of
  :class:`RequestDigest` with *tail-based retention*: errored, shed and
  degraded requests are always kept, completed ones only when slow
  (at/over ``slow_threshold`` seconds, or at/over the rolling
  :data:`ADAPTIVE_QUANTILE` once :data:`ADAPTIVE_MIN_SAMPLES` completions
  exist); fast-and-fine requests only bump counters.
  Queryable via CLI ``record`` and ``GET /requests``.

Everything here only *reads* clocks and spans — nothing charges virtual
time, so the fig09 guard stays bit-identical with the recorder attached.
"""

from __future__ import annotations

import itertools
import threading
from collections import deque
from dataclasses import dataclass, field, replace
from typing import Any, Iterable

from repro.obs.metrics import Histogram
from repro.obs.trace import Span

#: Without an absolute ``slow_threshold``, a completion is slow at/over
#: this quantile of the completed latencies the recorder has seen...
ADAPTIVE_QUANTILE = 0.95
#: ...once it has seen at least this many.
ADAPTIVE_MIN_SAMPLES = 50


class TraceIdAllocator:
    """Deterministic, thread-safe trace-id source (``t-000001``, ...)."""

    def __init__(self, prefix: str = "t") -> None:
        self._prefix = prefix
        self._ids = itertools.count(1)

    def next_id(self) -> str:
        # itertools.count.__next__ is atomic under CPython; no lock.
        return f"{self._prefix}-{next(self._ids):06d}"


def latency_breakdown(spans: Iterable[Span]) -> dict[str, Any]:
    """Fold one request's spans into a critical-path breakdown.

    Returns a JSON-ready dict::

        {
          "store_s": {database: seconds, ...},      # store_call spans
          "store_calls": int,                        # incl. failed ones
          "shard_fetch_s": {"db/shard": seconds},    # scatter children
          "scatter_gathers": int,
          "coalesce_wait_s": float,                  # follower waits
          "coalesce_followed": int,
          "plan_s": float, "augment_s": float, "optimize_s": float,
          "cpu_s": float,                            # cpu_settle spans
        }

    ``cpu_s`` is the wall time spent paying modelled CPU: the real
    runtime's ``cpu_settle`` sleeps, the wait to be rescheduled after
    each included. Pool workers pay theirs in parallel, so like
    ``store_s`` it can exceed the request's latency.
    """
    store_s: dict[str, float] = {}
    shard_s: dict[str, float] = {}
    out: dict[str, Any] = {
        "store_s": store_s,
        "store_calls": 0,
        "shard_fetch_s": shard_s,
        "scatter_gathers": 0,
        "coalesce_wait_s": 0.0,
        "coalesce_followed": 0,
        "plan_s": 0.0,
        "augment_s": 0.0,
        "optimize_s": 0.0,
        "cpu_s": 0.0,
    }
    for span in spans:
        name = span.name
        if name == "store_call":
            database = str(span.attrs.get("database", "?"))
            store_s[database] = store_s.get(database, 0.0) + span.duration
            out["store_calls"] += 1
        elif name == "shard_fetch":
            lane = (
                f"{span.attrs.get('database', '?')}"
                f"/{span.attrs.get('shard', '?')}"
            )
            shard_s[lane] = shard_s.get(lane, 0.0) + span.duration
        elif name == "scatter_gather":
            out["scatter_gathers"] += 1
        elif name == "coalesce_wait":
            out["coalesce_wait_s"] += span.duration
            out["coalesce_followed"] += 1
        elif name in ("plan", "augment", "optimize"):
            out[f"{name}_s"] += span.duration
        elif name == "cpu_settle":
            out["cpu_s"] += span.duration
    return out


@dataclass(frozen=True)
class RequestDigest:
    """What the flight recorder keeps about one served request."""

    trace_id: str
    request_id: int
    session: str
    kind: str
    #: completed / failed / shed.
    status: str
    #: Shed reason (queue_full, deadline, deadline_at_admission,
    #: stopped) or ``None``.
    shed_reason: str | None = None
    degraded: bool = False
    queue_wait_s: float = 0.0
    latency_s: float = 0.0
    #: Why this digest was retained: error / shed / degraded / slow.
    kept_because: str = ""
    error: str | None = None
    breakdown: dict[str, Any] = field(default_factory=dict)

    def as_dict(self) -> dict[str, Any]:
        return {
            "trace_id": self.trace_id,
            "request_id": self.request_id,
            "session": self.session,
            "kind": self.kind,
            "status": self.status,
            "shed_reason": self.shed_reason,
            "degraded": self.degraded,
            "queue_wait_s": self.queue_wait_s,
            "latency_s": self.latency_s,
            "kept_because": self.kept_because,
            "error": self.error,
            "breakdown": dict(self.breakdown),
        }


class FlightRecorder:
    """Bounded, always-on record of the requests worth keeping.

    Tail-based retention: a digest survives when its request erred, was
    shed, returned degraded, or was *slow* — at/over ``slow_threshold``
    seconds when configured, or at/over the rolling
    :data:`ADAPTIVE_QUANTILE` of the recorder's own latency histogram
    once :data:`ADAPTIVE_MIN_SAMPLES` completions have been observed.
    Everything else is dropped after bumping the observed/dropped
    counters, so a healthy high-QPS server pays one histogram observe
    per request and no memory growth.
    """

    def __init__(
        self,
        capacity: int = 256,
        slow_threshold: float | None = None,
    ) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        if slow_threshold is not None and slow_threshold <= 0:
            raise ValueError("slow_threshold must be > 0")
        self.capacity = capacity
        self.slow_threshold = slow_threshold
        self._lock = threading.Lock()
        self._digests: deque[RequestDigest] = deque(maxlen=capacity)
        self._latency = Histogram()
        self._observed = 0
        self._kept = 0
        self._evicted = 0
        self._kept_by_reason: dict[str, int] = {}

    # -- ingestion ----------------------------------------------------------

    def observe(self, digest: RequestDigest) -> bool:
        """Record one finished request; returns True when retained."""
        reason = self._keep_reason(digest)
        if digest.status == "completed":
            self._latency.observe(digest.latency_s)
        with self._lock:
            self._observed += 1
            if reason is None:
                return False
            if len(self._digests) == self._digests.maxlen:
                self._evicted += 1
            self._digests.append(
                digest
                if digest.kept_because == reason
                else replace(digest, kept_because=reason)
            )
            self._kept += 1
            self._kept_by_reason[reason] = (
                self._kept_by_reason.get(reason, 0) + 1
            )
        return True

    def _keep_reason(self, digest: RequestDigest) -> str | None:
        # Shed before error: a shed request carries its shed exception,
        # but "shed" is the more specific verdict.
        if digest.status == "shed":
            return "shed"
        if digest.status == "failed" or digest.error is not None:
            return "error"
        if digest.degraded:
            return "degraded"
        if (
            self.slow_threshold is not None
            and digest.latency_s >= self.slow_threshold
        ):
            return "slow"
        if (
            self.slow_threshold is None
            and self._latency.count >= ADAPTIVE_MIN_SAMPLES
            and digest.latency_s
            >= self._latency.percentile(ADAPTIVE_QUANTILE)
        ):
            return "slow"
        return None

    # -- reads --------------------------------------------------------------

    def records(
        self,
        session: str | None = None,
        status: str | None = None,
        limit: int | None = None,
    ) -> list[RequestDigest]:
        """A filtered snapshot, oldest first; ``limit`` keeps the newest."""
        with self._lock:
            selected = list(self._digests)
        if session is not None:
            selected = [d for d in selected if d.session == session]
        if status is not None:
            selected = [d for d in selected if d.status == status]
        if limit is not None and limit >= 0:
            selected = selected[max(len(selected) - limit, 0):]
        return selected

    def as_dicts(self, **filters: Any) -> list[dict[str, Any]]:
        return [digest.as_dict() for digest in self.records(**filters)]

    def stats(self) -> dict[str, Any]:
        with self._lock:
            return {
                "size": len(self._digests),
                "capacity": self.capacity,
                "observed": self._observed,
                "kept": self._kept,
                "evicted": self._evicted,
                "kept_by_reason": dict(self._kept_by_reason),
                "slow_threshold": self.slow_threshold,
                "completed_latency_p95": self._latency.percentile(
                    ADAPTIVE_QUANTILE
                ),
            }

    def __len__(self) -> int:
        with self._lock:
            return len(self._digests)
