"""A structured event journal: bounded, thread-safe, typed events.

Where the tracer answers "where did the time go inside this run?", the
journal answers "what happened across runs?" — slow queries, stores
going unavailable, lazy deletions, completed augmentations. Each event
has a monotonic sequence number, a timestamp from the runtime's own
clock (virtual or wall — the journal never reads wall clocks itself, so
virtual-time accounting stays bit-identical), a severity, a kind and
free-form attributes.

The ring is bounded: past ``max_events`` the oldest event is evicted
and counted as dropped, so a chatty workload cannot exhaust memory. An
optional JSONL sink mirrors every event to a file as it is emitted,
which is the tail-able slow-query log the ROADMAP's production north
star asks for.
"""

from __future__ import annotations

import json
import threading
from collections import deque
from dataclasses import dataclass, field
from typing import Any, IO, Iterable

SEVERITIES: tuple[str, ...] = ("debug", "info", "warning", "error")
_SEVERITY_RANK = {name: rank for rank, name in enumerate(SEVERITIES)}


@dataclass
class Event:
    """One journal entry."""

    seq: int
    ts: float
    severity: str
    kind: str
    attrs: dict[str, Any] = field(default_factory=dict)

    def as_dict(self) -> dict[str, Any]:
        return {
            "seq": self.seq,
            "ts": self.ts,
            "severity": self.severity,
            "kind": self.kind,
            "attrs": dict(self.attrs),
        }


class EventJournal:
    """Bounded ring of :class:`Event` with an optional JSONL file sink."""

    def __init__(self, max_events: int = 2048) -> None:
        if max_events < 1:
            raise ValueError(f"max_events must be >= 1, got {max_events}")
        self.max_events = max_events
        self._lock = threading.Lock()
        self._events: deque[Event] = deque(maxlen=max_events)
        self._seq = 0
        self._emitted = 0
        self._dropped = 0
        self._sink: IO[str] | None = None
        self._sink_owned = False

    # -- emission ---------------------------------------------------------------

    def emit(
        self,
        kind: str,
        severity: str = "info",
        ts: float = 0.0,
        **attrs: Any,
    ) -> Event:
        """Append an event; evicts (and counts) the oldest past the cap."""
        if severity not in _SEVERITY_RANK:
            raise ValueError(
                f"unknown severity {severity!r}, expected one of {SEVERITIES}"
            )
        with self._lock:
            self._seq += 1
            event = Event(self._seq, ts, severity, kind, attrs)
            if len(self._events) == self._events.maxlen:
                self._dropped += 1
            self._events.append(event)
            self._emitted += 1
            sink = self._sink
            if sink is not None:
                sink.write(json.dumps(event.as_dict(), default=str) + "\n")
                sink.flush()
        return event

    # -- sink -------------------------------------------------------------------

    def attach_sink(self, target: str | IO[str]) -> None:
        """Mirror every future event to ``target`` as one JSON line each.

        ``target`` is a path (opened in append mode and owned by the
        journal) or an already-open text file object (caller-owned).
        """
        with self._lock:
            self._close_sink_locked()
            if isinstance(target, str):
                self._sink = open(target, "a", encoding="utf-8")
                self._sink_owned = True
            else:
                self._sink = target
                self._sink_owned = False

    def close_sink(self) -> None:
        with self._lock:
            self._close_sink_locked()

    def _close_sink_locked(self) -> None:
        if self._sink is not None and self._sink_owned:
            self._sink.close()
        self._sink = None
        self._sink_owned = False

    # -- reads ------------------------------------------------------------------

    def events(
        self,
        kind: str | None = None,
        min_severity: str | None = None,
        limit: int | None = None,
    ) -> list[Event]:
        """A filtered snapshot, oldest first; ``limit`` keeps the newest."""
        if min_severity is not None and min_severity not in _SEVERITY_RANK:
            raise ValueError(
                f"unknown severity {min_severity!r}, "
                f"expected one of {SEVERITIES}"
            )
        with self._lock:
            selected: Iterable[Event] = list(self._events)
        if kind is not None:
            selected = [event for event in selected if event.kind == kind]
        if min_severity is not None:
            floor = _SEVERITY_RANK[min_severity]
            selected = [
                event
                for event in selected
                if _SEVERITY_RANK[event.severity] >= floor
            ]
        selected = list(selected)
        if limit is not None and limit >= 0:
            selected = selected[max(len(selected) - limit, 0):]
        return selected

    def as_dicts(self, **filters: Any) -> list[dict[str, Any]]:
        return [event.as_dict() for event in self.events(**filters)]

    def stats(self) -> dict[str, int]:
        with self._lock:
            return {
                "size": len(self._events),
                "capacity": self.max_events,
                "emitted": self._emitted,
                "dropped": self._dropped,
            }

    def clear(self) -> None:
        with self._lock:
            self._events.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._events)
