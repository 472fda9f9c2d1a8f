"""Materialized level-k augmentation answers with CDC invalidation.

A gold-tier cache in front of the serving scheduler: full
:class:`~repro.core.search.AugmentedAnswer` objects for *hot* request
shapes, keyed by ``(database, query, level, augment)``. Unlike the
object cache (which caches object fetches), this tier skips planning
and traversal entirely — a hit costs a dict probe.

Freshness is **event-driven**: after every applied CDC batch the hub
calls :meth:`invalidate`, which drops every entry that (a) lives on a
database that saw events, or (b) depends on any dirty key or any node
of a rebuilt A' component. Entries therefore never outlive an applied
batch that could have changed them — served answers are at worst
*stale* (true as of the last applied batch), never wrong, and the
staleness bound is exactly the CDC lag the hub reports.

Promotion is threshold-based: a request shape becomes materialized
after ``hot_threshold`` misses, so one-off queries never pay the
storage. Recency, capacity eviction and the hit/miss counters are a
:class:`~repro.core.cache.BoundedLru`'s; this module adds admission and
invalidation.
"""

from __future__ import annotations

import threading
from dataclasses import replace
from typing import Any, Iterable

from repro.core.cache import BoundedLru
from repro.core.search import AugmentedAnswer
from repro.model.objects import GlobalKey

MaterializeKey = tuple[str, str, int, bool]


def _freeze_query(query: Any) -> str:
    """A stable textual form of a native query for cache keying."""
    return query if isinstance(query, str) else repr(query)


class _Entry:
    __slots__ = ("answer", "dependencies")

    def __init__(
        self, answer: AugmentedAnswer, dependencies: frozenset[GlobalKey]
    ) -> None:
        self.answer = answer
        self.dependencies = dependencies


class MaterializedAugmentations:
    """Hot-key materialization of augmented answers."""

    def __init__(
        self,
        capacity: int = 256,
        hot_threshold: int = 2,
        metrics: Any = None,
    ) -> None:
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.hot_threshold = hot_threshold
        self._lru: BoundedLru[MaterializeKey, _Entry] = BoundedLru(capacity)
        self._miss_counts: dict[MaterializeKey, int] = {}
        #: Guards the admission and invalidation state and makes
        #: observe/invalidate atomic against each other; the LRU's own
        #: lock nests inside it.
        self._lock = threading.Lock()
        self.invalidations = 0
        self._metrics = metrics
        if metrics is not None:
            self._hit_counter = metrics.counter("materialized_hits_total")
            self._miss_counter = metrics.counter("materialized_misses_total")
            self._invalidation_counter = metrics.counter(
                "materialized_invalidations_total"
            )
            self._size_gauge = metrics.gauge("materialized_entries")
        else:
            self._hit_counter = None
            self._miss_counter = None
            self._invalidation_counter = None
            self._size_gauge = None

    # -- serving side ----------------------------------------------------------

    def lookup(
        self, database: str, query: Any, level: int, augment: bool = True
    ) -> AugmentedAnswer | None:
        """A materialized answer for this request shape, or ``None``.

        Hits return a shallow copy whose stats carry
        ``materialized=True`` so clients and the flight recorder can
        tell a cache-served answer from a planned one.
        """
        key = (database, _freeze_query(query), level, augment)
        with self._lock:
            entry = self._lru.get(key)
            if entry is None:
                self._miss_counts[key] = self._miss_counts.get(key, 0) + 1
                if self._miss_counter is not None:
                    self._miss_counter.inc()
                return None
        if self._hit_counter is not None:
            self._hit_counter.inc()
        answer = entry.answer
        return replace(
            answer, stats=replace(answer.stats, materialized=True)
        )

    def observe(
        self,
        database: str,
        query: Any,
        level: int,
        augment: bool,
        answer: AugmentedAnswer,
    ) -> bool:
        """Offer a freshly computed answer for materialization.

        Stored once the request shape has missed ``hot_threshold``
        times; returns whether it was stored. Dependencies are every
        global key appearing in the answer — originals and augmented
        alike — which is what CDC invalidation intersects against.
        """
        key = (database, _freeze_query(query), level, augment)
        dependencies = frozenset(
            [obj.key for obj in answer.originals]
            + [aug.key for aug in answer.augmented]
        )
        with self._lock:
            if self._miss_counts.get(key, 0) < self.hot_threshold:
                return False
            evicted = self._lru.put(key, _Entry(answer, dependencies))
            for evicted_key, __ in evicted:
                self._miss_counts.pop(evicted_key, None)
            if self._size_gauge is not None:
                self._size_gauge.set(len(self._lru))
            return True

    # -- CDC side --------------------------------------------------------------

    def invalidate(
        self,
        dirty_keys: Iterable[GlobalKey] = (),
        databases: Iterable[str] = (),
    ) -> int:
        """Drop entries affected by a CDC batch.

        ``dirty_keys`` should include the batch's dirty keys plus every
        node of the A' components the maintainer rebuilt: a new relation
        anywhere in a component can pull new objects into any answer
        that touches it. ``databases`` invalidates by the entry's own
        database — an insert can join the original result set without
        touching any existing key.
        """
        dirty = set(dirty_keys)
        dbs = set(databases)
        dropped = 0
        with self._lock:
            for key, entry in self._lru.items():
                if key[0] in dbs or (dirty and entry.dependencies & dirty):
                    # Keep the miss count: the shape already proved hot,
                    # so the next computed answer re-materializes at once.
                    self._lru.pop(key)
                    dropped += 1
            self.invalidations += dropped
            if self._size_gauge is not None:
                self._size_gauge.set(len(self._lru))
        if dropped and self._invalidation_counter is not None:
            self._invalidation_counter.inc(dropped)
        return dropped

    def clear(self) -> None:
        with self._lock:
            self._lru.clear()
            self._miss_counts.clear()
            if self._size_gauge is not None:
                self._size_gauge.set(0)

    def __len__(self) -> int:
        return len(self._lru)

    def status(self) -> dict:
        """The core's counter snapshot plus this tier's own keys."""
        stats = self._lru.stats()
        return {
            **stats,
            "entries": stats["size"],
            "invalidations": self.invalidations,
            "hot_threshold": self.hot_threshold,
        }
