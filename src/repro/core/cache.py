"""The one LRU in ``src/``: :class:`BoundedLru`, and the object cache on it.

All augmenters consult a shared LRU cache keyed by global key before
asking the polystore for an object (Section IV-C) — the stand-in for
the paper's Ehcache. That cache is :class:`LruCache`. The other bounded
tiers — the parse caches (:mod:`repro.stores.querycache`), the plan
cache (:mod:`repro.core.augmentation`) and the materialized answers
(:mod:`repro.cdc.materialize`) — each hold a :class:`BoundedLru` and add
only their policy, so recency, eviction and the counters are written
once and every tier reports the same :meth:`BoundedLru.stats`.

One lock, one ``OrderedDict``: eviction is exact global LRU at every
size and independent of the hash seed. The critical sections are a few
dict operations, never contended under the GIL; the lock keeps the
counters, and a resize racing a put, consistent.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Callable, Generic, Hashable, Iterable, Sequence, TypeVar

from repro.model.objects import DataObject, GlobalKey

K = TypeVar("K", bound=Hashable)
V = TypeVar("V")


class BoundedLru(Generic[K, V]):
    """A thread-safe LRU map sized in entries; ``None`` means absent,
    so values must not be ``None``."""

    def __init__(self, capacity: int) -> None:
        if capacity < 0:
            raise ValueError(f"cache capacity must be >= 0, got {capacity}")
        self.capacity = capacity
        self._lock = threading.Lock()
        self._entries: OrderedDict[K, V] = OrderedDict()
        self.hits = self.misses = self.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    # -- probes --------------------------------------------------------------

    def get(self, key: K) -> V | None:
        """Look up ``key``; a hit refreshes its recency."""
        with self._lock:
            value = self._entries.get(key)
            if value is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return value

    def get_many(
        self,
        keys: Sequence[K],
        start: int = 0,
        ends_run: Callable[[int], bool] | None = None,
    ) -> tuple[list[V | None], int]:
        """Probe ``keys[start:]`` in order under one lock acquisition.

        Each probe is exactly a :meth:`get` — a hit refreshes recency,
        and one hit or miss is counted per probe, repeats included. The
        run stops after a miss at ``keys[index]`` for which
        ``ends_run(index)`` returns true (it runs under the lock, so it
        must not call back into the cache). Returns one value per probe
        made (``None`` = miss) and the number of misses, so the caller
        resumes at ``start + len(values)``.
        """
        values: list[V | None] = []
        append = values.append
        misses = 0
        with self._lock:
            get = self._entries.get
            move_to_end = self._entries.move_to_end
            # By index, not over a slice: a run costs O(its probes),
            # however much of ``keys`` lies beyond it.
            for index in range(start, len(keys)):
                key = keys[index]
                value = get(key)
                append(value)
                if value is None:
                    misses += 1
                    if ends_run is not None and ends_run(index):
                        break
                else:
                    move_to_end(key)
            self.misses += misses
            self.hits += len(values) - misses
        return values, misses

    def peek(self, key: K) -> V | None:
        """Non-mutating probe: no recency refresh, no hit or miss
        counted (EXPLAIN must not perturb what it observes)."""
        with self._lock:
            return self._entries.get(key)

    def items(self) -> list[tuple[K, V]]:
        """A snapshot of the entries, least recently used first."""
        with self._lock:
            return list(self._entries.items())

    # -- updates -------------------------------------------------------------

    def put(self, key: K, value: V) -> list[tuple[K, V]]:
        """Insert or replace an entry as most recent; returns what the
        insert evicted (least recently used first)."""
        evicted: list[tuple[K, V]] = []
        self._insert(((key, value),), evicted)
        return evicted

    def put_many(self, items: Iterable[tuple[K, V]]) -> list[tuple[K, V]]:
        evicted: list[tuple[K, V]] = []
        self._insert(items, evicted)
        return evicted

    def _insert(
        self,
        items: Iterable[tuple[K, V]],
        evicted: list[tuple[K, V]] | None = None,
    ) -> None:
        """Insert entries under one lock acquisition, then evict (into
        ``evicted``, when the caller wants them)."""
        with self._lock:
            # Checked under the lock: a concurrent resize(0) (the
            # adaptive optimizer's cache-delta path) must not leave an
            # entry stranded in a disabled cache.
            if self.capacity == 0:
                return
            entries = self._entries
            for key, value in items:
                entries[key] = value
                entries.move_to_end(key)
            self._evict(evicted)

    def pop(self, key: K) -> V | None:
        """Drop ``key``; returns its value, or ``None`` if absent."""
        with self._lock:
            return self._entries.pop(key, None)

    def resize(self, capacity: int) -> list[tuple[K, V]]:
        """Change capacity online, evicting LRU entries if shrinking."""
        if capacity < 0:
            raise ValueError(f"cache capacity must be >= 0, got {capacity}")
        evicted: list[tuple[K, V]] = []
        with self._lock:
            self.capacity = capacity
            self._evict(evicted)
        return evicted

    def clear(self) -> None:
        """Drop all entries and reset the counters."""
        with self._lock:
            self._entries.clear()
            self.hits = self.misses = self.evictions = 0

    def _evict(self, evicted: list[tuple[K, V]] | None) -> None:
        """Drop least recently used entries down to capacity, appending
        them to ``evicted`` unless it is ``None``."""
        excess = len(self._entries) - self.capacity
        if excess <= 0:
            return
        popitem = self._entries.popitem
        for __ in range(excess):
            item = popitem(last=False)
            if evicted is not None:
                evicted.append(item)
        self.evictions += excess

    # -- statistics ----------------------------------------------------------

    def stats(self) -> dict:
        """A consistent snapshot of the counters: taken under the lock,
        so ``hits + misses`` equals the number of completed probes."""
        with self._lock:
            hits, misses = self.hits, self.misses
            return {
                "capacity": self.capacity,
                "size": len(self._entries),
                "hits": hits,
                "misses": misses,
                "evictions": self.evictions,
                "hit_rate": hits / (hits + misses) if hits + misses else 0.0,
            }

    @property
    def hit_rate(self) -> float:
        return self.stats()["hit_rate"]


class LruCache(BoundedLru[GlobalKey, DataObject]):
    """The shared object cache: data objects by global key.

    Objects are stored with probability 1.0 so a cached object can be
    re-weighted per query (the probability depends on the path that
    reached it, not on the object itself).
    """

    def __init__(self, capacity: int = 1024) -> None:
        super().__init__(capacity)

    def put(self, obj: DataObject) -> None:  # type: ignore[override]
        self._insert(((obj.key, obj.with_probability(1.0)),))

    def put_many(  # type: ignore[override]
        self, objects: Iterable[DataObject]
    ) -> None:
        self._insert((o.key, o.with_probability(1.0)) for o in objects)

    def contains(self, key: GlobalKey) -> bool:
        return self.peek(key) is not None

    def invalidate(self, key: GlobalKey) -> bool:
        return self.pop(key) is not None
