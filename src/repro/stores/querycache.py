"""Bounded parse/compile caches for the native query languages.

Every store speaks its own language (SQL, Mongo-style filter documents,
a Cypher subset), and the paper's workloads re-issue the same query
texts thousands of times — the batch-size sweeps run one statement per
point, and the augmenters re-parse the rewritten probe statements on
every flush. Parsing is pure (all three ASTs are frozen dataclasses),
so the parsed artifact can be shared between callers and cached keyed
by the query text.

:class:`QueryCache` is a named :class:`~repro.core.cache.BoundedLru`
used by :mod:`repro.stores.relational.parser`,
:mod:`repro.stores.document.query` and :mod:`repro.stores.graph.cypher`.
Recency, eviction and counters are the core's; this module adds the
name registry, so the CLI ``stats`` command (and tests) can enumerate
hit rates without importing every store module, and
``get_or_compute``. Nothing invalidates an entry: a parse depends on
the query text alone.
"""

from __future__ import annotations

from typing import Any, Callable, Hashable

from repro.core.cache import BoundedLru

#: Default number of parsed statements kept per language. Query texts
#: are short and ASTs small; 256 comfortably covers the workloads while
#: bounding memory for adversarial streams of distinct statements.
DEFAULT_CAPACITY = 256

_REGISTRY: dict[str, "QueryCache"] = {}


class QueryCache:
    """Bounded LRU mapping query text to a parsed artifact.

    ``get_or_compute`` runs the ``compute`` callable outside the lock:
    two threads racing on the same new key may both parse, and the
    later result wins — parsing is pure, so duplicated work is the only
    cost, and the lock is never held across user code. A ``compute``
    that raises caches nothing (malformed queries stay cheap to reject
    but are not pinned in the cache).
    """

    def __init__(self, name: str, capacity: int = DEFAULT_CAPACITY) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.name = name
        self._lru: BoundedLru[Hashable, Any] = BoundedLru(capacity)
        _REGISTRY[name] = self

    def get_or_compute(self, key: Hashable, compute: Callable[[], Any]) -> Any:
        value = self._lru.get(key)
        if value is None:
            value = compute()
            self._lru.put(key, value)
        return value

    def clear(self) -> None:
        """Drop all entries and reset the hit/miss counters."""
        self._lru.clear()

    def stats(self) -> dict:
        """The core's counter snapshot, labelled with the cache name."""
        return {"name": self.name, **self._lru.stats()}


def parse_cache_stats() -> list[dict]:
    """Snapshots of every registered parse cache, sorted by name.

    Only caches whose store module has been imported appear — the
    registry is populated at import time by the module-level cache
    instances.
    """
    return [_REGISTRY[name].stats() for name in sorted(_REGISTRY)]


def clear_parse_caches() -> None:
    """Reset every registered cache (test isolation helper)."""
    for cache in _REGISTRY.values():
        cache.clear()
