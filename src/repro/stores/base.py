"""The minimal store contract QUEPA requires of every engine.

The paper's only requirement on a participating system is that "every
stored data object can be identified and accessed by means of a key"
(Section II-A). The contract is therefore small:

* ``execute(query)`` — run a query in the *native* language and return
  data objects;
* ``get(global_key)`` / ``multi_get(keys)`` — direct access by key,
  which is what connectors use to materialize augmented objects;
* ``collections()`` / ``count_objects()`` — introspection used by the
  collector and the workload builder;
* ``dump_state()`` / ``load_state()`` / ``empty_like()`` / ``records()``
  / ``apply_change()`` — the state contract: only an engine knows its
  own layout, so snapshots, WAL replay and partitioning ask the store;
* ``scatter()`` / ``merge()`` — its query half: only an engine reads its
  own language, so a sharded store asks it what each shard runs and how
  the shards' answers make one.

Engines also keep :class:`StoreStats` counters so tests can assert how
many native operations an augmenter actually issued.
"""

from __future__ import annotations

import itertools
import math
import threading
import time
import weakref
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator

from repro.errors import KeyNotFoundError
from repro.model.objects import DataObject, GlobalKey


@dataclass
class StoreStats:
    """Operation counters for one store instance."""

    queries: int = 0
    gets: int = 0
    multi_gets: int = 0
    objects_returned: int = 0
    writes: int = 0
    #: Rows / documents / nodes / keys a native query's access path
    #: yielded to its predicate. ``rows_examined / objects_returned``
    #: is what a scan costs per result (an index probe keeps it near 1).
    rows_examined: int = 0

    def reset(self) -> None:
        self.queries = 0
        self.gets = 0
        self.multi_gets = 0
        self.objects_returned = 0
        self.writes = 0
        self.rows_examined = 0


@dataclass
class StoreCapabilities:
    """What a store engine can do, used by the validator and baselines."""

    name: str
    supports_batch_get: bool = True
    supports_native_query: bool = True
    #: Maximum keys per batch fetch (None = unlimited).
    max_batch_size: int | None = None


class Store(ABC):
    """Abstract base for all storage engines."""

    #: Engine family name, e.g. ``"relational"``; set by subclasses.
    engine: str = "abstract"
    #: Optional change-data-capture outbox
    #: (:class:`repro.cdc.feed.ChangeFeed`). ``None`` until a consumer
    #: attaches one; unattached stores pay one ``None`` check per write.
    #: A class-level default: wrappers route it to the stores they wrap.
    changes: Any = None

    def __init__(self) -> None:
        #: Name under which this store is attached to a polystore.
        self.database_name: str = ""
        self.stats = StoreStats()
        #: Engine-level mutual exclusion. The engines themselves are
        #: plain in-memory dicts with no internal locking (like an
        #: embedded store); concurrent access goes through this lock.
        #: Connectors and the Quepa search path take it around every
        #: read, and writers that mutate a store while a server is
        #: running must take it around every mutation:
        #:
        #:     with store.lock:
        #:         store.insert(...)
        #:
        #: Reentrant, so an engine method may call another locked
        #: method on the same store.
        self.lock = threading.RLock()
        #: Consumers told about every write synchronously, on the
        #: writer's thread and under whatever lock it holds: each gets
        #: ``on_store_write(store, op, collection, key)``. Held weakly,
        #: so a discarded consumer (one of many ``Quepa`` instances
        #: over a long-lived polystore) drops out by itself.
        self.write_listeners: weakref.WeakSet = weakref.WeakSet()

    def _emit_change(
        self, op: str, collection: str, key: str, value: Any = None
    ) -> None:
        """The single write hook: every engine write path ends here.

        Records the write on the attached CDC feed, if any, then tells
        the write listeners. ``value`` is the post-state payload
        (``None`` for deletes); the feed copies it, so engines may keep
        mutating in place.
        """
        feed = self.changes
        if feed is not None:
            feed.record(op, collection, key, value)
        if self.write_listeners:  # bulk loads: a length check per write
            for listener in self.write_listeners:
                listener.on_store_write(self, op, collection, key)

    # -- native access ------------------------------------------------------

    @abstractmethod
    def execute(self, query: Any) -> list[DataObject]:
        """Run a query in the engine's native language."""

    def explain(self, query: Any, analyze: bool = False) -> dict[str, Any]:
        """EXPLAIN (and with ``analyze=True``, ANALYZE) a native query.

        Plain EXPLAIN inspects the query without executing it and
        reports the chosen access path — index probe vs. scan, which
        index, estimated rows examined and estimated cost (rows the
        engine must touch). ANALYZE additionally runs the query through
        :meth:`execute` (so store stats count it) and appends
        ``actual_rows`` (result rows) and ``actual_time_s`` (wall
        clock). Estimated rows are *examined* rows, like a classic
        EXPLAIN; actual rows are *returned* rows, so estimated >= actual
        for selective queries.
        """
        report: dict[str, Any] = {
            "engine": self.engine,
            "database": self.database_name or None,
            "query": describe_query(query),
        }
        report.update(self._explain_plan(query))
        if analyze:
            started = time.perf_counter()
            results = self.execute(query)
            elapsed = time.perf_counter() - started
            report["actual_rows"] = len(results)
            report["actual_time_s"] = elapsed
        return report

    def _explain_plan(self, query: Any) -> dict[str, Any]:
        """Engine-specific access-path description (no execution).

        The base fallback assumes a full scan of every object; each
        engine overrides this with its real index-selection logic.
        """
        total = self.count_objects()
        return {
            "access_path": "scan",
            "index": None,
            "estimated_rows": total,
            "estimated_cost": float(total),
        }

    # -- key access ----------------------------------------------------------

    @abstractmethod
    def get_value(self, collection: str, key: str) -> Any:
        """Raw payload of one object; raises :class:`KeyNotFoundError`."""

    @abstractmethod
    def collections(self) -> list[str]:
        """Names of the data collections in this store."""

    @abstractmethod
    def collection_keys(self, collection: str) -> Iterator[str]:
        """Iterate the local keys of one collection."""

    def get(self, key: GlobalKey) -> DataObject:
        """Fetch one data object by global key."""
        self.stats.gets += 1
        value = self.get_value(key.collection, key.key)
        self.stats.objects_returned += 1
        return DataObject(key, value)

    def multi_get(self, keys: Iterable[GlobalKey]) -> list[DataObject]:
        """Fetch several objects in one native batch operation.

        Missing keys are dropped, mirroring the lazy-deletion rule: an
        object deleted from the store silently disappears from answers.
        Duplicate keys are fetched once (first occurrence wins the
        ordering), matching the set semantics of the native batch
        operations — ``WHERE pk IN (...)``, ``$in``, MGET — the engine
        subclasses implement. The whole call counts as one
        ``multi_gets`` operation regardless of the number of keys.
        """
        self.stats.multi_gets += 1
        found: list[DataObject] = []
        for key in dict.fromkeys(keys):
            try:
                value = self.get_value(key.collection, key.key)
            except KeyNotFoundError:
                continue
            found.append(DataObject(key, value))
        self.stats.objects_returned += len(found)
        return found

    def exists(self, key: GlobalKey) -> bool:
        try:
            self.get_value(key.collection, key.key)
        except KeyNotFoundError:
            return False
        return True

    def count_objects(self) -> int:
        return sum(
            1 for collection in self.collections()
            for __ in self.collection_keys(collection)
        )

    def collection_stats(self) -> dict[str, int]:
        """Per-collection object counts (the planner's cardinalities).

        The cross-store planner prices full scans and import footprints
        from these counts; callers that need a stable snapshot take the
        store's lock around the call.
        """
        return {
            collection: sum(1 for __ in self.collection_keys(collection))
            for collection in self.collections()
        }

    def estimate_query(self, query: Any) -> dict[str, Any]:
        """The EXPLAIN estimates of a query, never raising.

        Planner-facing wrapper over :meth:`explain`: a query the engine
        cannot explain (malformed for EXPLAIN purposes, unsupported
        feature) degrades to the base full-scan assumption instead of
        failing the estimate pass.
        """
        try:
            return self.explain(query)
        except Exception:
            report: dict[str, Any] = {
                "engine": self.engine,
                "database": self.database_name or None,
                "query": describe_query(query),
            }
            total = self.count_objects()
            report.update(
                {
                    "access_path": "scan",
                    "index": None,
                    "estimated_rows": total,
                    "estimated_cost": float(total),
                }
            )
            return report

    # -- state contract ------------------------------------------------------

    def dump_state(self) -> dict[str, Any]:
        """The engine's JSON payload (schemas, indexes, every object),
        ordered by ``sorted``, never by a set or a hash."""
        raise NotImplementedError(f"{self.engine} stores do not dump")

    def load_state(self, payload: dict[str, Any]) -> "Store":
        """A new store of this kind holding a :meth:`dump_state` payload:
        a classmethod on engines (``ENGINES[name].load_state(payload)``),
        a method on wrappers, whose kind includes what they wrap."""
        raise NotImplementedError(f"{self.engine} stores do not load")

    def empty_like(self) -> "Store":
        """A new store with this one's schema and indexes, no objects."""
        raise NotImplementedError(f"{self.engine} stores do not clone")

    def records(self) -> Iterator[tuple[str, str, Any]]:
        """Every ``(collection, key, value)`` held, in the shape
        :meth:`_emit_change` emits; graph edges last, as ``_edge``."""
        for collection in self.collections():
            for key in self.collection_keys(collection):
                yield collection, key, self.get_value(collection, key)

    def apply_change(
        self, op: str, collection: str, key: str, value: Any = None
    ) -> None:
        """The inverse of :meth:`_emit_change`: land one captured write
        (``op`` in :data:`repro.cdc.feed.OPS`), idempotently — upsert,
        replace or delete through the engine's own write methods, so it
        counts in ``stats.writes`` and emits like any write. Callers
        hold :attr:`lock`."""
        raise NotImplementedError(f"{self.engine} stores do not replay")

    # -- partitioned execution -----------------------------------------------

    def scatter(self, query: Any, scheme: Any) -> tuple[list, Any]:
        """``([(shard, query it runs), ...], merge)``: the shards of
        ``scheme`` that can answer and how :meth:`merge` makes one answer
        (for EXPLAIN), or QueryError. By default all run ``query``."""
        return [(shard, query) for shard in range(scheme.shards)], "union"

    def merge(self, query: Any, results: list[list[DataObject]]) -> list[DataObject]:
        """The answer from the targets' answers: by default their union."""
        return list({obj.key: obj for run in results for obj in run}.values())

    def _rerun(self, query: Any, results: list[list[DataObject]]) -> list[DataObject]:
        """``query`` answered by a store of this kind that holds only the
        targets' answers — whole objects, placed with :meth:`apply_change`:
        the merge whose ORDER BY, skip and limit are the engine's own."""
        union = self.empty_like()
        union.database_name = self.database_name
        for obj in itertools.chain.from_iterable(results):
            union.apply_change("append", obj.key.collection, obj.key.key, obj.value)
        return union.execute(query)

    def iter_objects(self) -> Iterator[DataObject]:
        """Iterate every data object in the store (collector input)."""
        if not self.database_name:
            raise ValueError("store must be attached to a polystore first")
        for collection, local_key, value in self.records():
            if not collection.startswith("_"):
                key = GlobalKey(self.database_name, collection, local_key)
                yield DataObject(key, value)

    def scan_objects(self, chunk_size: int = 512) -> Iterator[DataObject]:
        """Iterate every data object via chunked batch fetches.

        Same objects as :meth:`iter_objects`, collection by collection,
        but routed through :meth:`multi_get` so a full-store scan (the
        collector's input) issues one native batch operation per
        ``chunk_size`` keys instead of one point lookup per object.
        """
        if not self.database_name:
            raise ValueError("store must be attached to a polystore first")
        for collection in self.collections():
            chunk: list[GlobalKey] = []
            for local_key in self.collection_keys(collection):
                chunk.append(
                    GlobalKey(self.database_name, collection, local_key)
                )
                if len(chunk) >= chunk_size:
                    yield from self.multi_get(chunk)
                    chunk = []
            if chunk:
                yield from self.multi_get(chunk)

    def capabilities(self) -> StoreCapabilities:
        return StoreCapabilities(name=self.engine)


def token_window(bounds: Iterable[tuple[str, Any]]) -> tuple | None:
    """The half-open ``[lo, hi)`` holding a token that meets every
    ``(op, number)`` bound (``> v`` from ``v``, ``<= v`` / ``= v`` to
    ``v + 1``: never lossy), or ``None``; a scan's shards prune by it."""
    bounds = [(op, v) for op, v in bounds if type(v) in (int, float)]
    lo = max((v for op, v in bounds if op in (">", ">=", "=")), default=-math.inf)
    hi = min((v + (op != "<") for op, v in bounds if op in ("<", "<=", "=")),
             default=math.inf)
    return None if (lo, hi) == (-math.inf, math.inf) else (lo, hi)


def describe_query(query: Any, limit: int = 200) -> str:
    """A short printable form of a native query for explain/event output."""
    text = query if isinstance(query, str) else repr(query)
    return text if len(text) <= limit else text[: limit - 3] + "..."
