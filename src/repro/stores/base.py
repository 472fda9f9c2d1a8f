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
* ``scatter()`` — its query half: only an engine reads its own
  language, so a sharded store asks it what each shard runs and how the
  shards' answers make one.

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
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator, NamedTuple, Optional

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
        #: collection -> local key -> the :class:`GlobalKey` handed out
        #: for that object (:meth:`global_key`); a delete drops it.
        self._interned: dict[str, dict[str, GlobalKey]] = {}
        #: Monotonic count of content changes: every write (it moves in
        #: :meth:`_emit_change`) and every table or collection created or
        #: dropped. Unlike ``stats.writes`` nothing resets it, so a value
        #: a memo was built at never comes back after a write.
        self.content_version = 0
        #: key -> ``(content_version, value)`` of what :meth:`derived`
        #: built.
        self._derived: dict[Any, tuple[int, Any]] = {}

    def _emit_change(
        self, op: str, collection: str, key: str, value: Any = None
    ) -> None:
        """The single write hook: every engine write path ends here.

        Records the write on the attached CDC feed, if any, then tells
        the write listeners. ``value`` is the post-state payload
        (``None`` for deletes); the feed copies it, so engines may keep
        mutating in place.
        """
        self.content_version += 1
        if op == "delete":
            self._interned.get(collection, {}).pop(key, None)
        feed = self.changes
        if feed is not None:
            feed.record(op, collection, key, value)
        if self.write_listeners:  # bulk loads: a length check per write
            for listener in self.write_listeners:
                listener.on_store_write(self, op, collection, key)

    def global_key(self, database: str, collection: str, key: str) -> GlobalKey:
        """The one :class:`GlobalKey` of a live object: built the first
        time the object is handed out, the same key object after, so a
        repeated query returns keys that compare by identity. The table
        dies with the store, and a delete drops the deleted key."""
        keys = self._interned.get(collection)
        if keys is None:
            keys = self._interned[collection] = {}
        interned = keys.get(key)
        if interned is None or interned.database != database:
            interned = keys[key] = GlobalKey(database, collection, key)
        return interned

    # -- derived access paths -----------------------------------------------

    def derived(self, key: Any, build: Callable[[], Any]) -> Any:
        """A value derived from the store's contents (an ordered access
        path, a sorted label list): built the first time it is asked for
        and rebuilt once :attr:`content_version` has moved. Callers hold
        :attr:`lock`, like every read; a build is published by one
        assignment, so two racing builders store equal values."""
        version = self.content_version
        memo = self._derived.get(key)
        if memo is None or memo[0] != version:
            memo = self._derived[key] = (version, build())
        return memo[1]

    def range_rows(
        self,
        collection: str,
        field: str,
        bounds: tuple[tuple[str, Any], ...],
        scan: Callable[[], tuple[list, list]],
    ) -> Optional[list]:
        """The rows of ``collection`` whose ``field`` meets every
        ``(op, number)`` of ``bounds``, in scan order, read from the
        field's ordered path — or ``None``: a bound is not a number, or
        the field holds a value that is not one, and the caller scans.
        ``scan()`` gives the collection's rows in scan order and their
        ``field`` values; it runs only when the path is (re)built."""
        if not all(_orderable(value) for __, value in bounds):
            return None
        path = self.derived(
            ("ordered", collection, field), lambda: OrderedPath.build(*scan())
        )
        return None if path is None else path.select(bounds)

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
        ``scheme`` that can answer and how their answers make one, or
        QueryError. ``merge`` is ``"union"`` (the answers' key union) or
        anything else EXPLAIN shows of a :meth:`_rerun`. By default all
        shards run ``query`` and the union merges."""
        return [(shard, query) for shard in range(scheme.shards)], "union"

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
                key = self.global_key(
                    self.database_name, collection, local_key
                )
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
                    self.global_key(self.database_name, collection, local_key)
                )
                if len(chunk) >= chunk_size:
                    yield from self.multi_get(chunk)
                    chunk = []
            if chunk:
                yield from self.multi_get(chunk)

    def capabilities(self) -> StoreCapabilities:
        return StoreCapabilities(name=self.engine)


#: The comparisons an ordered path answers.
RANGE_OPS = frozenset((">", ">=", "<", "<="))


def _orderable(value: Any) -> bool:
    """An int or float other than NaN: the values an ordered path holds
    and bisects by (a bool, a str or a NaN is never one)."""
    kind = type(value)
    return (kind is int or kind is float) and value == value


class OrderedPath(NamedTuple):
    """One field's derived ordered access path: a collection's rows in
    scan order, the field's numeric values sorted, and beside each value
    the scan position of its row. A range is two bisections; its rows
    come back in scan order, so the path changes how many rows a query
    examines, never which rows it returns or in what order."""

    rows: list
    values: list
    positions: list

    @classmethod
    def build(cls, rows: list, values: list) -> Optional["OrderedPath"]:
        """The path over ``rows`` whose field holds ``values`` (aligned),
        or ``None`` when a value is neither a number nor null: a bool, a
        str or a list compares in ways a numeric order does not hold, so
        that field keeps the scan. ``None`` (or missing) and NaN satisfy
        no range and are left out."""
        numbers: list = []
        positions: list[int] = []
        for position, value in enumerate(values):
            if _orderable(value):
                numbers.append(value)
                positions.append(position)
            elif value is not None and type(value) is not float:
                return None
        order = sorted(range(len(numbers)), key=numbers.__getitem__)
        return cls(
            rows, [numbers[i] for i in order], [positions[i] for i in order]
        )

    def select(self, bounds: Iterable[tuple[str, Any]]) -> list:
        """The rows whose value meets every ``(op, number)`` bound."""
        values = self.values
        low, high = 0, len(values)
        for op, bound in bounds:
            if op == ">=":
                low = max(low, bisect_left(values, bound))
            elif op == ">":
                low = max(low, bisect_right(values, bound))
            elif op == "<=":
                high = min(high, bisect_right(values, bound))
            else:
                high = min(high, bisect_left(values, bound))
        rows = self.rows
        return [rows[p] for p in sorted(self.positions[low:high])]


def range_bounds(
    comparisons: Iterable[tuple[str, str, Any]],
) -> list[tuple[str, tuple[tuple[str, Any], ...]]]:
    """``[(field, bounds)]`` in first-seen order from a query's top-level
    ``(field, op, literal)`` comparisons, keeping the :data:`RANGE_OPS`:
    what an engine offers :meth:`Store.range_rows`, field by field."""
    fields: dict[str, list[tuple[str, Any]]] = {}
    for name, op, value in comparisons:
        if op in RANGE_OPS:
            fields.setdefault(name, []).append((op, value))
    return [(name, tuple(bounds)) for name, bounds in fields.items()]


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
