"""Connectors: native key access to each store engine (Section III-A).

A connector knows how to turn "fetch these global keys" into the most
efficient *native* operation of its engine — a ``WHERE pk IN (...)``
for the relational store, a ``$in`` filter for the document store, MGET
for the key-value store, node lookups for the graph store. All cost
accounting flows through the :class:`~repro.network.executor.ExecContext`
so both runtimes (virtual and real) see every roundtrip.

Missing objects are reported back so the caller can trigger the lazy
A' index deletion.
"""

from __future__ import annotations

from typing import Sequence

from repro.model.objects import DataObject, GlobalKey
from repro.model.polystore import Polystore
from repro.network.executor import ExecContext
from repro.stores.base import Store


class Connector:
    """Key-based access to one database of the polystore.

    With a :class:`~repro.faults.ResilienceManager` attached, every
    fetch goes through its retry + circuit-breaker policy; without one
    (the default) fetches hit ``ctx.store_call`` directly, so the
    fault-free hot path is unchanged.
    """

    def __init__(
        self, database: str, store: Store, resilience=None
    ) -> None:
        self.database = database
        self.store = store
        self.resilience = resilience

    def fetch_one(self, ctx: ExecContext, key: GlobalKey) -> DataObject | None:
        """One direct-access query for a single object."""
        # ``query`` is only stringified if a slow-query event fires, so
        # pass the key itself rather than formatting on the hot path.
        op = lambda: self._get_list(key)  # noqa: E731
        coalescer = ctx.coalescer
        if coalescer is not None:
            results = coalescer.fetch(
                ctx,
                self.database,
                (key,),
                lambda c: self._issue(c, op, key),
            )
        else:
            results = self._issue(ctx, op, key)
        return results[0] if results else None

    def fetch_many(
        self, ctx: ExecContext, keys: Sequence[GlobalKey]
    ) -> list[DataObject]:
        """One native batch query for several objects.

        This is the primitive the BATCH family of augmenters relies on:
        however many keys are in the group, it costs a single roundtrip.
        With a single-flight coalescer attached to the runtime (the
        serving layer does this), the roundtrip may be shared with an
        identical concurrent fetch; the cache/faults/obs layers still
        see exactly one logical call per physical roundtrip.
        """
        if not keys:
            return []
        op = lambda: self._multi_get(keys)  # noqa: E731
        query = ("multi_get", len(keys))
        coalescer = ctx.coalescer
        if coalescer is not None:
            # A copy: a leader's list is the one its followers copy from.
            return list(coalescer.fetch(
                ctx, self.database, keys, lambda c: self._issue(c, op, query)
            ))
        return list(self._issue(ctx, op, query))

    def _issue(self, ctx: ExecContext, op, query) -> Sequence[DataObject]:
        """One physical store call, through resilience when attached."""
        if self.resilience is not None:
            return self.resilience.call(ctx, self.database, op, query=query)
        return ctx.store_call(self.database, op, query=query)

    def _get_list(self, key: GlobalKey) -> list[DataObject]:
        # Single fetches ride the same native batch protocol as groups
        # (a one-key IN / $in / MGET): one code path per engine, and
        # missing keys come back as an empty list rather than an
        # exception crossing the store boundary.
        return self._multi_get((key,))

    def _multi_get(self, keys: Sequence[GlobalKey]) -> list[DataObject]:
        # Every key fetch holds the store's engine lock: the engines are
        # unsynchronized in-memory structures, and serving-layer writers
        # may be mutating them between (never during) reads.
        with self.store.lock:
            return self.store.multi_get(keys)


def _make_connector(database: str, store: Store, resilience) -> Connector:
    """The connector class appropriate for one store.

    Sharded stores get the scatter-gather connector (parallel per-shard
    ``multi_get`` with partition pruning); plain stores keep the base
    connector, so the unsharded hot path is byte-for-byte unchanged.
    """
    if getattr(store, "sharded", False):
        from repro.sharding.connector import ShardConnector

        return ShardConnector(database, store, resilience)
    return Connector(database, store, resilience)


class ConnectorRegistry:
    """Connectors for every database of a polystore."""

    def __init__(self, polystore: Polystore, resilience=None) -> None:
        self.polystore = polystore
        self.resilience = resilience
        self._connectors = {
            name: _make_connector(name, store, resilience)
            for name, store in polystore.databases.items()
        }

    def connector(self, database: str) -> Connector:
        current = self.polystore.database(database)
        cached = self._connectors.get(database)
        if cached is None or cached.store is not current:
            # The polystore may have grown, or the store may have been
            # detached and re-attached (e.g. recovery after an outage).
            cached = _make_connector(database, current, self.resilience)
            self._connectors[database] = cached
        return cached

    def fetch_grouped(
        self, ctx: ExecContext, keys: Sequence[GlobalKey]
    ) -> tuple[list[DataObject], list[GlobalKey]]:
        """Fetch keys grouped per database (one batch query each).

        Returns ``(found, missing)``; ``missing`` keys feed the lazy
        deletion in the A' index.
        """
        by_database: dict[str, list[GlobalKey]] = {}
        for key in keys:
            by_database.setdefault(key.database, []).append(key)
        found: list[DataObject] = []
        for database, db_keys in by_database.items():
            found.extend(self.connector(database).fetch_many(ctx, db_keys))
        found_keys = {obj.key for obj in found}
        missing = [key for key in keys if key not in found_keys]
        return found, missing
