"""Scatter-gather key fetches against a sharded store.

``ShardConnector`` replaces the plain connector whenever a database of
the polystore is a :class:`~repro.sharding.store.ShardedStore`. The
augmenter layer above is unchanged: augmenters still hand whole
key groups to ``fetch_many``. The connector routes the group through
the store's partition scheme and:

* **fan-out 1** (hash placement, or one shard) — delegates to the base
  connector path: one native batch call, identical virtual cost to the
  unsharded store, single-flight coalescing still applies.
  This is what keeps the fig09 guard bit-identical for one shard.
* **fan-out N** — issues one per-shard ``multi_get`` per owning
  partition *in parallel* through ``ctx.pool``, the same gated executor
  the augmenters use, then merges preserving first-occurrence key
  order. Partitions the scheme proves empty for the group are pruned
  (never called). The per-shard calls go straight to ``_issue`` and
  bypass single-flight, so two identical concurrent scatters each pay
  their own; no measured workload scatters concurrently enough for
  sharing them to have been worth the code.

Every routed fetch records the fan-out histogram and the scanned/pruned
partition counters on the runtime's metrics registry.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.connectors import Connector
from repro.model.objects import DataObject, GlobalKey
from repro.network.executor import ExecContext
from repro.sharding.scheme import KeyRouting

#: Shard-count buckets for the fan-out histogram (latency buckets make
#: no sense for small integer counts).
FANOUT_BUCKETS: tuple[float, ...] = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0)


class ShardConnector(Connector):
    """Key-based access to one sharded database of the polystore."""

    def fetch_one(
        self, ctx: ExecContext, key: GlobalKey
    ) -> DataObject | None:
        results = self.fetch_many(ctx, (key,))
        return results[0] if results else None

    def fetch_many(
        self, ctx: ExecContext, keys: Sequence[GlobalKey]
    ) -> list[DataObject]:
        if not keys:
            return []
        routing = self.store.route_keys(keys)
        self._record_routing(ctx, routing)
        if routing.fanout <= 1:
            # Single owning shard: the facade's own multi_get routes it,
            # with the exact cost/coalescing behaviour of the base path.
            return super().fetch_many(ctx, keys)
        self.store.stats.multi_gets += 1
        with ctx.span(
            "scatter_gather",
            database=self.database,
            fanout=routing.fanout,
            keys=len(keys),
            scanned=len(routing.scanned),
            pruned=len(routing.pruned),
        ):
            pool = ctx.pool(routing.fanout)
            for shard, shard_keys in routing.groups:
                pool.submit(self._shard_task(shard, shard_keys))
            fetched: dict[GlobalKey, DataObject] = {}
            for chunk in pool.join():
                if not chunk:
                    continue
                for obj in chunk:
                    fetched.setdefault(obj.key, obj)
        found = [
            fetched[key] for key in dict.fromkeys(keys) if key in fetched
        ]
        self.store.stats.objects_returned += len(found)
        return found

    def _shard_task(self, shard: int, shard_keys: list[GlobalKey]):
        engine = self.store.shards[shard]

        def op() -> list[DataObject]:
            # Per-shard engine lock, not the facade's: shards are
            # independent services and must not serialize on one
            # another under the real runtime.
            with engine.lock:
                return engine.multi_get(shard_keys)

        query = ("multi_get", len(shard_keys), f"shard={shard}")

        def task(child_ctx):
            # One child span per owning shard: the scatter's fan-out
            # becomes visible per partition in the request's trace.
            with child_ctx.span(
                "shard_fetch",
                database=self.database,
                shard=shard,
                keys=len(shard_keys),
            ):
                return self._issue(child_ctx, op, query)

        return task

    def _record_routing(self, ctx: ExecContext, routing: KeyRouting) -> None:
        metrics = ctx.obs.metrics
        metrics.histogram(
            "augment_fanout_shards",
            buckets=FANOUT_BUCKETS,
            database=self.database,
        ).observe(float(routing.fanout))
        metrics.counter(
            "shard_partitions_scanned_total", database=self.database
        ).inc(len(routing.scanned))
        metrics.counter(
            "shard_partitions_pruned_total", database=self.database
        ).inc(len(routing.pruned))
