"""A partitioned store behind the ordinary ``Store`` interface.

``ShardedStore`` wraps N engine instances of the same family and routes
every operation through a :class:`~repro.sharding.scheme.PartitionScheme`:

* ``multi_get``/``get_value`` route per key — to exactly the owning
  shard under hash placement, to every shard under range placement
  (the token is not derivable from an opaque key);
* ``execute`` leaves the query to the engine, which alone reads its
  language: its ``scatter`` names the shards that can answer, what each
  runs (``skip + limit`` as the per-shard limit) and the merge — or it
  raises ``QueryError`` for what does not merge (aggregates, joins,
  writes). ``execute`` applies that merge as it is returned: ``"union"``
  is the answers' key union, any other is the engine re-running the
  query over the shards' answers (``Store._rerun``).

The wrapper is a real :class:`~repro.stores.base.Store`, so the
polystore, connectors, validator and EXPLAIN all work unchanged; with
one shard it degenerates to pass-through routing and adds no virtual
cost (the fig09 guard covers this).

``partition_store`` splits an existing single-engine store into shards:
N × the store's own ``empty_like()`` (schema and secondary indexes),
then its ``records()`` placed by the scheme through ``apply_change``.
The one sharding rule that is not an engine's lives on the facade: a
graph edge stays on the shard that holds both its endpoints, otherwise
it is counted in ``cut_edges`` and dropped (the A' index, not the store
graph, carries cross-partition relations). The facade implements the
state contract by routing, so snapshots, WAL replay and CDC capture
treat it like any store; sharding itself is never persisted.
"""

from __future__ import annotations

from typing import Any, Iterator

from repro.errors import ConfigurationError, KeyNotFoundError
from repro.model.objects import DataObject, GlobalKey
from repro.model.polystore import Polystore
from repro.sharding.scheme import KeyRouting, PartitionScheme, make_scheme
from repro.stores.base import Store, StoreCapabilities, describe_query


class ShardedStore(Store):
    """N same-engine shards behind one ``Store`` facade."""

    #: Marker the connector registry and EXPLAIN dispatch on.
    sharded = True

    def __init__(self, shards: list[Store], scheme: PartitionScheme) -> None:
        if not shards:
            raise ConfigurationError("a sharded store needs at least one shard")
        if len(shards) != scheme.shards:
            raise ConfigurationError(
                f"scheme expects {scheme.shards} shards, got {len(shards)}"
            )
        # Assigned before Store.__init__, which sets database_name:
        # __setattr__ propagates the name to every shard.
        self.shards = list(shards)
        self.scheme = scheme
        super().__init__()
        self.engine = self.shards[0].engine
        #: Partition-pruning tallies for native scans (the connector
        #: publishes the equivalent counters for key fetches).
        self.partitions_scanned_total = 0
        self.partitions_pruned_total = 0
        #: Cross-shard graph edges dropped at split time (graph engine).
        self.cut_edges = 0

    # -- identity ------------------------------------------------------------

    @property
    def shard_count(self) -> int:
        return len(self.shards)

    def __setattr__(self, name: str, value: Any) -> None:
        # The attachment name and the CDC feed matter where the data is
        # (reads stamp keys with the one, writes emit on the other):
        # set on the facade, they reach every shard.
        super().__setattr__(name, value)
        if name in ("database_name", "changes"):
            for shard in self.shards:
                setattr(shard, name, value)

    # -- routing -------------------------------------------------------------

    def route_keys(self, keys) -> KeyRouting:
        """Group keys by the shards that must be probed for them.

        Pure routing — no fetching, no counters — so EXPLAIN can call
        it without perturbing what a later real run observes.
        """
        unique = list(dict.fromkeys(keys))
        routing = KeyRouting(
            placement=self.scheme.placement, shards=self.shard_count
        )
        if not unique:
            routing.pruned = list(range(self.shard_count))
            return routing
        groups: dict[int, list[GlobalKey]] = {}
        routable = True
        for key in unique:
            shard = self.scheme.shard_of_key(key.key)
            if shard is None:
                routable = False
                break
            groups.setdefault(shard, []).append(key)
        if not routable:
            # Range placement: the token is not derivable from the key,
            # so every shard is probed with the full key list.
            groups = {
                shard: list(unique) for shard in range(self.shard_count)
            }
        routing.groups = sorted(groups.items())
        routing.scanned = [shard for shard, __ in routing.groups]
        routing.pruned = [
            shard for shard in range(self.shard_count) if shard not in groups
        ]
        return routing

    def _scatter(self, query: Any) -> tuple[list, Any]:
        """The engine's ``(targets, merge)``; one shard is pass-through."""
        if self.shard_count == 1:
            return [(0, query)], "union"
        return self.shards[0].scatter(query, self.scheme)

    # -- native access -------------------------------------------------------

    def execute(self, query: Any) -> list[DataObject]:
        targets, merge = self._scatter(query)
        self.partitions_scanned_total += len(targets)
        self.partitions_pruned_total += self.shard_count - len(targets)
        results = []
        for shard, subquery in targets:
            engine = self.shards[shard]
            examined = engine.stats.rows_examined
            results.append(engine.execute(subquery))
            self.stats.rows_examined += engine.stats.rows_examined - examined
        if self.shard_count == 1:
            answer = results[0]
        elif merge == "union":
            answer = list({obj.key: obj for run in results for obj in run}.values())
        else:
            answer = self.shards[0]._rerun(query, results)
        self.stats.queries += 1
        self.stats.objects_returned += len(answer)
        return answer

    def _explain_plan(self, query: Any) -> dict[str, Any]:
        targets, merge = self._scatter(query)
        per_shard = [
            {
                "shard": shard,
                "query": describe_query(subquery),
                **self.shards[shard]._explain_plan(subquery),
            }
            for shard, subquery in targets
        ]
        scanned = [shard for shard, __ in targets]
        return {
            "access_path": "sharded_fanout",
            "index": None,
            "placement": self.scheme.placement,
            "shards": self.shard_count,
            "scanned_partitions": scanned,
            "pruned_partitions": [
                shard for shard in range(self.shard_count) if shard not in scanned
            ],
            "estimated_rows": sum(
                plan.get("estimated_rows", 0) for plan in per_shard
            ),
            "estimated_cost": float(
                sum(plan.get("estimated_cost", 0.0) for plan in per_shard)
            ),
            "merge": merge,
            "per_shard": per_shard,
        }

    # -- key access ----------------------------------------------------------

    def get_value(self, collection: str, key: str) -> Any:
        shard = self.scheme.shard_of_key(key)
        if shard is not None:
            return self.shards[shard].get_value(collection, key)
        for candidate in self.shards:
            try:
                return candidate.get_value(collection, key)
            except KeyNotFoundError:
                continue
        raise KeyNotFoundError(f"{collection}.{key} (no shard owns it)")

    def multi_get(self, keys) -> list[DataObject]:  # type: ignore[override]
        """Batch fetch routed per key, merged in first-occurrence order.

        One ``multi_gets`` on the facade regardless of fan-out; the
        per-shard engines additionally count their own operations.
        """
        self.stats.multi_gets += 1
        unique = list(dict.fromkeys(keys))
        fetched: dict[GlobalKey, DataObject] = {}
        for shard, shard_keys in self.route_keys(unique).groups:
            for obj in self.shards[shard].multi_get(shard_keys):
                fetched.setdefault(obj.key, obj)
        found = [fetched[key] for key in unique if key in fetched]
        self.stats.objects_returned += len(found)
        return found

    def collections(self) -> list[str]:
        seen: dict[str, None] = {}
        for shard in self.shards:
            for collection in shard.collections():
                seen.setdefault(collection)
        return list(seen)

    def collection_keys(self, collection: str) -> Iterator[str]:
        for shard in self.shards:
            yield from shard.collection_keys(collection)

    def count_objects(self) -> int:
        return sum(shard.count_objects() for shard in self.shards)

    def capabilities(self) -> StoreCapabilities:
        return self.shards[0].capabilities()

    def primary_key(self, collection: str) -> str:
        return self.shards[0].primary_key(collection)

    # -- state contract ------------------------------------------------------

    def dump_state(self) -> dict[str, Any]:
        """The engine's ordinary payload, built from the shards'
        records: sharding is a load-time decision, never persisted."""
        merged = self.shards[0].empty_like()
        for collection, key, value in self.records():
            merged.apply_change("append", collection, key, value)
        return merged.dump_state()

    def load_state(self, payload: dict[str, Any]) -> "ShardedStore":
        return partition_store(self.shards[0].load_state(payload), self.scheme)

    def empty_like(self) -> "ShardedStore":
        shards = [shard.empty_like() for shard in self.shards]
        return ShardedStore(shards, self.scheme)

    def records(self) -> Iterator[tuple[str, str, Any]]:
        found: list[tuple[str, str, Any]] = []
        for shard in self.shards:
            with shard.lock:
                found.extend(shard.records())
        # Stable: every shard's edges after every shard's nodes.
        return iter(sorted(found, key=lambda record: record[0] == "_edge"))

    def apply_change(
        self, op: str, collection: str, key: str, value: Any = None
    ) -> None:
        """The routed write: lands on the scheme's owner under that
        shard's lock and leaves the key on exactly one shard — every
        other shard :meth:`get_value` would probe for it drops its copy,
        so an update whose token moved the object deletes the old one."""
        if collection == "_edge":
            self._place_edge(op, key, value, range(self.shard_count))
            return
        if op == "delete":
            self._interned.get(collection, {}).pop(key, None)
        owner = None if op == "delete" else self.scheme.shard_of_object(
            collection, key, value
        )
        home = self.scheme.shard_of_key(key)
        for shard in range(self.shard_count) if home is None else (home,):
            if shard != owner:
                self._write(shard, "delete", collection, key)
        if owner is not None:
            self._write(owner, op, collection, key, value)

    def _write(
        self, shard: int, op: str, collection: str, key: str, value: Any = None
    ) -> None:
        target = self.shards[shard]
        with target.lock:
            target.apply_change(op, collection, key, value)

    def _place_edge(self, op: str, key: str, value: Any, candidates) -> None:
        """The one sharding rule that is not an engine's: an edge lives
        where both its endpoints do — the engine refuses it anywhere
        else — otherwise it is cut."""
        for shard in candidates:
            try:
                self._write(shard, op, "_edge", key, value)
                return
            except KeyNotFoundError:
                continue
        # Cross-shard edges are not representable inside one engine
        # shard; the A' index's cross-shard edge table carries
        # cross-partition relations instead.
        self.cut_edges += 1

    def describe_sharding(self) -> dict[str, Any]:
        report = self.scheme.describe()
        report["engine"] = self.engine
        report["objects_per_shard"] = [
            shard.count_objects() for shard in self.shards
        ]
        report["partitions_scanned_total"] = self.partitions_scanned_total
        report["partitions_pruned_total"] = self.partitions_pruned_total
        if self.cut_edges:
            report["cut_edges"] = self.cut_edges
        return report


def partition_store(store: Store, scheme: PartitionScheme) -> ShardedStore:
    """Split one engine store into shards behind a ``ShardedStore``."""
    scheme.prepare(store)
    try:
        shards = [store.empty_like() for __ in range(scheme.shards)]
    except NotImplementedError as exc:
        raise ConfigurationError(
            f"no splitter for engine {store.engine!r}"
        ) from exc
    sharded = ShardedStore(shards, scheme)
    sharded.database_name = store.database_name
    # Records are unique and the shards start empty, so placement skips
    # the sweep of other candidate shards the routed apply_change does.
    placed: dict[str, int] = {}
    for collection, key, value in store.records():
        if collection == "_edge":
            start, end = placed[value["start"]], placed[value["end"]]
            sharded._place_edge(
                "append", key, value, (start,) if start == end else ()
            )
        else:
            owner = placed[key] = scheme.shard_of_object(collection, key, value)
            shards[owner].apply_change("append", collection, key, value)
    return sharded


def shard_polystore(
    polystore: Polystore,
    shards: int,
    placement: str = "hash",
    token_field: str = "seq",
) -> Polystore:
    """A parallel polystore with every database partitioned.

    Each database gets its own scheme instance (range boundaries are
    fitted per store from its observed token distribution).
    """
    sharded = Polystore()
    for name, store in polystore.databases.items():
        scheme = make_scheme(placement, shards, token_field=token_field)
        sharded.attach(name, partition_store(store, scheme))
    return sharded
