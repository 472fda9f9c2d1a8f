"""A partitioned QUEPA cluster: instances own shards, not replicas.

:class:`~repro.cluster.cluster.QuepaCluster` scales reads by giving
every instance a *full replica* of the A' index. ``ShardedCluster`` is
that cluster — same constructor, dispatch and timing — over one
authoritative :class:`~repro.sharding.aindex.ShardedAIndex` whose
partitions are owned by instances (``shard % instances``): its
per-instance index factory hands every QUEPA a view of the shared
structure instead of a copy. What differs is index *maintenance*, which
is no longer a broadcast to everyone:

* ``add_relation`` is delivered only to the owners of the two
  endpoints' shards;
* ``remove_object`` is delivered only to the owners of the partitions
  that actually hold adjacency entries for the key (its home shard plus
  the shards holding cross-shard stubs —
  :meth:`~repro.sharding.aindex.ShardedAIndex.owning_shards`);
* lazy deletions discovered during a batch are applied through the same
  ownership routing, and ``drain()`` re-delivers them idempotently to
  owners only.

The last point is the partitioned-case fix for the replica cluster's
``_sync_lazy_deletions``: that method union-diffs per-instance node
sets and re-broadcasts every difference as a deletion. Under
partitioning, a key absent from a non-owning partition is absent *by
design* — the union-diff would "re-broadcast" every node of every other
partition as a deletion and wipe the index. ``ShardedCluster``
overrides the sync to route recorded deletions by ownership instead of
inferring deletions from node-set differences.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterator

from repro.cluster.cluster import DispatchPolicy, QuepaCluster
from repro.core.augmentation import AugmentationConfig
from repro.errors import ConfigurationError
from repro.model.objects import GlobalKey
from repro.model.polystore import Polystore
from repro.model.prelations import PRelation, RelationType
from repro.network.latency import DeploymentProfile
from repro.sharding.aindex import ShardedAIndex


@dataclass(frozen=True)
class Delivery:
    """One maintenance message delivered to one instance."""

    operation: str
    target: Any


class _InstanceIndexView:
    """One instance's window onto the shared partitioned index.

    Reads delegate to the authoritative :class:`ShardedAIndex` (frozen
    snapshots included, so the plan cache keys on the shared snapshot).
    Mutations route through the cluster's ownership-aware broadcast —
    a lazy deletion one instance discovers is recorded against that
    instance and applied exactly once, to owners only.
    """

    partitioned = True

    def __init__(self, cluster: "ShardedCluster", instance: int) -> None:
        self._cluster = cluster
        self.instance = instance

    # -- delegated reads -----------------------------------------------------

    @property
    def _index(self) -> ShardedAIndex:
        return self._cluster.aindex

    @property
    def generation(self) -> int:
        return self._index.generation

    @property
    def refreezes(self) -> int:
        return self._index.refreezes

    @property
    def compactions(self) -> int:
        return self._index.compactions

    @property
    def overlay_nodes(self) -> int:
        return self._index.overlay_nodes

    @property
    def shards(self) -> int:
        return self._index.shards

    def frozen(self):
        return self._index.frozen()

    def neighbors(self, key: GlobalKey, rel_type: RelationType | None = None):
        return self._index.neighbors(key, rel_type)

    def neighbor_arcs(self, key: GlobalKey):
        return self._index.neighbor_arcs(key)

    def relation(self, a: GlobalKey, b: GlobalKey):
        return self._index.relation(a, b)

    def degree(self, key: GlobalKey) -> int:
        return self._index.degree(key)

    def nodes(self) -> Iterator[GlobalKey]:
        return self._index.nodes()

    def node_count(self) -> int:
        return self._index.node_count()

    def edge_count(self) -> int:
        return self._index.edge_count()

    def __contains__(self, key: GlobalKey) -> bool:
        return key in self._index

    # -- routed mutations ----------------------------------------------------

    def add(self, relation: PRelation) -> None:
        self._cluster.add_relation(relation)

    def remove_object(self, key: GlobalKey) -> int:
        return self._cluster._lazy_delete(self.instance, key)


class ShardedCluster(QuepaCluster):
    """N QUEPA instances over one polystore, each owning index shards."""

    def __init__(
        self,
        polystore: Polystore,
        aindex: ShardedAIndex,
        instances: int = 2,
        policy: DispatchPolicy = DispatchPolicy.LEAST_LOADED,
        profile: DeploymentProfile | None = None,
        config: AugmentationConfig | None = None,
    ) -> None:
        if not isinstance(aindex, ShardedAIndex):
            raise ConfigurationError(
                "ShardedCluster needs a ShardedAIndex; use QuepaCluster "
                "for replica deployments"
            )
        if instances > aindex.shards:
            raise ConfigurationError(
                f"{instances} instances cannot each own a shard of a "
                f"{aindex.shards}-shard index"
            )
        # Set first: the per-instance views ``super().__init__`` builds
        # reach the shared index through the cluster.
        self.aindex = aindex
        super().__init__(polystore, aindex, instances, policy, profile, config)
        #: shard -> owning instance (round-robin assignment).
        self.ownership = {
            shard: shard % instances for shard in range(aindex.shards)
        }
        self._pending_deletions: list[tuple[int, GlobalKey]] = []
        #: instance -> maintenance messages it has received.
        self._deliveries: list[list[Delivery]] = [[] for __ in self._instances]

    def _instance_index(self, aindex: ShardedAIndex, instance: int):
        return _InstanceIndexView(self, instance)

    # -- ownership -----------------------------------------------------------

    def owner_of(self, shard: int) -> int:
        return self.ownership[shard]

    def owned_shards(self, instance: int) -> list[int]:
        return [
            shard
            for shard, owner in self.ownership.items()
            if owner == instance
        ]

    def deliveries(self, instance: int) -> list[Delivery]:
        return list(self._deliveries[instance])

    def _deliver(self, shards: set[int], delivery: Delivery) -> set[int]:
        owners = {self.owner_of(shard) for shard in shards}
        for owner in sorted(owners):
            self._deliveries[owner].append(delivery)
        return owners

    # -- index maintenance (ownership-routed) --------------------------------

    def add_relation(self, relation: PRelation) -> None:
        """Insert a p-relation, delivered only to the owning shards."""
        shards = {
            self.aindex.shard_of(relation.left),
            self.aindex.shard_of(relation.right),
        }
        self._deliver(shards, Delivery("add_relation", relation))
        self.aindex.add(relation)

    def remove_object(self, key: GlobalKey) -> int:
        """Lazy-delete an object, delivered only to the partitions that
        hold adjacency entries for it (home shard + cross-shard stubs)."""
        shards = self.aindex.owning_shards(key)
        self._deliver(shards, Delivery("remove_object", key))
        return self.aindex.remove_object(key)

    def _lazy_delete(self, instance: int, key: GlobalKey) -> int:
        self._pending_deletions.append((instance, key))
        return self.remove_object(key)

    def _sync_lazy_deletions(self) -> None:
        """Partitioned-case deletion sync.

        Unlike the replica cluster, deletions are *recorded* when an
        instance discovers them and re-delivered idempotently to owners
        only — never inferred by diffing per-instance node sets, which
        under partitioning would mistake by-design absence for deletion
        and wipe every partition of the index.
        """
        for __, key in self._pending_deletions:
            if key in self.aindex:
                self.remove_object(key)
        self._pending_deletions = []
