"""A partitioned A' index whose p-relations may cross shard boundaries.

``ShardedAIndex`` *is* an :class:`~repro.core.aindex.AIndex` — same
supersedence, Consistency-Condition propagation, lineage, generations,
lazy deletion and excision, because it inherits every one of them — and
changes exactly one decision: where a node's adjacency dict lives. Its
``_adjacency`` is a :class:`_PartitionedNodes` map that routes each key
to the per-shard dict of the partition that *owns the node*, so an edge
``a -- b`` with ``shard(a) = i`` and ``shard(b) = j`` records ``a → b``
in partition ``i`` and ``b → a`` in partition ``j``. Cross-shard edges
are not tracked separately; :meth:`ShardedAIndex.cross_edges` derives
them from adjacency on demand. A
:class:`~repro.cluster.QuepaCluster` handed a ``ShardedAIndex`` is the
partitioned deployment: its instances plan against this one index.

Freezing produces a :class:`ShardedFrozenAIndex`: one per-partition
:class:`~repro.core.compressed.FrozenAIndex` snapshot. Because
every node's full neighbour list lives in its owning partition
(cross-shard neighbours included, as stubs), routing a traversal step
to the owner's snapshot reproduces the unsharded ``FrozenAIndex``
semantics edge-for-edge — per-node adjacency order is preserved, so the
planner's tie-breaking is unchanged. Publishing goes through the same
:meth:`AIndex.frozen` hook as the plain index: the dirty record is split
by placement and only the partitions that own a dirty node are patched
(:meth:`ShardedFrozenAIndex.patched`); the others are shared as is.
"""

from __future__ import annotations

import itertools
from typing import Callable, Iterator
from zlib import crc32

from repro.core.aindex import AIndex, Neighbor, _pair
from repro.core.compressed import FrozenAIndex
from repro.errors import ConfigurationError
from repro.model.objects import GlobalKey
from repro.model.prelations import PRelation, RelationType

Adjacency = dict[GlobalKey, tuple[RelationType, float]]


def default_index_placement(shards: int) -> Callable[[GlobalKey], int]:
    """Deterministic key→shard map for index nodes (CRC-32 of the
    textual global key — stable across processes, like store routing)."""

    def placement(key: GlobalKey) -> int:
        return crc32(str(key).encode("utf-8")) % shards

    return placement


class _PartitionedNodes:
    """The node map of a sharded index: the slice of the ``dict``
    interface :class:`AIndex` uses on ``_adjacency``, routed by the
    placement function over one plain dict per shard. Iteration walks
    the partitions in shard order, each in insertion order."""

    def __init__(
        self, shards: int, placement: Callable[[GlobalKey], int]
    ) -> None:
        self.partitions: list[dict[GlobalKey, Adjacency]] = [
            {} for __ in range(shards)
        ]
        self._placement = placement

    def _home(self, key: GlobalKey) -> dict[GlobalKey, Adjacency]:
        return self.partitions[self._placement(key)]

    def get(self, key: GlobalKey, default=None):
        return self._home(key).get(key, default)

    def setdefault(self, key: GlobalKey, default: Adjacency) -> Adjacency:
        return self._home(key).setdefault(key, default)

    def pop(self, key: GlobalKey, default=None):
        return self._home(key).pop(key, default)

    def __setitem__(self, key: GlobalKey, adjacency: Adjacency) -> None:
        self._home(key)[key] = adjacency

    def __contains__(self, key: GlobalKey) -> bool:
        return key in self._home(key)

    def __iter__(self) -> Iterator[GlobalKey]:
        return itertools.chain.from_iterable(self.partitions)

    def __len__(self) -> int:
        return sum(map(len, self.partitions))

    def items(self):
        return itertools.chain.from_iterable(
            partition.items() for partition in self.partitions
        )

    def values(self):
        return itertools.chain.from_iterable(
            partition.values() for partition in self.partitions
        )


class ShardedAIndex(AIndex):
    """An A' index partitioned into per-shard adjacency maps."""

    def __init__(
        self,
        shards: int = 2,
        enforce_consistency: bool = True,
        placement: Callable[[GlobalKey], int] | None = None,
    ) -> None:
        if shards < 1:
            raise ConfigurationError(
                f"a sharded index needs at least one shard, got {shards}"
            )
        super().__init__(enforce_consistency=enforce_consistency)
        self.shards = shards
        self._placement = placement or default_index_placement(shards)
        #: shard -> key -> neighbour key -> (type, probability)
        self._adjacency = _PartitionedNodes(shards, self._placement)

    def _freeze(self) -> "ShardedFrozenAIndex":
        return ShardedFrozenAIndex.freeze(self)

    # -- partitioning ----------------------------------------------------------

    def shard_of(self, key: GlobalKey) -> int:
        return self._placement(key)

    def cross_edges(self) -> dict[tuple[GlobalKey, GlobalKey], tuple[int, int]]:
        """Every edge whose endpoints live in different partitions:
        canonical pair -> (shard of ``pair[0]``, shard of ``pair[1]``),
        derived from adjacency."""
        with self._mutex:
            edges = {}
            for a, adjacency in self._adjacency.items():
                shard_a = self.shard_of(a)
                for b in adjacency:
                    shard_b = self.shard_of(b)
                    # Each undirected edge once, from its canonical end.
                    if shard_a != shard_b and _pair(a, b) == (a, b):
                        edges[a, b] = (shard_a, shard_b)
            return edges

    def partition_node_counts(self) -> list[int]:
        with self._mutex:
            return [len(part) for part in self._adjacency.partitions]


def _partition_index(index: ShardedAIndex, shard: int) -> AIndex:
    """One partition as a plain :class:`AIndex` that shares (does not
    copy) its node dict — the shape :meth:`FrozenAIndex.freeze` reads.
    Its cross-shard neighbours dangle; ``freeze`` interns those as
    ghost nodes."""
    view = AIndex()
    view._adjacency = index._adjacency.partitions[shard]
    view.generation = index.generation
    return view


class ShardedFrozenAIndex:
    """Per-shard snapshots behind the ``AIndex`` read protocol.

    Reads route to the owner's snapshot; since each node's full
    neighbour list (cross-shard stubs included) lives in its owning
    partition, traversal semantics match the unsharded
    :class:`~repro.core.compressed.FrozenAIndex` exactly.
    """

    def __init__(
        self,
        snapshots: list[FrozenAIndex],
        placement: Callable[[GlobalKey], int],
        generation: int | None,
    ) -> None:
        self._snapshots = snapshots
        self._placement = placement
        self.generation = generation

    @classmethod
    def freeze(cls, index: ShardedAIndex) -> "ShardedFrozenAIndex":
        with index._mutex:
            return cls(
                [
                    FrozenAIndex.freeze(_partition_index(index, shard))
                    for shard in range(index.shards)
                ],
                index._placement,
                index.generation,
            )

    def patched(
        self, adjacency, dirty: dict[GlobalKey, None], generation: int
    ) -> "ShardedFrozenAIndex | None":
        """:meth:`FrozenAIndex.patched` per partition: ``dirty`` is split
        by placement, the partitions that own a dirty node are patched
        and the others are shared as they are. ``None`` (compact
        instead) as soon as one partition's overlay outgrows its base.
        """
        parts: list[dict[GlobalKey, None]] = [{} for __ in self._snapshots]
        for key in dirty:
            parts[self._placement(key)][key] = None
        snapshots = []
        for snapshot, part in zip(self._snapshots, parts):
            if part:
                snapshot = snapshot.patched(adjacency, part, generation)
                if snapshot is None:
                    return None
            snapshots.append(snapshot)
        return ShardedFrozenAIndex(snapshots, self._placement, generation)

    @property
    def overlay_nodes(self) -> int:
        return sum(snapshot.overlay_nodes for snapshot in self._snapshots)

    @property
    def shards(self) -> int:
        return len(self._snapshots)

    def _snapshot_of(self, key: GlobalKey):
        return self._snapshots[self._placement(key)]

    # -- AIndex read protocol --------------------------------------------------

    def neighbors(
        self, key: GlobalKey, rel_type: RelationType | None = None
    ) -> list[Neighbor]:
        return self._snapshot_of(key).neighbors(key, rel_type)

    def neighbor_arcs(
        self, key: GlobalKey
    ) -> list[tuple[GlobalKey, float]]:
        return self._snapshot_of(key).neighbor_arcs(key)

    def relation(self, a: GlobalKey, b: GlobalKey) -> PRelation | None:
        return self._snapshot_of(a).relation(a, b)

    def degree(self, key: GlobalKey) -> int:
        return self._snapshot_of(key).degree(key)

    def __contains__(self, key: GlobalKey) -> bool:
        return key in self._snapshot_of(key)

    def nodes(self) -> Iterator[GlobalKey]:
        return itertools.chain.from_iterable(
            snapshot.nodes() for snapshot in self._snapshots
        )

    def node_count(self) -> int:
        return sum(snapshot.node_count() for snapshot in self._snapshots)

    def edge_count(self) -> int:
        # An edge is one arc in each endpoint's partition.
        return sum(snapshot._arc_total for snapshot in self._snapshots) // 2

    def frozen(self) -> "ShardedFrozenAIndex":
        return self

    # -- immutability guards ---------------------------------------------------

    def add(self, relation: PRelation) -> None:
        raise TypeError(
            "ShardedFrozenAIndex is read-only; mutate the live "
            "ShardedAIndex and refreeze"
        )

    def remove_object(self, key: GlobalKey) -> int:
        raise TypeError(
            "ShardedFrozenAIndex is read-only; mutate the live "
            "ShardedAIndex and refreeze"
        )


def shard_aindex(
    index: AIndex,
    shards: int,
    placement: Callable[[GlobalKey], int] | None = None,
) -> ShardedAIndex:
    """Partition an existing A' index without re-running propagation.

    The source index already materialized the Consistency Condition, so
    edges are copied verbatim (first-seen per undirected pair, in node
    iteration order; the reverse visit of a pair finds an equal edge
    and is a no-op). Answers are identical to the source index's;
    per-node adjacency order may interleave differently, which can only
    swap equal-probability tie-breaks, never probabilities or keys.
    """
    sharded = ShardedAIndex(
        shards=shards,
        enforce_consistency=index.enforce_consistency,
        placement=placement,
    )
    for node in index.nodes():
        for neighbor in index.neighbors(node):
            sharded._set_edge(
                node, neighbor.key, neighbor.type, neighbor.probability
            )
    sharded.restore_lineage(index._lineage)
    return sharded
