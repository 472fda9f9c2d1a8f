"""Sharding: partitioned stores and scatter-gather augmentation with
partition pruning. The A' index is not partitioned: every instance
plans against one :class:`~repro.core.aindex.AIndex`."""

from repro.core.aindex import AIndex
from repro.sharding.connector import ShardConnector
from repro.sharding.scheme import (
    HashScheme,
    KeyRouting,
    PartitionScheme,
    RangeScheme,
    hash_shard,
    make_scheme,
)
from repro.sharding.store import (
    ShardedStore,
    partition_store,
    shard_polystore,
)

__all__ = [
    "HashScheme",
    "KeyRouting",
    "PartitionScheme",
    "RangeScheme",
    "ShardConnector",
    "ShardedStore",
    "hash_shard",
    "make_scheme",
    "partition_store",
    "shard_aindex",
    "shard_polystore",
]


def shard_aindex(index: AIndex, shards: int) -> AIndex:
    """A plain copy of ``index``: edges copied verbatim, lineage restored;
    ``shards`` is ignored. It exists for the benchmark spine's import
    (``sharding.freeze_ms`` freezes the copy) and for the sharding
    sweep, which plans each set-up on its own copy."""
    copy = AIndex(enforce_consistency=index.enforce_consistency)
    for node in index.nodes():
        for neighbor in index.neighbors(node):
            copy._set_edge(
                node, neighbor.key, neighbor.type, neighbor.probability
            )
    copy.restore_lineage(index._lineage)
    return copy
