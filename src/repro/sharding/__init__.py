"""Sharding: partitioned stores, a partitioned A' index, and
scatter-gather augmentation with partition pruning."""

from repro.sharding.aindex import (
    ShardedAIndex,
    ShardedFrozenAIndex,
    default_index_placement,
    shard_aindex,
)
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
    "ShardedAIndex",
    "ShardedFrozenAIndex",
    "ShardedStore",
    "default_index_placement",
    "hash_shard",
    "make_scheme",
    "partition_store",
    "shard_aindex",
    "shard_polystore",
]
