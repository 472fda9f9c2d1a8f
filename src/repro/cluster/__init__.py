"""Multi-instance QUEPA deployment (Section III-A).

"Since QUEPA does not store any data, it is easy to deploy multiple
instances of the system that can answer independent queries in
parallel. In this case, each instance has its own A' index replica and
its own augmenter." This package implements that deployment:
:class:`~repro.cluster.cluster.QuepaCluster` runs N instances over one
polystore, dispatches independent queries across them, keeps the
replicas in sync on index maintenance, and accounts completion times on
the shared virtual clock.
:class:`~repro.cluster.sharded.ShardedCluster` is the same cluster
handing out views of one shared
:class:`~repro.sharding.aindex.ShardedAIndex` instead of replicas:
instances own disjoint shards and index maintenance is routed only to
owning shards.
"""

from repro.cluster.cluster import ClusterResult, DispatchPolicy, QuepaCluster
from repro.cluster.sharded import Delivery, ShardedCluster

__all__ = [
    "ClusterResult",
    "Delivery",
    "DispatchPolicy",
    "QuepaCluster",
    "ShardedCluster",
]
