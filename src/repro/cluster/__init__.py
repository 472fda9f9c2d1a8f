"""Multi-instance QUEPA deployment (Section III-A).

"Since QUEPA does not store any data, it is easy to deploy multiple
instances of the system that can answer independent queries in
parallel." This package implements that deployment:
:class:`~repro.cluster.cluster.QuepaCluster` runs N instances over one
polystore and one A' index — the caller's, not a copy — dispatches
independent queries across them, and accounts completion times on the
shared virtual clock.
"""

from repro.cluster.cluster import ClusterResult, DispatchPolicy, QuepaCluster

__all__ = ["ClusterResult", "DispatchPolicy", "QuepaCluster"]
