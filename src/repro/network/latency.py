"""Deployment profiles and the store-access cost model.

The paper evaluates two deployments (Section VII-A):

* **centralized** — QUEPA and all stores on one m4.4xlarge (16 vCPU);
  latency is in-host, sub-millisecond.
* **distributed** — QUEPA and each store on t2.medium machines placed in
  different EC2 regions; latency reaches a few hundred milliseconds.

A :class:`DeploymentProfile` assigns every database a
:class:`StoreSite`: the machine it runs on (its core count bounds CPU
contention in virtual time) and the one-way network latency between
QUEPA and that machine. The :class:`CostModel` holds the scalar costs of a
store access — per-query overhead, per-object service time, per-object
client-side CPU — used by the virtual runtime to charge operations.
"""

from __future__ import annotations

import random
from dataclasses import dataclass


@dataclass
class Machine:
    """A host with a fixed number of cores."""

    name: str
    cores: int


@dataclass(frozen=True)
class CostModel:
    """Scalar costs of store access, in virtual seconds.

    The defaults are calibrated so that the paper's experiment scales
    hold: a 10,000-result level-1 query touches up to ~1M objects and a
    sequential run in the distributed deployment is network-dominated.
    """

    #: Fixed server-side cost of admitting and planning one query.
    per_query_overhead: float = 0.0005
    #: Server-side service time per object returned.
    per_object_service: float = 0.00002
    #: Client-side CPU per object to parse/arrange into the answer.
    per_object_cpu: float = 0.000005
    #: Client-side CPU to create and synchronize one worker thread.
    thread_spawn_overhead: float = 0.0006
    #: Client-side CPU to set up one worker pool.
    pool_create_overhead: float = 0.001
    #: Client-side CPU for one cache probe.
    cache_probe_cost: float = 0.0000005
    #: Client-side CPU per A' index edge examined while planning.
    aindex_edge_cost: float = 0.0000002


@dataclass
class StoreSite:
    """Where a database lives: its machine and its one-way latency."""

    machine: Machine
    one_way_latency: float

    @property
    def roundtrip(self) -> float:
        return 2.0 * self.one_way_latency


class DeploymentProfile:
    """Maps database names to sites; owns the QUEPA host machine."""

    def __init__(
        self,
        name: str,
        quepa_machine: Machine,
        cost_model: CostModel | None = None,
        default_latency: float = 0.0002,
    ) -> None:
        self.name = name
        self.quepa_machine = quepa_machine
        self.cost_model = cost_model or CostModel()
        self.default_latency = default_latency
        self._sites: dict[str, StoreSite] = {}
        self._default_machine = quepa_machine

    def place(self, database: str, machine: Machine, one_way_latency: float) -> None:
        """Assign ``database`` to ``machine`` at the given latency."""
        self._sites[database] = StoreSite(machine, one_way_latency)

    def site(self, database: str) -> StoreSite:
        """The site of ``database`` (co-located default if never placed)."""
        if database not in self._sites:
            self._sites[database] = StoreSite(
                self._default_machine, self.default_latency
            )
        return self._sites[database]


def centralized_profile(
    databases: list[str],
    cores: int = 16,
    store_cores: int = 16,
    cost_model: CostModel | None = None,
) -> DeploymentProfile:
    """The paper's centralized deployment: everything on one big host.

    Stores share a host modelled separately from the QUEPA process (the
    paper notes the stores ran on a slower machine than QUEPA), with
    in-host latency of ~0.2 ms.
    """
    quepa = Machine("quepa-host", cores)
    stores_host = Machine("stores-host", store_cores)
    profile = DeploymentProfile("centralized", quepa, cost_model)
    for database in databases:
        profile.place(database, stores_host, one_way_latency=0.0002)
    return profile


def distributed_profile(
    databases: list[str],
    cores: int = 2,
    store_cores: int = 2,
    min_latency: float = 0.040,
    max_latency: float = 0.220,
    seed: int = 7,
    cost_model: CostModel | None = None,
) -> DeploymentProfile:
    """The paper's distributed deployment: one t2.medium per store.

    Each store lives on its own 2-core machine in a different region;
    one-way latencies are drawn uniformly from
    ``[min_latency, max_latency]`` with a fixed seed so runs are
    reproducible ("network latency reaches, in some cases, few hundred
    milliseconds").
    """
    rng = random.Random(seed)
    quepa = Machine("quepa-host", cores)
    profile = DeploymentProfile("distributed", quepa, cost_model)
    for index, database in enumerate(sorted(databases)):
        machine = Machine(f"region-{index}", store_cores)
        profile.place(database, machine, rng.uniform(min_latency, max_latency))
    return profile
