"""A cluster of QUEPA instances answering independent queries.

Each instance owns an A' index **replica** and its own cache and
runtime; the underlying polystore is shared (QUEPA stores no data).
Queries submitted to the cluster are dispatched by policy:

* ``round_robin`` — instance ``i = n mod size``;
* ``least_loaded`` — the instance that becomes free earliest.

Timing model: instance ``i`` is busy until the completion of its
previous query; a query submitted at cluster time ``t`` on instance
``i`` completes at ``max(t, free_i) + elapsed`` where ``elapsed`` is
the instance's measured (virtual) execution time. ``drain()`` returns
when every submitted query is done and reports the makespan, so tests
can verify that adding instances shortens a batch of independent
queries — the property the paper's architecture section claims.

Index maintenance (new p-relations, promotions, lazy deletions) must
reach every replica; the cluster exposes :meth:`add_relation` /
:meth:`remove_object` broadcasts, and per-instance lazy deletions are
re-broadcast on drain.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any

from repro.core.aindex import AIndex
from repro.core.augmentation import AugmentationConfig
from repro.core.search import AugmentedAnswer
from repro.core.system import Quepa
from repro.errors import ConfigurationError
from repro.model.objects import GlobalKey
from repro.model.polystore import Polystore
from repro.model.prelations import PRelation
from repro.network.latency import DeploymentProfile, centralized_profile


class DispatchPolicy(enum.Enum):
    ROUND_ROBIN = "round_robin"
    LEAST_LOADED = "least_loaded"


@dataclass
class ClusterResult:
    """One completed query: its answer plus cluster-level timing."""

    answer: AugmentedAnswer
    instance: int
    submitted_at: float
    started_at: float
    completed_at: float

    @property
    def waited(self) -> float:
        return self.started_at - self.submitted_at


@dataclass
class _Instance:
    quepa: Quepa
    free_at: float = 0.0
    queries_served: int = 0


@dataclass
class ClusterReport:
    """What one drain() observed."""

    results: list[ClusterResult] = field(default_factory=list)
    makespan: float = 0.0

    def per_instance_counts(self) -> dict[int, int]:
        counts: dict[int, int] = {}
        for result in self.results:
            counts[result.instance] = counts.get(result.instance, 0) + 1
        return counts


class QuepaCluster:
    """N QUEPA instances over one polystore."""

    def __init__(
        self,
        polystore: Polystore,
        aindex: AIndex,
        instances: int = 2,
        policy: DispatchPolicy = DispatchPolicy.LEAST_LOADED,
        profile: DeploymentProfile | None = None,
        config: AugmentationConfig | None = None,
    ) -> None:
        if instances < 1:
            raise ConfigurationError(
                f"a cluster needs at least one instance, got {instances}"
            )
        self.polystore = polystore
        self.policy = policy
        profile = profile or centralized_profile(list(polystore))
        self._instances = [
            _Instance(
                Quepa(
                    polystore,
                    self._instance_index(aindex, index),
                    profile=profile,
                    config=config,
                )
            )
            for index in range(instances)
        ]
        self._clock = 0.0
        self._round_robin = 0
        self._pending: list[ClusterResult] = []

    def _instance_index(self, aindex: AIndex, instance: int):
        """The index instance number ``instance`` plans against: its own
        replica here; ``ShardedCluster`` hands out views of one shared
        partitioned index instead."""
        return aindex.copy()

    # -- sizing -----------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._instances)

    def instance(self, index: int) -> Quepa:
        return self._instances[index].quepa

    # -- query dispatch ------------------------------------------------------------

    def submit(
        self,
        database: str,
        query: Any,
        level: int = 0,
        config: AugmentationConfig | None = None,
    ) -> ClusterResult:
        """Dispatch one query; returns its result with cluster timing."""
        index = self._pick_instance()
        instance = self._instances[index]
        submitted = self._clock
        started = max(submitted, instance.free_at)
        answer = instance.quepa.augmented_search(
            database, query, level=level, config=config
        )
        completed = started + answer.stats.elapsed
        instance.free_at = completed
        instance.queries_served += 1
        result = ClusterResult(
            answer=answer,
            instance=index,
            submitted_at=submitted,
            started_at=started,
            completed_at=completed,
        )
        self._pending.append(result)
        return result

    def drain(self) -> ClusterReport:
        """Finish the current batch: report results and the makespan."""
        report = ClusterReport(results=list(self._pending))
        if report.results:
            report.makespan = max(r.completed_at for r in report.results)
            self._clock = report.makespan
        self._pending = []
        self._sync_lazy_deletions()
        return report

    def _pick_instance(self) -> int:
        if self.policy is DispatchPolicy.ROUND_ROBIN:
            index = self._round_robin % len(self._instances)
            self._round_robin += 1
            return index
        return min(
            range(len(self._instances)),
            key=lambda i: (self._instances[i].free_at, i),
        )

    # -- index maintenance broadcast --------------------------------------------------

    def add_relation(self, relation: PRelation) -> None:
        """Insert a p-relation into every replica."""
        for instance in self._instances:
            instance.quepa.aindex.add(relation)

    def remove_object(self, key: GlobalKey) -> None:
        """Lazy-delete an object from every replica."""
        for instance in self._instances:
            instance.quepa.aindex.remove_object(key)

    def _sync_lazy_deletions(self) -> None:
        """Re-broadcast deletions one replica discovered during a batch
        (an object missing in the polystore is missing for everyone).

        Replica-only reconciliation: inferring deletions from node-set
        differences is correct precisely because every instance holds a
        *full* replica. A partitioned index (per-instance node sets
        differ by design) must never run this union-diff — a key absent
        from a non-owning partition would be mistaken for a deletion
        and re-broadcast everywhere. ``ShardedCluster`` overrides this
        with ownership-routed delivery of *recorded* deletions.
        """
        if any(
            getattr(instance.quepa.aindex, "partitioned", False)
            for instance in self._instances
        ):
            raise ConfigurationError(
                "replica-style deletion sync cannot run over partitioned "
                "indexes; use ShardedCluster"
            )
        all_nodes: list[set[GlobalKey]] = [
            set(instance.quepa.aindex.nodes()) for instance in self._instances
        ]
        union: set[GlobalKey] = set().union(*all_nodes) if all_nodes else set()
        for nodes in all_nodes:
            for gone in union - nodes:
                self.remove_object(gone)
