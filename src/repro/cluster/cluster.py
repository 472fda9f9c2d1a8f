"""A cluster of QUEPA instances answering independent queries.

Every instance plans against the one :class:`~repro.core.aindex.AIndex`
the caller passes and owns its own cache, runtime and augmentation (so
its own plan cache); the underlying polystore is shared (QUEPA stores
no data). Index maintenance needs no side channel: a p-relation added to
the index, a promotion or a lazy deletion made by any instance is seen
by every instance at its next refreeze. Queries submitted to the
cluster are dispatched by policy:

* ``round_robin`` — instance ``i = n mod size``;
* ``least_loaded`` — the instance that becomes free earliest.

Timing model: instance ``i`` is busy until the completion of its
previous query; a query submitted at cluster time ``t`` on instance
``i`` completes at ``max(t, free_i) + elapsed`` where ``elapsed`` is
the instance's measured (virtual) execution time. ``drain()`` returns
when every submitted query is done and reports the makespan, so tests
can verify that adding instances shortens a batch of independent
queries — the property the paper's architecture section claims.
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
from repro.model.polystore import Polystore
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
    """N QUEPA instances over one polystore and one A' index."""

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
            _Instance(Quepa(polystore, aindex, profile=profile, config=config))
            for __ in range(instances)
        ]
        self._clock = 0.0
        self._round_robin = 0
        self._pending: list[ClusterResult] = []

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
