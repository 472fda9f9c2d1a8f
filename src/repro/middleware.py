"""Middleware baselines of the Fig 13 comparison (Section VII-A.c).

The paper compares QUEPA with three middleware architectures over the
same stores and the same A' index. Each system here is a name, the
engines it connects to, and the :class:`~repro.planner.plans.PhysicalPlan`
it runs through the planner's one runner,
:func:`~repro.planner.plans.run_plan`:

* :class:`FederatedMiddleware` — Apache Metamodel over relational,
  document and graph stores (no Redis, as in the paper). META-NAT
  answers with its own operators, a collect-and-join
  (:class:`~repro.planner.plans.CollectJoinPlan`: whole collections
  pulled into a memory-bounded staging area, the red-X OOMs);
  META-AUG re-implements QUEPA's algorithm through the interface
  (:class:`TranslatedFetchPlan`).
* :class:`EtlWorkflow` — TALEND, a compiled Talend workflow: start-up,
  lookup-table staging and a high per-record pipeline cost, the
  steepest slope in Fig 13 (:class:`~repro.planner.plans.EtlCastPlan`).
* :class:`MultiModelStore` — ArangoDB, which imports the document,
  graph and key-value databases plus the A' index into memory and
  answers there, slowing and finally OOMing as the polystore grows.
  ARANGO-AUG queries it QUEPA-style
  (:class:`~repro.planner.plans.MultiModelPlan`); ARANGO-NAT answers
  with one AQL traversal (:class:`TraversalPlan`).

Every run is cold: it pays its scans and its import. A run that
outgrows the memory budget, or that cannot reach a store, returns an
empty :class:`~repro.planner.logical.PlanResult` that says why
(``out_of_memory`` / ``unavailable``): the middleware has no half
answers.
"""

from __future__ import annotations

from repro.core.augmenters.base import AugmentationOutcome
from repro.core.search import result_seeds
from repro.network.latency import DeploymentProfile
from repro.planner.logical import LogicalQuery, PlanResult
from repro.planner.plans import (
    LOOKUP_CPU,
    CollectJoinPlan,
    EtlCastPlan,
    ExecutionEnv,
    MultiModelPlan,
    PhysicalPlan,
    degraded_empty,
    issue_call,
    local_originals,
    rows_in,
    run_plan,
    staged_result,
)
from repro.workloads.builder import PolystoreBundle
from repro.workloads.queries import WorkloadQuery

__all__ = [
    "EtlWorkflow",
    "FederatedMiddleware",
    "MiddlewareSystem",
    "MultiModelStore",
    "TranslatedFetchPlan",
    "TraversalPlan",
]

#: Interface-translation multiplier on per-call overhead (META-AUG).
TRANSLATION_OVERHEAD = 2.5
#: Traversal CPU per index edge examined (ARANGO-NAT's AQL executor).
TRAVERSAL_CPU_PER_EDGE = 0.000005


class TranslatedFetchPlan(PhysicalPlan):
    """META-AUG: QUEPA's algorithm through Metamodel's interface.

    Plan on the A' index, then fetch each planned object in the targets
    with its own call (Metamodel's connectors are synchronous: no
    batching, no threads, no cache, so duplicates are refetched), paying
    the interface-translation overhead on every call. It has no degraded
    mode: a fetch that fails fails the run.
    """

    strategy = "translated_fetch"

    def execute(self, env: ExecutionEnv, q: LogicalQuery) -> PlanResult:
        ctx = env.ctx
        originals, failure = local_originals(env, q)
        if originals is None:
            return degraded_empty(self.strategy, q, failure)
        plan = env.augmentation.plan(
            result_seeds(originals), q.level, q.min_probability
        )
        ctx.cpu(plan.edges_examined * ctx.cost_model.aindex_edge_cost)
        targets = q.resolve_targets(env.polystore)
        found = AugmentationOutcome(plan=plan, in_plan_order=True)
        translation = ctx.cost_model.per_query_overhead * (
            TRANSLATION_OVERHEAD - 1.0
        )
        for row in rows_in(plan, set(targets)):
            key = plan.keys[row]
            store = env.polystore.database(key.database)
            ctx.cpu(translation)
            fetched = issue_call(
                env, key.database, lambda: store.multi_get([key])
            )
            if fetched:
                found.values.append(fetched[0])
                found.rows.append(row)
        return staged_result(
            self.strategy, q, originals, found, plan, targets, {}
        )


class TraversalPlan(MultiModelPlan):
    """ARANGO-NAT: after the same import, one AQL traversal over the
    imported A' index answers the query (per-edge CPU under memory
    pressure) instead of QUEPA's plan-then-lookup loop."""

    strategy = "multimodel_traversal"
    # The inherited formula prices the plan-then-lookup loop, not the
    # traversal; the planner does not enumerate this plan.
    estimate = PhysicalPlan.estimate

    def lookups(self, ctx, plan, count, pressure) -> None:
        ctx.cpu(TRAVERSAL_CPU_PER_EDGE * plan.edges_examined * pressure)
        ctx.cpu(LOOKUP_CPU * count * pressure)


class MiddlewareSystem:
    """A Fig 13 baseline: a display name, the engines it connects to,
    and the plan it runs. ``modes`` maps each of the system's ways of
    answering to its ``(name, plan)``."""

    supported_engines: frozenset[str] = frozenset()
    modes: dict[str, tuple[str, PhysicalPlan]] = {}

    def __init__(
        self,
        bundle: PolystoreBundle,
        profile: DeploymentProfile,
        memory_budget: int = 200_000,
        *,
        mode: str = "augmented",
        faults=None,
    ) -> None:
        if mode not in self.modes:
            raise ValueError(
                f"mode must be one of {sorted(self.modes)}, got {mode!r}"
            )
        self.bundle = bundle
        self.profile = profile
        self.memory_budget = memory_budget
        self.mode = mode
        self.name, self.plan = self.modes[mode]
        #: Fault injector armed on every run's runtime.
        self.faults = faults

    def run(self, query: WorkloadQuery, level: int = 0) -> PlanResult:
        """Answer ``query`` augmented to ``level`` over every database
        the system connects to, on a fresh (cold) runtime."""
        if query.engine not in self.supported_engines:
            raise ValueError(
                f"{self.name} cannot connect to {query.engine} stores"
            )
        targets = tuple(
            name for name, kind in self.bundle.databases
            if kind in self.supported_engines
        )
        return run_plan(
            self.plan,
            LogicalQuery(query.database, query.query, level, targets),
            self.bundle.polystore,
            self.bundle.aindex,
            self.profile,
            memory_budget=self.memory_budget,
            faults=self.faults,
            degrade=False,
        )


class FederatedMiddleware(MiddlewareSystem):
    """META: Apache Metamodel's common interface over SQL/document/graph."""

    supported_engines = frozenset({"relational", "document", "graph"})
    modes = {
        "native": ("META-NAT", CollectJoinPlan()),
        "augmented": ("META-AUG", TranslatedFetchPlan()),
    }


class EtlWorkflow(MiddlewareSystem):
    """TALEND: a staged extract -> lookup-join -> output workflow."""

    supported_engines = frozenset({"relational", "document", "graph"})
    modes = {"augmented": ("TALEND", EtlCastPlan())}


class MultiModelStore(MiddlewareSystem):
    """ARANGO: one in-memory multi-model engine (no relational import)."""

    supported_engines = frozenset({"document", "graph", "keyvalue"})
    modes = {
        "native": ("ARANGO-NAT", TraversalPlan()),
        "augmented": ("ARANGO-AUG", MultiModelPlan()),
    }
