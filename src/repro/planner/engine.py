"""The federated engine: enumerate, cost, pick, execute.

:class:`FederatedEngine` is the planner's front door. Given a
:class:`~repro.planner.logical.LogicalQuery` it

1. *prepares* the query off-clock (local answer, A' index plan
   restricted to the targets, per-collection counts of every touched
   store),
2. *enumerates* admissible physical plans,
3. *costs* each one — the plan's own analytic raw formula times the
   strategy's learned calibration factor — and
4. *executes* the cheapest (or a named strategy) on a fresh virtual
   runtime, feeding the measured time back into calibration.

``execute_all`` runs every enumerated plan, which is what the
plan-equivalence suite and the best-of-all-plans oracle benchmark use;
``explain_section`` renders the whole decision for ``Quepa.explain()``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.augmentation import Augmentation, AugmentationConfig
from repro.core.search import result_seeds
from repro.errors import UnknownStrategyError
from repro.faults.resilience import ResilienceConfig, ResilienceManager
from repro.model.polystore import Polystore
from repro.network.latency import DeploymentProfile, centralized_profile
from repro.planner.costs import CalibrationStore, CostEstimate, PlanCostModel
from repro.planner.enumerator import enumerate_plans
from repro.planner.logical import (
    LogicalQuery,
    PlanResult,
    QueryContext,
)
from repro.planner.plans import PhysicalPlan, restrict_plan, run_plan


@dataclass
class PlannerExecution:
    """One planner decision plus the execution it led to."""

    query: LogicalQuery
    chosen: str
    estimates: list[CostEstimate] = field(default_factory=list)
    rejected: list[dict] = field(default_factory=list)
    result: PlanResult | None = None


class FederatedEngine:
    """Cost-based cross-store planner over one polystore + A' index.

    ``resilience`` accepts a :class:`ResilienceConfig` (a manager is
    built), a ready :class:`ResilienceManager` (shared with a Quepa
    instance, so breaker state is common), or ``None`` (no retry/breaker
    layer). ``faults`` is an optional fault injector armed on every
    execution runtime, mirroring ``Quepa``.
    """

    def __init__(
        self,
        polystore: Polystore,
        aindex,
        profile: DeploymentProfile | None = None,
        memory_budget: int = 200_000,
        config: AugmentationConfig | None = None,
        resilience=None,
        faults=None,
        degrade: bool = True,
    ) -> None:
        self.polystore = polystore
        self.aindex = aindex
        self.profile = profile or centralized_profile(
            sorted(polystore.databases)
        )
        self.memory_budget = memory_budget
        self.config = config or AugmentationConfig()
        if isinstance(resilience, ResilienceConfig):
            resilience = ResilienceManager(resilience)
        self.resilience = resilience
        self.faults = faults
        self.calibration = CalibrationStore()
        self.degrade = degrade
        self.augmentation = Augmentation(aindex)
        self.model = PlanCostModel(self.profile, memory_budget)

    # -- preparation -----------------------------------------------------------

    def prepare(self, q: LogicalQuery, originals=None) -> QueryContext:
        """Prepare ``q`` off-clock: originals, restricted plan, counts.

        ``originals`` may be passed in when the caller already ran the
        local query (``Quepa.explain`` does), so preparation adds zero
        extra store executions there. Every touched store's collections
        are counted under its lock, and the A' index's edges, so each
        estimate prices the stores as they are now.
        """
        store = self.polystore.database(q.database)
        if originals is None:
            with store.lock:
                originals = store.execute(q.query)
        originals = list(originals)
        seeds = result_seeds(originals)
        plan = self.augmentation.plan(seeds, q.level, q.min_probability)
        targets = q.resolve_targets(self.polystore)
        stats = {}
        for database in dict.fromkeys((q.database,) + targets):
            member = self.polystore.database(database)
            with member.lock:
                stats[database] = member.collection_stats()
        return QueryContext(
            query=q,
            targets=targets,
            originals=originals,
            seeds=seeds,
            plan=restrict_plan(plan, targets),
            collection_stats=stats,
            index_edges=self.aindex.edge_count(),
        )

    # -- enumeration + costing ---------------------------------------------------

    def candidates(
        self, q: LogicalQuery, qctx: QueryContext | None = None
    ) -> tuple[list[tuple[PhysicalPlan, CostEstimate]], list[dict]]:
        """Admissible plans with estimates, cheapest first, plus rejections.

        Ties break on strategy name so the ranking is deterministic.
        """
        if qctx is None:
            qctx = self.prepare(q)
        plans, rejected = enumerate_plans(qctx, self.model)
        ranked: list[tuple[PhysicalPlan, CostEstimate]] = []
        for plan in plans:
            raw, breakdown = plan.estimate(self.model, qctx)
            factor = self.calibration.factor(plan.strategy)
            ranked.append(
                (
                    plan,
                    CostEstimate(
                        strategy=plan.strategy,
                        raw=raw,
                        calibration=factor,
                        total=raw * factor,
                        breakdown=breakdown,
                    ),
                )
            )
        ranked.sort(key=lambda pair: (pair[1].total, pair[1].strategy))
        return ranked, rejected

    # -- execution ------------------------------------------------------------

    def execute(
        self,
        q: LogicalQuery,
        strategy: str | None = None,
        record: bool = True,
    ) -> PlannerExecution:
        """Plan and run ``q``; ``strategy`` forces a named plan.

        ``record`` feeds the measured time back into the calibration
        store (:meth:`_observe`).
        """
        ranked, rejected = self.candidates(q)
        if not ranked:
            raise UnknownStrategyError(
                f"no admissible plan for query on {q.database!r}"
            )
        if strategy is None:
            plan, estimate = ranked[0]
        else:
            for plan, estimate in ranked:
                if plan.strategy == strategy:
                    break
            else:
                known = [p.strategy for p, __ in ranked]
                raise UnknownStrategyError(
                    f"unknown or inadmissible strategy {strategy!r}; "
                    f"admissible: {known}"
                )
        result = self._run_plan(plan, q)
        if record:
            self._observe(estimate, result)
        return PlannerExecution(
            query=q,
            chosen=plan.strategy,
            estimates=[entry for __, entry in ranked],
            rejected=rejected,
            result=result,
        )

    def execute_all(
        self, q: LogicalQuery, record: bool = False
    ) -> dict[str, PlanResult]:
        """Run EVERY admissible plan (equivalence suite / oracle input)."""
        ranked, __ = self.candidates(q)
        results: dict[str, PlanResult] = {}
        for plan, estimate in ranked:
            result = self._run_plan(plan, q)
            results[plan.strategy] = result
            if record:
                self._observe(estimate, result)
        return results

    def _observe(self, estimate: CostEstimate, result: PlanResult) -> None:
        """Fold a clean run's measured time into calibration: faulted,
        degraded and OOM runs do not reflect the formulas' fault-free
        assumption and are skipped."""
        if not (result.out_of_memory or result.degraded or result.errors):
            self.calibration.observe(
                estimate.strategy, estimate.raw, result.elapsed
            )

    def _run_plan(self, plan: PhysicalPlan, q: LogicalQuery) -> PlanResult:
        """One plan through :func:`~repro.planner.plans.run_plan`."""
        return run_plan(
            plan,
            q,
            self.polystore,
            self.aindex,
            self.profile,
            augmentation=self.augmentation,
            memory_budget=self.memory_budget,
            config=self.config,
            resilience=self.resilience,
            faults=self.faults,
            degrade=self.degrade,
        )

    # -- explain ---------------------------------------------------------------

    def explain_section(
        self,
        q: LogicalQuery,
        originals=None,
        analyze: bool = False,
    ) -> dict:
        """The ``planner`` section of ``Quepa.explain()``: JSON-ready.

        ``analyze=True`` additionally executes the chosen plan and
        reports measured time next to the estimate.
        """
        qctx = self.prepare(q, originals=originals)
        ranked, rejected = self.candidates(q, qctx)
        section = {
            "targets": list(qctx.targets),
            "planned_fetches": qctx.fetch_count,
            "unique_fetches": qctx.unique_fetch_count,
            "fetches_by_database": qctx.fetches_by_database(),
            "strategies": [entry.as_dict() for __, entry in ranked],
            "inadmissible": rejected,
            "chosen": ranked[0][0].strategy if ranked else None,
            "calibration": self.calibration.snapshot(),
        }
        if analyze and ranked:
            plan, estimate = ranked[0]
            result = self._run_plan(plan, q)
            ratio = (
                result.elapsed / estimate.raw if estimate.raw > 0 else None
            )
            section["actual"] = {
                "strategy": plan.strategy,
                "elapsed_s": result.elapsed,
                "estimated_cost_s": estimate.total,
                "ratio_to_raw": ratio,
                "queries_issued": result.queries_issued,
                "answer_size": len(result.answer),
                "out_of_memory": result.out_of_memory,
                "degraded": result.degraded,
            }
        return section
