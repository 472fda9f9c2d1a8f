"""The planner's cost model and its learned calibration factors.

Raw costs are analytic: each strategy's formula mirrors the virtual-time
charges its execution actually makes — store roundtrips from the
deployment profile, scan paging from per-collection cardinalities,
push-down fetch schedules from the :class:`CostBasedOptimizer` formulas
of :mod:`repro.optimizer.costbased`, and the middleware constants the
plans of :mod:`repro.planner.plans` charge. Cardinalities come from the
per-store ``explain()`` estimates plus the A' index plan, both available
before any store is contacted on the clock.

Analytic formulas drift from measured reality (contention, cache
behaviour, modelling gaps), so each strategy carries a learned
*calibration factor*: an EWMA of measured/predicted ratios observed
after executions. ``total = raw * factor``. Factors start at 1.0 and
are clamped to a sane band so one pathological observation cannot
poison the ranking. ``tests/test_planner_costs.py`` asserts the raw
estimates stay within :data:`RATIO_BAND` of measurements, and that
calibration tightens them.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field

from repro.core.augmentation import AugmentationConfig
from repro.core.runlog import QueryFeatures
from repro.model.polystore import Polystore
from repro.network.latency import DeploymentProfile
from repro.optimizer.costbased import AssumedCosts, CostBasedOptimizer
from repro.planner import plans
from repro.planner.logical import QueryContext

#: Documented estimated-vs-actual band for *uncalibrated* raw costs:
#: ``RATIO_BAND[0] <= actual / raw <= RATIO_BAND[1]`` on the fault-free
#: workloads of the cost tests. The band is deliberately generous — the
#: formulas abstract pool scheduling and cache hits — and calibration
#: exists to tighten what it cannot.
RATIO_BAND = (0.2, 5.0)

#: EWMA weight of the newest measured/predicted ratio.
CALIBRATION_ALPHA = 0.4
#: The band every ratio and factor is clamped to.
FACTOR_BAND = (0.05, 20.0)


@dataclass
class CostEstimate:
    """One strategy's predicted cost: raw formula times learned factor."""

    strategy: str
    raw: float
    calibration: float
    total: float
    breakdown: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "strategy": self.strategy,
            "estimated_cost_s": self.total,
            "raw_cost_s": self.raw,
            "calibration_factor": self.calibration,
            "breakdown": dict(self.breakdown),
        }


class CalibrationStore:
    """Per-strategy EWMA of measured/predicted cost ratios (thread-safe).

    ``observe`` folds one execution's ratio into the strategy's factor;
    ``factor`` is what estimates are multiplied by. Ratios and factors
    are clamped to :data:`FACTOR_BAND` so a degenerate run (near-zero
    prediction, faulted execution) cannot blow up the model.
    """

    def __init__(self) -> None:
        self._factors: dict[str, float] = {}
        self._observations: dict[str, int] = {}
        self._lock = threading.Lock()

    def factor(self, strategy: str) -> float:
        with self._lock:
            return self._factors.get(strategy, 1.0)

    def observe(self, strategy: str, raw: float, actual: float) -> float:
        """Fold one (predicted, measured) pair in; returns the new factor."""
        if raw <= 0.0 or actual < 0.0:
            return self.factor(strategy)
        low, high = FACTOR_BAND
        ratio = min(high, max(low, actual / raw))
        with self._lock:
            current = self._factors.get(strategy)
            if current is None:
                updated = ratio
            else:
                alpha = CALIBRATION_ALPHA
                updated = (1.0 - alpha) * current + alpha * ratio
            updated = min(high, max(low, updated))
            self._factors[strategy] = updated
            self._observations[strategy] = (
                self._observations.get(strategy, 0) + 1
            )
            return updated

    def snapshot(self) -> dict:
        with self._lock:
            return {
                strategy: {
                    "factor": factor,
                    "observations": self._observations.get(strategy, 0),
                }
                for strategy, factor in sorted(self._factors.items())
            }


class PlanCostModel:
    """Analytic raw-cost formulas for every plan kind.

    Per-database collection cardinalities are snapshotted lazily (first
    use per database) and reused across estimates; :meth:`refresh`
    drops the snapshot after bulk mutations.
    """

    def __init__(
        self,
        profile: DeploymentProfile,
        polystore: Polystore,
        aindex=None,
        memory_budget: int = 200_000,
    ) -> None:
        self.profile = profile
        self.polystore = polystore
        self.aindex = aindex
        self.memory_budget = memory_budget
        self._collection_stats: dict[str, dict[str, int]] = {}

    # -- cardinality snapshots ----------------------------------------------

    def refresh(self) -> None:
        """Drop cached cardinalities (call after bulk store mutations)."""
        self._collection_stats = {}

    def collection_stats(self, database: str) -> dict[str, int]:
        stats = self._collection_stats.get(database)
        if stats is None:
            store = self.polystore.database(database)
            with store.lock:
                stats = store.collection_stats()
            self._collection_stats[database] = stats
        return stats

    def database_objects(self, database: str) -> int:
        return sum(self.collection_stats(database).values())

    # -- shared cost pieces ---------------------------------------------------

    def _roundtrip(self, database: str) -> float:
        return self.profile.site(database).roundtrip

    def scan_cost(self, database: str) -> float:
        """Paged full scan of one database through a middleware connector."""
        cost = self.profile.cost_model
        roundtrip = self._roundtrip(database)
        total = 0.0
        for count in self.collection_stats(database).values():
            pages = math.ceil(count / plans.SCAN_PAGE) if count else 0
            total += pages * (roundtrip + cost.per_query_overhead)
            total += count * (
                cost.per_object_service + cost.per_object_cpu
            )
        return total

    def local_query_cost(self, qctx: QueryContext) -> float:
        """The local query through its connector, on the clock."""
        cost = self.profile.cost_model
        rows = len(qctx.originals)
        return (
            self._roundtrip(qctx.query.database)
            + cost.per_query_overhead
            + rows * (cost.per_object_service + cost.per_object_cpu)
        )

    def _planning_cpu(self, qctx: QueryContext) -> float:
        cost = self.profile.cost_model
        return qctx.edges_examined * cost.aindex_edge_cost

    def _index_edges(self) -> int:
        if self.aindex is None:
            return 0
        return self.aindex.edge_count()

    # -- admission (footprint) estimates --------------------------------------

    def footprint_estimate(self, kind: str, qctx: QueryContext) -> int | None:
        """Predicted peak middleware footprint, ``None`` for streaming."""
        if kind == "collect_join":
            scanned = sum(
                self.database_objects(database) for database in qctx.targets
            )
            return (
                len(qctx.originals) + 2 * scanned + qctx.unique_fetch_count
            )
        if kind == "multimodel":
            databases = dict.fromkeys(
                (qctx.query.database,) + qctx.targets
            )
            scanned = sum(
                self.database_objects(database) for database in databases
            )
            return scanned + self._index_edges()
        return None

    # -- per-strategy raw costs -----------------------------------------------

    def estimate(self, plan, qctx: QueryContext) -> tuple[float, dict]:
        """Raw predicted seconds for ``plan`` plus a breakdown."""
        if plan.kind == "pushdown":
            return self._pushdown(plan, qctx)
        if plan.kind == "collect_join":
            return self._collect_join(qctx)
        if plan.kind == "etl_cast":
            return self._etl_cast(qctx)
        if plan.kind == "multimodel":
            return self._multimodel(qctx)
        raise ValueError(f"no cost formula for plan kind {plan.kind!r}")

    def _pushdown(self, plan, qctx: QueryContext) -> tuple[float, dict]:
        by_database = qctx.fetches_by_database()
        if by_database:
            mean_roundtrip = sum(
                self._roundtrip(database) for database in by_database
            ) / len(by_database)
        else:
            mean_roundtrip = self._roundtrip(qctx.query.database)
        assumed = AssumedCosts.from_profile(self.profile, mean_roundtrip)
        features = QueryFeatures(
            engine="",
            database=qctx.query.database,
            level=qctx.query.level,
            original_count=len(qctx.seeds),
            planned_fetches=qctx.fetch_count,
            store_count=len(by_database) + 1,
            deployment=self.profile.name,
        )
        config = AugmentationConfig(
            augmenter=plan.augmenter,
            batch_size=plan.batch_size,
            threads_size=plan.threads_size,
        )
        local = self.local_query_cost(qctx)
        planning = self._planning_cpu(qctx)
        fetch = CostBasedOptimizer(assumed).estimate(features, config)
        if qctx.fetch_count == 0:
            # The optimizer formulas floor n at 1; nothing is fetched.
            fetch = 0.0
        breakdown = {"local_query": local, "planning": planning, "fetch": fetch}
        total = local + planning + fetch
        breakdown["total"] = total
        return total, breakdown

    def _collect_join(self, qctx: QueryContext) -> tuple[float, dict]:
        local = self.local_query_cost(qctx)
        scans = 0.0
        join_cpu = 0.0
        seeds = len(qctx.seeds)
        for database in qctx.targets:
            scans += self.scan_cost(database)
            stats = self.collection_stats(database)
            join_cpu += plans.CONVERT_CPU_PER_OBJECT * sum(stats.values())
            join_cpu += plans.PROBE_CPU * seeds * len(stats)
        convert = plans.CONVERT_CPU_PER_OBJECT * qctx.fetch_count
        breakdown = {
            "local_query": local,
            "scan": scans,
            "join_cpu": join_cpu,
            "convert": convert,
        }
        total = local + scans + join_cpu + convert
        breakdown["total"] = total
        return total, breakdown

    def _etl_cast(self, qctx: QueryContext) -> tuple[float, dict]:
        local = self.local_query_cost(qctx)
        scans = 0.0
        staging_cpu = 0.0
        for database in qctx.targets:
            scans += self.scan_cost(database)
            staging_cpu += plans.LOOKUP_BUILD_CPU * self.database_objects(
                database
            )
        records = len(qctx.originals) + qctx.fetch_count
        pipeline = records * plans.PIPELINE_STAGES * plans.PER_RECORD_STAGE_CPU
        breakdown = {
            "startup": plans.STARTUP_COST,
            "local_query": local,
            "scan": scans,
            "staging_cpu": staging_cpu,
            "pipeline": pipeline,
        }
        total = plans.STARTUP_COST + local + scans + staging_cpu + pipeline
        breakdown["total"] = total
        return total, breakdown

    def _multimodel(self, qctx: QueryContext) -> tuple[float, dict]:
        cost = self.profile.cost_model
        databases = dict.fromkeys((qctx.query.database,) + qctx.targets)
        scans = 0.0
        imported = 0
        for database in databases:
            scans += self.scan_cost(database)
            imported += self.database_objects(database)
        imported += self._index_edges()
        import_cpu = plans.IMPORT_CPU_PER_OBJECT * imported
        pressure = plans.memory_pressure(imported, self.memory_budget)
        lookups = (
            plans.LOOKUP_CPU * len(qctx.originals) * pressure
            + qctx.edges_examined * cost.aindex_edge_cost
            + plans.LOOKUP_CPU * 2.0 * pressure * qctx.fetch_count
        )
        breakdown = {
            "scan": scans,
            "import_cpu": import_cpu,
            "pressure": pressure,
            "lookups": lookups,
        }
        total = scans + import_cpu + lookups
        breakdown["total"] = total
        return total, breakdown
