"""The planner's cost vocabulary and its learned calibration factors.

Raw costs are analytic, and each is defined once. The operator prices
every plan shares live in :class:`PlanCostModel`, derived from the
deployment profile: a store roundtrip, a paged full scan, the local
query, A' planning CPU, and the push-down fetch schedule of
:func:`~repro.optimizer.costbased.fetch_cost` (the cost-based
optimizer baseline's own formula). Each physical plan of
:mod:`repro.planner.plans` composes those prices with its own
middleware constants in its ``estimate``, right beside the ``execute``
whose virtual-time charges it mirrors. Cardinalities are the A' index
plan plus the per-collection counts that
:meth:`~repro.planner.engine.FederatedEngine.prepare` takes under every
touched store's lock — all known before any store is contacted on the
clock, and never older than the query being planned.

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

from repro.network.latency import DeploymentProfile
from repro.optimizer.costbased import fetch_cost
from repro.planner.logical import QueryContext
from repro.planner.plans import SCAN_PAGE

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
    """The operator prices every plan's estimate is composed of.

    It holds nothing but the deployment ``profile`` and the
    ``memory_budget`` the materializing plans' footprints are admitted
    against (and their memory pressure is relative to): cardinalities
    are read from the :class:`QueryContext` each price is asked for.
    """

    def __init__(
        self, profile: DeploymentProfile, memory_budget: int = 200_000
    ) -> None:
        self.profile = profile
        self.memory_budget = memory_budget

    def roundtrip(self, database: str) -> float:
        return self.profile.site(database).roundtrip

    def scan(self, qctx: QueryContext, database: str) -> float:
        """Paged full scan of one database through a middleware connector."""
        cost = self.profile.cost_model
        roundtrip = self.roundtrip(database)
        total = 0.0
        for count in qctx.collection_stats[database].values():
            pages = math.ceil(count / SCAN_PAGE) if count else 0
            total += pages * (roundtrip + cost.per_query_overhead)
            total += count * (cost.per_object_service + cost.per_object_cpu)
        return total

    def local_query(self, qctx: QueryContext) -> float:
        """The local query through its connector, on the clock."""
        cost = self.profile.cost_model
        rows = len(qctx.originals)
        return (
            self.roundtrip(qctx.query.database)
            + cost.per_query_overhead
            + rows * (cost.per_object_service + cost.per_object_cpu)
        )

    def planning(self, qctx: QueryContext) -> float:
        """A' index traversal CPU of the query's plan."""
        return qctx.edges_examined * self.profile.cost_model.aindex_edge_cost

    def fetch(
        self, qctx: QueryContext, augmenter: str, batch_size: int,
        threads_size: int,
    ) -> float:
        """Push-down fetch of the planned objects by ``augmenter``, each
        call paying the mean roundtrip of the databases fetched from."""
        if qctx.fetch_count == 0:
            # The formula floors the fetch count at 1; nothing is fetched.
            return 0.0
        by_database = qctx.fetches_by_database()
        roundtrip = sum(
            self.roundtrip(database) for database in by_database
        ) / len(by_database)
        return fetch_cost(
            self.profile.cost_model, roundtrip,
            self.profile.quepa_machine.cores,
            augmenter, batch_size, threads_size,
            qctx.fetch_count, len(qctx.seeds), len(by_database) + 1,
        )
