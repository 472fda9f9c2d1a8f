"""ArangoDB-like in-memory multi-model store (ARANGO-NAT / ARANGO-AUG).

The paper imports the key-value, graph and document databases plus the
A' index into ArangoDB (relational is not supported) and implements the
augmentation twice: natively as a single AQL traversal, and in QUEPA
style against ArangoDB as both data store and index.

The emulation reproduces the architecture's cost structure:

* **warm-up**: on the first (cold) query everything is imported into
  memory — data objects plus index edges — with per-object load CPU;
  the footprint is checked against the memory budget and the red-X OOM
  of Fig 13 fires when the polystore outgrows it;
* **memory pressure**: per-query cost carries a factor that grows as
  the footprint approaches the budget (cache thrash / GC), which is why
  ArangoDB "performs well on warm-cache runs but decreases
  significantly when we add databases";
* **ARANGO-NAT** answers with one in-memory traversal (per-edge CPU);
  **ARANGO-AUG** replays QUEPA's loop as per-object in-memory lookups.
"""

from __future__ import annotations

from repro.core.augmentation import Augmentation
from repro.core.search import result_seeds
from repro.middleware.base import MiddlewareSystem
from repro.network.executor import ExecContext
from repro.workloads.queries import WorkloadQuery

#: CPU to import one object or index edge at warm-up.
IMPORT_CPU_PER_OBJECT = 0.00004
#: In-memory lookup CPU per object (warm).
LOOKUP_CPU = 0.00001
#: Traversal CPU per index edge examined (AQL executor).
TRAVERSAL_CPU_PER_EDGE = 0.000005
#: Memory-pressure multiplier at 100% of budget.
PRESSURE_FACTOR = 6.0


def memory_pressure(footprint: int, budget: int) -> float:
    """Per-lookup cost multiplier of a ``footprint`` held against a memory
    ``budget``: 1.0 when empty, growing quadratically with utilization
    to :data:`PRESSURE_FACTOR` at (and beyond) a full budget."""
    utilization = min(1.0, footprint / max(1, budget))
    return 1.0 + (PRESSURE_FACTOR - 1.0) * utilization * utilization


class MultiModelStore(MiddlewareSystem):
    """ARANGO: all-in-one in-memory engine.

    Inside the cross-store planner this architecture competes as the
    ``multimodel_import`` strategy
    (:class:`repro.planner.plans.MultiModelPlan`), built from the same
    import/lookup/pressure cost constants above.
    """

    #: Planner strategy this emulator's architecture is exposed as.
    PLAN_STRATEGY = "multimodel_import"

    supported_engines = frozenset({"document", "graph", "keyvalue"})

    def __init__(self, *args, mode: str = "augmented", **kwargs) -> None:
        super().__init__(*args, **kwargs)
        if mode not in ("native", "augmented"):
            raise ValueError(f"mode must be 'native' or 'augmented', got {mode!r}")
        self.mode = mode
        self.name = "ARANGO-NAT" if mode == "native" else "ARANGO-AUG"
        self._augmentation = Augmentation(self.bundle.aindex)
        self._warm = False
        self._footprint = 0

    def reset_cache(self) -> None:
        """Back to cold: the next run pays the import warm-up again."""
        self._warm = False
        self._footprint = 0

    # -- execution -----------------------------------------------------------------

    def _execute(self, ctx: ExecContext, query: WorkloadQuery, level: int) -> int:
        if query.engine not in self.supported_engines:
            raise ValueError(
                f"{self.name} cannot import {query.engine} databases"
            )
        if not self._warm:
            self._warm_up(ctx)
        pressure = memory_pressure(self._footprint, self.memory_budget)
        store = self.bundle.polystore.database(query.database)
        # The local query runs against the in-memory copy.
        originals = store.execute(query.query)
        ctx.cpu(LOOKUP_CPU * len(originals) * pressure)
        seeds = result_seeds(originals)
        plan = self._augmentation.plan(seeds, level)
        supported = {
            name for name, kind in self.supported_databases()
        }
        reachable = [key for key in plan.keys if key.database in supported]
        if self.mode == "native":
            # One AQL traversal over the imported A' index.
            ctx.cpu(
                TRAVERSAL_CPU_PER_EDGE * plan.edges_examined * pressure
            )
            ctx.cpu(LOOKUP_CPU * len(reachable) * pressure)
        else:
            # QUEPA's loop: plan on the index, then per-object lookups.
            ctx.cpu(plan.edges_examined * ctx.cost_model.aindex_edge_cost)
            for __ in reachable:
                ctx.cpu(LOOKUP_CPU * 2.0 * pressure)
        distinct = set(reachable)
        return len(originals) + len(distinct)

    # -- warm-up ----------------------------------------------------------------------

    def _warm_up(self, ctx: ExecContext) -> None:
        """Import every supported database and the A' index."""
        imported = 0
        for database, __ in self.supported_databases():
            store = self.bundle.polystore.database(database)
            for collection in store.collections():
                keys = self.scan_collection(ctx, database, collection)
                imported += len(keys)
                self.check_memory(imported)
        index_edges = self.bundle.aindex.edge_count()
        imported += index_edges
        self.check_memory(imported)
        ctx.cpu(IMPORT_CPU_PER_OBJECT * imported)
        self._footprint = imported
        self._warm = True
