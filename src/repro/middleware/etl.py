"""Talend-like compiled ETL workflow (TALEND in Fig 13).

The paper builds a Talend Open Studio workflow with Neo4j, MySQL and
MongoDB connectors, compiles it, and runs it standalone. The emulation
reproduces that architecture's cost structure:

* a fixed start-up cost (JVM + workflow bootstrap);
* lookup staging: every store that can hold related objects is read
  once into lookup tables (streamed, so no OOM — Talend spills);
* row-at-a-time processing: each row of the local answer passes through
  the pipeline's stages (tMap lookups, type conversions, output
  formatting), each stage paying a per-record interpretation cost.

The per-record cost is what gives TALEND the steepest slope over query
size in Fig 13(a,b).
"""

from __future__ import annotations

from repro.core.augmentation import Augmentation
from repro.core.search import result_seeds
from repro.middleware.base import MiddlewareSystem
from repro.network.executor import ExecContext
from repro.workloads.queries import WorkloadQuery

#: Workflow bootstrap (compiled job start-up), seconds.
STARTUP_COST = 1.2
#: Pipeline stages every record passes through.
PIPELINE_STAGES = 3
#: Middleware CPU per record per stage (row-at-a-time interpretation).
PER_RECORD_STAGE_CPU = 0.0007
#: CPU to insert one staged object into a lookup table.
LOOKUP_BUILD_CPU = 0.000002


class EtlWorkflow(MiddlewareSystem):
    """TALEND: staged extract -> lookup-join -> output workflow.

    Inside the cross-store planner this architecture competes as the
    ``etl_cast`` strategy (:class:`repro.planner.plans.EtlCastPlan`),
    built from the same startup/staging/pipeline cost constants above.
    """

    #: Planner strategy this emulator's architecture is exposed as.
    PLAN_STRATEGY = "etl_cast"

    name = "TALEND"
    supported_engines = frozenset({"relational", "document", "graph"})

    def _execute(self, ctx: ExecContext, query: WorkloadQuery, level: int) -> int:
        if query.engine not in self.supported_engines:
            raise ValueError(f"{self.name} cannot connect to {query.engine} stores")
        ctx.cpu(STARTUP_COST)
        # Stage the lookup tables: one full scan per supported store.
        staged = 0
        for database, __ in self.supported_databases():
            store = self.bundle.polystore.database(database)
            for collection in store.collections():
                keys = self.scan_collection(ctx, database, collection)
                staged += len(keys)
                ctx.cpu(LOOKUP_BUILD_CPU * len(keys))
        originals = self.run_local_query(ctx, query)
        # Row-at-a-time processing through the pipeline. The related
        # objects per row are resolved against the staged lookups; the
        # expansion factor is the same ground truth QUEPA's index holds.
        seeds = result_seeds(originals)
        plan = Augmentation(self.bundle.aindex).plan(seeds, level)
        supported = {
            name for name, kind in self.supported_databases()
        }
        resolved = [key for key in plan.keys if key.database in supported]
        # Row-at-a-time cost is paid per pipeline record (duplicates
        # included); the output size is distinct objects.
        records = len(originals) + len(resolved)
        ctx.cpu(records * PIPELINE_STAGES * PER_RECORD_STAGE_CPU)
        return len(originals) + len(set(resolved))
