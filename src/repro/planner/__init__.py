"""Cost-based cross-store query planner (ROADMAP item 3).

A federated engine over the polystore: declarative queries in
(:class:`LogicalQuery`), physical plans enumerated across four
architectural families — A'-index push-down, middleware collect-and-join,
ETL store-to-store cast, multi-model import — each priced by its own
formula over one operator vocabulary (:class:`PlanCostModel`) and the
collection counts taken when the query is prepared, times a learned
calibration factor, and executed through the existing connectors.
Every plan returns the identical answer; the planner only ever changes
cost. See docs/PLANNING.md.
"""

from repro.planner.costs import (
    RATIO_BAND,
    CalibrationStore,
    CostEstimate,
    PlanCostModel,
)
from repro.planner.engine import FederatedEngine, PlannerExecution
from repro.planner.enumerator import PUSHDOWN_VARIANTS, enumerate_plans
from repro.planner.logical import (
    LogicalQuery,
    PlanResult,
    QueryContext,
    answer_signature,
)
from repro.planner.plans import (
    CollectJoinPlan,
    EtlCastPlan,
    ExecutionEnv,
    MultiModelPlan,
    PhysicalPlan,
    PushdownPlan,
    run_plan,
)

__all__ = [
    "RATIO_BAND",
    "PUSHDOWN_VARIANTS",
    "CalibrationStore",
    "CollectJoinPlan",
    "CostEstimate",
    "EtlCastPlan",
    "ExecutionEnv",
    "FederatedEngine",
    "LogicalQuery",
    "MultiModelPlan",
    "PhysicalPlan",
    "PlanCostModel",
    "PlanResult",
    "PlannerExecution",
    "PushdownPlan",
    "QueryContext",
    "answer_signature",
    "enumerate_plans",
    "run_plan",
]
