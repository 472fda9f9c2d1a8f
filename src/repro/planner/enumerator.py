"""Plan enumeration: which physical plans are admissible for a query.

The enumerator produces the full candidate set the engine costs and the
equivalence suite executes. Admission is the only pruning that happens
here — a collect/import strategy whose *predicted* peak footprint
already exceeds the memory budget is reported as inadmissible rather
than enumerated (executing it could only hit the OOM guard). Cost-based
ranking happens in the engine; the enumerator is deliberately
deterministic and exhaustive so tests can iterate every plan.
"""

from __future__ import annotations

from repro.planner.costs import PlanCostModel
from repro.planner.logical import QueryContext
from repro.planner.plans import (
    CollectJoinPlan,
    EtlCastPlan,
    MultiModelPlan,
    PhysicalPlan,
    PushdownPlan,
)

#: The push-down variants enumerated per query: the three points of the
#: paper's network-optimization spectrum (one call per object, one call
#: per batch, batched calls across threads).
PUSHDOWN_VARIANTS = (
    ("sequential", 1, 1),
    ("batch", 64, 1),
    ("outer_batch", 64, 4),
)


def enumerate_plans(
    qctx: QueryContext, model: PlanCostModel
) -> tuple[list[PhysicalPlan], list[dict]]:
    """All admissible plans for ``qctx`` plus the rejections.

    Returns ``(plans, rejected)``; each rejection is a JSON-ready dict
    naming the strategy and why it was not enumerated. Footprints are
    admitted against ``model.memory_budget``.
    """
    budget = model.memory_budget
    plans: list[PhysicalPlan] = [
        PushdownPlan(augmenter, batch_size, threads_size)
        for augmenter, batch_size, threads_size in PUSHDOWN_VARIANTS
    ]
    rejected: list[dict] = []
    for candidate in (CollectJoinPlan(), EtlCastPlan(), MultiModelPlan()):
        footprint = candidate.footprint(model, qctx)
        if footprint is not None and footprint > budget:
            rejected.append(
                {
                    "strategy": candidate.strategy,
                    "reason": (
                        f"estimated footprint {footprint} objects exceeds "
                        f"memory budget {budget}"
                    ),
                }
            )
            continue
        plans.append(candidate)
    return plans, rejected
