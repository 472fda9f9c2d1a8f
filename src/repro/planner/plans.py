"""Physical plans: the execution strategies the planner chooses among.

Every strategy answers the same :class:`~repro.planner.logical.LogicalQuery`
— local answer plus probability-ranked augmentation assembled by
:func:`~repro.core.search.assemble_answer` — but takes a different
architectural route to the augmented objects:

* **push-down** (``pushdown:*``) — QUEPA's own path: plan over the A'
  index, then fetch each planned object from its home store through the
  connectors (sequential, batched, or threaded-batched);
* **collect-and-join** (``collect_join``) — the federated-middleware
  route (META-NAT): pull every target collection into middleware memory
  and hash-join against the local answer on the linking values;
* **store-to-store cast** (``etl_cast``) — the ETL route (TALEND):
  stage every target store into lookup tables, then stream the answer
  rows through a fixed pipeline that resolves related objects;
* **multi-model import** (``multimodel_import``) — the ARANGO route:
  import the touched databases plus the A' index into one in-memory
  engine and answer there under memory pressure.

The cost *structure* of each route reuses the constants of the
:mod:`repro.middleware` emulators it was promoted from, so the planner's
trade-offs match Fig 13's. The answers, however, are all computed with
full fidelity — same dedup, same probabilities, same ordering — which
is the plan-equivalence invariant ``tests/test_planner_props.py`` checks.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field, replace

from repro.core.augmentation import (
    Augmentation,
    AugmentationConfig,
    AugmentationPlan,
)
from repro.core.augmenters import make_augmenter
from repro.core.augmenters.base import AugmentationOutcome
from repro.core.cache import LruCache
from repro.core.connectors import ConnectorRegistry
from repro.core.search import (
    AugmentedAnswer,
    SearchStats,
    assemble_answer,
    result_seeds,
)
from repro.errors import StoreUnavailableError
from repro.middleware import etl, federated, multimodel
from repro.middleware.base import check_memory, page_scan
from repro.model.objects import DataObject, GlobalKey
from repro.model.polystore import Polystore
from repro.network.executor import ExecContext
from repro.planner.logical import LogicalQuery, PlanResult


@dataclass
class ExecutionEnv:
    """Everything one plan execution needs, bundled.

    The engine builds a fresh env per run — own virtual context, own
    cache, own connector registry — so executions are independent and
    their virtual-time costs comparable. ``resilience`` (shared across
    runs, so breaker state persists) and ``degrade`` mirror the Quepa
    search path: with ``degrade`` set, an unreachable store shrinks the
    answer instead of failing it, identically for every strategy.
    """

    ctx: ExecContext
    polystore: Polystore
    aindex: object
    augmentation: Augmentation
    registry: ConnectorRegistry
    cache: LruCache
    resilience: object | None = None
    memory_budget: int = 200_000
    degrade: bool = True
    base_config: AugmentationConfig = field(default_factory=AugmentationConfig)


# ---------------------------------------------------------------------------
# Shared helpers
# ---------------------------------------------------------------------------


def _locked_execute(store, query):
    with store.lock:
        return store.execute(query)


def _issue(env: ExecutionEnv, database: str, op, query=None):
    """One store call, through the resilience layer when attached."""
    if env.resilience is not None:
        return env.resilience.call(env.ctx, database, op, query=query)
    return env.ctx.store_call(database, op, query=query)


def local_originals(
    env: ExecutionEnv, q: LogicalQuery
) -> tuple[list[DataObject] | None, Exception | None]:
    """Run the local query against its home store, charged on the clock.

    Returns ``(originals, None)`` normally. When the home store is
    unreachable and degradation is armed, returns ``(None, error)`` so
    every strategy produces the identical empty degraded answer.
    """
    store = env.polystore.database(q.database)
    op = lambda: _locked_execute(store, q.query)  # noqa: E731
    try:
        results = _issue(env, q.database, op, query=q.query)
    except StoreUnavailableError as exc:
        if not env.degrade:
            raise
        return None, exc
    return list(results), None


def restrict_plan(
    plan: AugmentationPlan, targets: tuple[str, ...]
) -> AugmentationPlan:
    """The plan narrowed to fetches homed in ``targets``
    (:meth:`AugmentationPlan.select`: paths unchanged).

    ``edges_examined`` is preserved: the traversal walked the whole
    index regardless of which databases the caller cares about.
    """
    return plan.select(rows_in(plan, set(targets)))


def rows_in(plan: AugmentationPlan, databases) -> list[int]:
    """The rows of ``plan`` homed in ``databases``, ascending."""
    return [
        row for row, key in enumerate(plan.keys) if key.database in databases
    ]


def materialize(
    env: ExecutionEnv, plan: AugmentationPlan, rows: list[int]
) -> AugmentationOutcome:
    """Resolve plan rows (ascending) against objects already held
    middleware-side: the rows found, as an outcome's columns.

    The collect/cast/import strategies have paid their architecture's
    price for holding the objects (scan roundtrips, conversion CPU,
    import CPU); resolving a planned fetch against that staged copy is
    a plain in-memory lookup, so this reads the stores under their lock
    without charging the execution context. Missing keys drop out, as
    everywhere (lazy deletion semantics).
    """
    keys = plan.keys
    unique: dict[str, list[GlobalKey]] = {}
    for row in rows:
        unique.setdefault(keys[row].database, []).append(keys[row])
    by_key: dict[GlobalKey, DataObject] = {}
    for database, wanted in unique.items():
        store = env.polystore.database(database)
        with store.lock:
            for obj in store.multi_get(wanted):
                by_key[obj.key] = obj
    found = AugmentationOutcome(plan=plan, in_plan_order=True)
    for row in rows:
        obj = by_key.get(keys[row])
        if obj is not None:
            found.values.append(obj)
            found.rows.append(row)
    return found


def scan_database(env: ExecutionEnv, database: str) -> list[list[GlobalKey]]:
    """Paged scans of every collection of one database, on the clock.

    Raises :class:`StoreUnavailableError` when the store cannot be
    reached (routed through the resilience layer when attached, so an
    open breaker fails the scan exactly as it fails a fetch).
    """
    store = env.polystore.database(database)
    issue = None
    if env.resilience is not None:
        issue = lambda ctx, db, op: env.resilience.call(ctx, db, op)  # noqa: E731
    return [
        page_scan(env.ctx, store, database, collection, issue=issue)
        for collection in store.collections()
    ]


def stage_databases(env: ExecutionEnv, databases, lost: dict[str, str]):
    """Scan ``databases`` in order, yielding ``(database, collections)``.

    The collect/cast/import strategies all stage this way: with
    degradation armed an unreachable store is recorded in ``lost``
    (database -> reason) and skipped instead of failing the plan.
    """
    for database in databases:
        try:
            collections = scan_database(env, database)
        except StoreUnavailableError as exc:
            if not env.degrade:
                raise
            lost[database] = f"unavailable: {exc}"
            continue
        yield database, collections


def _stats(q: LogicalQuery, strategy: str) -> SearchStats:
    return SearchStats(database=q.database, level=q.level, augmenter=strategy)


def _degraded_empty(
    strategy: str, q: LogicalQuery, exc: Exception
) -> PlanResult:
    """The answer every strategy gives when the home store is down."""
    return PlanResult(
        strategy=strategy,
        answer=AugmentedAnswer([], [], _stats(q, strategy)),
        degraded=True,
        unavailable=(q.database,),
        errors={q.database: f"unavailable: {exc}"},
    )


def _assemble(
    strategy: str,
    q: LogicalQuery,
    originals: list[DataObject],
    rows: AugmentationOutcome,
) -> AugmentedAnswer:
    return assemble_answer(originals, rows, _stats(q, strategy))


def _staged_result(
    strategy: str,
    q: LogicalQuery,
    originals: list[DataObject],
    rows: AugmentationOutcome,
    plan: AugmentationPlan,
    targets: tuple[str, ...],
    lost: dict[str, str],
    footprint: int = 0,
) -> PlanResult:
    """The result of a staging strategy: degraded iff skipping the
    ``lost`` databases cost objects the target-restricted plan wanted."""
    planned = restrict_plan(plan, targets).keys
    return PlanResult(
        strategy=strategy,
        answer=_assemble(strategy, q, originals, rows),
        footprint=footprint,
        degraded=any(key.database in lost for key in planned),
        unavailable=tuple(sorted(lost)),
        errors=lost,
    )


# ---------------------------------------------------------------------------
# The plan interface
# ---------------------------------------------------------------------------


class PhysicalPlan(ABC):
    """One executable route to the logical query's answer.

    ``strategy`` is the stable name used in explain output, fixtures and
    calibration; ``kind`` selects the cost formula of
    :class:`~repro.planner.costs.PlanCostModel`.
    """

    strategy: str = "abstract"
    kind: str = "abstract"

    @abstractmethod
    def execute(self, env: ExecutionEnv, q: LogicalQuery) -> PlanResult:
        """Run the plan to completion on ``env``'s virtual context."""

    def describe(self) -> dict:
        """JSON-ready description for explain output."""
        return {"strategy": self.strategy, "kind": self.kind}

    def estimate(self, model, qctx) -> tuple[float, dict]:
        """Predicted raw cost in virtual seconds plus its breakdown."""
        return model.estimate(self, qctx)


# ---------------------------------------------------------------------------
# Push-down over the A' index (QUEPA's own path)
# ---------------------------------------------------------------------------


class PushdownPlan(PhysicalPlan):
    """Per-store push-down: plan on the A' index, fetch via connectors.

    One instance per augmenter configuration; the three enumerated
    variants (sequential, batch, threaded outer-batch) span the
    network-optimization spectrum of Section V.
    """

    kind = "pushdown"

    def __init__(
        self, augmenter: str, batch_size: int = 64, threads_size: int = 4
    ) -> None:
        self.augmenter = augmenter
        self.batch_size = batch_size
        self.threads_size = threads_size
        self.strategy = f"pushdown:{augmenter}"

    def describe(self) -> dict:
        return {
            "strategy": self.strategy,
            "kind": self.kind,
            "augmenter": self.augmenter,
            "batch_size": self.batch_size,
            "threads_size": self.threads_size,
        }

    def execute(self, env: ExecutionEnv, q: LogicalQuery) -> PlanResult:
        ctx = env.ctx
        originals, failure = local_originals(env, q)
        if originals is None:
            return _degraded_empty(self.strategy, q, failure)
        seeds = result_seeds(originals)
        plan = env.augmentation.plan(seeds, q.level, q.min_probability)
        ctx.cpu(plan.edges_examined * ctx.cost_model.aindex_edge_cost)
        plan = restrict_plan(plan, q.resolve_targets(env.polystore))
        config = replace(
            env.base_config,
            augmenter=self.augmenter,
            batch_size=self.batch_size,
            threads_size=self.threads_size,
            skip_unavailable=env.degrade,
        )
        augmenter = make_augmenter(self.augmenter, env.registry, env.cache)
        outcome = augmenter.execute(ctx, plan, config)
        answer = _assemble(self.strategy, q, originals, outcome)
        return PlanResult(
            strategy=self.strategy,
            answer=answer,
            degraded=outcome.degraded,
            unavailable=outcome.unavailable_databases,
            errors=dict(outcome.errors),
        )


# ---------------------------------------------------------------------------
# Collect-and-join in the middleware (META-NAT's architecture)
# ---------------------------------------------------------------------------


class CollectJoinPlan(PhysicalPlan):
    """Pull target collections into middleware memory and hash-join.

    Cost structure of :class:`~repro.middleware.federated.FederatedMiddleware`
    in native mode: every target collection is scanned page by page into
    a footprint-checked staging area (rows plus hash build table), join
    CPU is paid per probe, and matched objects are converted into the
    middleware's row model. No A' index traversal is charged — the joins
    discover relatedness from the values themselves.
    """

    strategy = "collect_join"
    kind = "collect_join"

    def execute(self, env: ExecutionEnv, q: LogicalQuery) -> PlanResult:
        ctx = env.ctx
        budget = env.memory_budget
        originals, failure = local_originals(env, q)
        if originals is None:
            return _degraded_empty(self.strategy, q, failure)
        footprint = len(originals)
        check_memory(self.strategy, footprint, budget)
        seeds = result_seeds(originals)
        plan = env.augmentation.plan(seeds, q.level, q.min_probability)
        targets = q.resolve_targets(env.polystore)
        staged: set[str] = set()
        lost: dict[str, str] = {}
        for database, collections in stage_databases(env, targets, lost):
            for keys in collections:
                # Pulled rows plus the hash-join build table over them.
                footprint += 2 * len(keys)
                check_memory(self.strategy, footprint, budget)
                ctx.cpu(federated.CONVERT_CPU_PER_OBJECT * len(keys))
                ctx.cpu(federated.PROBE_CPU * len(seeds))
            staged.add(database)
        fetches = rows_in(plan, staged)
        # Joined matches are converted into the middleware's row model.
        ctx.cpu(federated.CONVERT_CPU_PER_OBJECT * len(fetches))
        rows = materialize(env, plan, fetches)
        footprint += len(rows.values)
        check_memory(self.strategy, footprint, budget)
        return _staged_result(
            self.strategy, q, originals, rows, plan, targets, lost,
            footprint,
        )


# ---------------------------------------------------------------------------
# Store-to-store cast via the ETL pipeline (TALEND's architecture)
# ---------------------------------------------------------------------------


class EtlCastPlan(PhysicalPlan):
    """Stage every target store, then stream rows through the pipeline.

    Cost structure of :class:`~repro.middleware.etl.EtlWorkflow`: fixed
    start-up, one full scan per target store into lookup tables
    (streamed — no OOM, Talend spills), then row-at-a-time pipeline CPU
    for every answer row and every resolved related object (duplicates
    included; the output is distinct).
    """

    strategy = "etl_cast"
    kind = "etl_cast"

    def execute(self, env: ExecutionEnv, q: LogicalQuery) -> PlanResult:
        ctx = env.ctx
        ctx.cpu(etl.STARTUP_COST)
        targets = q.resolve_targets(env.polystore)
        staged: set[str] = set()
        lost: dict[str, str] = {}
        for database, collections in stage_databases(env, targets, lost):
            for keys in collections:
                ctx.cpu(etl.LOOKUP_BUILD_CPU * len(keys))
            staged.add(database)
        originals, failure = local_originals(env, q)
        if originals is None:
            return _degraded_empty(self.strategy, q, failure)
        seeds = result_seeds(originals)
        plan = env.augmentation.plan(seeds, q.level, q.min_probability)
        fetches = rows_in(plan, staged)
        records = len(originals) + len(fetches)
        ctx.cpu(records * etl.PIPELINE_STAGES * etl.PER_RECORD_STAGE_CPU)
        rows = materialize(env, plan, fetches)
        return _staged_result(
            self.strategy, q, originals, rows, plan, targets, lost
        )


# ---------------------------------------------------------------------------
# Multi-model import (ARANGO's architecture)
# ---------------------------------------------------------------------------


class MultiModelPlan(PhysicalPlan):
    """Import the touched databases plus the A' index, answer in memory.

    Cost structure of :class:`~repro.middleware.multimodel.MultiModelStore`
    in augmented mode: per-object import CPU at warm-up (footprint
    checked against the budget), then per-lookup CPU inflated by the
    quadratic memory-pressure factor. The home database must import
    successfully for the local query to run at all.
    """

    strategy = "multimodel_import"
    kind = "multimodel"

    def execute(self, env: ExecutionEnv, q: LogicalQuery) -> PlanResult:
        ctx = env.ctx
        budget = env.memory_budget
        targets = q.resolve_targets(env.polystore)
        imported = 0
        staged: set[str] = set()
        lost: dict[str, str] = {}
        importing = dict.fromkeys((q.database,) + targets)
        for database, collections in stage_databases(env, importing, lost):
            imported += sum(len(keys) for keys in collections)
            check_memory(self.strategy, imported, budget)
            staged.add(database)
        imported += env.aindex.edge_count()
        check_memory(self.strategy, imported, budget)
        ctx.cpu(multimodel.IMPORT_CPU_PER_OBJECT * imported)
        pressure = multimodel.memory_pressure(imported, budget)
        if q.database not in staged:
            result = _degraded_empty(
                self.strategy, q, StoreUnavailableError(lost[q.database])
            )
            result.errors = lost
            result.unavailable = tuple(sorted(lost))
            result.footprint = imported
            return result
        # The local query runs against the in-memory copy: lookup CPU
        # under pressure, no network roundtrip.
        store = env.polystore.database(q.database)
        originals = list(_locked_execute(store, q.query))
        ctx.cpu(multimodel.LOOKUP_CPU * len(originals) * pressure)
        seeds = result_seeds(originals)
        plan = env.augmentation.plan(seeds, q.level, q.min_probability)
        ctx.cpu(plan.edges_examined * ctx.cost_model.aindex_edge_cost)
        fetches = rows_in(plan, staged.intersection(targets))
        ctx.cpu(multimodel.LOOKUP_CPU * 2.0 * pressure * len(fetches))
        rows = materialize(env, plan, fetches)
        return _staged_result(
            self.strategy, q, originals, rows, plan, targets, lost,
            imported,
        )
