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
* **multi-model import** (``multimodel_import``) — the ARANGO route
  (ARANGO-AUG): import the touched databases plus the A' index into one
  in-memory engine and answer there under memory pressure.

The middleware routes' cost constants are defined here, once: each
plan's ``estimate`` prices them beside the ``execute`` that charges
them, composed with the shared operator prices of
:class:`~repro.planner.costs.PlanCostModel`, and the Fig 13 middleware
systems run these very plans. The answers are all
computed with full fidelity — same dedup, same probabilities, same
ordering — which is the plan-equivalence invariant
``tests/test_planner_props.py`` checks. :func:`run_plan` executes one
plan on a fresh virtual runtime for every caller.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field, replace
from typing import Callable

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
from repro.errors import OutOfMemoryError, StoreUnavailableError
from repro.model.objects import DataObject, GlobalKey
from repro.model.polystore import Polystore
from repro.network.executor import ExecContext, VirtualRuntime
from repro.network.latency import DeploymentProfile
from repro.planner.logical import LogicalQuery, PlanResult, QueryContext

#: Page size of bulk collection scans through a middleware connector.
SCAN_PAGE = 1000

# collect_join (META-NAT)
#: Middleware CPU to deserialize/convert one pulled object.
CONVERT_CPU_PER_OBJECT = 0.0004
#: Middleware CPU per hash-join probe.
PROBE_CPU = 0.00002

# etl_cast (TALEND)
#: Workflow bootstrap (compiled job start-up), seconds.
STARTUP_COST = 1.2
#: Pipeline stages every record passes through.
PIPELINE_STAGES = 3
#: Middleware CPU per record per stage (row-at-a-time interpretation).
PER_RECORD_STAGE_CPU = 0.0007
#: CPU to insert one staged object into a lookup table.
LOOKUP_BUILD_CPU = 0.000002

# multimodel_import (ARANGO)
#: CPU to import one object or index edge.
IMPORT_CPU_PER_OBJECT = 0.00004
#: In-memory lookup CPU per object.
LOOKUP_CPU = 0.00001
#: Memory-pressure multiplier at 100% of budget.
PRESSURE_FACTOR = 6.0


def memory_pressure(footprint: int, budget: int) -> float:
    """Per-lookup cost multiplier of a ``footprint`` held against a memory
    ``budget``: 1.0 when empty, growing quadratically with utilization
    to :data:`PRESSURE_FACTOR` at (and beyond) a full budget."""
    utilization = min(1.0, footprint / max(1, budget))
    return 1.0 + (PRESSURE_FACTOR - 1.0) * utilization * utilization


def check_memory(name: str, footprint: int, budget: int) -> None:
    """The red X of Fig 13: ``name`` holds more objects than its budget."""
    if footprint > budget:
        raise OutOfMemoryError(
            f"{name}: footprint {footprint} objects exceeds budget {budget}",
            footprint=footprint,
            budget=budget,
        )


def page_scan(
    ctx: ExecContext,
    store,
    database: str,
    collection: str,
    page_size: int = SCAN_PAGE,
    issue: Callable | None = None,
) -> list[GlobalKey]:
    """Pull a whole collection through a middleware connector, paged.

    Charges one store roundtrip per page of ``page_size`` objects and
    returns the global keys (middleware layers track footprints and
    join keys; payloads live in the underlying stores either way).
    ``issue`` optionally replaces the plain ``ctx.store_call`` — the
    planner routes pages through the resilience layer with it, so an
    open circuit breaker fails a scan exactly as it fails a fetch.
    """
    keys = [
        GlobalKey(database, collection, local)
        for local in store.collection_keys(collection)
    ]
    for page_start in range(0, len(keys), page_size):
        page = keys[page_start:page_start + page_size]
        op = lambda page=page: page  # noqa: E731
        if issue is not None:
            issue(ctx, database, op)
        else:
            ctx.store_call(database, op)
    return keys


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


def issue_call(env: ExecutionEnv, database: str, op, query=None):
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
        results = issue_call(env, q.database, op, query=q.query)
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


def _priced(total: float, **breakdown: float) -> tuple[float, dict]:
    """A raw estimate and its breakdown (``total`` last)."""
    breakdown["total"] = total
    return total, breakdown


def _stats(q: LogicalQuery, strategy: str) -> SearchStats:
    return SearchStats(database=q.database, level=q.level, augmenter=strategy)


def _empty(strategy: str, q: LogicalQuery, **fields) -> PlanResult:
    """A result without an answer; ``fields`` say why."""
    return PlanResult(
        strategy=strategy,
        answer=AugmentedAnswer([], [], _stats(q, strategy)),
        **fields,
    )


def degraded_empty(
    strategy: str, q: LogicalQuery, exc: Exception
) -> PlanResult:
    """The answer every strategy gives when the home store is down."""
    return _empty(
        strategy,
        q,
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


def staged_result(
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
    calibration. A plan the planner enumerates prices itself:
    ``estimate`` mirrors the charges of its ``execute`` from the shared
    operator prices of a :class:`~repro.planner.costs.PlanCostModel`
    and the cardinalities of a prepared
    :class:`~repro.planner.logical.QueryContext`.
    """

    strategy: str = "abstract"

    @abstractmethod
    def execute(self, env: ExecutionEnv, q: LogicalQuery) -> PlanResult:
        """Run the plan to completion on ``env``'s virtual context."""

    def estimate(self, model, qctx: QueryContext) -> tuple[float, dict]:
        """Predicted raw cost in virtual seconds plus its breakdown."""
        raise NotImplementedError(f"no cost formula for {self.strategy!r}")

    def footprint(self, model, qctx: QueryContext) -> int | None:
        """Predicted peak middleware footprint, ``None`` for streaming."""
        return None


# ---------------------------------------------------------------------------
# Push-down over the A' index (QUEPA's own path)
# ---------------------------------------------------------------------------


class PushdownPlan(PhysicalPlan):
    """Per-store push-down: plan on the A' index, fetch via connectors.

    One instance per augmenter configuration; the three enumerated
    variants (sequential, batch, threaded outer-batch) span the
    network-optimization spectrum of Section V.
    """

    def __init__(
        self, augmenter: str, batch_size: int = 64, threads_size: int = 4
    ) -> None:
        self.augmenter = augmenter
        self.batch_size = batch_size
        self.threads_size = threads_size
        self.strategy = f"pushdown:{augmenter}"

    def estimate(self, model, qctx: QueryContext) -> tuple[float, dict]:
        local = model.local_query(qctx)
        planning = model.planning(qctx)
        fetch = model.fetch(
            qctx, self.augmenter, self.batch_size, self.threads_size
        )
        return _priced(
            local + planning + fetch,
            local_query=local,
            planning=planning,
            fetch=fetch,
        )

    def execute(self, env: ExecutionEnv, q: LogicalQuery) -> PlanResult:
        ctx = env.ctx
        originals, failure = local_originals(env, q)
        if originals is None:
            return degraded_empty(self.strategy, q, failure)
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

    META-NAT's architecture (Apache Metamodel's own operators): every
    target collection is scanned page by page into a footprint-checked
    staging area (rows plus hash build table), join CPU is paid per
    probe, and matched objects are converted into the middleware's row
    model. No A' index traversal is charged — the joins discover
    relatedness from the values themselves.
    """

    strategy = "collect_join"

    def footprint(self, model, qctx: QueryContext) -> int:
        scanned = sum(
            qctx.database_objects(database) for database in qctx.targets
        )
        return len(qctx.originals) + 2 * scanned + qctx.unique_fetch_count

    def estimate(self, model, qctx: QueryContext) -> tuple[float, dict]:
        local = model.local_query(qctx)
        scans = 0.0
        join_cpu = 0.0
        seeds = len(qctx.seeds)
        for database in qctx.targets:
            scans += model.scan(qctx, database)
            stats = qctx.collection_stats[database]
            join_cpu += CONVERT_CPU_PER_OBJECT * sum(stats.values())
            join_cpu += PROBE_CPU * seeds * len(stats)
        convert = CONVERT_CPU_PER_OBJECT * qctx.fetch_count
        return _priced(
            local + scans + join_cpu + convert,
            local_query=local,
            scan=scans,
            join_cpu=join_cpu,
            convert=convert,
        )

    def execute(self, env: ExecutionEnv, q: LogicalQuery) -> PlanResult:
        ctx = env.ctx
        budget = env.memory_budget
        originals, failure = local_originals(env, q)
        if originals is None:
            return degraded_empty(self.strategy, q, failure)
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
                ctx.cpu(CONVERT_CPU_PER_OBJECT * len(keys))
                ctx.cpu(PROBE_CPU * len(seeds))
            staged.add(database)
        fetches = rows_in(plan, staged)
        rows = materialize(env, plan, fetches)
        footprint += len(rows.values)
        check_memory(self.strategy, footprint, budget)
        # Joined matches are converted into the middleware's row model.
        ctx.cpu(CONVERT_CPU_PER_OBJECT * len(fetches))
        return staged_result(
            self.strategy, q, originals, rows, plan, targets, lost,
            footprint,
        )


# ---------------------------------------------------------------------------
# Store-to-store cast via the ETL pipeline (TALEND's architecture)
# ---------------------------------------------------------------------------


class EtlCastPlan(PhysicalPlan):
    """Stage every target store, then stream rows through the pipeline.

    TALEND's architecture (a compiled Talend workflow): fixed start-up,
    one full scan per target store into lookup tables (streamed — no
    OOM, Talend spills), then row-at-a-time pipeline CPU for every
    answer row and every resolved related object (duplicates included;
    the output is distinct).
    """

    strategy = "etl_cast"

    def estimate(self, model, qctx: QueryContext) -> tuple[float, dict]:
        local = model.local_query(qctx)
        scans = 0.0
        staging_cpu = 0.0
        for database in qctx.targets:
            scans += model.scan(qctx, database)
            staging_cpu += LOOKUP_BUILD_CPU * qctx.database_objects(database)
        records = len(qctx.originals) + qctx.fetch_count
        pipeline = records * PIPELINE_STAGES * PER_RECORD_STAGE_CPU
        return _priced(
            STARTUP_COST + local + scans + staging_cpu + pipeline,
            startup=STARTUP_COST,
            local_query=local,
            scan=scans,
            staging_cpu=staging_cpu,
            pipeline=pipeline,
        )

    def execute(self, env: ExecutionEnv, q: LogicalQuery) -> PlanResult:
        ctx = env.ctx
        ctx.cpu(STARTUP_COST)
        targets = q.resolve_targets(env.polystore)
        staged: set[str] = set()
        lost: dict[str, str] = {}
        for database, collections in stage_databases(env, targets, lost):
            for keys in collections:
                ctx.cpu(LOOKUP_BUILD_CPU * len(keys))
            staged.add(database)
        originals, failure = local_originals(env, q)
        if originals is None:
            return degraded_empty(self.strategy, q, failure)
        seeds = result_seeds(originals)
        plan = env.augmentation.plan(seeds, q.level, q.min_probability)
        fetches = rows_in(plan, staged)
        records = len(originals) + len(fetches)
        ctx.cpu(records * PIPELINE_STAGES * PER_RECORD_STAGE_CPU)
        rows = materialize(env, plan, fetches)
        return staged_result(
            self.strategy, q, originals, rows, plan, targets, lost
        )


# ---------------------------------------------------------------------------
# Multi-model import (ARANGO's architecture)
# ---------------------------------------------------------------------------


class MultiModelPlan(PhysicalPlan):
    """Import the touched databases plus the A' index, answer in memory.

    ARANGO-AUG's architecture (ArangoDB as data store and index, queried
    QUEPA-style): per-object import CPU (footprint checked against the
    budget), then per-lookup CPU inflated by the quadratic
    memory-pressure factor (:meth:`lookups`). The home database must
    import successfully for the local query to run at all.
    """

    strategy = "multimodel_import"

    def footprint(self, model, qctx: QueryContext) -> int:
        return sum(
            qctx.database_objects(database) for database in qctx.databases
        ) + qctx.index_edges

    def estimate(self, model, qctx: QueryContext) -> tuple[float, dict]:
        scans = sum(model.scan(qctx, database) for database in qctx.databases)
        imported = self.footprint(model, qctx)
        import_cpu = IMPORT_CPU_PER_OBJECT * imported
        pressure = memory_pressure(imported, model.memory_budget)
        lookups = (
            LOOKUP_CPU * len(qctx.originals) * pressure
            + model.planning(qctx)
            + LOOKUP_CPU * 2.0 * pressure * qctx.fetch_count
        )
        return _priced(
            scans + import_cpu + lookups,
            scan=scans,
            import_cpu=import_cpu,
            pressure=pressure,
            lookups=lookups,
        )

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
        ctx.cpu(IMPORT_CPU_PER_OBJECT * imported)
        pressure = memory_pressure(imported, budget)
        if q.database not in staged:
            result = degraded_empty(
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
        ctx.cpu(LOOKUP_CPU * len(originals) * pressure)
        seeds = result_seeds(originals)
        plan = env.augmentation.plan(seeds, q.level, q.min_probability)
        fetches = rows_in(plan, staged.intersection(targets))
        self.lookups(ctx, plan, len(fetches), pressure)
        rows = materialize(env, plan, fetches)
        return staged_result(
            self.strategy, q, originals, rows, plan, targets, lost,
            imported,
        )

    def lookups(
        self, ctx: ExecContext, plan: AugmentationPlan, count: int,
        pressure: float,
    ) -> None:
        """QUEPA's loop in memory: plan on the imported index, then two
        lookups for each of the ``count`` planned objects."""
        ctx.cpu(plan.edges_examined * ctx.cost_model.aindex_edge_cost)
        ctx.cpu(LOOKUP_CPU * 2.0 * pressure * count)


# ---------------------------------------------------------------------------
# The plan runner
# ---------------------------------------------------------------------------


def run_plan(
    plan: PhysicalPlan,
    q: LogicalQuery,
    polystore: Polystore,
    aindex,
    profile: DeploymentProfile,
    *,
    augmentation: Augmentation | None = None,
    memory_budget: int = 200_000,
    config: AugmentationConfig | None = None,
    resilience=None,
    faults=None,
    degrade: bool = True,
) -> PlanResult:
    """Run ``plan`` to completion on a fresh virtual runtime.

    Each run gets its own clock, cache and connector registry, so runs
    are independent and their virtual times comparable; ``faults`` is
    armed on the runtime. A run that outgrows ``memory_budget`` (the red
    X of Fig 13), or that loses a store with ``degrade`` off, returns an
    empty answer saying why instead of raising.
    """
    runtime = VirtualRuntime(profile)
    runtime.faults = faults
    config = config or AugmentationConfig()
    env = ExecutionEnv(
        ctx=runtime.root(),
        polystore=polystore,
        aindex=aindex,
        augmentation=augmentation or Augmentation(aindex),
        registry=ConnectorRegistry(polystore, resilience),
        cache=LruCache(config.cache_size),
        resilience=resilience,
        memory_budget=memory_budget,
        degrade=degrade,
        base_config=config,
    )
    try:
        result = plan.execute(env, q)
    except OutOfMemoryError as oom:
        result = _empty(
            plan.strategy,
            q,
            footprint=oom.footprint,
            out_of_memory=True,
            errors={"memory": str(oom)},
        )
    except StoreUnavailableError as exc:
        lost = exc.database or "store"
        result = _empty(
            plan.strategy,
            q,
            unavailable=(lost,),
            errors={lost: f"unavailable: {exc}"},
        )
    result.elapsed = runtime.elapsed
    result.queries_issued = runtime.meter.total_queries
    return result
