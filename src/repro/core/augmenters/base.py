"""Shared augmenter machinery: base class, registry, cache handling."""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from itertools import compress, repeat
from operator import is_not
from typing import Callable, Iterator

from repro.core.augmentation import AugmentationConfig, AugmentationPlan
from repro.core.cache import LruCache
from repro.core.connectors import ConnectorRegistry
from repro.errors import (
    ConfigurationError,
    StoreUnavailableError,
    TimeoutExceeded,
    UnknownAugmenterError,
)
from repro.model.objects import AugmentedObject, DataObject, GlobalKey
from repro.network.executor import ExecContext


def _every_miss(index: int) -> bool:
    """``ends_run`` for a run that ends at its first miss."""
    return True


@dataclass
class AugmentationOutcome:
    """What executing an augmentation plan produced.

    Also the unit of accounting inside a run: a pool worker fills its
    own and the strategy merges it with :meth:`absorb` after the join.
    """

    #: What materialized, as two parallel columns in execution order:
    #: the stored object (as cached or as fetched) and the plan row that
    #: asked for it. They stay columns until
    #: :func:`~repro.core.search.assemble_answer` has ranked them;
    #: only the winners become an :class:`AugmentedObject`.
    values: list[DataObject] = field(default_factory=list)
    rows: list[int] = field(default_factory=list)
    #: True when ``rows`` ascend: execution order is plan order. Set by
    #: the strategy that knows it; with every row present, the answer
    #: takes the plan's memoised rank.
    in_plan_order: bool = False
    #: Keys planned but absent from the polystore (feed lazy deletion).
    #: Deduplicated across seeds by :meth:`Augmenter.execute`.
    missing: list[GlobalKey] = field(default_factory=list)
    cache_hits: int = 0
    #: Native queries that reached a store.
    queries_issued: int = 0
    #: ``BoundedLru.get_many`` runs the cache was probed in.
    probe_runs: int = 0
    #: Fetches and batch flushes that reached no store: barred by the
    #: timeout budget, or swallowed under ``skip_unavailable`` because
    #: their database was down (not counted as issued).
    skipped_flushes: int = 0
    #: Databases skipped because they were unreachable (only populated
    #: when the configuration sets ``skip_unavailable``).
    unavailable_databases: tuple[str, ...] = ()
    #: True iff a fault cost this run planned objects: some planned key
    #: is neither materialized nor (genuinely) ``missing``. A flaky
    #: store whose every fetch succeeded on retry does *not* degrade.
    degraded: bool = False
    #: Database -> reason for every store that misbehaved during the
    #: run (unavailable, truncated results, timeout budget), whether or
    #: not objects were ultimately lost.
    errors: dict[str, str] = field(default_factory=dict)
    #: Structured trace summary of the run (span counts/durations per
    #: kind), stamped by :meth:`Augmenter.execute`.
    trace: dict | None = None
    #: The plan this run executed, stamped by :meth:`Augmenter.execute`.
    plan: AugmentationPlan | None = None

    @property
    def objects(self) -> list[AugmentedObject]:
        """Every materialized row as an answer entry, in execution
        order: a read-only view, built on each access."""
        plan = self.plan
        return [
            AugmentedObject(
                value, plan.sources[row], plan.path(row),
                plan.probabilities[row],
            )
            for value, row in zip(self.values, self.rows)
        ]

    def absorb(self, part: "AugmentationOutcome") -> None:
        """Append a worker's rows and add its counts."""
        self.values += part.values
        self.rows += part.rows
        self.missing += part.missing
        self.cache_hits += part.cache_hits
        self.queries_issued += part.queries_issued
        self.probe_runs += part.probe_runs
        self.skipped_flushes += part.skipped_flushes


#: A pool task: runs on a child context, returns what it materialized.
Task = Callable[[ExecContext], AugmentationOutcome]


class Augmenter(ABC):
    """Base class: plan in, materialized augmented objects out.

    ``execute`` is a template method: it validates the configuration,
    arms graceful degradation when requested, runs the strategy's
    ``_run``, and stamps the outcome with any stores found unreachable.
    Instances are single-use per query (Quepa creates one per search).
    """

    name = "abstract"

    def __init__(self, registry: ConnectorRegistry, cache: LruCache) -> None:
        self.registry = registry
        self.cache = cache
        self._skip_unavailable = False
        #: Databases that raised StoreUnavailableError (append-only;
        #: list.append is atomic, so worker threads may share it).
        self._unavailable: list[str] = []
        #: Database -> reason for every fault seen this run (dict item
        #: assignment is atomic, so worker threads may share it).
        self._errors: dict[str, str] = {}
        #: Virtual deadline of this run (``None`` = no timeout budget).
        self._deadline: float | None = None
        self._budget_exceeded = False
        #: Per-probe CPU charge; resolved per run by :meth:`execute` so
        #: _probe_run skips the cost-model attribute chase.
        self._probe_cost = 0.0
        #: The run's ``plan.keys``: helpers take plan rows.
        self._keys: list[GlobalKey] = []

    def execute(
        self,
        ctx: ExecContext,
        plan: AugmentationPlan,
        config: AugmentationConfig,
    ) -> AugmentationOutcome:
        """Materialize every planned fetch from the polystore."""
        validate_config(config)
        self._skip_unavailable = config.skip_unavailable
        self._unavailable = []
        self._errors = {}
        self._budget_exceeded = False
        self._deadline = (
            ctx.now + config.timeout_budget
            if config.timeout_budget is not None
            else None
        )
        # ``BoundedLru`` counts every probe under its one lock, so the
        # obs counters are published once per run from the stats delta.
        self._probe_cost = ctx.cost_model.cache_probe_cost
        self._keys = plan.keys
        before = self.cache.stats()
        # An empty plan submits nothing: no strategy sets up a pool.
        outcome = (
            self._run(ctx, plan, config)
            if plan.total_fetches()
            else AugmentationOutcome()
        )
        after = self.cache.stats()
        metrics = ctx.obs.metrics
        hits = after["hits"] - before["hits"]
        misses = after["misses"] - before["misses"]
        if hits or misses:
            metrics.counter("cache_probes_total").inc(hits + misses)
            metrics.counter("cache_hits_total").inc(hits)
            metrics.counter("cache_misses_total").inc(misses)
        outcome.unavailable_databases = tuple(sorted(set(self._unavailable)))
        # The same absent key is appended once per seed that planned it;
        # deduplicate so lazy deletion does each removal exactly once.
        outcome.missing = list(dict.fromkeys(outcome.missing))
        outcome.errors = dict(sorted(self._errors.items()))
        if outcome.errors:
            # Degraded iff a fault actually cost us objects: planned
            # keys that neither materialized nor were found genuinely
            # absent. A retried-then-successful fetch, or a skipped
            # store whose keys all arrived via another route, leaves
            # the answer complete — errors are reported, but the
            # outcome is not degraded.
            keys = plan.keys
            got = set(map(keys.__getitem__, outcome.rows))
            lost = set(keys) - got - set(outcome.missing)
            outcome.degraded = bool(lost)
        # A served request summarizes its own spans; a classic run
        # (no trace id) owns the whole, freshly reset tracer.
        outcome.trace = ctx.obs.trace_summary(ctx._trace_id)
        outcome.plan = plan
        return outcome

    @abstractmethod
    def _run(
        self,
        ctx: ExecContext,
        plan: AugmentationPlan,
        config: AugmentationConfig,
    ) -> AugmentationOutcome:
        """The strategy body; helpers below do the actual fetching."""

    # -- helpers shared by strategies ---------------------------------------

    def _probe_run(
        self,
        ctx: ExecContext,
        keys: list[GlobalKey],
        start: int,
        into: AugmentationOutcome,
        ends_run: Callable[[int], bool],
    ) -> tuple[list[DataObject | None], int]:
        """Probe ``keys[start:]`` in order up to the miss ``ends_run``
        ends the run on (:meth:`BoundedLru.get_many`): one value per
        probe (``None`` = miss), and the misses. The run is counted in
        ``into``.

        The whole run's (small) per-probe CPU is charged here, so before
        anything the caller does with the result can read the clock — a
        flush, ``pool.submit``, a span, :meth:`_over_budget`. Hit/miss
        accounting happens inside the cache; :meth:`execute` publishes
        the per-run delta to the obs metrics.
        """
        values, misses = self.cache.get_many(keys, start, ends_run)
        ctx.cpu_repeat(self._probe_cost, len(values))
        into.probe_runs += 1
        return values, misses

    def _misses(
        self,
        ctx: ExecContext,
        start: int,
        stop: int,
        into: AugmentationOutcome,
    ) -> Iterator[int]:
        """Resolve plan rows ``start`` to ``stop`` against the cache in
        order, yielding the row of each miss where the per-probe loop
        met it.

        Runs end at their first miss, so the consumer deals with a miss
        — fetches it into ``into``, or submits it to a pool — before the
        next probe is made, with the clock where it would have been. The
        hits of a run land in ``into`` as two list extensions.
        """
        keys = self._keys
        if start or stop != len(keys):
            keys = keys[start:stop]
        position, total = 0, len(keys)
        while position < total:
            values, misses = self._probe_run(
                ctx, keys, position, into, _every_miss
            )
            end = position + len(values)
            if misses:
                values.pop()
            into.values += values
            into.rows += range(start + position, start + end - misses)
            into.cache_hits += len(values)
            position = end
            if misses:
                yield start + end - 1

    def _fill_groups(
        self,
        ctx: ExecContext,
        plan: AugmentationPlan,
        batch_size: int,
        outcome: AugmentationOutcome,
        flush: Callable[[str, list[int]], None],
    ) -> None:
        """The batching main loop: cache hits go to ``outcome``, missed
        rows into per-database groups; a group is handed to ``flush``
        the moment it holds ``batch_size`` rows, the partial groups at
        the end. ``outcome`` is in plan order iff nothing was flushed.

        A flush may put objects into the cache (and evict others) and
        reads the clock, so no probe that follows it in plan order may
        be made before it. The run therefore files each miss in its
        group as it meets it (``ends_run``) and ends on the miss that
        fills one: a flush falls on the last probe of a run, after the
        run's CPU — exactly where the per-probe loop had it — and a
        plan is probed in one run per group that fills, plus one.
        """
        keys = plan.keys
        groups: dict[str, list[int]] = {}
        full: list[str] = []

        def file_miss(row: int) -> bool:
            database = keys[row].database
            group = groups.get(database)
            if group is None:
                group = groups[database] = []
            group.append(row)
            if len(group) < batch_size:
                return False
            full.append(database)
            return True

        position, total = 0, len(keys)
        while position < total:
            values, misses = self._probe_run(
                ctx, keys, position, outcome, file_miss
            )
            run = range(position, position + len(values))
            position += len(values)
            outcome.cache_hits += len(values) - misses
            if not misses:
                outcome.values += values
                outcome.rows += run
                continue
            hit = list(map(is_not, values, repeat(None)))
            outcome.values += compress(values, hit)
            outcome.rows += compress(run, hit)
            if full:
                database = full.pop()
                flush(database, groups[database])
                groups[database] = []
        for database, group in groups.items():
            if group:
                flush(database, group)
        outcome.in_plan_order = not groups

    def _over_budget(self, ctx: ExecContext, database: str) -> bool:
        """True when the timeout budget bars any further store calls.

        The first exhausted check emits a ``timeout_budget_exceeded``
        event; every barred database lands in the run's error report
        and is counted as skipped (the store was never contacted).
        """
        deadline = self._deadline
        if deadline is None or ctx.now < deadline:
            return False
        if not self._skip_unavailable:
            # Strict mode: an exhausted budget is an error, not a
            # silently smaller answer.
            raise TimeoutExceeded(
                f"augmentation timeout budget exhausted at t={ctx.now:.6f}s "
                f"(deadline {deadline:.6f}s)"
            )
        if not self._budget_exceeded:
            self._budget_exceeded = True
            ctx.obs.events.emit(
                "timeout_budget_exceeded",
                severity="warning",
                ts=ctx.now,
                deadline=deadline,
            )
        self._note_fault(ctx, database, "timeout budget exceeded")
        return True

    def _note_fault(
        self, ctx: ExecContext, database: str, reason: str
    ) -> None:
        """Record one skipped/degraded database for this run."""
        self._unavailable.append(database)
        self._errors.setdefault(database, reason)
        ctx.obs.metrics.counter(
            "store_unavailable_skips_total", database=database
        ).inc()

    def _fetch_single(
        self, ctx: ExecContext, row: int, into: AugmentationOutcome
    ) -> None:
        """One direct-access query for one plan row (cache-aside); its
        object, or its absence, and whether a store answered land in
        ``into``: a fetch swallowed by ``skip_unavailable`` counts as
        skipped, not issued."""
        key = self._keys[row]
        database = key.database
        if self._over_budget(ctx, database):
            # Never reached a store: skipped, not an issued query, or
            # the optimizer trains on phantom store traffic.
            into.skipped_flushes += 1
            return
        connector = self.registry.connector(database)
        with ctx.span("fetch", database=database) as span:
            try:
                obj = connector.fetch_one(ctx, key)
            except StoreUnavailableError as exc:
                if not self._skip_unavailable:
                    raise
                self._note_fault(ctx, database, f"unavailable: {exc}")
                span.attrs["skipped"] = True
                into.skipped_flushes += 1
                return
            span.attrs["found"] = obj is not None
        into.queries_issued += 1
        if obj is None:
            if getattr(ctx, "last_call_truncated", False):
                # The store dropped the tail of the reply: the object
                # may well exist, so it must not feed lazy deletion.
                self._errors.setdefault(database, "truncated results")
                return
            into.missing.append(key)
            return
        self.cache.put(obj)
        into.values.append(obj)
        into.rows.append(row)

    def _fetch_group(
        self,
        ctx: ExecContext,
        database: str,
        group: list[int],
        into: AugmentationOutcome,
    ) -> None:
        """One batch query for a per-database group of plan rows;
        accounts into ``into`` like :meth:`_fetch_single`."""
        if self._over_budget(ctx, database):
            into.skipped_flushes += 1
            return
        keys = self._keys
        unique_keys = list(dict.fromkeys(map(keys.__getitem__, group)))
        connector = self.registry.connector(database)
        with ctx.span(
            "fetch_group", database=database, keys=len(unique_keys)
        ) as span:
            try:
                objects = connector.fetch_many(ctx, unique_keys)
            except StoreUnavailableError as exc:
                if not self._skip_unavailable:
                    raise
                self._note_fault(ctx, database, f"unavailable: {exc}")
                span.attrs["skipped"] = True
                into.skipped_flushes += 1
                return
            span.attrs["found"] = len(objects)
        into.queries_issued += 1
        # A truncated reply dropped the tail of the batch: the absent
        # keys may well exist, so they must not feed lazy deletion
        # (partial batches count only the objects actually returned).
        truncated = getattr(ctx, "last_call_truncated", False)
        if truncated:
            self._errors.setdefault(database, "truncated results")
        by_key = {obj.key: obj for obj in objects}
        self.cache.put_many(objects)
        seen_missing: set[GlobalKey] = set()
        for row in group:
            key = keys[row]
            obj = by_key.get(key)
            if obj is None:
                if not truncated and key not in seen_missing:
                    seen_missing.add(key)
                    into.missing.append(key)
                continue
            into.values.append(obj)
            into.rows.append(row)

    def _single_worker(self, row: int) -> Task:
        """A pool task fetching one planned object."""

        def task(child: ExecContext) -> AugmentationOutcome:
            part = AugmentationOutcome()
            self._fetch_single(child, row, part)
            return part

        return task

    def _pool_seeds(
        self,
        ctx: ExecContext,
        plan: AugmentationPlan,
        workers: int,
        seed_worker: Callable[[int, int], Task],
    ) -> AugmentationOutcome:
        """One pool whose tasks are whole seeds: ``seed_worker(start,
        stop)`` makes the task resolving one result's rows. Parts join
        in seed order, so the outcome is in plan order iff each is."""
        outcome = AugmentationOutcome()
        pool = ctx.pool(workers)
        bounds = plan.bounds
        for start, stop in zip(bounds, bounds[1:]):
            if start < stop:
                pool.submit(seed_worker(start, stop))
        parts = pool.join()
        for part in parts:
            outcome.absorb(part)
        outcome.in_plan_order = all(part.in_plan_order for part in parts)
        return outcome


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

_REGISTRY: dict[str, Callable[[ConnectorRegistry, LruCache], Augmenter]] = {}


def register_augmenter(
    name: str,
) -> Callable[[type[Augmenter]], type[Augmenter]]:
    def decorator(cls: type[Augmenter]) -> type[Augmenter]:
        cls.name = name
        _REGISTRY[name] = cls
        return cls

    return decorator


def available_augmenters() -> list[str]:
    """Names of the registered strategies (the optimizer's choices)."""
    return sorted(_REGISTRY)


#: The strategies that group fetches into ``BATCH_SIZE`` native queries
#: (T2 predicts their batch size) and those that fan out over a thread
#: pool of ``THREADS_SIZE`` (T3 predicts it).
BATCHING = frozenset({"batch", "outer_batch"})
POOLED = frozenset({"inner", "outer", "outer_batch", "outer_inner"})


def make_augmenter(
    name: str, registry: ConnectorRegistry, cache: LruCache
) -> Augmenter:
    try:
        factory = _REGISTRY[name]
    except KeyError:
        raise UnknownAugmenterError(
            f"unknown augmenter {name!r}; available: {available_augmenters()}"
        ) from None
    return factory(registry, cache)


def validate_config(config: AugmentationConfig) -> None:
    if config.batch_size < 1:
        raise ConfigurationError(f"batch_size must be >= 1, got {config.batch_size}")
    if config.threads_size < 1:
        raise ConfigurationError(
            f"threads_size must be >= 1, got {config.threads_size}"
        )
    if config.cache_size < 0:
        raise ConfigurationError(f"cache_size must be >= 0, got {config.cache_size}")
    if config.timeout_budget is not None and config.timeout_budget <= 0:
        raise ConfigurationError(
            f"timeout_budget must be > 0, got {config.timeout_budget}"
        )
