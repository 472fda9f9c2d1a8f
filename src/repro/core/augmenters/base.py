"""Shared augmenter machinery: base class, registry, cache handling."""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Callable

from repro.core.augmentation import AugmentationConfig, AugmentationPlan, PlannedFetch
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


@dataclass
class AugmentationOutcome:
    """What executing an augmentation plan produced."""

    objects: list[AugmentedObject] = field(default_factory=list)
    #: Keys planned but absent from the polystore (feed lazy deletion).
    #: Deduplicated across seeds by :meth:`Augmenter.execute`.
    missing: list[GlobalKey] = field(default_factory=list)
    cache_hits: int = 0
    queries_issued: int = 0
    #: Batch flushes that reached no store because the target database
    #: was down under ``skip_unavailable`` (not counted as issued).
    skipped_flushes: int = 0
    #: Databases skipped because they were unreachable (only populated
    #: when the configuration sets ``skip_unavailable``).
    unavailable_databases: tuple[str, ...] = ()
    #: True iff a fault cost this run planned objects: some planned key
    #: is neither in ``objects`` nor (genuinely) ``missing``. A flaky
    #: store whose every fetch succeeded on retry does *not* degrade.
    degraded: bool = False
    #: Database -> reason for every store that misbehaved during the
    #: run (unavailable, truncated results, timeout budget), whether or
    #: not objects were ultimately lost.
    errors: dict[str, str] = field(default_factory=dict)
    #: Structured trace summary of the run (span counts/durations per
    #: kind), stamped by :meth:`Augmenter.execute`.
    trace: dict | None = None


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
        #: Fetches barred by the timeout budget (parent thread reads the
        #: delta to keep them out of ``queries_issued``).
        self._budget_skips = 0
        #: Per-probe CPU charge; resolved per run by :meth:`execute` so
        #: _probe_cache skips the cost-model attribute chase.
        self._probe_cost = 0.0

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
        self._budget_skips = 0
        self._deadline = (
            ctx.now + config.timeout_budget
            if config.timeout_budget is not None
            else None
        )
        # The probe loop runs once per planned fetch; per-probe metric
        # increments (registry lookup + counter lock, three per probe)
        # dwarf the cache probe itself. ``BoundedLru`` already counts
        # every probe under its one lock, so the obs counters are
        # published once per run from the stats delta.
        self._probe_cost = ctx.cost_model.cache_probe_cost
        before = self.cache.stats()
        outcome = self._run(ctx, plan, config)
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
            planned = {fetch.key for fetch in plan.all_fetches()}
            got = {entry.key for entry in outcome.objects}
            lost = planned - got - set(outcome.missing)
            outcome.degraded = bool(lost)
        # A served request summarizes its own spans; a classic run
        # (no trace id) owns the whole, freshly reset tracer.
        outcome.trace = ctx.obs.trace_summary(ctx._trace_id)
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

    def _probe_cache(
        self, ctx: ExecContext, fetch: PlannedFetch
    ) -> AugmentedObject | None:
        """Cache lookup with its (small) CPU cost charged.

        Hit/miss accounting happens inside the cache (``BoundedLru``
        counts under its one lock); :meth:`execute` publishes the
        per-run delta to the obs metrics.
        """
        ctx.cpu(self._probe_cost)
        cached = self.cache.get(fetch.key)
        if cached is None:
            return None
        return _augmented(cached, fetch)

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
        self._budget_skips += 1
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
        self, ctx: ExecContext, fetch: PlannedFetch, outcome_missing: list[GlobalKey]
    ) -> AugmentedObject | None:
        """One direct-access query for one planned fetch (cache-aside)."""
        database = fetch.key.database
        if self._over_budget(ctx, database):
            return None
        connector = self.registry.connector(database)
        with ctx.span("fetch", database=database) as span:
            try:
                obj = connector.fetch_one(ctx, fetch.key)
            except StoreUnavailableError as exc:
                if not self._skip_unavailable:
                    raise
                self._note_fault(ctx, database, f"unavailable: {exc}")
                span.attrs["skipped"] = True
                return None
            span.attrs["found"] = obj is not None
        if obj is None:
            if getattr(ctx, "last_call_truncated", False):
                # The store dropped the tail of the reply: the object
                # may well exist, so it must not feed lazy deletion.
                self._errors.setdefault(database, "truncated results")
                return None
            outcome_missing.append(fetch.key)
            return None
        self.cache.put(obj)
        return _augmented(obj, fetch)

    def _fetch_group(
        self,
        ctx: ExecContext,
        database: str,
        group: list[PlannedFetch],
        outcome_missing: list[GlobalKey],
    ) -> list[AugmentedObject]:
        """One batch query for a per-database group of planned fetches."""
        if self._over_budget(ctx, database):
            return []
        unique_keys = list(dict.fromkeys(fetch.key for fetch in group))
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
                return []
            span.attrs["found"] = len(objects)
        # A truncated reply dropped the tail of the batch: the absent
        # keys may well exist, so they must not feed lazy deletion
        # (partial batches count only the objects actually returned).
        truncated = getattr(ctx, "last_call_truncated", False)
        if truncated:
            self._errors.setdefault(database, "truncated results")
        by_key = {obj.key: obj for obj in objects}
        for obj in objects:
            self.cache.put(obj)
        results: list[AugmentedObject] = []
        seen_missing: set[GlobalKey] = set()
        for fetch in group:
            obj = by_key.get(fetch.key)
            if obj is None:
                if not truncated and fetch.key not in seen_missing:
                    seen_missing.add(fetch.key)
                    outcome_missing.append(fetch.key)
                continue
            results.append(_augmented(obj, fetch))
        return results


def _augmented(obj: DataObject, fetch: PlannedFetch) -> AugmentedObject:
    return AugmentedObject(
        obj.with_probability(fetch.probability),
        source=fetch.seed,
        path=fetch.path,
    )


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
