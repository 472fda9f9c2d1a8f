"""The QUEPA facade: plug-and-play augmented access to a polystore.

``Quepa`` wires together the A' index, the validator, the connectors,
the cache, the augmenters and (optionally) an optimizer. It stores no
data itself — multiple instances over the same polystore are
independent, as the paper's architecture section points out.

Typical use::

    quepa = Quepa(polystore, aindex, profile=centralized_profile([...]))
    answer = quepa.augmented_search("transactions",
                                    "SELECT * FROM inventory WHERE ...",
                                    level=1)
    session = quepa.explore("transactions", "SELECT * FROM sales ...")
"""

from __future__ import annotations

import math
from dataclasses import asdict, replace
from typing import Any, Callable, Protocol

from repro.core.aindex import AIndex
from repro.core.augmentation import Augmentation, AugmentationConfig
from repro.core.augmenters import BATCHING, POOLED, make_augmenter
from repro.core.cache import LruCache
from repro.core.connectors import ConnectorRegistry
from repro.core.exploration import ExplorationSession
from repro.core.promotion import PathRepository, PromotionPolicy
from repro.core.runlog import QueryFeatures, RunRecord
from repro.core.search import (
    AugmentedAnswer,
    SearchStats,
    assemble_answer,
    result_seeds,
)
from repro.core.validator import Validator
from repro.errors import StoreUnavailableError
from repro.faults import FaultInjector, ResilienceConfig, ResilienceManager
from repro.model.objects import AugmentedObject, DataObject, GlobalKey
from repro.model.polystore import Polystore
from repro.network.executor import ExecContext, RealRuntime, Runtime, VirtualRuntime
from repro.network.latency import DeploymentProfile, centralized_profile
from repro.obs import Observability, latency_breakdown
from repro.stores.querycache import parse_cache_stats


class Optimizer(Protocol):
    """What Quepa needs from an optimizer (see repro.optimizer)."""

    def configure(
        self, features: QueryFeatures, current_cache_size: int
    ) -> AugmentationConfig:  # pragma: no cover - protocol
        ...


class Quepa:
    """Augmented search and exploration over one polystore."""

    def __init__(
        self,
        polystore: Polystore,
        aindex: AIndex,
        profile: DeploymentProfile | None = None,
        runtime: Runtime | None = None,
        config: AugmentationConfig | None = None,
        optimizer: Optimizer | None = None,
        promotion_policy: PromotionPolicy | None = None,
        resilience: ResilienceConfig | ResilienceManager | None = None,
        faults: FaultInjector | None = None,
    ) -> None:
        self.polystore = polystore
        self.aindex = aindex
        self.profile = profile or centralized_profile(list(polystore))
        self.runtime: Runtime = runtime or VirtualRuntime(self.profile)
        #: Tracing + metrics for this system (shared with the runtime, so
        #: contexts and augmenters report into the same bundle).
        self.obs: Observability = self.runtime.obs
        self.config = config or AugmentationConfig()
        self.optimizer = optimizer
        if optimizer is not None and hasattr(optimizer, "bind_metrics"):
            optimizer.bind_metrics(self.obs.metrics)
        #: Retry/breaker policy for store calls (None = direct calls,
        #: the fault-free hot path).
        if isinstance(resilience, ResilienceConfig):
            resilience = ResilienceManager(resilience)
        self.resilience: ResilienceManager | None = resilience
        if self.resilience is not None:
            self.resilience.bind(self.obs)
        #: Seeded fault schedule evaluated inside store_call (None = off).
        self.faults = faults
        if faults is not None:
            faults.bind(self.obs)
            self.runtime.faults = faults
        self.validator = Validator()
        self.registry = ConnectorRegistry(polystore, self.resilience)
        self.cache = LruCache(self.config.cache_size)
        for store in polystore.databases.values():
            for partition in getattr(store, "shards", (store,)):
                with partition.lock:  # a writer may be iterating the set
                    partition.write_listeners.add(self)
        self.augmentation = Augmentation(aindex)
        self.paths = PathRepository(aindex, promotion_policy)
        #: Lazily built cost-based cross-store planner (repro.planner);
        #: shares this system's profile, resilience and fault layers.
        self._planner_engine = None
        #: Listeners invoked with each completed RunRecord.
        self.run_listeners: list[Callable[[RunRecord], None]] = []
        self.last_record: RunRecord | None = None

    # -- augmented search ------------------------------------------------------

    def augmented_search(
        self,
        database: str,
        query: Any,
        level: int = 0,
        config: AugmentationConfig | None = None,
        augment: bool = True,
    ) -> AugmentedAnswer:
        """Run ``query`` on ``database`` and augment its answer.

        ``level`` is the augmentation level of Definition 3. With
        ``augment=False`` only the (validated) local query runs — used
        to seed explorations and as the no-augmentation baseline.

        This is the classic single-session entry point: it resets the
        runtime (meter, tracer, run timer) via ``runtime.root()`` and
        reports elapsed time from :attr:`Runtime.elapsed`. It must not
        be called concurrently with itself; the serving layer uses
        :meth:`serve_search` instead.
        """
        store = self.polystore.database(database)
        validation = self.validator.validate(store, query)
        ctx = self.runtime.root()
        return self._search_body(
            ctx,
            store,
            database,
            validation,
            level,
            config,
            augment,
            finish=self._finish_timer,
            clock=lambda: self.runtime.elapsed,
        )

    def serve_search(
        self,
        database: str,
        query: Any,
        level: int = 0,
        config: AugmentationConfig | None = None,
        augment: bool = True,
        trace_id: str | None = None,
        parent_span: int | None = None,
    ) -> AugmentedAnswer:
        """Concurrency-safe :meth:`augmented_search` for served sessions.

        Same answer for the same inputs, but safe to call from many
        threads at once against one ``Quepa`` instance: the request
        runs on a fresh :meth:`Runtime.request_context` (no shared
        meter/tracer/timer resets), measures ``stats.elapsed`` as a
        local clock delta on its own context, and reads the A' index
        through one pinned :class:`FrozenAIndex` snapshot per request,
        so concurrent p-relation writers never tear a traversal.

        The runtime's meter and metrics accumulate across all served
        requests rather than being per-run, so a :class:`RunRecord`
        emitted here carries cumulative per-database query counts.

        ``trace_id``/``parent_span`` (set by the scheduler) scope every
        span of this request to its serving trace; the emitted record
        then carries a request-local span summary and latency breakdown
        instead of the cumulative one.
        """
        store = self.polystore.database(database)
        validation = self.validator.validate(store, query)
        ctx = self.runtime.request_context(
            trace_id=trace_id, parent_span=parent_span
        )
        start = ctx.now
        return self._search_body(
            ctx,
            store,
            database,
            validation,
            level,
            config,
            augment,
            finish=lambda: None,
            clock=lambda: ctx.now - start,
        )

    def _search_body(
        self,
        ctx: ExecContext,
        store,
        database: str,
        validation,
        level: int,
        config: AugmentationConfig | None,
        augment: bool,
        finish: Callable[[], None],
        clock: Callable[[], float],
    ) -> AugmentedAnswer:
        """The shared search pipeline behind both entry points.

        ``finish`` is called exactly where the classic path stopped the
        run timer; ``clock`` reports elapsed run seconds (classic:
        :attr:`Runtime.elapsed`; serving: a context-local delta).
        ``ctx.settle()`` runs just before either, so CPU the real
        runtime still owes is inside the time they report.
        """
        op = lambda: self._locked_execute(store, validation.query)  # noqa: E731
        try:
            if self.resilience is not None:
                originals = list(
                    self.resilience.call(
                        ctx, database, op, query=validation.query
                    )
                )
            else:
                originals = list(
                    ctx.store_call(database, op, query=validation.query)
                )
        except StoreUnavailableError as exc:
            if self.resilience is None or not self.resilience.config.degrade:
                raise
            # The queried store itself is unreachable: no seeds, no
            # augmentation — answer empty but degraded, never raise.
            ctx.settle()
            return self._degraded_local_answer(
                database, level, validation, exc, finish, clock
            )
        stats = SearchStats(
            database=database,
            level=level,
            rewritten=validation.rewritten,
        )
        if not augment:
            ctx.settle()
            finish()
            stats.elapsed = clock()
            return assemble_answer(originals, [], stats)

        seeds = result_seeds(originals)
        plan = self._plan(ctx, seeds, level)
        features = QueryFeatures(
            engine=store.engine,
            database=database,
            level=level,
            original_count=len(originals),
            planned_fetches=plan.total_fetches(),
            store_count=len(self.polystore),
            deployment=self.profile.name,
        )
        run_config = self._apply_degradation(self._resolve_config(config, features, ctx))
        if run_config.cache_size != self.cache.capacity:
            self.cache.resize(run_config.cache_size)
        augmenter = make_augmenter(run_config.augmenter, self.registry, self.cache)
        with ctx.span("augment", augmenter=run_config.augmenter) as span:
            outcome = augmenter.execute(ctx, plan, run_config)
            span.attrs["queries"] = outcome.queries_issued
            span.attrs["cache_hits"] = outcome.cache_hits
            span.attrs["probe_runs"] = outcome.probe_runs
        for missing in outcome.missing:
            self.aindex.remove_object(missing)  # lazy deletion (III-C.b)
        if outcome.missing:
            self.obs.events.emit(
                "lazy_deletion",
                severity="info",
                ts=clock(),
                database=database,
                removed=len(outcome.missing),
            )
        self._publish_planner_metrics()
        ctx.settle()
        finish()
        stats.planned_fetches = plan.total_fetches()
        stats.queries_issued = outcome.queries_issued + 1  # + the local query
        stats.cache_hits = outcome.cache_hits
        stats.missing_objects = len(outcome.missing)
        stats.elapsed = clock()
        stats.unavailable_databases = outcome.unavailable_databases
        stats.degraded = outcome.degraded
        stats.errors = dict(outcome.errors)
        if outcome.degraded:
            self.obs.events.emit(
                "degraded_answer",
                severity="warning",
                ts=stats.elapsed,
                database=database,
                errors=dict(outcome.errors),
            )
        stats.augmenter = run_config.augmenter
        stats.batch_size = run_config.batch_size
        stats.threads_size = run_config.threads_size
        stats.cache_size = run_config.cache_size
        answer = assemble_answer(originals, outcome, stats)
        self._emit_record(features, run_config, stats, outcome, ctx=ctx)
        self.obs.events.emit(
            "augmentation_completed",
            ts=stats.elapsed,
            database=database,
            level=level,
            augmenter=run_config.augmenter,
            elapsed_s=stats.elapsed,
            queries=stats.queries_issued,
            cache_hits=stats.cache_hits,
        )
        return answer

    # -- EXPLAIN / ANALYZE -----------------------------------------------------

    def explain(
        self,
        database: str,
        query: Any,
        level: int = 0,
        config: AugmentationConfig | None = None,
        analyze: bool = False,
    ) -> dict[str, Any]:
        """Explain how an augmented search would run, end to end.

        Stitches together the store engine's access-path report, the A'
        index traversal (snapshot generation, plan-cache hit, edges
        walked), the pool/batching decisions of the augmenter the
        configuration resolution would pick, per-database cache
        would-hit counts, and — when an optimizer is attached — the
        T1-T4 rule firings behind the choice.

        Plain EXPLAIN runs only the local query (planning needs its
        seeds; the A' index traversal itself is store-free). With
        ``analyze=True`` the full augmented search also executes and an
        ``"actual"`` section reports measured elapsed time, queries
        issued and cache hits next to the estimates.
        """
        store = self.polystore.database(database)
        validation = self.validator.validate(store, query)
        report: dict[str, Any] = {
            "database": database,
            "level": level,
            "analyze": analyze,
            "query": {
                "rewritten": validation.rewritten,
                "store": store.explain(validation.query, analyze=analyze),
            },
        }
        # Seeds come from the local answer; running it here mirrors the
        # first step of augmented_search but stays off the runtime's
        # clocks (EXPLAIN is free in virtual time).
        originals = self._locked_execute(store, validation.query)
        seeds = result_seeds(originals)
        report["plan"] = self.augmentation.explain(seeds, level)
        features = QueryFeatures(
            engine=store.engine,
            database=database,
            level=level,
            original_count=len(originals),
            planned_fetches=report["plan"]["planned_fetches"],
            store_count=len(self.polystore),
            deployment=self.profile.name,
        )
        chosen, source, rules = self._explain_config(config, features)
        report["config"] = {"source": source, **asdict(chosen)}
        if rules:
            report["config"]["rules"] = rules
        report["execution"] = self._explain_execution(chosen, seeds, level)
        report["planner"] = self._explain_planner(
            database,
            validation.query,
            level,
            originals,
            analyze,
        )
        if analyze:
            answer = self.augmented_search(
                database, query, level=level, config=config
            )
            stats = answer.stats
            report["actual"] = {
                "elapsed_s": stats.elapsed,
                "queries_issued": stats.queries_issued,
                "cache_hits": stats.cache_hits,
                "augmented_objects": len(answer.augmented),
                "missing_objects": stats.missing_objects,
                "augmenter": stats.augmenter,
                "queries_by_database": self.runtime.meter.snapshot()[
                    "queries_by_database"
                ],
                "trace": self.obs.trace_summary(),
            }
        return report

    def planner_engine(self):
        """The cost-based cross-store planner bound to this system.

        Built lazily on first use (explain's ``planner`` section, the
        ``plan`` CLI/API endpoints) and cached; it shares this system's
        deployment profile, resilience manager (so breaker state is
        common) and fault injector. See :mod:`repro.planner`.
        """
        if self._planner_engine is None:
            from repro.planner import FederatedEngine

            degrade = (
                self.resilience.config.degrade
                if self.resilience is not None
                else True
            )
            self._planner_engine = FederatedEngine(
                self.polystore,
                self.aindex,
                profile=self.profile,
                config=self.config,
                resilience=self.resilience,
                faults=self.faults,
                degrade=degrade,
            )
        return self._planner_engine

    def _explain_planner(
        self,
        database: str,
        query: Any,
        level: int,
        originals,
        analyze: bool,
    ) -> dict:
        """The ``planner`` section: enumerated plans, costs, the pick.

        Reuses the originals explain already computed, so the section
        adds zero extra store executions (``analyze=True`` additionally
        runs the chosen plan, like the rest of ANALYZE).
        """
        from repro.planner import LogicalQuery

        logical = LogicalQuery(database=database, query=query, level=level)
        return self.planner_engine().explain_section(
            logical,
            originals=originals,
            analyze=analyze,
        )

    def _explain_config(
        self, explicit: AugmentationConfig | None, features: QueryFeatures
    ) -> tuple[AugmentationConfig, str, list[dict]]:
        """Resolve the config as :meth:`_resolve_config` would, without
        side effects, and report where it came from."""
        if explicit is not None:
            return explicit, "explicit", []
        if self.optimizer is not None:
            if hasattr(self.optimizer, "explain_choice"):
                choice = self.optimizer.explain_choice(
                    features, self.cache.capacity
                )
                return choice["config"], "optimizer", choice["rules"]
            return (
                self.optimizer.configure(features, self.cache.capacity),
                "optimizer",
                [],
            )
        return self.config, "default", []

    _POOL_SHAPES = {
        "sequential": "no pool: one direct-access query per fetch",
        "batch": "no pool: native batch query per flush, grouped by database",
        "inner": "one pool per seed over that seed's fetch list",
        "outer": "one pool over all fetches",
        "outer_batch": "one pool whose tasks are batch flushes",
        "outer_inner": "nested pools: outer over seeds, inner per seed",
    }

    def _explain_execution(
        self,
        chosen: AugmentationConfig,
        seeds: list[Any],
        level: int,
    ) -> dict[str, Any]:
        """Pool/batching decisions plus per-database cache would-hits.

        Cache probes use :meth:`LruCache.contains`, which neither
        refreshes recency nor counts hits/misses — EXPLAIN must not
        change what a subsequent real run observes. A key planned for
        several seeds is fetched at most once: the first miss populates
        the cache, so repeats count as hits, matching what the run's
        own counters will report.
        """
        plan = self.augmentation.plan(seeds, level)
        batching = chosen.augmenter in BATCHING
        pooled = chosen.augmenter in POOLED
        per_database: dict[str, dict[str, Any]] = {}
        keys_by_database: dict[str, list[Any]] = {}
        would_hit = 0
        seen: set[Any] = set()
        for key in plan.keys:
            entry = per_database.setdefault(
                key.database, {"fetches": 0, "cached": 0}
            )
            entry["fetches"] += 1
            if key in seen or self.cache.contains(key):
                entry["cached"] += 1
                would_hit += 1
            else:
                keys_by_database.setdefault(key.database, []).append(key)
            seen.add(key)
        estimated_queries = 1  # the local query
        for database, entry in per_database.items():
            misses = entry["fetches"] - entry["cached"]
            entry["estimated_queries"] = (
                math.ceil(misses / chosen.batch_size) if batching else misses
            )
            estimated_queries += entry["estimated_queries"]
            store = self.polystore.databases.get(database)
            if getattr(store, "sharded", False):
                # Shard routing for the keys this plan would actually
                # fetch: which partitions the scatter must scan, and
                # which the placement scheme provably prunes.
                routing = store.route_keys(keys_by_database.get(database, []))
                entry["sharding"] = {
                    "placement": routing.placement,
                    "shards": routing.shards,
                    "fanout": routing.fanout,
                    "scanned_partitions": routing.scanned,
                    "pruned_partitions": routing.pruned,
                }
        return {
            "augmenter": chosen.augmenter,
            "batching": batching,
            "batch_size": chosen.batch_size if batching else None,
            "pooled": pooled,
            "pool_workers": chosen.threads_size if pooled else 0,
            "shape": self._POOL_SHAPES.get(chosen.augmenter, "unknown"),
            "cache": {
                "capacity": self.cache.capacity,
                "size": len(self.cache),
                "would_hit": would_hit,
            },
            "per_database": dict(sorted(per_database.items())),
            "estimated_queries": estimated_queries,
        }

    def _publish_planner_metrics(self) -> None:
        """Publish planner/parse-cache state to the metrics registry.

        Gauges rather than counters: the snapshot counts live on the
        index and parse-cache hits on process-wide caches, so each
        search stamps the current totals instead of accumulating.
        """
        metrics = self.obs.metrics
        for gauge, attribute in (
            ("aindex_refreezes_total", "refreezes"),
            ("aindex_compactions_total", "compactions"),
            ("aindex_overlay_nodes", "overlay_nodes"),
        ):
            value = getattr(self.aindex, attribute, None)
            if value is not None:
                metrics.gauge(gauge).set(value)
        for entry in parse_cache_stats():
            metrics.gauge(
                "parse_cache_hits_total", cache=entry["name"]
            ).set(entry["hits"])
            metrics.gauge(
                "parse_cache_hit_rate", cache=entry["name"]
            ).set(entry["hit_rate"])

    def _plan(self, ctx: ExecContext, seeds: list[GlobalKey], level: int):
        """Plan the augmentation, traced and charged as A' index CPU."""
        with ctx.span("plan", level=level, seeds=len(seeds)) as span:
            plan = self.augmentation.plan(seeds, level, attrs=span.attrs)
            ctx.cpu(plan.edges_examined * ctx.cost_model.aindex_edge_cost)
            span.attrs["fetches"] = plan.total_fetches()
            span.attrs["edges"] = plan.edges_examined
        return plan

    def _apply_degradation(
        self, config: AugmentationConfig
    ) -> AugmentationConfig:
        """Force ``skip_unavailable`` when resilience asks to degrade.

        With a resilience policy whose ``degrade`` flag is set, every
        run tolerates unreachable stores regardless of how the config
        was chosen (explicit, optimizer, default). The original config
        object is never mutated.
        """
        if (
            self.resilience is not None
            and self.resilience.config.degrade
            and not config.skip_unavailable
        ):
            return replace(config, skip_unavailable=True)
        return config

    def on_store_write(self, store, op: str, collection: str, key: str) -> None:
        """Keep the object cache coherent with a write (the listener
        side of :meth:`Store._emit_change`).

        A delete drops the cached copy; an insert or update re-reads
        the key and replaces the copy *only if the key is cached* —
        dropping instead would cost the next reader a store round-trip
        for an object the cache already holds. Runs on the writer's
        thread, re-entering the ``store.lock`` a serving-time writer
        already holds, so the re-read sees the write it is reacting to.

        Remaining window: a reader that fetched the object before the
        write can still ``put`` the old copy after this refresh; the
        next write to the key repairs it. Stores attached to the
        polystore after this instance was built are not listened to.
        """
        if collection.startswith("_"):
            return  # infrastructure payloads (graph edges), never cached
        global_key = GlobalKey(store.database_name, collection, key)
        if op == "delete":
            self.cache.invalidate(global_key)
        elif self.cache.contains(global_key):
            with store.lock:
                value = store.get_value(collection, key)
            self.cache.put(DataObject(global_key, value))

    def _locked_execute(self, store, query) -> list[DataObject]:
        """Run a native query holding the store's engine lock.

        The engines are unsynchronized in-memory structures; the lock
        keeps a serving-layer writer from mutating them mid-scan. It
        costs one uncontended acquire on the classic single-session
        path and never touches the charged (virtual-time) costs.
        """
        with store.lock:
            return store.execute(query)

    def _degraded_local_answer(
        self,
        database: str,
        level: int,
        validation,
        exc: Exception,
        finish: Callable[[], None],
        clock: Callable[[], float],
    ) -> AugmentedAnswer:
        """Empty degraded answer when the queried store is unreachable."""
        finish()
        stats = SearchStats(
            database=database,
            level=level,
            rewritten=validation.rewritten,
            elapsed=clock(),
            unavailable_databases=(database,),
            degraded=True,
            errors={database: f"unavailable: {exc}"},
        )
        self.obs.events.emit(
            "degraded_answer",
            severity="warning",
            ts=stats.elapsed,
            database=database,
            errors=dict(stats.errors),
        )
        return assemble_answer([], [], stats)

    def fault_report(self) -> dict[str, Any]:
        """Fault/resilience state of this system, JSON-ready.

        Combines the injector's schedule and injection counters, the
        resilience snapshot (breaker states, retries, fast-fails) and
        the meter's per-database failed-call counts. Sections are
        ``None`` when the corresponding layer is not attached.
        """
        meter = self.runtime.meter.snapshot()
        return {
            "faults": (
                self.faults.stats() if self.faults is not None else None
            ),
            "resilience": (
                self.resilience.snapshot()
                if self.resilience is not None
                else None
            ),
            "failed_queries_by_database": meter[
                "failed_queries_by_database"
            ],
        }

    def _resolve_config(
        self,
        explicit: AugmentationConfig | None,
        features: QueryFeatures,
        ctx: ExecContext | None = None,
    ) -> AugmentationConfig:
        if explicit is not None:
            return explicit
        if self.optimizer is not None:
            if ctx is None:
                return self.optimizer.configure(features, self.cache.capacity)
            with ctx.span("optimize") as span:
                chosen = self.optimizer.configure(
                    features, self.cache.capacity
                )
                span.attrs["augmenter"] = chosen.augmenter
            self.obs.metrics.counter(
                "optimizer_choices_total", augmenter=chosen.augmenter
            ).inc()
            return chosen
        return self.config

    def _emit_record(
        self,
        features: QueryFeatures,
        config: AugmentationConfig,
        stats: SearchStats,
        outcome=None,
        ctx: ExecContext | None = None,
    ) -> None:
        meter = self.runtime.meter.snapshot()
        trace_id = getattr(ctx, "_trace_id", None)
        # A request-scoped run summarizes only its own spans, and
        # attaches the critical-path breakdown the serving layer
        # surfaces through the flight recorder.
        span_summary = self.obs.tracer.summary(trace_id)
        breakdown = (
            latency_breakdown(self.obs.tracer.spans_for(trace_id))
            if trace_id is not None
            else {}
        )
        record = RunRecord(
            features=features,
            augmenter=config.augmenter,
            batch_size=config.batch_size,
            threads_size=config.threads_size,
            cache_size=config.cache_size,
            elapsed=stats.elapsed,
            queries_issued=stats.queries_issued,
            cache_hits=stats.cache_hits,
            skipped_flushes=getattr(outcome, "skipped_flushes", 0),
            missing_objects=stats.missing_objects,
            degraded=stats.degraded,
            errors=dict(stats.errors),
            queries_by_database=meter["queries_by_database"],
            objects_by_database=meter["objects_by_database"],
            failed_queries_by_database=meter["failed_queries_by_database"],
            span_summary=span_summary,
            trace_id=trace_id,
            breakdown=breakdown,
        )
        self.obs.metrics.counter("runs_recorded_total").inc()
        self.last_record = record
        for listener in self.run_listeners:
            listener(record)

    def _finish_timer(self) -> None:
        if isinstance(self.runtime, RealRuntime):
            self.runtime.stop()

    # -- augmented exploration ----------------------------------------------------

    def explore(self, database: str, query: Any) -> ExplorationSession:
        """Start an augmented exploration from a native query."""
        return ExplorationSession(self, database, query)

    def augment_object(
        self,
        key: GlobalKey,
        level: int = 0,
        config: AugmentationConfig | None = None,
    ) -> list[AugmentedObject]:
        """Augment a single object (an exploration step at level 0).

        Uses the inner augmenter, which the paper singles out as the
        efficient choice when a single result is augmented at a time.
        ``config`` overrides the batch/threads/degradation/budget knobs
        of the step (the augmenter itself stays ``inner``).
        """
        ctx = self.runtime.root()
        return self._augment_object_body(
            ctx, key, level, self._finish_timer, config=config
        )

    def serve_augment_object(
        self,
        key: GlobalKey,
        level: int = 0,
        config: AugmentationConfig | None = None,
        trace_id: str | None = None,
        parent_span: int | None = None,
    ) -> list[AugmentedObject]:
        """Concurrency-safe :meth:`augment_object` for served sessions.

        Runs the exploration step on a fresh request context (no
        shared-state resets), so many exploration sessions can step
        concurrently against one ``Quepa`` instance. ``config`` carries
        the serving layer's effective per-request configuration — in
        particular a deadline folded into ``timeout_budget``, which
        must bound exploration steps exactly as it bounds searches.
        """
        ctx = self.runtime.request_context(
            trace_id=trace_id, parent_span=parent_span
        )
        return self._augment_object_body(
            ctx, key, level, lambda: None, config=config
        )

    def _augment_object_body(
        self,
        ctx: ExecContext,
        key: GlobalKey,
        level: int,
        finish: Callable[[], None],
        config: AugmentationConfig | None = None,
    ) -> list[AugmentedObject]:
        with ctx.span("plan", level=level, seeds=1) as span:
            plan = self.augmentation.plan(
                [key], level=level, attrs=span.attrs
            )
            ctx.cpu(plan.edges_examined * ctx.cost_model.aindex_edge_cost)
            span.attrs["fetches"] = plan.total_fetches()
        augmenter = make_augmenter("inner", self.registry, self.cache)
        base = config if config is not None else self.config
        step_config = self._apply_degradation(
            AugmentationConfig(
                augmenter="inner",
                batch_size=base.batch_size,
                threads_size=base.threads_size,
                cache_size=self.cache.capacity,
                skip_unavailable=base.skip_unavailable,
                timeout_budget=base.timeout_budget,
            )
        )
        outcome = augmenter.execute(ctx, plan, step_config)
        for missing in outcome.missing:
            self.aindex.remove_object(missing)
        ctx.settle()
        finish()
        # One seed plans each key once, so the ranking only orders.
        return assemble_answer([], outcome, SearchStats()).augmented

    def record_exploration(self, path: tuple[GlobalKey, ...]) -> None:
        """Feed a finished session's full path to the promotion repo."""
        self.paths.record_path(path)

    # -- direct access ----------------------------------------------------------------

    def get(self, key: GlobalKey) -> DataObject:
        """Fetch one object by global key (utility for examples/UI)."""
        return self.polystore.get(key)
