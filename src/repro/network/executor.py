"""Execution runtimes: virtual time and real threads behind one API.

Augmenters and connectors never talk to clocks or thread pools directly;
they use an :class:`ExecContext`:

* ``ctx.cpu(seconds)`` — QUEPA-side CPU work (``ctx.cpu_repeat(seconds,
  count)``: ``count`` such charges at once, bit for bit the same);
* ``ctx.store_call(database, fn)`` — one native query against a store,
  charged as latency + per-query overhead + per-object service time;
* ``ctx.pool(workers)`` — a worker pool whose tasks receive child
  contexts, so nested parallelism (the OUTER-INNER augmenter) composes.

:class:`VirtualRuntime` implements the contract on a deterministic
virtual clock, bounding CPU contention by each machine's cores (see
DESIGN.md);
:class:`RealRuntime` implements it with ``ThreadPoolExecutor`` and
optional scaled real sleeps. Answers are identical under both; only the
time measurements differ.

**CPU debt (real runtime).** A real sleep costs tens of microseconds
however short it is asked to be, and an augmenter charges CPU once
per cache probe — hundreds of sub-microsecond charges a request, made
a probe run at a time through ``cpu_repeat()``.
So a real context does not sleep per charge: ``cpu()`` adds the charge
to the context's *debt* (and to ``cpu_seconds_total``, per charge, as
ever), and ``settle()`` pays the whole debt in one sleep at the next
point where the thread blocks anyway:

1. ``store_call`` — before its timer starts, as a sleep of its own, so
   the ``store_call`` span and ``store_call_seconds`` hold roundtrip
   time only;
2. ``sleep`` (retry backoff);
3. pool hand-off — the parent settles in ``submit`` and ``join``;
4. task end — a child settles on its worker thread, in a ``finally``;
5. request end — ``Quepa`` calls ``settle()`` before it stops the
   clock.

``now`` reads wall time *plus* the owed debt, the value it would have
had if each charge had slept on the spot, so timeout budgets trip at
the same fetch as before. With ``time_scale == 0`` nothing is owed and
nothing sleeps. Every sleep goes through the module-level ``time`` name
(the benchmark spine swaps it to time the sleeps). Virtual contexts
advance their clock inside ``cpu()``; their ``settle()`` is a no-op.

Both runtimes carry an :class:`~repro.obs.Observability` bundle. Every
store call, CPU charge and pool lifetime is recorded as spans/metrics on
the runtime's *own* clock — instrumentation reads the clock but never
charges it, so virtual-time numbers are identical with tracing on.
Child contexts created by :meth:`WorkerPool.submit` inherit the active
span of the submitting context, so traces keep their tree shape across
worker threads.
"""

from __future__ import annotations

import threading
import time
from abc import ABC, abstractmethod
from contextlib import contextmanager
from typing import Any, Callable, Iterator, Sequence, TypeVar

from repro.errors import InjectedFaultError, StoreError
from repro.network.latency import DeploymentProfile
from repro.obs import Observability, Span

T = TypeVar("T")

#: A store operation: a zero-argument callable returning a list of results.
StoreOp = Callable[[], Sequence[Any]]


class QueryMeter:
    """Counts queries and objects fetched, per database (thread-safe)."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.queries_by_database: dict[str, int] = {}
        self.objects_by_database: dict[str, int] = {}
        self.failed_queries_by_database: dict[str, int] = {}

    def record(self, database: str, objects: int) -> None:
        with self._lock:
            self.queries_by_database[database] = (
                self.queries_by_database.get(database, 0) + 1
            )
            self.objects_by_database[database] = (
                self.objects_by_database.get(database, 0) + objects
            )

    def record_failure(self, database: str) -> None:
        """A query that errored: counted as issued, zero objects.

        Failed calls used to vanish from the meter entirely, so a
        partial batch (some calls errored mid-run) over-represented the
        store's throughput: only the objects actually returned may
        count, but the roundtrips still happened.
        """
        with self._lock:
            self.queries_by_database[database] = (
                self.queries_by_database.get(database, 0) + 1
            )
            self.failed_queries_by_database[database] = (
                self.failed_queries_by_database.get(database, 0) + 1
            )

    def snapshot(self) -> dict[str, dict[str, int]]:
        """A consistent copy of all three per-database tallies.

        Readers that iterate the meter while store calls are in flight
        (record emission, fault reports, ``explain --analyze``) must use
        this instead of copying the dicts directly: an unlocked
        ``dict(...)`` can raise ``RuntimeError: dictionary changed size
        during iteration`` under concurrent sessions.
        """
        with self._lock:
            return {
                "queries_by_database": dict(self.queries_by_database),
                "objects_by_database": dict(self.objects_by_database),
                "failed_queries_by_database": dict(
                    self.failed_queries_by_database
                ),
            }

    @property
    def total_queries(self) -> int:
        with self._lock:
            return sum(self.queries_by_database.values())

    @property
    def total_objects(self) -> int:
        with self._lock:
            return sum(self.objects_by_database.values())


class ExecContext(ABC):
    """One logical thread of execution (main process or pool worker)."""

    #: Set by concrete contexts at construction.
    _runtime: "Runtime"
    #: The active span this context's operations are children of.
    _span_id: int | None = None
    #: The owning request's trace id (serving), stamped on every span
    #: this context records; ``None`` for classic single-run contexts.
    _trace_id: str | None = None
    #: Whether the most recent (fault-injected) store call returned a
    #: truncated result list; augmenters read this to keep truncated
    #: keys out of the ``missing`` (lazy-deletion) accounting.
    last_call_truncated: bool = False

    @property
    def cost_model(self):
        """The deployment profile's cost model (scalar access costs)."""
        return self._runtime.profile.cost_model

    @property
    def obs(self) -> Observability:
        """The runtime's tracer + metrics bundle."""
        return self._runtime.obs

    @property
    def coalescer(self):
        """The runtime's :class:`~repro.serving.coalesce.SingleFlight`,
        or ``None``; connectors route every fetch through it."""
        return self._runtime.coalescer

    @property
    @abstractmethod
    def now(self) -> float:
        """Current local time, in seconds (virtual or wall)."""

    @abstractmethod
    def cpu(self, seconds: float) -> None:
        """Perform ``seconds`` of QUEPA-side CPU work."""

    @abstractmethod
    def cpu_repeat(self, seconds: float, count: int) -> None:
        """``count`` calls of ``cpu(seconds)`` as one.

        Bit for bit what the calls would have left: every accumulator
        (clock or debt, machine demand, ``cpu_seconds_total``) takes the
        same float additions in the same order, never ``count *
        seconds`` at once. The caller must make it before anything that
        reads the clock the calls would have advanced.
        """

    @abstractmethod
    def store_call(
        self, database: str, fn: StoreOp, query: Any = None
    ) -> Sequence[Any]:
        """Execute one native query against ``database`` and charge it.

        ``query`` is the native query text/descriptor, used only for
        slow-query events — never executed or charged.
        """

    @abstractmethod
    def pool(self, workers: int) -> "WorkerPool":
        """Create a pool of ``workers`` logical threads."""

    def settle(self) -> None:
        """Pay any CPU charged but not yet waited out.

        Called where a request ends, before its clock is read. Only the
        real runtime defers CPU (see ``_RealContext``); virtual contexts
        advance their clock inside :meth:`cpu` and owe nothing.
        """

    @abstractmethod
    def sleep(self, seconds: float) -> None:
        """Wait without consuming CPU (retry backoff, flap recovery).

        Virtual contexts advance their local clock without adding
        machine demand; real contexts sleep scaled wall time.
        """

    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[Span]:
        """Trace a block as a span on this context's clock.

        Purely observational: no CPU or latency is charged. Nested
        ``span``/``store_call``/pool operations become children.
        """
        obs = self._runtime.obs
        entry = obs.tracer.begin(
            name, self.now, self._span_id, self._trace_id, **attrs
        )
        previous, self._span_id = self._span_id, entry.span_id
        try:
            yield entry
        finally:
            self._span_id = previous
            obs.tracer.end(entry, self.now)

    # -- shared instrumentation helpers --------------------------------------

    def _record_store_call(
        self,
        database: str,
        started: float,
        ended: float,
        objects: int,
        query: Any = None,
    ) -> None:
        runtime = self._runtime
        runtime.obs.tracer.record(
            "store_call",
            started,
            ended,
            self._span_id,
            self._trace_id,
            database=database,
            objects=objects,
        )
        queries, totals, seconds = runtime._store_instruments(database)
        queries.inc()
        totals.inc(objects)
        seconds.observe(ended - started)
        # Slow-query log: observational only (reads the clocks already
        # taken above, charges nothing), and a single None check when
        # disabled — the default — keeps it off the hot path.
        threshold = runtime.obs.slow_query_threshold
        if threshold is not None and ended - started >= threshold:
            runtime.obs.events.emit(
                "slow_query",
                severity="warning",
                ts=ended,
                database=database,
                query="" if query is None else str(query),
                elapsed_s=ended - started,
                objects=objects,
            )

    def _record_failed_call(
        self,
        database: str,
        started: float,
        ended: float,
        query: Any = None,
        injected: bool = False,
    ) -> None:
        """Instrument a store call that errored (no objects returned).

        Failed calls are kept out of ``store_queries_total`` (which
        counts answered queries) and the latency histogram; they get
        their own counter plus a ``store_call`` span flagged with
        ``error`` so traces show where time went while a store was
        misbehaving.
        """
        runtime = self._runtime
        runtime.obs.tracer.record(
            "store_call",
            started,
            ended,
            self._span_id,
            self._trace_id,
            database=database,
            objects=0,
            error=True,
        )
        runtime.obs.metrics.counter(
            "store_failures_total", database=database
        ).inc()
        runtime.obs.events.emit(
            "store_call_failed",
            severity="warning",
            ts=ended,
            database=database,
            query="" if query is None else str(query),
            injected=injected,
        )

    def _record_pool(
        self,
        started: float,
        ended: float,
        parent_span: int | None,
        workers: int,
        tasks: int,
    ) -> None:
        obs = self._runtime.obs
        obs.tracer.record(
            "pool",
            started,
            ended,
            parent_span,
            self._trace_id,
            workers=workers,
            tasks=tasks,
        )
        obs.metrics.histogram("pool_join_seconds").observe(ended - started)
        obs.metrics.counter("pool_tasks_total").inc(tasks)


class WorkerPool(ABC):
    """A fork-join pool: submit tasks, then join to collect results."""

    @abstractmethod
    def submit(self, task: Callable[[ExecContext], T]) -> None:
        """Schedule ``task``; it receives a fresh child context."""

    @abstractmethod
    def join(self) -> list[Any]:
        """Wait for all tasks; returns results in submission order."""


class Runtime(ABC):
    """Factory for the root execution context plus shared metering.

    ``meter`` and the tracer are per-run (reset by :meth:`root`);
    ``obs.metrics`` accumulates over the runtime's lifetime.
    """

    def __init__(self, profile: DeploymentProfile) -> None:
        self.profile = profile
        self.meter = QueryMeter()
        self.obs = Observability()
        #: Optional :class:`~repro.faults.FaultInjector`; when ``None``
        #: (the default) store calls take the plain hot path and the
        #: fault layer costs exactly one attribute check.
        self.faults = None
        #: Optional single-flight coalescer
        #: (:class:`~repro.serving.coalesce.SingleFlight`). ``None`` by
        #: default: connectors check one attribute and take the plain
        #: path. The serving layer attaches one on :class:`RealRuntime`
        #: only — virtual-time runs must stay deterministic.
        self.coalescer = None
        #: Stable handle for the hot cpu() path (one lock, no lookup).
        self._cpu_seconds = self.obs.metrics.counter("cpu_seconds_total")
        self._pools_created = self.obs.metrics.counter("pools_created_total")
        #: Per-database instrument handles for the store_call hot path;
        #: one registry lookup per database for the runtime's lifetime.
        self._store_handles: dict[str, tuple] = {}

    def _store_instruments(self, database: str) -> tuple:
        """The (queries, objects, seconds) instruments for ``database``."""
        handles = self._store_handles.get(database)
        if handles is None:
            metrics = self.obs.metrics
            handles = (
                metrics.counter("store_queries_total", database=database),
                metrics.counter("store_objects_total", database=database),
                metrics.histogram("store_call_seconds", database=database),
            )
            self._store_handles[database] = handles
        return handles

    @abstractmethod
    def root(self) -> ExecContext:
        """The main-process context; also resets timing state."""

    @abstractmethod
    def request_context(
        self,
        trace_id: str | None = None,
        parent_span: int | None = None,
    ) -> ExecContext:
        """A fresh context for one served request.

        Unlike :meth:`root`, this does NOT reset the shared meter,
        tracer or run timer, so many requests can execute concurrently
        against one runtime (the serving layer's contract). Request
        durations are measured as ``ctx.now`` deltas on the returned
        context rather than via :attr:`elapsed`.

        ``trace_id`` attributes every span the context records to one
        served request; ``parent_span`` (usually the scheduler's root
        span) parents them, so a request's trace stays one tree across
        the serving thread handoff.
        """

    @property
    @abstractmethod
    def elapsed(self) -> float:
        """End-to-end duration of the last run, in seconds."""


# ---------------------------------------------------------------------------
# Virtual time implementation
# ---------------------------------------------------------------------------
#
# Tasks execute eagerly (plain Python calls) but keep a *local* virtual
# clock: CPU work and store roundtrips advance the local time and
# accumulate per-machine work demand. Worker pools place task starts with
# greedy list scheduling on their private worker slots (submission order
# is arrival order, so this is exact), and every pool join applies
# Graham's bound: the pool cannot finish before
#
#     max(latest task end, pool start + total demand(machine)/cores)
#
# for any machine its tasks used. This models both thread-level
# parallelism and CPU saturation ("speed-up until the core count, then
# flat", Section VII-B.b) without a full event-driven simulator, and is
# deterministic and independent of Python's execution interleaving.


class _VirtualContext(ExecContext):
    def __init__(self, runtime: "VirtualRuntime", start: float) -> None:
        self._runtime = runtime
        self._now = start
        #: machine name -> (cores, accumulated busy seconds)
        self.demand: dict[str, tuple[int, float]] = {}
        # cpu() runs once per cache probe; resolve the QUEPA machine and
        # the cpu-seconds counter once per context instead of per call.
        machine = runtime.profile.quepa_machine
        self._quepa_name = machine.name
        self._quepa_cores = machine.cores
        self._cpu_counter = runtime._cpu_seconds

    @property
    def now(self) -> float:
        return self._now

    def _add_demand(self, machine_name: str, cores: int, seconds: float) -> None:
        current = self.demand.get(machine_name)
        busy = seconds if current is None else current[1] + seconds
        self.demand[machine_name] = (cores, busy)

    def cpu(self, seconds: float) -> None:
        if seconds <= 0:
            return
        self._now += seconds
        # Inlined _add_demand for the QUEPA machine: same accumulation
        # order (one float addition per call), fewer lookups.
        name = self._quepa_name
        current = self.demand.get(name)
        self.demand[name] = (
            self._quepa_cores,
            seconds if current is None else current[1] + seconds,
        )
        self._cpu_counter.inc(seconds)

    def cpu_repeat(self, seconds: float, count: int) -> None:
        if seconds <= 0 or count <= 0:
            return
        now = self._now
        for __ in range(count):
            now += seconds
        self._now = now
        name = self._quepa_name
        current = self.demand.get(name)
        # cpu() starts an absent entry at ``seconds``; 0.0 + seconds is
        # that same float.
        busy = 0.0 if current is None else current[1]
        for __ in range(count):
            busy += seconds
        self.demand[name] = (self._quepa_cores, busy)
        self._cpu_counter.inc_repeat(seconds, count)

    def store_call(
        self, database: str, fn: StoreOp, query: Any = None
    ) -> Sequence[Any]:
        if self._runtime.faults is not None:
            return self._injected_store_call(database, fn, query)
        started = self._now
        try:
            results = fn()
        except StoreError:
            self._charge_failed_call(database, started, query)
            raise
        n = len(results)
        profile = self._runtime.profile
        cost = profile.cost_model
        site = profile.site(database)
        service = cost.per_query_overhead + cost.per_object_service * n
        self._now += site.roundtrip + service
        self._add_demand(site.machine.name, site.machine.cores, service)
        self.cpu(cost.per_object_cpu * n)
        self._runtime.meter.record(database, n)
        self._record_store_call(database, started, self._now, n, query)
        return results

    def _charge_failed_call(
        self, database: str, started: float, query: Any, injected: bool = False
    ) -> None:
        """Charge and meter a store call that came back as an error.

        The error reply still crossed the network and was admitted by
        the engine, so the roundtrip and the per-query overhead are
        charged — only the per-object costs are not, since no objects
        were returned.
        """
        profile = self._runtime.profile
        cost = profile.cost_model
        site = profile.site(database)
        self._now += site.roundtrip + cost.per_query_overhead
        self._add_demand(
            site.machine.name, site.machine.cores, cost.per_query_overhead
        )
        self._runtime.meter.record_failure(database)
        self._record_failed_call(
            database, started, self._now, query, injected=injected
        )

    def _injected_store_call(
        self, database: str, fn: StoreOp, query: Any
    ) -> Sequence[Any]:
        """The store-call path with the fault injector armed."""
        runtime = self._runtime
        decision = runtime.faults.decide(database, self._now)
        self.last_call_truncated = False
        started = self._now
        if decision.extra_seconds:
            # A stall is pure added latency: the clock moves, no CPU.
            self._now += decision.extra_seconds
        if decision.action == "fail":
            self._charge_failed_call(database, started, query, injected=True)
            raise InjectedFaultError(
                f"{database}: injected fault (schedule seed "
                f"{runtime.faults.seed})",
                database,
            )
        try:
            results = fn()
        except StoreError:
            self._charge_failed_call(database, started, query)
            raise
        if decision.action == "truncate":
            results = list(results)
            kept = int(len(results) * decision.keep_fraction)
            if kept < len(results):
                runtime.faults.note_truncation(database, len(results) - kept)
                results = results[:kept]
                self.last_call_truncated = True
        n = len(results)
        profile = runtime.profile
        cost = profile.cost_model
        site = profile.site(database)
        service = cost.per_query_overhead + cost.per_object_service * n
        self._now += site.roundtrip + service
        self._add_demand(site.machine.name, site.machine.cores, service)
        self.cpu(cost.per_object_cpu * n)
        runtime.meter.record(database, n)
        self._record_store_call(database, started, self._now, n, query)
        return results

    def sleep(self, seconds: float) -> None:
        if seconds > 0:
            # Waiting occupies no cores: the local clock advances but
            # no machine demand accumulates (unlike cpu()).
            self._now += seconds

    def pool(self, workers: int) -> WorkerPool:
        # Setting up a pool costs the creating thread CPU (the paper's
        # "overhead of creating and synchronizing threads", VII-B.b).
        self.cpu(self._runtime.profile.cost_model.pool_create_overhead)
        self._runtime._pools_created.inc()
        return _VirtualPool(self._runtime, self, workers)

    def advance_to(self, timestamp: float) -> None:
        if timestamp > self._now:
            self._now = timestamp


class _VirtualPool(WorkerPool):
    """Greedy list scheduling on private worker slots + Graham's bound."""

    def __init__(
        self, runtime: "VirtualRuntime", parent: _VirtualContext, workers: int
    ) -> None:
        self._runtime = runtime
        self._parent = parent
        self._workers = max(1, workers)
        self._slots = [parent.now] * self._workers
        self._start = parent.now
        self._results: list[Any] = []
        self._ends: list[float] = []
        self._children: list[_VirtualContext] = []

    def submit(self, task: Callable[[ExecContext], T]) -> None:
        cost = self._runtime.profile.cost_model
        # Spawning/synchronizing a thread costs the submitting thread CPU.
        self._parent.cpu(cost.thread_spawn_overhead)
        slot = min(range(len(self._slots)), key=self._slots.__getitem__)
        start = max(self._parent.now, self._slots[slot])
        child = _VirtualContext(self._runtime, start)
        child._span_id = self._parent._span_id
        child._trace_id = self._parent._trace_id
        result = task(child)
        self._slots[slot] = child.now
        self._results.append(result)
        self._ends.append(child.now)
        self._children.append(child)

    def join(self) -> list[Any]:
        end = max(self._ends) if self._ends else self._parent.now
        # Graham's bound per machine the tasks used.
        total: dict[str, tuple[int, float]] = {}
        for child in self._children:
            for machine_name, (cores, busy) in child.demand.items():
                current = total.get(machine_name)
                summed = busy if current is None else current[1] + busy
                total[machine_name] = (cores, summed)
        for cores, busy in total.values():
            end = max(end, self._start + busy / cores)
        self._parent.advance_to(end)
        for machine_name, (cores, busy) in total.items():
            self._parent._add_demand(machine_name, cores, busy)
        results = self._results
        tasks = len(results)
        self._results = []
        self._ends = []
        self._children = []
        self._parent._record_pool(
            self._start,
            self._parent.now,
            self._parent._span_id,
            self._workers,
            tasks,
        )
        return results


class VirtualRuntime(Runtime):
    """Deterministic virtual-time runtime used by the benchmark figures."""

    def __init__(self, profile: DeploymentProfile) -> None:
        super().__init__(profile)
        self._root: _VirtualContext | None = None

    def root(self) -> ExecContext:
        self.meter = QueryMeter()
        self.obs.tracer.reset()
        self._root = _VirtualContext(self, 0.0)
        return self._root

    def request_context(
        self,
        trace_id: str | None = None,
        parent_span: int | None = None,
    ) -> ExecContext:
        """A fresh virtual context at t=0 with no shared-state resets.

        Each served request gets its own local clock; the runtime's
        meter/tracer/metrics keep accumulating across requests.
        """
        ctx = _VirtualContext(self, 0.0)
        ctx._trace_id = trace_id
        ctx._span_id = parent_span
        return ctx

    @property
    def elapsed(self) -> float:
        if self._root is None:
            return 0.0
        return self._root.now


# ---------------------------------------------------------------------------
# Real-thread implementation
# ---------------------------------------------------------------------------


class _RealContext(ExecContext):
    def __init__(self, runtime: "RealRuntime") -> None:
        self._runtime = runtime
        #: Modelled CPU seconds charged by :meth:`cpu` and not slept
        #: yet; :meth:`settle` pays them in one sleep.
        self._debt = 0.0

    @property
    def now(self) -> float:
        # Wall time plus the owed debt: what the clock would read had
        # every charge slept on the spot, so a timeout budget cannot be
        # outlived by CPU that is charged but not yet paid.
        return time.monotonic() + self._debt * self._runtime.time_scale

    def cpu(self, seconds: float) -> None:
        if seconds > 0:
            if self._runtime.time_scale > 0:
                self._debt += seconds
            self._runtime._cpu_seconds.inc(seconds)

    def cpu_repeat(self, seconds: float, count: int) -> None:
        if seconds <= 0 or count <= 0:
            return
        if self._runtime.time_scale > 0:
            debt = self._debt
            for __ in range(count):
                debt += seconds
            self._debt = debt
        self._runtime._cpu_seconds.inc_repeat(seconds, count)

    def settle(self) -> None:
        owed = self._debt
        if owed <= 0:
            return
        self._debt = 0.0
        started, ended = self._sleep(owed * self._runtime.time_scale)
        self._runtime.obs.tracer.record(
            "cpu_settle",
            started,
            ended,
            self._span_id,
            self._trace_id,
            owed_s=owed,
        )

    def _sleep(self, seconds: float) -> tuple[float, float]:
        """One real sleep, metered: how many there were and how late
        each woke. Returns the wall times around it."""
        runtime = self._runtime
        started = time.monotonic()
        time.sleep(seconds)
        ended = time.monotonic()
        runtime._sleeps.inc()
        runtime._sleep_overshoot.inc(max(0.0, ended - started - seconds))
        return started, ended

    def store_call(
        self, database: str, fn: StoreOp, query: Any = None
    ) -> Sequence[Any]:
        # Its own sleep, before the timer starts: the store_call span
        # and store_call_seconds hold no CPU debt.
        self.settle()
        started = self.now
        runtime = self._runtime
        profile = runtime.profile
        site = profile.site(database)
        if runtime.time_scale > 0:
            self._sleep(site.roundtrip * runtime.time_scale)
        decision = None
        if runtime.faults is not None:
            decision = runtime.faults.decide(database, self.now)
            self.last_call_truncated = False
            if decision.extra_seconds and runtime.time_scale > 0:
                self._sleep(decision.extra_seconds * runtime.time_scale)
            if decision.action == "fail":
                runtime.meter.record_failure(database)
                self._record_failed_call(
                    database, started, self.now, query, injected=True
                )
                raise InjectedFaultError(
                    f"{database}: injected fault", database
                )
        try:
            results = fn()
        except StoreError:
            runtime.meter.record_failure(database)
            self._record_failed_call(database, started, self.now, query)
            raise
        if decision is not None and decision.action == "truncate":
            results = list(results)
            kept = int(len(results) * decision.keep_fraction)
            if kept < len(results):
                runtime.faults.note_truncation(database, len(results) - kept)
                results = results[:kept]
                self.last_call_truncated = True
        runtime.meter.record(database, len(results))
        self._record_store_call(
            database, started, self.now, len(results), query
        )
        return results

    def sleep(self, seconds: float) -> None:
        self.settle()
        if seconds > 0 and self._runtime.time_scale > 0:
            self._sleep(seconds * self._runtime.time_scale)

    def pool(self, workers: int) -> WorkerPool:
        self.cpu(self._runtime.profile.cost_model.pool_create_overhead)
        self._runtime._pools_created.inc()
        return _RealPool(self._runtime, self, workers)


def _run_settled(task: Callable[[ExecContext], T], child: _RealContext) -> T:
    """A pool task, its CPU debt paid on the worker thread that ran it
    up — also when the task raises."""
    try:
        return task(child)
    finally:
        child.settle()


class _RealPool(WorkerPool):
    def __init__(
        self, runtime: "RealRuntime", parent: _RealContext, workers: int
    ) -> None:
        from concurrent.futures import ThreadPoolExecutor

        self._runtime = runtime
        self._parent = parent
        self._workers = max(1, workers)
        self._started = parent.now
        self._executor = ThreadPoolExecutor(max_workers=self._workers)
        self._futures: list[Any] = []

    def submit(self, task: Callable[[ExecContext], T]) -> None:
        # The parent's modelled CPU elapses before the task it hands
        # off can start, as it did when every charge slept on the spot.
        self._parent.settle()
        child = _RealContext(self._runtime)
        # Inherit the submitting context's active span and trace id
        # (read in the submitting thread, so the tree is race-free).
        child._span_id = self._parent._span_id
        child._trace_id = self._parent._trace_id
        self._futures.append(
            self._executor.submit(_run_settled, task, child)
        )

    def join(self) -> list[Any]:
        self._parent.settle()
        futures, self._futures = self._futures, []
        try:
            results = [future.result() for future in futures]
        finally:
            # Also when a task raised: the workers must not outlive
            # the request that failed.
            self._executor.shutdown(wait=True)
        self._parent._record_pool(
            self._started,
            self._parent.now,
            self._parent._span_id,
            self._workers,
            len(futures),
        )
        return results


class RealRuntime(Runtime):
    """Real threads, optional scaled sleeps (``time_scale=0`` disables)."""

    def __init__(self, profile: DeploymentProfile, time_scale: float = 0.0) -> None:
        super().__init__(profile)
        self.time_scale = time_scale
        self._sleeps = self.obs.metrics.counter("runtime_sleeps_total")
        self._sleep_overshoot = self.obs.metrics.counter(
            "runtime_sleep_overshoot_seconds_total"
        )
        self._started: float | None = None
        self._stopped = 0.0

    def root(self) -> ExecContext:
        self.meter = QueryMeter()
        self.obs.tracer.reset()
        self._started = time.monotonic()
        self._stopped = 0.0
        return _RealContext(self)

    def request_context(
        self,
        trace_id: str | None = None,
        parent_span: int | None = None,
    ) -> ExecContext:
        """A fresh wall-clock context with no shared-state resets."""
        ctx = _RealContext(self)
        ctx._trace_id = trace_id
        ctx._span_id = parent_span
        return ctx

    def stop(self) -> None:
        self._stopped = time.monotonic()

    @property
    def elapsed(self) -> float:
        if self._started is None:
            # Never ran: report zero rather than a huge negative number
            # (monotonic epoch minus nothing).
            return 0.0
        end = self._stopped or time.monotonic()
        return end - self._started
