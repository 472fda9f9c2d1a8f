"""A multi-session serving front end for one shared Quepa instance.

The paper's evaluation drives QUEPA one query at a time; the roadmap's
north star is a system that serves heavy traffic from many concurrent
users. Polystore middlewares (BigDAWG's query endpoint, for instance)
put a scheduler between clients and the stores — this module is that
layer for the reproduction:

* **Bounded admission queue with load shedding** — at most
  ``queue_capacity`` requests wait; past that, :meth:`Scheduler.submit`
  raises :class:`~repro.errors.ServerBusy` (backpressure, the server
  itself stays healthy).
* **Per-session fair scheduling** — sessions get round-robin turns and
  FIFO order within a session, so a chatty client's backlog waits
  behind every other session's next request. Workers sleep on real
  condition signaling — a submission or stop wakes them precisely,
  with no polling.
* **Snapshot-isolated A' reads** — each request plans over the one
  :class:`~repro.core.compressed.FrozenAIndex` snapshot pinned when it
  starts (see :meth:`Quepa.serve_search`), so concurrent p-relation
  writers never tear a traversal.
* **Per-request deadlines** — a wall-clock deadline sheds requests
  that expire while queued and is translated into the remaining
  :attr:`AugmentationConfig.timeout_budget` for execution. Deadlines
  that cannot possibly be met (already expired, or at/under
  :data:`ADMISSION_DEADLINE_FLOOR` while every worker is busy) are shed
  at admission, before consuming a queue slot.
* **Single-flight coalescing** — on a :class:`RealRuntime` the
  scheduler attaches a :class:`~repro.serving.coalesce.SingleFlight`
  (identical concurrent fetches share one store call) for the server's
  lifetime. Virtual runtimes never get one, keeping the deterministic
  benchmark figures bit-identical.

Everything is observable: an in-flight gauge, queue depth, admission
counters, per-session QPS and latency histograms (feeding the existing
p50/p95/p99 stats path), and ``request_admitted``/``request_shed``
events in the journal. See docs/SERVING.md.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import deque
from dataclasses import dataclass, replace
from typing import Any

from repro.core.augmentation import AugmentationConfig
from repro.core.system import Quepa
from repro.errors import (
    RequestDeadlineExceeded,
    ServerBusy,
    clone_exception,
)
from repro.model.objects import GlobalKey
from repro.network.executor import RealRuntime
from repro.obs import (
    FlightRecorder,
    RequestDigest,
    TraceIdAllocator,
    latency_breakdown,
)
from repro.serving.coalesce import SingleFlight

#: Deadlines at or below this (seconds) are shed at admission when
#: every worker is already busy: the request could never be picked up
#: in time, so it should not consume a queue slot first.
ADMISSION_DEADLINE_FLOOR = 0.001


@dataclass(frozen=True)
class ServingConfig:
    """Knobs of the serving layer (documented in docs/SERVING.md)."""

    #: Worker threads executing requests against the shared Quepa.
    workers: int = 4
    #: Requests that may wait for a worker; past this, submissions are
    #: shed with :class:`ServerBusy`.
    queue_capacity: int = 64
    #: Keep a bounded flight recorder of shed/failed/degraded/slow
    #: requests (tail-based retention; see repro.obs.requests).
    flight_recorder: bool = True

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.queue_capacity < 1:
            raise ValueError("queue_capacity must be >= 1")


class Request:
    """One queued unit of work: an augmented search or exploration step."""

    __slots__ = (
        "id", "session", "kind", "database", "query", "level", "config",
        "augment", "key", "deadline", "submitted_at",
        "started_at", "finished_at", "status", "answer", "error", "done",
        "trace_id", "root_span", "breakdown",
    )

    def __init__(
        self,
        request_id: int,
        session: str,
        kind: str,
        *,
        database: str | None = None,
        query: Any = None,
        level: int = 0,
        config: AugmentationConfig | None = None,
        augment: bool = True,
        key: GlobalKey | None = None,
        deadline: float | None = None,
    ) -> None:
        self.id = request_id
        self.session = session
        self.kind = kind
        self.database = database
        self.query = query
        self.level = level
        self.config = config
        self.augment = augment
        self.key = key
        self.deadline = deadline
        self.submitted_at = 0.0
        self.started_at = 0.0
        self.finished_at = 0.0
        self.status = "queued"
        self.answer: Any = None
        self.error: BaseException | None = None
        self.done = threading.Event()
        #: Assigned at submission; rides every span the request records.
        self.trace_id: str | None = None
        self.root_span: Any = None
        self.breakdown: dict[str, Any] = {}


class Ticket:
    """A client's handle on a submitted request."""

    def __init__(self, request: Request) -> None:
        self._request = request

    @property
    def id(self) -> int:
        return self._request.id

    @property
    def session(self) -> str:
        return self._request.session

    @property
    def trace_id(self) -> str | None:
        return self._request.trace_id

    def done(self) -> bool:
        return self._request.done.is_set()

    @property
    def status(self) -> str:
        return self._request.status

    def result(self, timeout: float | None = None) -> Any:
        """Block until the request finishes; return or raise its outcome.

        Failures re-raise a *clone* of the stored exception, chained to
        the original (``raise ... from``): re-raising the stored object
        itself would mutate its ``__traceback__`` in place, so a second
        ``result()`` call — or two clients sharing a ticket — would see
        stale, ever-growing tracebacks.
        """
        if not self._request.done.wait(timeout):
            raise TimeoutError(
                f"request {self._request.id} still "
                f"{self._request.status} after {timeout}s"
            )
        error = self._request.error
        if error is not None:
            raise clone_exception(error) from error
        return self._request.answer


class Scheduler:
    """Fair, bounded scheduling of requests onto a shared Quepa."""

    def __init__(
        self, quepa: Quepa, config: ServingConfig | None = None
    ) -> None:
        self.quepa = quepa
        self.config = config or ServingConfig()
        self.obs = quepa.obs
        self._cond = threading.Condition()
        #: session -> FIFO of queued requests, plus the round-robin
        #: order over sessions: a session is in it, once, exactly while
        #: its queue is non-empty.
        self._queues: dict[str, deque[Request]] = {}
        self._order: deque[str] = deque()
        #: Optional :class:`repro.cdc.materialize.MaterializedAugmentations`
        #: tier, consulted before planning (see :meth:`_run`). Attached
        #: by the operator that owns the CDC hub; ``None`` = disabled.
        self.materialized: Any = None
        self._queued = 0
        self._inflight = 0
        self._ids = itertools.count(1)
        self._threads: list[threading.Thread] = []
        self._running = False
        self._draining = False
        self._started_at = 0.0
        self._coalescer: SingleFlight | None = None
        # Reconciliation counters (also mirrored as obs metrics:
        # serving_shed_total{reason} sees every shed, while
        # serving_requests_total{outcome="shed"} sees only the sheds
        # after admission): submitted == admitted + shed_queue_full +
        # shed_deadline_admission, and at quiescence
        # admitted == completed + failed + shed_deadline + shed_stopped.
        self._submitted = 0
        self._admitted = 0
        self._shed_queue_full = 0
        self._shed_deadline = 0
        self._shed_deadline_admission = 0
        self._shed_stopped = 0
        self._completed = 0
        self._failed = 0
        self._by_session: dict[str, dict[str, int]] = {}
        self._trace_ids = TraceIdAllocator()
        #: Always-on bounded record of the requests worth keeping
        #: (tail-based retention); ``None`` when disabled for overhead
        #: comparisons. Its capacity and slow rule are
        #: :class:`FlightRecorder`'s own; assign a differently built
        #: recorder before traffic to change them.
        self.recorder: FlightRecorder | None = (
            FlightRecorder() if self.config.flight_recorder else None
        )
        metrics = self.obs.metrics
        self._inflight_gauge = metrics.gauge("serving_inflight")
        self._depth_gauge = metrics.gauge("serving_queue_depth")
        self._latency_hist = metrics.histogram("serving_latency_seconds")
        self._wait_hist = metrics.histogram("serving_queue_wait_seconds")

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        with self._cond:
            if self._running:
                return
            self._running = True
            self._draining = False
            self._started_at = time.monotonic()
            if isinstance(self.quepa.runtime, RealRuntime):
                # Real runtimes only: virtual time must stay
                # deterministic, and a virtual context cannot share
                # flights across threads anyway.
                self._coalescer = SingleFlight(metrics=self.obs.metrics)
                self.quepa.runtime.coalescer = self._coalescer
            self._threads = [
                threading.Thread(
                    target=self._worker_loop,
                    name=f"quepa-serve-{i}",
                    daemon=True,
                )
                for i in range(self.config.workers)
            ]
        for thread in self._threads:
            thread.start()

    def stop(self, drain: bool = True, timeout: float = 30.0) -> None:
        """Stop the workers; with ``drain`` finish queued work first."""
        now = time.monotonic()
        with self._cond:
            if not self._running:
                return
            self._draining = drain
            self._running = False
            if not drain:
                # Shed whatever is still queued so no client blocks on
                # a request that will never run. These are a distinct
                # shed class — ``stopped`` — metered exactly like other
                # sheds (prometheus counter + journal event) so the
                # exported totals reconcile with ``status()``.
                for queue in self._queues.values():
                    while queue:
                        request = queue.popleft()
                        self._queued -= 1
                        request.status = "shed"
                        request.error = ServerBusy(
                            "server stopped before the request ran"
                        )
                        self._shed_stopped += 1
                        self._session_stats(request.session)[
                            "shed_stopped"
                        ] += 1
                        self.obs.metrics.counter(
                            "serving_requests_total", outcome="shed"
                        ).inc()
                        self._emit_shed(request, "stopped", now)
                        self._observe_shed(
                            request, "stopped", now, request.error
                        )
                        request.done.set()
                self._order.clear()
                self._depth_gauge.set(self._queued)
            self._cond.notify_all()
        for thread in self._threads:
            thread.join(timeout)
        self._threads = []
        # Detach (new fetches take the plain path) but keep the object:
        # its stats stay readable through status().
        if self.quepa.runtime.coalescer is self._coalescer:
            self.quepa.runtime.coalescer = None

    # -- submission ----------------------------------------------------------

    def submit(self, request: Request) -> Ticket:
        """Admit (or shed) one request; never blocks on execution.

        Sheds happen here in two ways: a full queue raises
        :class:`ServerBusy`, and a deadline that cannot possibly be met
        (already expired, or at/under :data:`ADMISSION_DEADLINE_FLOOR`
        with every worker busy) raises :class:`RequestDeadlineExceeded`
        *before* the request consumes a queue slot and a worker pickup.
        """
        now = time.monotonic()
        request.submitted_at = now
        if request.trace_id is None:
            request.trace_id = self._trace_ids.next_id()
        with self._cond:
            if not self._running:
                raise ServerBusy("server is not running")
            self._submitted += 1
            stats = self._session_stats(request.session)
            stats["submitted"] += 1
            if self._queued >= self.config.queue_capacity:
                self._shed_queue_full += 1
                stats["shed_queue_full"] += 1
                self._emit_shed(request, "queue_full", now)
                error = ServerBusy(
                    f"admission queue full "
                    f"({self.config.queue_capacity} queued)"
                )
                self._observe_shed(request, "queue_full", now, error)
                raise error
            if self._hopeless_deadline_locked(request.deadline):
                self._shed_deadline_admission += 1
                stats["shed_deadline_admission"] += 1
                request.status = "shed"
                request.error = RequestDeadlineExceeded(
                    f"deadline of {request.deadline:.6f}s cannot be met "
                    f"(all {self.config.workers} workers busy)"
                )
                request.done.set()
                self._emit_shed(request, "deadline_at_admission", now)
                self._observe_shed(
                    request, "deadline_at_admission", now, request.error
                )
                raise request.error
            self._admitted += 1
            stats["admitted"] += 1
            # The request's root span: open for its whole queued+running
            # life, on the scheduler's wall clock (the same timebase
            # RealRuntime contexts stamp their spans with). While it is
            # open the tracer treats the trace as in flight and never
            # evicts it; every way out of the scheduler (_finish_trace,
            # _observe_shed) must therefore end it.
            request.root_span = self.obs.tracer.begin(
                "request",
                now,
                None,
                request.trace_id,
                request_id=request.id,
                session=request.session,
                kind=request.kind,
            )
            queue = self._queues.setdefault(request.session, deque())
            queue.append(request)
            self._queued += 1
            if len(queue) == 1:
                self._order.append(request.session)
            self._depth_gauge.set(self._queued)
            self.obs.metrics.counter(
                "serving_requests_total", outcome="admitted"
            ).inc()
            self.obs.events.emit(
                "request_admitted",
                severity="debug",
                ts=now - self._started_at,
                session=request.session,
                request_id=request.id,
                trace_id=request.trace_id,
                queue_depth=self._queued,
            )
            self._cond.notify()
        return Ticket(request)

    def _hopeless_deadline_locked(self, deadline: float | None) -> bool:
        """Can this deadline not possibly be met? (Shed at admission.)

        True when the deadline is already spent, or is at/under the
        admission floor while every worker is busy — the request would
        sit in the queue at least until a completion, by which point it
        is guaranteed dead. Deadlines above the floor are admitted and
        handled by the pickup-time check (they may still be met).
        """
        if deadline is None:
            return False
        if deadline <= 0:
            return True
        return (
            deadline <= ADMISSION_DEADLINE_FLOOR
            and self._inflight >= self.config.workers
        )

    def next_id(self) -> int:
        return next(self._ids)

    # -- the worker loop -----------------------------------------------------

    def _worker_loop(self) -> None:
        while True:
            request = self._next_request()
            if request is None:
                return
            self._execute(request)

    def _next_request(self) -> Request | None:
        with self._cond:
            while True:
                request = self._pick_locked()
                if request is not None:
                    return request
                if not self._running and (
                    not self._draining or self._queued == 0
                ):
                    return None
                # Precise wakeup: a submit or stop() notifies; until
                # then this worker sleeps — no polling interval to tune.
                self._cond.wait()

    def _pick_locked(self) -> Request | None:
        """Round-robin over sessions; FIFO within each."""
        if not self._order:
            return None
        session = self._order.popleft()
        queue = self._queues[session]
        request = queue.popleft()
        self._queued -= 1
        if queue:
            self._order.append(session)
        self._inflight += 1
        self._depth_gauge.set(self._queued)
        self._inflight_gauge.set(self._inflight)
        return request

    def _execute(self, request: Request) -> None:
        request.started_at = time.monotonic()
        waited = request.started_at - request.submitted_at
        self._wait_hist.observe(waited)
        expired = (
            request.deadline is not None and waited >= request.deadline
        )
        if expired:
            request.status = "shed"
            request.error = RequestDeadlineExceeded(
                f"deadline of {request.deadline:.3f}s expired after "
                f"{waited:.3f}s in queue"
            )
        else:
            request.status = "running"
            try:
                request.answer = self._run(request, waited)
                request.status = "completed"
            except BaseException as exc:  # report, never kill a worker
                request.error = exc
                request.status = "failed"
        request.finished_at = time.monotonic()
        latency = request.finished_at - request.submitted_at
        session = request.session
        with self._cond:
            self._inflight -= 1
            stats = self._session_stats(session)
            if request.status == "completed":
                self._completed += 1
                stats["completed"] += 1
            elif request.status == "shed":
                self._shed_deadline += 1
                stats["shed_deadline"] += 1
            else:
                self._failed += 1
                stats["failed"] += 1
            self._inflight_gauge.set(self._inflight)
        metrics = self.obs.metrics
        metrics.counter(
            "serving_requests_total", outcome=request.status
        ).inc()
        metrics.counter(
            "serving_session_requests_total", session=session
        ).inc()
        if request.status == "completed":
            self._latency_hist.observe(latency)
            metrics.histogram(
                "serving_session_latency_seconds", session=session
            ).observe(latency)
        elif request.status == "shed":
            self._emit_shed(request, "deadline", request.finished_at)
        self._finish_trace(request, waited, latency)
        request.done.set()

    def _run(self, request: Request, waited: float) -> Any:
        config = self._effective_config(request, waited)
        parent = (
            request.root_span.span_id
            if request.root_span is not None
            else None
        )
        if request.kind == "augment":
            # The effective config (deadline folded into the timeout
            # budget) applies to exploration steps exactly as it does
            # to searches — dropping it here silently ignored per-
            # request deadlines on the augment path.
            return self.quepa.serve_augment_object(
                request.key,
                level=request.level,
                config=config,
                trace_id=request.trace_id,
                parent_span=parent,
            )
        # The materialized tier only serves vanilla searches: a custom
        # config or a deadline changes what the planner would produce,
        # so those requests always plan. CDC invalidation keeps entries
        # no staler than the hub's unapplied lag.
        use_materialized = (
            self.materialized is not None
            and request.config is None
            and request.deadline is None
        )
        if use_materialized:
            hit = self.materialized.lookup(
                request.database,
                request.query,
                request.level,
                request.augment,
            )
            if hit is not None:
                return hit
        answer = self.quepa.serve_search(
            request.database,
            request.query,
            level=request.level,
            config=config,
            augment=request.augment,
            trace_id=request.trace_id,
            parent_span=parent,
        )
        if use_materialized:
            self.materialized.observe(
                request.database,
                request.query,
                request.level,
                request.augment,
                answer,
            )
        return answer

    def _effective_config(
        self, request: Request, waited: float
    ) -> AugmentationConfig | None:
        """Fold the remaining deadline into the timeout budget.

        Under :class:`RealRuntime` the execution clock is the wall
        clock, so the budget is the wall time the request has left;
        under virtual runtimes the deadline is interpreted directly as
        a virtual-time budget (queue wait is wall time and does not map
        onto the virtual clock). A request with no deadline keeps its
        config untouched — including ``None``, which preserves the
        optimizer's right to choose.
        """
        if request.deadline is None:
            return request.config
        if isinstance(self.quepa.runtime, RealRuntime):
            budget = max(request.deadline - waited, 1e-9)
        else:
            budget = request.deadline
        base = request.config or self.quepa.config
        if base.timeout_budget is not None:
            budget = min(base.timeout_budget, budget)
        return replace(base, timeout_budget=budget)

    # -- bookkeeping ---------------------------------------------------------

    def _session_stats(self, session: str) -> dict[str, int]:
        stats = self._by_session.get(session)
        if stats is None:
            stats = {
                "submitted": 0,
                "admitted": 0,
                "completed": 0,
                "failed": 0,
                "shed_queue_full": 0,
                "shed_deadline": 0,
                "shed_deadline_admission": 0,
                "shed_stopped": 0,
            }
            self._by_session[session] = stats
        return stats

    def _finish_trace(
        self, request: Request, waited: float, latency: float
    ) -> None:
        """Close the root span and feed the flight recorder.

        Runs after the scheduler's own accounting — purely
        observational, so a recorder left detached skips everything but
        the span close.
        """
        span = request.root_span
        if span is not None:
            span.attrs.update(status=request.status, queue_wait_s=waited)
            self.obs.tracer.end(span, request.finished_at)
            request.root_span = None
        if self.recorder is None:
            return
        if request.trace_id is not None:
            request.breakdown = latency_breakdown(
                self.obs.tracer.spans_for(request.trace_id)
            )
        degraded = bool(
            getattr(getattr(request.answer, "stats", None), "degraded", False)
        )
        self.recorder.observe(
            RequestDigest(
                trace_id=request.trace_id or "",
                request_id=request.id,
                session=request.session,
                kind=request.kind,
                status=request.status,
                shed_reason=(
                    "deadline" if request.status == "shed" else None
                ),
                degraded=degraded,
                queue_wait_s=waited,
                latency_s=latency,
                error=(
                    str(request.error)
                    if request.error is not None
                    else None
                ),
                breakdown=request.breakdown,
            )
        )

    def _observe_shed(
        self,
        request: Request,
        reason: str,
        now: float,
        error: BaseException | None,
    ) -> None:
        """One digest for a request shed outside the execution path."""
        span = request.root_span
        if span is not None:
            span.attrs.update(status="shed", shed_reason=reason)
            self.obs.tracer.end(span, now)
            request.root_span = None
        if self.recorder is None:
            return
        waited = max(now - request.submitted_at, 0.0)
        self.recorder.observe(
            RequestDigest(
                trace_id=request.trace_id or "",
                request_id=request.id,
                session=request.session,
                kind=request.kind,
                status="shed",
                shed_reason=reason,
                queue_wait_s=waited,
                latency_s=waited,
                error=str(error) if error is not None else None,
            )
        )

    def _emit_shed(self, request: Request, reason: str, now: float) -> None:
        self.obs.metrics.counter(
            "serving_shed_total", reason=reason
        ).inc()
        self.obs.events.emit(
            "request_shed",
            severity="warning",
            ts=max(now - self._started_at, 0.0),
            session=request.session,
            request_id=request.id,
            trace_id=request.trace_id,
            reason=reason,
        )

    def status(self) -> dict[str, Any]:
        """Queue/worker/session state, JSON-ready, totals reconciled."""
        with self._cond:
            uptime = (
                time.monotonic() - self._started_at
                if self._started_at
                else 0.0
            )
            totals = {
                "submitted": self._submitted,
                "admitted": self._admitted,
                "shed": {
                    "queue_full": self._shed_queue_full,
                    "deadline": self._shed_deadline,
                    "deadline_at_admission": (
                        self._shed_deadline_admission
                    ),
                    "stopped": self._shed_stopped,
                },
                "completed": self._completed,
                "failed": self._failed,
            }
            sessions = {
                name: dict(stats)
                for name, stats in sorted(self._by_session.items())
            }
            queued_by_session = {
                name: len(queue) for name, queue in self._queues.items()
            }
            report = {
                "running": self._running,
                "workers": self.config.workers,
                "queue_capacity": self.config.queue_capacity,
                "uptime_s": uptime,
                "queue_depth": self._queued,
                "inflight": self._inflight,
                "totals": totals,
                # The benchmark spine reads this key and its
                # {"coalesce": ...} shape.
                "accelerator": (
                    {"coalesce": self._coalescer.stats()}
                    if self._coalescer is not None
                    else None
                ),
                "recorder": (
                    self.recorder.stats()
                    if self.recorder is not None
                    else None
                ),
            }
        metrics = self.obs.metrics
        latency = metrics.histogram("serving_latency_seconds")
        report["latency_s"] = {
            "p50": latency.percentile(0.50),
            "p95": latency.percentile(0.95),
            "p99": latency.percentile(0.99),
            "mean": latency.mean(),
            "count": latency.count,
        }
        for name, stats in sessions.items():
            stats["queued"] = queued_by_session.get(name, 0)
            stats["qps"] = (
                stats["completed"] / uptime if uptime > 0 else 0.0
            )
            hist = metrics.histogram(
                "serving_session_latency_seconds", session=name
            )
            stats["latency_s"] = {
                "p50": hist.percentile(0.50),
                "p95": hist.percentile(0.95),
                "p99": hist.percentile(0.99),
            }
        report["sessions"] = sessions
        return report


class QuepaServer:
    """The serving front end: a scheduler plus a client-facing API.

    One ``QuepaServer`` wraps one shared :class:`Quepa` instance.
    Usable as a context manager::

        with QuepaServer(quepa, ServingConfig(workers=8)) as server:
            answer = server.search("s1", "mysql", "SELECT ...", level=1)
    """

    def __init__(
        self, quepa: Quepa, config: ServingConfig | None = None
    ) -> None:
        self.quepa = quepa
        self.config = config or ServingConfig()
        self.scheduler = Scheduler(quepa, self.config)

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> "QuepaServer":
        self.scheduler.start()
        return self

    def stop(self, drain: bool = True, timeout: float = 30.0) -> None:
        self.scheduler.stop(drain=drain, timeout=timeout)

    def __enter__(self) -> "QuepaServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # -- client API ----------------------------------------------------------

    def submit_search(
        self,
        session: str,
        database: str,
        query: Any,
        level: int = 0,
        config: AugmentationConfig | None = None,
        augment: bool = True,
        deadline: float | None = None,
    ) -> Ticket:
        """Queue an augmented search; raises :class:`ServerBusy` if shed."""
        request = Request(
            self.scheduler.next_id(),
            session,
            "search",
            database=database,
            query=query,
            level=level,
            config=config,
            augment=augment,
            deadline=deadline,
        )
        return self.scheduler.submit(request)

    def search(
        self,
        session: str,
        database: str,
        query: Any,
        level: int = 0,
        config: AugmentationConfig | None = None,
        augment: bool = True,
        deadline: float | None = None,
        timeout: float | None = None,
    ) -> Any:
        """Submit and wait: the synchronous client call."""
        ticket = self.submit_search(
            session, database, query,
            level=level, config=config, augment=augment, deadline=deadline,
        )
        return ticket.result(timeout)

    def submit_augment(
        self,
        session: str,
        key: GlobalKey,
        level: int = 0,
        config: AugmentationConfig | None = None,
        deadline: float | None = None,
    ) -> Ticket:
        """Queue one exploration step (augment a single object)."""
        request = Request(
            self.scheduler.next_id(),
            session,
            "augment",
            key=key,
            level=level,
            config=config,
            deadline=deadline,
        )
        return self.scheduler.submit(request)

    def augment(
        self,
        session: str,
        key: GlobalKey,
        level: int = 0,
        config: AugmentationConfig | None = None,
        deadline: float | None = None,
        timeout: float | None = None,
    ) -> Any:
        ticket = self.submit_augment(
            session, key, level=level, config=config, deadline=deadline,
        )
        return ticket.result(timeout)

    def status(self) -> dict[str, Any]:
        return self.scheduler.status()

    def records(self, **filters: Any) -> list[dict[str, Any]]:
        """Flight-recorder digests (empty when the recorder is off)."""
        recorder = self.scheduler.recorder
        return recorder.as_dicts(**filters) if recorder is not None else []
