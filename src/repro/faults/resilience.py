"""Resilience at the store boundary: retries, breakers, degradation.

A :class:`ResilienceManager` (one per :class:`~repro.core.system.Quepa`,
reached from connectors) wraps every store call with:

* **retry with exponential backoff + jitter** — virtual-time aware: the
  wait is charged through ``ctx.sleep`` so backoff shows up on the
  virtual clock (deterministically, from a seeded RNG) instead of
  wall-clock sleeping;
* **a per-store circuit breaker** — ``closed -> open`` after
  ``failure_threshold`` consecutive failures, ``open -> half_open``
  once ``recovery_timeout`` (runtime-clock) seconds have passed,
  ``half_open -> closed`` after ``half_open_max_calls`` successful
  probes. Trips and recoveries are emitted as events in the journal
  (``breaker_open`` / ``breaker_half_open`` / ``breaker_closed``).

The timeout budget and graceful degradation live one level up, in
:class:`~repro.core.augmenters.base.Augmenter` — see docs/RESILIENCE.md
for the full fault model.
"""

from __future__ import annotations

import random
import threading
from dataclasses import asdict, dataclass

from repro.errors import CircuitOpenError, StoreError


@dataclass(frozen=True)
class ResilienceConfig:
    """Knobs of the resilience layer (documented in docs/API.md)."""

    #: Total attempts per store call (1 = no retry).
    retry_max_attempts: int = 3
    #: Backoff before attempt ``k`` is ``base * multiplier**(k-1) *
    #: (1 + jitter * U)`` with ``U`` drawn from the seeded RNG.
    retry_base_delay: float = 0.05
    retry_multiplier: float = 2.0
    retry_jitter: float = 0.0
    retry_seed: int = 0
    #: Consecutive failures that trip a breaker open.
    breaker_failure_threshold: int = 5
    #: Runtime-clock seconds an open breaker waits before half-open.
    breaker_recovery_timeout: float = 1.0
    #: Successful half-open probes required to close again.
    breaker_half_open_max_calls: int = 1
    #: Arm graceful degradation: augmentations skip unreachable stores
    #: and report them instead of raising.
    degrade: bool = True

    def __post_init__(self) -> None:
        if self.retry_max_attempts < 1:
            raise ValueError("retry_max_attempts must be >= 1")
        if self.retry_base_delay < 0 or self.retry_jitter < 0:
            raise ValueError("retry delays must be >= 0")
        if self.retry_multiplier <= 0:
            raise ValueError("retry_multiplier must be > 0")
        if self.breaker_failure_threshold < 1:
            raise ValueError("breaker_failure_threshold must be >= 1")
        if self.breaker_recovery_timeout < 0:
            raise ValueError("breaker_recovery_timeout must be >= 0")
        if self.breaker_half_open_max_calls < 1:
            raise ValueError("breaker_half_open_max_calls must be >= 1")


class CircuitBreaker:
    """Per-store closed/open/half-open breaker on the runtime's clock."""

    CLOSED, OPEN, HALF_OPEN = "closed", "open", "half_open"

    def __init__(
        self,
        database: str,
        failure_threshold: int = 5,
        recovery_timeout: float = 1.0,
        half_open_max_calls: int = 1,
        emit=None,
    ) -> None:
        self.database = database
        self.failure_threshold = failure_threshold
        self.recovery_timeout = recovery_timeout
        self.half_open_max_calls = half_open_max_calls
        self._emit = emit
        self._lock = threading.Lock()
        self._state = self.CLOSED
        self._consecutive_failures = 0
        self._opened_at = 0.0
        self._half_open_inflight = 0
        self._half_open_successes = 0
        self.trips = 0
        self.recoveries = 0

    @property
    def state(self) -> str:
        with self._lock:
            return self._state

    def allow(self, now: float, trace_id: str | None = None) -> bool:
        """May a call go out right now? (May move open -> half-open.)"""
        with self._lock:
            if self._state == self.CLOSED:
                return True
            if self._state == self.OPEN:
                if now < self._opened_at + self.recovery_timeout:
                    return False
                self._state = self.HALF_OPEN
                self._half_open_inflight = 0
                self._half_open_successes = 0
                self._event(
                    "breaker_half_open", now, trace_id=trace_id
                )
            if self._half_open_inflight >= self.half_open_max_calls:
                return False
            self._half_open_inflight += 1
            return True

    def record_success(
        self, now: float, trace_id: str | None = None
    ) -> None:
        with self._lock:
            if self._state == self.HALF_OPEN:
                self._release_probe_locked()
                self._half_open_successes += 1
                if self._half_open_successes >= self.half_open_max_calls:
                    self._state = self.CLOSED
                    self._consecutive_failures = 0
                    self.recoveries += 1
                    self._event(
                        "breaker_closed",
                        now,
                        recovered=True,
                        trace_id=trace_id,
                    )
            else:
                self._consecutive_failures = 0

    def record_failure(
        self, now: float, trace_id: str | None = None
    ) -> None:
        with self._lock:
            if self._state == self.HALF_OPEN:
                self._release_probe_locked()
                self._trip(now, reopened=True, trace_id=trace_id)
                return
            if self._state == self.OPEN:
                return
            self._consecutive_failures += 1
            if self._consecutive_failures >= self.failure_threshold:
                self._trip(now, trace_id=trace_id)

    def release(self, now: float) -> None:
        """Return a half-open probe slot without a verdict.

        Called when an admitted call dies of something that is not a
        store error (a cancelled worker, an unrelated exception), so
        the probe neither succeeded nor failed. Without this, every
        such call leaks one ``_half_open_inflight`` slot; with
        ``half_open_max_calls`` slots leaked the breaker would refuse
        all probes and wedge half-open forever under concurrency.
        """
        with self._lock:
            if self._state == self.HALF_OPEN:
                self._release_probe_locked()

    def _release_probe_locked(self) -> None:
        # Probe slots count calls *in flight*, so every admitted probe
        # must give its slot back exactly once, whatever its outcome.
        # A verdict may also land after another thread already closed
        # or re-tripped the breaker (slots were reset); the floor at
        # zero makes such late verdicts harmless.
        if self._half_open_inflight > 0:
            self._half_open_inflight -= 1

    def _trip(
        self,
        now: float,
        reopened: bool = False,
        trace_id: str | None = None,
    ) -> None:
        self._state = self.OPEN
        self._opened_at = now
        self._consecutive_failures = 0
        self.trips += 1
        self._event(
            "breaker_open", now, reopened=reopened, trace_id=trace_id
        )

    def _event(self, kind: str, now: float, **attrs) -> None:
        if self._emit is not None:
            # The transition is a store-level fact; the trace id (when
            # present) names the request whose call tipped it over.
            if attrs.get("trace_id") is None:
                attrs.pop("trace_id", None)
            self._emit(kind, now, self.database, **attrs)

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "database": self.database,
                "state": self._state,
                "consecutive_failures": self._consecutive_failures,
                "opened_at": self._opened_at,
                "trips": self.trips,
                "recoveries": self.recoveries,
                "failure_threshold": self.failure_threshold,
                "recovery_timeout": self.recovery_timeout,
            }


class ResilienceManager:
    """Retry + breaker execution of store calls, shared per system.

    ``call`` preserves the :class:`~repro.network.executor.ExecContext`
    contract: cost accounting still flows through ``ctx.store_call``,
    so both runtimes charge every attempt (and every backoff wait)
    on their own clock.
    """

    def __init__(self, config: ResilienceConfig | None = None, obs=None) -> None:
        self.config = config or ResilienceConfig()
        self._obs = obs
        self._breakers: dict[str, CircuitBreaker] = {}
        self._retry_rngs: dict[str, random.Random] = {}
        self._retries: dict[str, int] = {}
        self._fast_fails: dict[str, int] = {}
        self._lock = threading.Lock()

    def bind(self, obs) -> None:
        """Attach the journal/metrics bundle events are reported to."""
        self._obs = obs

    # -- execution -----------------------------------------------------------

    def call(self, ctx, database: str, fn, query=None):
        """Run one store call under the retry + breaker policy."""
        breaker = self.breaker(database)
        trace_id = getattr(ctx, "_trace_id", None)
        if not breaker.allow(ctx.now, trace_id=trace_id):
            self._count_fast_fail(database)
            raise CircuitOpenError(
                f"{database}: circuit breaker is open", database
            )
        attempt = 1
        while True:
            try:
                results = ctx.store_call(database, fn, query)
            except StoreError as exc:
                breaker.record_failure(ctx.now, trace_id=trace_id)
                if (
                    attempt >= self.config.retry_max_attempts
                    or not breaker.allow(ctx.now, trace_id=trace_id)
                ):
                    raise
                delay = self.backoff_delay(database, attempt)
                self._count_retry(
                    database, attempt, delay, ctx.now, exc,
                    trace_id=trace_id,
                )
                ctx.sleep(delay)
                attempt += 1
                continue
            except BaseException:
                # Not a store verdict (worker cancelled, unrelated bug):
                # give any half-open probe slot back so the breaker
                # cannot wedge with phantom in-flight probes.
                breaker.release(ctx.now)
                raise
            breaker.record_success(ctx.now, trace_id=trace_id)
            return results

    def backoff_delay(self, database: str, attempt: int) -> float:
        """The wait before retry ``attempt`` (1-based), deterministic.

        Each database consumes its own seeded RNG in retry order, so a
        rerun of the same schedule reproduces the same jitter — and a
        test can replay ``random.Random(f"{seed}:{database}:retry")``
        to predict the exact virtual-time waits.
        """
        config = self.config
        delay = config.retry_base_delay * config.retry_multiplier ** (
            attempt - 1
        )
        if config.retry_jitter:
            with self._lock:
                rng = self._retry_rngs.get(database)
                if rng is None:
                    rng = random.Random(
                        f"{config.retry_seed}:{database}:retry"
                    )
                    self._retry_rngs[database] = rng
                delay *= 1.0 + config.retry_jitter * rng.random()
        return delay

    # -- internals -----------------------------------------------------------

    def breaker(self, database: str) -> CircuitBreaker:
        with self._lock:
            breaker = self._breakers.get(database)
            if breaker is None:
                breaker = CircuitBreaker(
                    database,
                    failure_threshold=self.config.breaker_failure_threshold,
                    recovery_timeout=self.config.breaker_recovery_timeout,
                    half_open_max_calls=(
                        self.config.breaker_half_open_max_calls
                    ),
                    emit=self._breaker_event,
                )
                self._breakers[database] = breaker
            return breaker

    def _breaker_event(
        self, kind: str, now: float, database: str, **attrs
    ) -> None:
        obs = self._obs
        if obs is None:
            return
        severity = "warning" if kind == "breaker_open" else "info"
        obs.events.emit(
            kind, severity=severity, ts=now, database=database, **attrs
        )
        obs.metrics.counter(
            "breaker_transitions_total", database=database, to=kind
        ).inc()

    def _count_retry(
        self,
        database: str,
        attempt: int,
        delay: float,
        now: float,
        exc,
        trace_id: str | None = None,
    ) -> None:
        with self._lock:
            self._retries[database] = self._retries.get(database, 0) + 1
        obs = self._obs
        if obs is not None:
            obs.metrics.counter(
                "store_retries_total", database=database
            ).inc()
            extra = {} if trace_id is None else {"trace_id": trace_id}
            obs.events.emit(
                "retry",
                severity="debug",
                ts=now,
                database=database,
                attempt=attempt,
                delay_s=delay,
                error=str(exc),
                **extra,
            )

    def _count_fast_fail(self, database: str) -> None:
        with self._lock:
            self._fast_fails[database] = (
                self._fast_fails.get(database, 0) + 1
            )
        obs = self._obs
        if obs is not None:
            obs.metrics.counter(
                "breaker_fast_fails_total", database=database
            ).inc()

    # -- inspection ----------------------------------------------------------

    def snapshot(self) -> dict:
        """Config + breaker states + retry counters, JSON-ready."""
        with self._lock:
            breakers = {
                database: breaker.snapshot()
                for database, breaker in sorted(self._breakers.items())
            }
            return {
                "config": asdict(self.config),
                "breakers": breakers,
                "retries_by_database": dict(sorted(self._retries.items())),
                "fast_fails_by_database": dict(
                    sorted(self._fast_fails.items())
                ),
            }
