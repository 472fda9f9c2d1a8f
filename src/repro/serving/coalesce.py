"""Single-flight coalescing of identical concurrent store fetches.

Under concurrent load many sessions traverse the same hot A' index
neighborhoods, so their augmenters issue the *same* ``multi_get``
keysets against the same stores at the same time (PAPER.md §III; the
pattern BigDAWG's shared query endpoint exploits). Executing each copy
separately wastes store roundtrips and serializes on the store's engine
lock. :class:`SingleFlight` deduplicates them. The scheduler attaches
one to a :class:`~repro.network.executor.RealRuntime` as
``runtime.coalescer`` for a server's lifetime and connectors call
:meth:`SingleFlight.fetch` for every ``multi_get``; virtual runtimes
never get one, so the virtual-time figures stay bit-identical.

* Flights are keyed on ``(database, frozenset(keys))``. The first
  caller for a keyset becomes the **leader** and issues the physical
  call through the normal connector path — the cache, faults, metering
  and obs layers see exactly one logical call.
* Concurrent callers for the same keyset become **followers**: they
  wait on the leader's flight and share its result (each follower gets
  its own shallow copy of the result list; the leader's
  ``last_call_truncated`` verdict is propagated so truncated keys stay
  out of the followers' lazy-deletion accounting too).
* **Subset sharing**: a caller whose keyset is a subset of an already
  in-flight keyset joins that flight and filters the result down to its
  own keys — a cheap win because ``multi_get`` answers carry the key on
  every object.
* Flights are removed the moment the leader finishes: this is request
  coalescing, not a cache. A later identical fetch starts a new flight
  and sees fresh store state.

Errors propagate to followers as *clones* of the leader's exception
(:func:`repro.errors.clone_exception`), so concurrent re-raises never
race on one traceback. A follower whose leader wedges past
``wait_timeout`` falls back to issuing its own call rather than hanging
a session forever.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Iterable

from repro.errors import clone_exception


class _Flight:
    """One in-flight physical fetch, shared leader-to-followers."""

    __slots__ = (
        "keys", "done", "result", "error", "truncated",
        "leader_trace", "leader_span",
    )

    def __init__(self, keys: frozenset) -> None:
        self.keys = keys
        self.done = threading.Event()
        self.result: list[Any] | None = None
        self.error: BaseException | None = None
        self.truncated = False
        #: The leader's trace id / active span id, read by followers to
        #: link their ``coalesce_wait`` span to the flight they shared.
        self.leader_trace: str | None = None
        self.leader_span: int | None = None


class SingleFlight:
    """Coalesce identical (and subset) concurrent fetches per database."""

    def __init__(self, metrics=None, wait_timeout: float = 30.0) -> None:
        self._lock = threading.Lock()
        #: database -> {keyset -> flight} for calls currently in flight.
        self._flights: dict[str, dict[frozenset, _Flight]] = {}
        self._wait_timeout = wait_timeout
        self._leaders = 0
        self._followers = 0
        self._subset_joins = 0
        self._timeouts = 0
        self._metrics = metrics

    # -- the coalescing fetch ------------------------------------------------

    def fetch(
        self,
        ctx,
        database: str,
        keys: Iterable,
        issue: Callable[[Any], Iterable],
    ) -> list:
        """Fetch ``keys`` from ``database``, sharing concurrent flights.

        ``issue(ctx)`` performs the physical call (resilience + store
        charging included); it runs at most once per flight.
        """
        keyset = frozenset(keys)
        subset = False
        with self._lock:
            flights = self._flights.setdefault(database, {})
            flight = flights.get(keyset)
            if flight is None:
                for candidate in flights.values():
                    if keyset < candidate.keys:
                        flight = candidate
                        subset = True
                        break
            if flight is None:
                flight = _Flight(keyset)
                flights[keyset] = flight
                leader = True
            else:
                leader = False
        if leader:
            return self._lead(ctx, database, keyset, flight, issue)
        return self._follow(ctx, keyset, flight, subset, issue)

    def _lead(self, ctx, database, keyset, flight, issue) -> list:
        flight.leader_trace = getattr(ctx, "_trace_id", None)
        flight.leader_span = getattr(ctx, "_span_id", None)
        try:
            result = list(issue(ctx))
            flight.result = result
            flight.truncated = bool(
                getattr(ctx, "last_call_truncated", False)
            )
        except BaseException as exc:
            flight.error = exc
            raise
        finally:
            # Deregister *before* waking followers so a fetch arriving
            # after completion starts a fresh flight (no stale reuse),
            # then publish the verdict.
            with self._lock:
                flights = self._flights.get(database)
                if flights is not None and flights.get(keyset) is flight:
                    del flights[keyset]
                self._leaders += 1
            flight.done.set()
            self._count("leader")
        return result

    def _follow(self, ctx, keyset, flight, subset, issue) -> list:
        obs = getattr(ctx, "obs", None)
        waited_from = ctx.now if obs is not None else 0.0
        if not flight.done.wait(self._wait_timeout):
            # Defensive: never let a wedged leader hang a session.
            with self._lock:
                self._timeouts += 1
            self._count("timeout")
            return list(issue(ctx))
        if obs is not None:
            # The follower's side of the link: one span covering the
            # wait, tagged with the leader it shared a flight with —
            # this is what stitches two requests' traces together.
            obs.tracer.record(
                "coalesce_wait",
                waited_from,
                ctx.now,
                getattr(ctx, "_span_id", None),
                getattr(ctx, "_trace_id", None),
                leader_trace=flight.leader_trace,
                leader_span=flight.leader_span,
                subset=subset,
                keys=len(keyset),
            )
        if flight.error is not None:
            raise clone_exception(flight.error) from flight.error
        ctx.last_call_truncated = flight.truncated
        with self._lock:
            self._followers += 1
            if subset:
                self._subset_joins += 1
        self._count("follower")
        assert flight.result is not None
        if subset:
            return [obj for obj in flight.result if obj.key in keyset]
        return list(flight.result)

    # -- accounting ----------------------------------------------------------

    def _count(self, outcome: str) -> None:
        if self._metrics is not None:
            self._metrics.counter(
                "serving_coalesce_total", outcome=outcome
            ).inc()

    def stats(self) -> dict[str, Any]:
        """Leader/follower tallies; ``hit_rate`` = shared / all fetches."""
        with self._lock:
            leaders = self._leaders
            followers = self._followers
            subset_joins = self._subset_joins
            timeouts = self._timeouts
        total = leaders + followers
        return {
            "leaders": leaders,
            "followers": followers,
            "subset_joins": subset_joins,
            "wait_timeouts": timeouts,
            "hit_rate": followers / total if total else 0.0,
        }
