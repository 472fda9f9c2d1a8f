"""Property tests: serving is answer-preserving and accountable.

The serving layer adds scheduling, not semantics. For a seeded workload
the properties are:

1. **Equivalence** — every request that completes under concurrency K
   returns exactly the answer the same request returns when executed
   sequentially (order-insensitive object-for-object match).
2. **Shed-only-missing** — requests the server shed (queue full or
   deadline expired) are the *only* ones without answers; nothing else
   is dropped and nothing fails.
3. **Reconciliation** — the scheduler's meters add up exactly:
   ``submitted == admitted + shed(queue_full) +
   shed(deadline_at_admission)`` and, at quiescence, ``admitted ==
   completed + failed + shed(deadline) + shed(stopped)``; the
   client-side view agrees with the server-side counters.
4. **Coalescing is invisible** — single-flight coalescing changes
   latency and physical call counts, never answers: every completed
   request still matches its sequential reference, even on
   duplicate-laden workloads built to maximize flight sharing, and
   under seeded chaos with open breakers an answer is only ever a
   degraded subset of its reference, never a torn one.
"""

from __future__ import annotations

import random
import threading

import pytest

from repro.core import Quepa
from repro.core.augmentation import AugmentationConfig
from repro.errors import ServerBusy, ServingError
from repro.faults import FaultInjector, ResilienceConfig
from repro.network import RealRuntime, centralized_profile
from repro.serving import QuepaServer, ServingConfig
from repro.workloads import PolystoreScale, build_polyphony
from repro.workloads.queries import QueryWorkload


@pytest.fixture(scope="module")
def props_bundle():
    return build_polyphony(
        stores=4, scale=PolystoreScale(n_albums=60), seed=13
    )


def _real_quepa(bundle) -> Quepa:
    profile = centralized_profile(list(bundle.polystore))
    return Quepa(
        bundle.polystore,
        bundle.aindex,
        profile=profile,
        runtime=RealRuntime(profile),
    )


def _plan_requests(bundle, seed: int, count: int):
    """A seeded flat list of (database, query, level) requests."""
    workload = QueryWorkload(bundle)
    rng = random.Random(f"{seed}:serving-props")
    databases = [name for name, _ in bundle.databases]
    plan = []
    for _ in range(count):
        database = rng.choice(databases)
        size = rng.choice((8, 12, 16))
        level = rng.choice((0, 1, 2))
        query = workload.query(database, size, variant=rng.randrange(4))
        plan.append((database, query.query, level))
    return plan


def _signature(answer):
    return (
        frozenset(str(o.key) for o in answer.originals),
        frozenset(
            (str(a.key), round(a.probability, 12)) for a in answer.augmented
        ),
    )


def _run_concurrently(
    bundle,
    plan,
    config: ServingConfig,
    clients: int,
    deadline: float | None = None,
):
    """Fan the plan out over ``clients`` threads, each request with
    ``deadline``; collect per-request outcomes as (index, status,
    signature-or-None)."""
    quepa = _real_quepa(bundle)
    outcomes: list[tuple[int, str, object]] = []
    lock = threading.Lock()
    with QuepaServer(quepa, config) as server:

        def client(worker: int) -> None:
            for index in range(worker, len(plan), clients):
                database, query, level = plan[index]
                try:
                    answer = server.search(
                        f"client-{worker}",
                        database,
                        query,
                        level=level,
                        deadline=deadline,
                    )
                except (ServerBusy, ServingError):
                    with lock:
                        outcomes.append((index, "shed", None))
                    continue
                except Exception as exc:  # property 2: nothing may fail
                    with lock:
                        outcomes.append((index, "failed", repr(exc)))
                    continue
                with lock:
                    outcomes.append(
                        (index, "completed", _signature(answer))
                    )

        threads = [
            threading.Thread(target=client, args=(i,))
            for i in range(clients)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        status = server.status()
    return outcomes, status


@pytest.mark.parametrize("seed,clients", [(0, 4), (1, 8)])
def test_concurrent_answers_equal_sequential(props_bundle, seed, clients):
    plan = _plan_requests(props_bundle, seed=seed, count=40)

    # Sequential reference: same requests, one at a time.
    sequential = _real_quepa(props_bundle)
    reference = [
        _signature(
            sequential.serve_search(database, query, level=level)
        )
        for database, query, level in plan
    ]

    outcomes, status = _run_concurrently(
        props_bundle,
        plan,
        ServingConfig(workers=clients, queue_capacity=len(plan)),
        clients,
    )

    assert len(outcomes) == len(plan)
    failures = [o for o in outcomes if o[1] == "failed"]
    assert not failures, f"requests failed under concurrency: {failures}"
    # Ample queue: nothing shed, so every single answer must match.
    assert all(outcome[1] == "completed" for outcome in outcomes)
    for index, _, signature in outcomes:
        assert signature == reference[index], (
            f"request {index} answered differently under concurrency"
        )
    totals = status["totals"]
    assert totals["submitted"] == len(plan)
    assert totals["completed"] == len(plan)
    assert totals["failed"] == 0


def test_shed_requests_are_the_only_missing_ones(props_bundle):
    plan = _plan_requests(props_bundle, seed=2, count=60)
    sequential = _real_quepa(props_bundle)
    reference = [
        _signature(sequential.serve_search(db, q, level=lvl))
        for db, q, lvl in plan
    ]

    # A deliberately tiny server: 1 worker, 2 queue slots, 8 clients —
    # shedding is expected, data loss is not.
    outcomes, status = _run_concurrently(
        props_bundle,
        plan,
        ServingConfig(workers=1, queue_capacity=2),
        clients=8,
    )

    assert len(outcomes) == len(plan)
    by_status: dict[str, list] = {"completed": [], "shed": [], "failed": []}
    for outcome in outcomes:
        by_status[outcome[1]].append(outcome)
    assert not by_status["failed"]
    # Completed answers are exact; shed ones are absent, not torn.
    for index, _, signature in by_status["completed"]:
        assert signature == reference[index]
    assert (
        len(by_status["completed"]) + len(by_status["shed"]) == len(plan)
    )

    totals = status["totals"]
    shed = totals["shed"]
    assert totals["submitted"] == len(plan)
    assert totals["submitted"] == (
        totals["admitted"]
        + shed["queue_full"]
        + shed["deadline_at_admission"]
    )
    assert totals["admitted"] == (
        totals["completed"]
        + totals["failed"]
        + shed["deadline"]
        + shed["stopped"]
    )
    # Client-side view agrees with the server-side meters.
    assert len(by_status["completed"]) == totals["completed"]
    assert len(by_status["shed"]) == (
        shed["queue_full"]
        + shed["deadline"]
        + shed["deadline_at_admission"]
    )


def test_meters_reconcile_under_deadlines(props_bundle):
    """Deadline shedding is metered exactly like queue-full shedding."""
    plan = _plan_requests(props_bundle, seed=3, count=30)
    outcomes, status = _run_concurrently(
        props_bundle,
        plan,
        ServingConfig(workers=2, queue_capacity=len(plan)),
        clients=6,
        deadline=1e-9,  # everything expires while queued
    )
    assert len(outcomes) == len(plan)
    assert not [o for o in outcomes if o[1] == "failed"]
    totals = status["totals"]
    shed = totals["shed"]
    assert totals["submitted"] == len(plan)
    assert totals["submitted"] == (
        totals["admitted"]
        + shed["queue_full"]
        + shed["deadline_at_admission"]
    )
    assert totals["admitted"] == (
        totals["completed"]
        + totals["failed"]
        + shed["deadline"]
        + shed["stopped"]
    )
    shed_client_side = sum(1 for o in outcomes if o[1] == "shed")
    assert shed_client_side == (
        shed["queue_full"]
        + shed["deadline"]
        + shed["deadline_at_admission"]
    )
    # With a nanosecond deadline every request is hopeless: it sheds
    # either at admission (workers all busy) or at pickup.
    assert shed["deadline"] + shed["deadline_at_admission"] >= 1


# -- acceleration equivalence -------------------------------------------------


def _duplicate_plan(bundle, seed: int, unique: int, copies: int):
    """A plan with each request repeated ``copies`` times, shuffled:
    concurrent clients then issue identical queries at the same time —
    the exact workload single-flight coalescing targets."""
    base = _plan_requests(bundle, seed=seed, count=unique)
    plan = base * copies
    random.Random(f"{seed}:duplicates").shuffle(plan)
    return plan


def test_coalesced_answers_equal_sequential(props_bundle):
    """Single-flight sharing never changes an answer, even when the
    plan is built almost entirely of identical concurrent requests."""
    plan = _duplicate_plan(props_bundle, seed=4, unique=10, copies=4)
    sequential = _real_quepa(props_bundle)
    reference = [
        _signature(sequential.serve_search(db, q, level=lvl))
        for db, q, lvl in plan
    ]
    outcomes, status = _run_concurrently(
        props_bundle,
        plan,
        ServingConfig(workers=8, queue_capacity=len(plan)),
        clients=8,
    )
    assert len(outcomes) == len(plan)
    assert all(outcome[1] == "completed" for outcome in outcomes)
    for index, _, signature in outcomes:
        assert signature == reference[index], (
            f"request {index} answered differently when coalesced"
        )
    accelerator = status["accelerator"]
    assert accelerator is not None
    assert accelerator["coalesce"]["leaders"] >= 1


@pytest.mark.chaos
def test_hedging_with_chaos_and_open_breakers(props_bundle):
    """Seeded chaos: one store fails half its calls and its breaker
    trips open while identical concurrent requests share flights. The
    server must survive with reconciled meters and degraded (never
    torn) answers: the originals of the fault-free reference, and a
    subset of its augmented objects. (The id predates the removal of
    hedged store calls.)"""
    databases = [name for name, _ in props_bundle.databases]
    injector = FaultInjector(seed=7)
    injector.inject(databases[0], kind="fail", rate=0.5)
    profile = centralized_profile(list(props_bundle.polystore))
    quepa = Quepa(
        props_bundle.polystore,
        props_bundle.aindex,
        profile=profile,
        runtime=RealRuntime(profile),
        resilience=ResilienceConfig(
            retry_max_attempts=1, breaker_failure_threshold=3
        ),
        faults=injector,
    )
    # Queries target the healthy stores only — the chaotic store is
    # still exercised through augmentation fetches (p-relations cross
    # stores), which is where coalescing and breakers live.
    workload = QueryWorkload(props_bundle)
    rng = random.Random("serving-chaos-plan")
    base = []
    for _ in range(12):
        database = rng.choice(databases[1:])
        query = workload.query(
            database, rng.choice((8, 12, 16)), variant=rng.randrange(4)
        )
        base.append((database, query.query, rng.choice((1, 2))))
    plan = base * 3
    rng.shuffle(plan)
    # Degrade instead of failing: faults on the chaotic store surface
    # as partial answers, so every request either completes or sheds.
    degrade = AugmentationConfig(skip_unavailable=True)
    config = ServingConfig(workers=8, queue_capacity=len(plan))
    fault_free = _real_quepa(props_bundle)
    reference = [
        _signature(fault_free.serve_search(db, q, level=lvl))
        for db, q, lvl in plan
    ]
    completed = 0
    failed: list = []
    torn: list = []
    lock = threading.Lock()
    with QuepaServer(quepa, config) as server:

        def client(worker: int) -> None:
            nonlocal completed
            for index in range(worker, len(plan), 6):
                database, query, level = plan[index]
                try:
                    answer = server.search(
                        f"chaos-{worker}",
                        database,
                        query,
                        level=level,
                        config=degrade,
                    )
                except (ServerBusy, ServingError):
                    continue
                except Exception as exc:  # noqa: BLE001
                    with lock:
                        failed.append((index, repr(exc)))
                    continue
                originals, augmented = _signature(answer)
                expected = reference[index]
                with lock:
                    completed += 1
                    if originals != expected[0] or not augmented <= expected[1]:
                        torn.append(index)

        threads = [
            threading.Thread(target=client, args=(i,)) for i in range(6)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        status = server.status()

    assert not failed, f"chaos leaked client-visible failures: {failed}"
    assert not torn, f"answers outside their fault-free reference: {torn}"
    assert completed >= 1
    totals = status["totals"]
    shed = totals["shed"]
    assert totals["submitted"] == len(plan)
    assert totals["submitted"] == (
        totals["admitted"]
        + shed["queue_full"]
        + shed["deadline_at_admission"]
    )
    assert totals["admitted"] == (
        totals["completed"]
        + totals["failed"]
        + shed["deadline"]
        + shed["stopped"]
    )
    coalesce = status["accelerator"]["coalesce"]
    assert coalesce["leaders"] >= 1
    assert coalesce["wait_timeouts"] == 0, "a leader wedged"
    breaker = quepa.fault_report()["resilience"]["breakers"][databases[0]]
    assert breaker["trips"] >= 1, "the chaotic store's breaker never opened"
