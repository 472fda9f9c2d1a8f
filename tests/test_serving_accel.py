"""Unit tests of single-flight coalescing (``repro.serving.coalesce``)
and of how the scheduler attaches it to a runtime.

The coalescer is tested against small stubs so every interleaving is
forced explicitly (gates and semaphores, not sleeps on the happy path);
the attachment lifecycle is tested against real servers/runtimes.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass

import pytest

from repro.core import Quepa
from repro.core.connectors import Connector
from repro.errors import StoreUnavailableError
from repro.model import GlobalKey
from repro.network import RealRuntime, centralized_profile
from repro.serving import QuepaServer, SingleFlight

from tests.conftest import make_mini_aindex, make_mini_polystore


@dataclass(frozen=True)
class Obj:
    """Minimal stand-in for a fetched object: carries its key."""

    key: str


class Ctx:
    """Minimal stand-in for a request context."""

    def __init__(self) -> None:
        self.last_call_truncated = False
        self._span_id = None


# -- SingleFlight ------------------------------------------------------------


def test_single_flight_sequential_fetches_each_issue():
    """Coalescing is not caching: once a flight lands, the next
    identical fetch issues its own physical call."""
    flight = SingleFlight()
    calls = []

    def issue(ctx):
        calls.append(ctx)
        return [Obj("a"), Obj("b")]

    first = flight.fetch(Ctx(), "db", ["a", "b"], issue)
    second = flight.fetch(Ctx(), "db", ["a", "b"], issue)
    assert [o.key for o in first] == ["a", "b"]
    assert [o.key for o in second] == ["a", "b"]
    assert len(calls) == 2
    stats = flight.stats()
    assert stats["leaders"] == 2 and stats["followers"] == 0
    assert stats["hit_rate"] == 0.0


def _run_concurrent_fetches(flight, specs, leader_gate, leader_started):
    """Run fetches on threads; return (results, errors) by index."""
    results: dict[int, list] = {}
    errors: dict[int, BaseException] = {}

    def runner(index, database, keys, issue):
        try:
            results[index] = flight.fetch(Ctx(), database, keys, issue)
        except BaseException as exc:  # noqa: BLE001 - recorded for asserts
            errors[index] = exc

    threads = [
        threading.Thread(target=runner, args=(i, *spec))
        for i, spec in enumerate(specs)
    ]
    threads[0].start()
    assert leader_started.wait(10), "leader never issued"
    for thread in threads[1:]:
        thread.start()
    # Followers only need to *register* on the flight (one lock
    # acquisition) before the leader completes; give them a beat.
    time.sleep(0.25)
    leader_gate.set()
    for thread in threads:
        thread.join(timeout=10)
        assert not thread.is_alive()
    return results, errors


def test_single_flight_concurrent_identical_fetches_share_one_call():
    flight = SingleFlight()
    gate = threading.Event()
    started = threading.Event()
    issued = []

    def issue(ctx):
        issued.append(1)
        started.set()
        assert gate.wait(10)
        return [Obj("a"), Obj("b")]

    specs = [("db", ["a", "b"], issue) for _ in range(4)]
    results, errors = _run_concurrent_fetches(flight, specs, gate, started)
    assert not errors
    assert len(issued) == 1, "followers must share the leader's call"
    for index in range(4):
        assert [o.key for o in results[index]] == ["a", "b"]
    # Followers get their own list copies, never the leader's object.
    assert results[0] is not results[1]
    stats = flight.stats()
    assert stats["leaders"] == 1 and stats["followers"] == 3
    assert stats["hit_rate"] == pytest.approx(0.75)


def test_single_flight_subset_join_filters_leader_result():
    flight = SingleFlight()
    gate = threading.Event()
    started = threading.Event()
    issued = []

    def issue(ctx):
        issued.append(1)
        started.set()
        assert gate.wait(10)
        return [Obj("a"), Obj("b"), Obj("c")]

    specs = [
        ("db", ["a", "b", "c"], issue),
        ("db", ["b"], issue),  # strict subset: joins, filters down
    ]
    results, errors = _run_concurrent_fetches(flight, specs, gate, started)
    assert not errors
    assert len(issued) == 1
    assert [o.key for o in results[1]] == ["b"]
    assert flight.stats()["subset_joins"] == 1


def test_single_flight_different_keysets_do_not_coalesce():
    flight = SingleFlight()
    gate = threading.Event()
    started = threading.Event()
    issued = []

    def issue_ab(ctx):
        issued.append("ab")
        started.set()
        assert gate.wait(10)
        return [Obj("a"), Obj("b")]

    def issue_cd(ctx):
        issued.append("cd")
        return [Obj("c"), Obj("d")]

    specs = [("db", ["a", "b"], issue_ab), ("db", ["c", "d"], issue_cd)]
    results, errors = _run_concurrent_fetches(flight, specs, gate, started)
    assert not errors
    assert sorted(issued) == ["ab", "cd"]
    assert [o.key for o in results[1]] == ["c", "d"]


def test_single_flight_leader_error_reaches_followers_as_clone():
    flight = SingleFlight()
    gate = threading.Event()
    started = threading.Event()

    def issue(ctx):
        started.set()
        assert gate.wait(10)
        raise StoreUnavailableError("store down")

    specs = [("db", ["a"], issue) for _ in range(3)]
    results, errors = _run_concurrent_fetches(flight, specs, gate, started)
    assert not results
    assert len(errors) == 3
    originals = [
        e for e in errors.values() if e.__cause__ is None
    ]
    clones = [e for e in errors.values() if e.__cause__ is not None]
    assert len(originals) == 1, "exactly one leader raised the original"
    for clone in clones:
        assert isinstance(clone, StoreUnavailableError)
        assert clone is not originals[0]
        assert clone.__cause__ is originals[0]


def test_single_flight_propagates_truncation_verdict():
    flight = SingleFlight()
    gate = threading.Event()
    started = threading.Event()

    def issue(ctx):
        started.set()
        assert gate.wait(10)
        ctx.last_call_truncated = True
        return [Obj("a")]

    follower_ctx = Ctx()
    result_box = {}

    def follow():
        result_box["r"] = flight.fetch(follower_ctx, "db", ["a"], issue)

    leader = threading.Thread(
        target=lambda: flight.fetch(Ctx(), "db", ["a"], issue)
    )
    leader.start()
    assert started.wait(10)
    follower = threading.Thread(target=follow)
    follower.start()
    time.sleep(0.25)
    gate.set()
    leader.join(timeout=10)
    follower.join(timeout=10)
    assert follower_ctx.last_call_truncated is True


def test_single_flight_wedged_leader_times_out_follower():
    flight = SingleFlight(wait_timeout=0.05)
    gate = threading.Event()
    started = threading.Event()
    issued = []

    def issue(ctx):
        issued.append(1)
        if len(issued) == 1:  # only the leader wedges
            started.set()
            assert gate.wait(10)
        return [Obj("a")]

    specs = [("db", ["a"], issue), ("db", ["a"], issue)]
    # The follower's 0.05s timeout elapses during the 0.25s beat, so it
    # falls back to its own call while the leader is still wedged.
    results, errors = _run_concurrent_fetches(flight, specs, gate, started)
    assert not errors
    assert len(issued) == 2
    assert [o.key for o in results[1]] == ["a"]
    assert flight.stats()["wait_timeouts"] == 1


# -- attachment to the runtime ----------------------------------------------


def _real_quepa() -> Quepa:
    polystore = make_mini_polystore()
    profile = centralized_profile(list(polystore))
    return Quepa(
        polystore,
        make_mini_aindex(),
        profile=profile,
        runtime=RealRuntime(profile),
    )


def test_accelerator_stats_shape_and_close():
    """``SingleFlight.stats()`` is what ``status()["accelerator"]``
    wraps as ``{"coalesce": ...}``; it stays readable after the server
    stops and detaches the coalescer."""
    assert set(SingleFlight().stats()) == {
        "leaders", "followers", "subset_joins", "wait_timeouts", "hit_rate",
    }
    quepa = _real_quepa()
    server = QuepaServer(quepa).start()
    server.search("s", "transactions", "SELECT * FROM inventory", level=1)
    server.stop()
    assert quepa.runtime.coalescer is None
    accelerator = server.status()["accelerator"]
    assert set(accelerator) == {"coalesce"}
    assert set(accelerator["coalesce"]) == set(SingleFlight().stats())
    assert accelerator["coalesce"]["leaders"] >= 1


def test_accelerator_fetch_many_routes_through_coalescer():
    """A connector hands every fetch straight to the runtime's
    ``SingleFlight.fetch``, one flight per call."""
    polystore = make_mini_polystore()
    profile = centralized_profile(list(polystore))
    runtime = RealRuntime(profile)
    runtime.coalescer = SingleFlight()
    connector = Connector(
        "transactions", polystore.database("transactions")
    )
    ctx = runtime.request_context()
    keys = [GlobalKey.parse("transactions.inventory.a32")]
    assert [o.key for o in connector.fetch_many(ctx, keys)] == keys
    assert connector.fetch_one(ctx, keys[0]).key == keys[0]
    assert runtime.coalescer.stats()["leaders"] == 2


def test_accelerator_attaches_only_on_real_runtime():
    virtual_quepa = Quepa(make_mini_polystore(), make_mini_aindex())
    with QuepaServer(virtual_quepa) as server:
        assert virtual_quepa.runtime.coalescer is None
        assert server.status()["accelerator"] is None

    real_quepa = _real_quepa()
    with QuepaServer(real_quepa) as server:
        coalescer = real_quepa.runtime.coalescer
        assert isinstance(coalescer, SingleFlight)
        assert server.status()["accelerator"] is not None
    # Detached on stop; stats stay readable.
    assert real_quepa.runtime.coalescer is None
    assert server.status()["accelerator"] is not None


def test_accelerator_recreated_on_restart():
    quepa = _real_quepa()
    server = QuepaServer(quepa).start()
    first = quepa.runtime.coalescer
    assert first is not None
    server.stop()
    assert quepa.runtime.coalescer is None
    server.start()
    second = quepa.runtime.coalescer
    assert second is not None and second is not first
    server.stop()
