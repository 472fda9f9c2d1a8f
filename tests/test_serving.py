"""Unit tests of the serving layer: scheduler, server, loadgen, wiring.

Deterministic by construction: tests that need a busy server block the
worker pool on an Event via a stubbed ``serve_search``, so admission
and shedding behaviour does not depend on timing.
"""

from __future__ import annotations

import dataclasses
import io
import itertools
import json
import re
import threading
import time
import urllib.request
from pathlib import Path

import pytest

from repro.core import Quepa
from repro.core.augmentation import AugmentationConfig
from repro.errors import (
    RequestDeadlineExceeded,
    ServerBusy,
    TimeoutExceeded,
)
from repro.model import GlobalKey
from repro.network import RealRuntime, centralized_profile
from repro.serving import (
    LoadGenerator,
    QuepaServer,
    ServingConfig,
)
from repro.workloads import PolystoreScale, build_polyphony
from repro.workloads.queries import QueryWorkload

from tests.conftest import make_mini_aindex, make_mini_polystore

DOC_QUERY = {"collection": "albums", "filter": {}}


def make_real_quepa() -> Quepa:
    polystore = make_mini_polystore()
    profile = centralized_profile(list(polystore))
    return Quepa(
        polystore,
        make_mini_aindex(),
        profile=profile,
        runtime=RealRuntime(profile),
    )


class GatedQuepa:
    """Fixture helper: a server whose executions block on an Event."""

    def __init__(self, quepa: Quepa) -> None:
        self.quepa = quepa
        self.gate = threading.Event()
        self.started = threading.Semaphore(0)
        self.calls = 0
        self._lock = threading.Lock()
        self._real = quepa.serve_search
        # Instance attribute shadows the bound method for this Quepa.
        quepa.serve_search = self._gated  # type: ignore[method-assign]

    def _gated(self, *args, **kwargs):
        with self._lock:
            self.calls += 1
        self.started.release()
        assert self.gate.wait(10), "test gate never opened"
        return self._real(*args, **kwargs)


# -- config validation -------------------------------------------------------


@pytest.mark.parametrize(
    "kwargs",
    [
        {"workers": 0},
        {"queue_capacity": 0},
        {"max_inflight_per_session": 0},
        {"default_deadline": 0.0},
        {"default_deadline": -1.0},
        {"recorder_capacity": 0},
        {"recorder_slow_threshold": 0.0},
        {"recorder_slow_threshold": -1.0},
        {"workers": -1},
        {"queue_capacity": -1},
    ],
)
def test_serving_config_rejects_bad_knobs(kwargs):
    """Out-of-range values raise ValueError; the knobs that were
    deleted (the ledger's ❌ rows) are unknown keywords, never silently
    ignored."""
    fields = {field.name for field in dataclasses.fields(ServingConfig)}
    error = ValueError if set(kwargs) <= fields else TypeError
    with pytest.raises(error):
        ServingConfig(**kwargs)


def test_every_serving_field_has_a_ledger_row():
    """docs/PERFORMANCE.md's Serving and Augmentation tables agree with
    ``ServingConfig`` and ``AugmentationConfig``: every field has a row,
    every live row names a field, and every ❌ row names a field that
    is gone."""
    ledger = (
        Path(__file__).parents[1] / "docs" / "PERFORMANCE.md"
    ).read_text(encoding="utf-8")
    deleted_by_table: dict[str, set[str]] = {}
    for table, config in (
        ("Serving", ServingConfig),
        ("Augmentation", AugmentationConfig),
    ):
        match = re.search(
            rf"^## {table} \(`{config.__name__}`, (\d+) fields\)$(.*?)^## ",
            ledger,
            re.M | re.S,
        )
        assert match, f"no {table} table in docs/PERFORMANCE.md"
        live: set[str] = set()
        deleted: set[str] = set()
        for line in match.group(2).splitlines():
            row = re.match(r"\| `(\w+) = ", line)
            if row:
                verdict = line.split("|")[4]
                (deleted if "❌" in verdict else live).add(row.group(1))
        fields = {field.name for field in dataclasses.fields(config)}
        assert live == fields, table
        assert int(match.group(1)) == len(fields), table
        assert not deleted & fields, table
        deleted_by_table[table] = deleted
    assert deleted_by_table["Serving"] >= {
        "max_inflight_per_session",
        "default_deadline",
        "recorder_capacity",
        "recorder_slow_threshold",
    }
    assert deleted_by_table["Augmentation"] >= {"min_probability"}


# -- basic serving -----------------------------------------------------------


def test_search_returns_same_answer_as_direct_call():
    quepa = make_real_quepa()
    with QuepaServer(quepa, ServingConfig(workers=2)) as server:
        served = server.search("alice", "catalogue", DOC_QUERY, level=1)
    direct = quepa.serve_search("catalogue", DOC_QUERY, level=1)
    assert {o.key for o in served.originals} == {
        o.key for o in direct.originals
    }
    assert {a.object.key for a in served.augmented} == {
        a.object.key for a in direct.augmented
    }
    assert not served.stats.degraded


def test_submit_returns_ticket_and_result_blocks():
    quepa = make_real_quepa()
    with QuepaServer(quepa) as server:
        ticket = server.submit_search("s1", "catalogue", DOC_QUERY, level=1)
        answer = ticket.result(timeout=10)
        assert ticket.done()
        assert ticket.status == "completed"
        assert answer.originals


def test_submit_before_start_is_server_busy():
    server = QuepaServer(make_real_quepa())
    with pytest.raises(ServerBusy):
        server.submit_search("s1", "catalogue", DOC_QUERY)


def test_augment_request_kind():
    quepa = make_real_quepa()

    with QuepaServer(quepa) as server:
        links = server.augment("s1", GlobalKey.parse("catalogue.albums.d1"))
    assert links, "d1 has p-relations in the mini index"


# -- admission control / shedding -------------------------------------------


def test_queue_full_sheds_with_server_busy():
    quepa = make_real_quepa()
    gated = GatedQuepa(quepa)
    config = ServingConfig(workers=1, queue_capacity=2)
    with QuepaServer(quepa, config) as server:
        # One request occupies the worker...
        running = server.submit_search("s1", "catalogue", DOC_QUERY)
        assert gated.started.acquire(timeout=10)
        # ...two fill the queue; the third is shed.
        queued = [
            server.submit_search("s1", "catalogue", DOC_QUERY)
            for _ in range(2)
        ]
        with pytest.raises(ServerBusy):
            server.submit_search("s1", "catalogue", DOC_QUERY)
        gated.gate.set()
        for ticket in [running, *queued]:
            ticket.result(timeout=10)
    totals = server.status()["totals"]
    assert totals["submitted"] == 4
    assert totals["admitted"] == 3
    assert totals["shed"]["queue_full"] == 1
    assert totals["completed"] == 3


def test_deadline_expired_in_queue_is_shed():
    quepa = make_real_quepa()
    gated = GatedQuepa(quepa)
    config = ServingConfig(workers=1)
    with QuepaServer(quepa, config) as server:
        blocker = server.submit_search("s1", "catalogue", DOC_QUERY)
        assert gated.started.acquire(timeout=10)
        # Above the admission floor, so the request is admitted; it
        # then expires while the single worker is still blocked.
        doomed = server.submit_search(
            "s1", "catalogue", DOC_QUERY, deadline=0.05
        )
        time.sleep(0.1)
        gated.gate.set()
        blocker.result(timeout=10)
        with pytest.raises(RequestDeadlineExceeded):
            doomed.result(timeout=10)
        assert doomed.status == "shed"
    totals = server.status()["totals"]
    assert totals["shed"]["deadline"] == 1
    assert totals["completed"] == 1


def test_hopeless_deadline_is_shed_at_admission():
    """A deadline at/under the floor with all workers busy is shed at
    submit time, before consuming a queue slot — and metered as its own
    shed class so the admission ledger still reconciles."""
    quepa = make_real_quepa()
    gated = GatedQuepa(quepa)
    config = ServingConfig(workers=1)
    with QuepaServer(quepa, config) as server:
        blocker = server.submit_search("s1", "catalogue", DOC_QUERY)
        assert gated.started.acquire(timeout=10)
        with pytest.raises(RequestDeadlineExceeded):
            server.submit_search(
                "s1", "catalogue", DOC_QUERY, deadline=1e-9
            )
        gated.gate.set()
        blocker.result(timeout=10)
    totals = server.status()["totals"]
    assert totals["shed"]["deadline_at_admission"] == 1
    assert totals["shed"]["deadline"] == 0
    assert totals["submitted"] == (
        totals["admitted"]
        + totals["shed"]["queue_full"]
        + totals["shed"]["deadline_at_admission"]
    )
    metrics = quepa.obs.metrics
    assert (
        metrics.counter(
            "serving_shed_total", reason="deadline_at_admission"
        ).value
        == 1
    )


def test_stop_without_drain_sheds_queued_requests_as_stopped():
    """Non-drain stop() meters still-queued requests as shed(stopped):
    their clients get ServerBusy, and the prometheus counter + journal
    carry the distinct reason so the export reconciles."""
    quepa = make_real_quepa()
    gated = GatedQuepa(quepa)
    config = ServingConfig(workers=1)
    server = QuepaServer(quepa, config).start()
    blocker = server.submit_search("s1", "catalogue", DOC_QUERY)
    assert gated.started.acquire(timeout=10)
    queued = server.submit_search("s1", "catalogue", DOC_QUERY)
    # Stop from another thread: it sheds the queued request at once,
    # then blocks joining the worker until the gate opens — so the
    # shed is observed deterministically, before any pickup race.
    stopper = threading.Thread(target=lambda: server.stop(drain=False))
    stopper.start()
    with pytest.raises(ServerBusy):
        queued.result(timeout=10)
    assert queued.status == "shed"
    gated.gate.set()
    stopper.join(timeout=30)
    assert not stopper.is_alive()
    blocker.result(timeout=10)
    totals = server.status()["totals"]
    assert totals["shed"]["stopped"] == 1
    assert totals["failed"] == 0
    assert totals["admitted"] == (
        totals["completed"] + totals["shed"]["stopped"]
    )
    metrics = quepa.obs.metrics
    assert (
        metrics.counter("serving_shed_total", reason="stopped").value == 1
    )
    shed_events = quepa.obs.events.events(kind="request_shed")
    assert any(
        event.attrs.get("reason") == "stopped" for event in shed_events
    )


def test_shed_counters_reconcile_across_all_four_reasons():
    """``serving_shed_total{reason}`` counts every shed and equals
    ``status()``'s shed totals; ``serving_requests_total{outcome="shed"}``
    counts only the sheds after admission (deadline, stopped)."""
    quepa = make_real_quepa()
    gates = [threading.Event(), threading.Event()]
    started = threading.Semaphore(0)
    calls = itertools.count()
    real = quepa.serve_search

    def gated(*args, **kwargs):
        gate = gates[next(calls)]
        started.release()
        assert gate.wait(10), "test gate never opened"
        return real(*args, **kwargs)

    quepa.serve_search = gated  # type: ignore[method-assign]
    config = ServingConfig(workers=1, queue_capacity=2)
    server = QuepaServer(quepa, config).start()
    blocker = server.submit_search("s1", "catalogue", DOC_QUERY)
    assert started.acquire(timeout=10)
    with pytest.raises(RequestDeadlineExceeded):  # deadline_at_admission
        server.submit_search("s1", "catalogue", DOC_QUERY, deadline=1e-9)
    doomed = server.submit_search(
        "s1", "catalogue", DOC_QUERY, deadline=0.05
    )
    victim = server.submit_search("s1", "catalogue", DOC_QUERY)
    with pytest.raises(ServerBusy):  # queue_full
        server.submit_search("s1", "catalogue", DOC_QUERY)
    time.sleep(0.1)
    # The blocker completes; ``doomed`` expired in the queue and is shed
    # at pickup (deadline); ``victim`` then holds the worker.
    gates[0].set()
    assert started.acquire(timeout=10)
    late = server.submit_search("s1", "catalogue", DOC_QUERY)
    stopper = threading.Thread(target=lambda: server.stop(drain=False))
    stopper.start()
    with pytest.raises(ServerBusy):  # stopped
        late.result(timeout=10)
    gates[1].set()
    stopper.join(timeout=30)
    assert not stopper.is_alive()
    blocker.result(timeout=10)
    victim.result(timeout=10)
    with pytest.raises(RequestDeadlineExceeded):
        doomed.result(timeout=10)

    shed = server.status()["totals"]["shed"]
    assert shed == {
        "queue_full": 1,
        "deadline": 1,
        "deadline_at_admission": 1,
        "stopped": 1,
    }
    metrics = quepa.obs.metrics
    assert {
        reason: metrics.counter("serving_shed_total", reason=reason).value
        for reason in shed
    } == shed
    assert (
        metrics.counter("serving_requests_total", outcome="shed").value
        == shed["deadline"] + shed["stopped"]
    )


# -- observability -----------------------------------------------------------


def test_metrics_and_events_record_admission_and_shedding():
    quepa = make_real_quepa()
    gated = GatedQuepa(quepa)
    config = ServingConfig(workers=1, queue_capacity=1)
    with QuepaServer(quepa, config) as server:
        blocker = server.submit_search("s1", "catalogue", DOC_QUERY)
        assert gated.started.acquire(timeout=10)
        server.submit_search("s1", "catalogue", DOC_QUERY)
        with pytest.raises(ServerBusy):
            server.submit_search("s1", "catalogue", DOC_QUERY)
        gated.gate.set()
        blocker.result(timeout=10)
        metrics = quepa.obs.metrics
        assert (
            metrics.counter(
                "serving_requests_total", outcome="admitted"
            ).value
            == 2
        )
        assert (
            metrics.counter("serving_shed_total", reason="queue_full").value
            == 1
        )
        kinds = [event.kind for event in quepa.obs.events.events()]
        assert "request_shed" in kinds
    # Latency histogram fed by completions.
    report = server.status()
    assert report["latency_s"]["count"] == report["totals"]["completed"]


def test_status_report_shape():
    quepa = make_real_quepa()
    with QuepaServer(quepa, ServingConfig(workers=2)) as server:
        server.search("s1", "catalogue", DOC_QUERY, level=1)
        report = server.status()
        assert report["running"] is True
        assert report["workers"] == 2
        totals = report["totals"]
        shed = totals["shed"]
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
        # Real runtime: single-flight attached, in exactly the shape the
        # benchmark spine reads (``accelerator.coalesce.leaders``).
        assert set(report["accelerator"]) == {"coalesce"}
        assert report["accelerator"]["coalesce"].keys() >= {
            "leaders", "followers"
        }
        session = report["sessions"]["s1"]
        assert session["completed"] == 1
        assert session["qps"] >= 0.0
        assert json.dumps(report)  # JSON-ready


def test_failed_request_reports_error_and_counts():
    quepa = make_real_quepa()
    with QuepaServer(quepa) as server:
        ticket = server.submit_search("s1", "nosuchdb", DOC_QUERY)
        with pytest.raises(Exception):
            ticket.result(timeout=10)
        assert ticket.status == "failed"
    assert server.status()["totals"]["failed"] == 1


def test_failed_ticket_result_raises_a_fresh_clone_each_time():
    """``result()`` must never re-raise the stored exception object:
    raising mutates ``__traceback__`` in place, so a second call (or a
    second client sharing the ticket) would see a stale, ever-growing
    traceback. Each call raises a clone chained to the original."""
    quepa = make_real_quepa()
    with QuepaServer(quepa) as server:
        ticket = server.submit_search("s1", "nosuchdb", DOC_QUERY)
        with pytest.raises(Exception) as first:
            ticket.result(timeout=10)
        with pytest.raises(Exception) as second:
            ticket.result(timeout=10)
    stored = ticket._request.error
    assert stored is not None
    assert first.value is not stored
    assert second.value is not stored
    assert first.value is not second.value
    assert type(first.value) is type(stored)
    assert first.value.args == stored.args
    # The clone is chained to the original for debuggability...
    assert first.value.__cause__ is stored
    # ...and raising it never rewrote the stored traceback.
    assert stored.__traceback__ is not first.value.__traceback__


# -- session round-robin ------------------------------------------------------


def test_sessions_share_workers_by_round_robin():
    """With one worker, queued sessions take turns in the order they
    first queued work, and each session's requests run FIFO."""
    quepa = make_real_quepa()
    order: list[str] = []
    lock = threading.Lock()
    gate = threading.Event()
    started = threading.Semaphore(0)
    real = quepa.serve_search

    def tracking(database, query, **kwargs):
        with lock:
            order.append(query.get("tag", "blocker"))
        started.release()
        assert gate.wait(10), "test gate never opened"
        return real(database, DOC_QUERY, **kwargs)

    quepa.serve_search = tracking  # type: ignore[method-assign]
    config = ServingConfig(workers=1)
    with QuepaServer(quepa, config) as server:
        blocker = server.submit_search("s0", "catalogue", DOC_QUERY)
        assert started.acquire(timeout=10)
        tickets = [
            server.submit_search(
                session, "catalogue", {**DOC_QUERY, "tag": f"{session}.{i}"}
            )
            for session, count in (("a", 3), ("b", 1), ("c", 2))
            for i in range(1, count + 1)
        ]
        gate.set()
        blocker.result(timeout=10)
        for ticket in tickets:
            ticket.result(timeout=10)
    assert order == ["blocker", "a.1", "b.1", "c.1", "a.2", "c.2", "a.3"]


# -- per-request config on the augment path ----------------------------------


def test_augment_honours_per_request_config():
    """Regression: the scheduler used to drop the computed effective
    config on the augment path, silently ignoring per-request configs
    and deadlines for exploration steps."""
    quepa = make_real_quepa()
    config = AugmentationConfig(timeout_budget=1e-12)
    with QuepaServer(quepa) as server:
        # skip_unavailable defaults to False (strict): an exhausted
        # budget must surface as TimeoutExceeded, not complete happily.
        with pytest.raises(TimeoutExceeded):
            server.augment(
                "s1",
                GlobalKey.parse("catalogue.albums.d1"),
                config=config,
            )


def test_augment_run_passes_effective_config():
    """The deadline folded into the timeout budget reaches
    serve_augment_object (regression: it was computed then dropped)."""
    quepa = make_real_quepa()
    captured = {}

    def fake_augment(key, level=0, config=None, **kwargs):
        captured["config"] = config
        return []

    quepa.serve_augment_object = fake_augment  # type: ignore[method-assign]
    server = QuepaServer(quepa)
    from repro.serving import Request

    request = Request(
        1,
        "s1",
        "augment",
        key=GlobalKey.parse("catalogue.albums.d1"),
        deadline=5.0,
    )
    server.scheduler._run(request, waited=1.0)
    assert captured["config"] is not None
    assert captured["config"].timeout_budget == pytest.approx(4.0)


# -- load generator ----------------------------------------------------------


@pytest.fixture(scope="module")
def loadgen_bundle():
    return build_polyphony(
        stores=4, scale=PolystoreScale(n_albums=40), seed=11
    )


def test_loadgen_scripts_are_deterministic(loadgen_bundle):
    workload = QueryWorkload(loadgen_bundle)
    polystore = loadgen_bundle.polystore
    profile = centralized_profile(list(polystore))
    quepa = Quepa(
        polystore,
        loadgen_bundle.aindex,
        profile=profile,
        runtime=RealRuntime(profile),
    )
    server = QuepaServer(quepa)
    gen_a = LoadGenerator(server, workload, seed=5)
    gen_b = LoadGenerator(server, workload, seed=5)
    gen_c = LoadGenerator(server, workload, seed=6)
    assert gen_a.plan_for_client(0, 8) == gen_b.plan_for_client(0, 8)
    assert gen_a.plan_for_client(0, 8) != gen_a.plan_for_client(1, 8)
    assert gen_a.plan_for_client(0, 8) != gen_c.plan_for_client(0, 8)


def test_loadgen_run_reconciles(loadgen_bundle):
    workload = QueryWorkload(loadgen_bundle)
    polystore = loadgen_bundle.polystore
    profile = centralized_profile(list(polystore))
    quepa = Quepa(
        polystore,
        loadgen_bundle.aindex,
        profile=profile,
        runtime=RealRuntime(profile),
    )
    with QuepaServer(quepa, ServingConfig(workers=4)) as server:
        generator = LoadGenerator(server, workload, seed=5)
        report = generator.run(clients=3, requests_per_client=4)
        status = server.status()
    assert report.completed + report.shed + report.failed == 12
    assert report.failed == 0
    totals = status["totals"]
    assert totals["submitted"] == 12
    assert (
        totals["completed"]
        == report.completed
        == status["latency_s"]["count"]
    )
    assert report.qps > 0
    assert report.latency_p50 <= report.latency_p95 <= report.latency_p99
    payload = report.as_dict()
    assert payload["clients"] == 3 and payload["completed"] == 12


# -- HTTP / UI wiring --------------------------------------------------------


def test_http_query_routes_through_scheduler_and_serving_endpoint():
    from repro.ui.server import serve

    quepa = make_real_quepa()
    with QuepaServer(quepa, ServingConfig(workers=2)) as server:
        endpoint = serve(quepa, port=0, server=server)
        try:
            body = json.dumps(
                {
                    "database": "catalogue",
                    "query": DOC_QUERY,
                    "level": 1,
                    "session": "web",
                }
            ).encode()
            request = urllib.request.Request(
                endpoint.url + "/query",
                data=body,
                headers={"Content-Type": "application/json"},
            )
            payload = json.load(urllib.request.urlopen(request))
            assert payload["originals"]
            status = json.load(
                urllib.request.urlopen(endpoint.url + "/serving")
            )
            assert status["enabled"] is True
            assert status["serving"]["totals"]["completed"] == 1
            assert "web" in status["serving"]["sessions"]
        finally:
            endpoint.shutdown()


def test_http_serving_endpoint_without_server():
    from repro.ui.server import serve

    quepa = make_real_quepa()
    endpoint = serve(quepa, port=0)
    try:
        status = json.load(
            urllib.request.urlopen(endpoint.url + "/serving")
        )
        assert status == {"serving": None, "enabled": False}
    finally:
        endpoint.shutdown()


def test_api_maps_server_busy_to_503():
    from repro.ui.api import ApiError, QuepaApi

    quepa = make_real_quepa()
    server = QuepaServer(quepa)  # never started: submissions are busy
    api = QuepaApi(quepa, server=server)
    with pytest.raises(ApiError) as excinfo:
        api.handle(
            "POST",
            "/query",
            {"database": "catalogue", "query": DOC_QUERY},
        )
    assert excinfo.value.status == 503


# -- CLI ---------------------------------------------------------------------


def test_cli_loadgen_runs_and_prints_report():
    from repro.cli import main

    out = io.StringIO()
    code = main(
        [
            "loadgen",
            "--stores", "4",
            "--albums", "30",
            "--clients", "2",
            "--requests", "3",
            "--workers", "2",
        ],
        out=out,
    )
    text = out.getvalue()
    assert code == 0
    assert "loadgen: 2 clients x 3 requests" in text
    assert "QPS" in text and "server:" in text
    assert "coalesce:" in text


def test_cli_loadgen_json_report():
    from repro.cli import main

    out = io.StringIO()
    code = main(
        [
            "loadgen",
            "--stores", "4",
            "--albums", "30",
            "--clients", "2",
            "--requests", "2",
            "--json",
        ],
        out=out,
    )
    assert code == 0
    payload = json.loads(out.getvalue())
    assert payload["load"]["completed"] + payload["load"]["shed"] == 4
    assert payload["serving"]["totals"]["submitted"] == 4


def test_cli_serve_binds_and_reports(tmp_path):
    from repro.cli import main

    out = io.StringIO()
    snapshot = tmp_path / "snap"
    assert (
        main(
            [
                "generate",
                "--stores", "4",
                "--albums", "20",
                "--out", str(snapshot),
            ],
            out=io.StringIO(),
        )
        == 0
    )
    code = main(
        [
            "serve",
            "--snapshot", str(snapshot),
            "--port", "0",
            "--duration", "0.05",
        ],
        out=out,
    )
    text = out.getvalue()
    assert code == 0
    assert "serving" in text and "GET /serving" in text
    assert "served 0 requests" in text
