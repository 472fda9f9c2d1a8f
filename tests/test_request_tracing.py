"""Request-scoped tracing and flight recorder tests.

The acceptance spine lives here: a sharded, stalled, coalescing
serving run where every scheduler-admitted request carries a
``trace_id`` that shows up on its root span, its coalesce-follower
links and every per-shard fetch span. Around it: the tracer-reset regression,
histogram percentile edge cases, the per-request Chrome-trace lanes,
the concurrent JSONL sink, and unit suites for the flight recorder
and the latency-breakdown fold.
"""

from __future__ import annotations

import json
import threading
import time

import pytest

from repro.core import Quepa
from repro.network import RealRuntime, centralized_profile
from repro.obs import (
    FlightRecorder,
    RequestDigest,
    latency_breakdown,
)
from repro.obs.events import EventJournal
from repro.obs.export import to_chrome_trace
from repro.obs.metrics import Histogram
from repro.obs.requests import ADAPTIVE_MIN_SAMPLES
from repro.obs.trace import Tracer
from repro.model import Polystore
from repro.serving import QuepaServer, ServingConfig
from repro.sharding import make_scheme, partition_store
from repro.ui.api import ApiError, QuepaApi
from repro.workloads import PolystoreScale, build_polyphony
from repro.workloads.queries import QueryWorkload

from tests.conftest import make_mini_aindex, make_mini_polystore

DOC_QUERY = {"collection": "albums", "filter": {}}


def _mini_real_quepa() -> Quepa:
    polystore = make_mini_polystore()
    profile = centralized_profile(list(polystore))
    return Quepa(
        polystore,
        make_mini_aindex(),
        profile=profile,
        runtime=RealRuntime(profile),
    )


# -- the acceptance criterion: sharded + coalescing end-to-end -----------------


def test_trace_propagates_through_sharded_hedged_serving():
    """Every admitted request's trace id reaches the root span, every
    per-shard fetch and every coalesce link; a stalled store call is
    waited out by its followers, never raced by a second copy (the id
    predates the removal of hedged store calls)."""
    bundle = build_polyphony(
        stores=4, scale=PolystoreScale(n_albums=60), seed=13
    )
    # Mixed placement: hash databases route each key fetch to its one
    # owning shard (fan-out 1 — the single-flight path, so coalescing
    # engages), while the range-placed database cannot prune
    # key fetches and scatters every group across both shards (fan-out
    # 2 — per-shard scatter spans). One workload exercises both paths.
    polystore = Polystore()
    for name, store in bundle.polystore.databases.items():
        placement = "range" if name == "transactions" else "hash"
        polystore.attach(name, partition_store(store, make_scheme(placement, 2)))
    profile = centralized_profile(list(polystore))
    quepa = Quepa(
        polystore, bundle.aindex, profile=profile, runtime=RealRuntime(profile)
    )
    workload = QueryWorkload(bundle)
    database = "catalogue"
    query = workload.query(database, 40, variant=2).query

    # Once armed, the first two fan-out-1 store calls (the facade's own
    # multi_get — the single-flight path) stall long enough for the
    # other requests to coalesce behind the leader.
    # Scatter fetches hit shard engines directly and are never stalled.
    armed = threading.Event()
    budget = {"stalls": 2}
    budget_lock = threading.Lock()
    for name in list(polystore):
        facade = polystore.database(name)

        def stalling(keys, _orig=facade.multi_get):
            stall = False
            if armed.is_set():
                with budget_lock:
                    if budget["stalls"] > 0:
                        budget["stalls"] -= 1
                        stall = True
            if stall:
                time.sleep(0.08)
            return _orig(keys)

        facade.multi_get = stalling

    with QuepaServer(quepa, ServingConfig(workers=6)) as server:
        # Retain every completion.
        server.scheduler.recorder = FlightRecorder(slow_threshold=1e-9)
        warm = server.submit_search("warm", database, query, level=1)
        expected = warm.result(30.0)
        assert expected.originals
        # The warm run filled the shared object cache; cleared, the six
        # concurrent requests below must fetch for real — which is what
        # scatters, stalls and coalesces.
        quepa.cache.clear()
        armed.set()
        tickets = [
            server.submit_search(f"s{i}", database, query, level=1)
            for i in range(6)
        ]
        answers = [ticket.result(30.0) for ticket in tickets]

    def signature(answer):
        return (
            sorted(str(obj.key) for obj in answer.originals),
            sorted(
                (str(obj.key), round(obj.probability, 12))
                for obj in answer.augmented
            ),
        )

    for answer in answers:
        assert signature(answer) == signature(expected)

    admitted = {warm.trace_id} | {ticket.trace_id for ticket in tickets}
    assert len(admitted) == 7  # distinct ids, warm included

    tracer = quepa.obs.tracer
    for trace_id in admitted:
        spans = tracer.spans_for(trace_id)
        assert all(span.trace_id == trace_id for span in spans)
        roots = [span for span in spans if span.name == "request"]
        assert len(roots) == 1, f"{trace_id}: expected one root span"
        assert roots[0].attrs.get("status") == "completed"
        assert roots[0].parent_id is None

    all_spans = tracer.spans()

    shard_fetches = [s for s in all_spans if s.name == "shard_fetch"]
    assert shard_fetches, "hash placement over 60 albums must scatter"
    assert all(span.trace_id in admitted for span in shard_fetches)

    scatters = [s for s in all_spans if s.name == "scatter_gather"]
    assert scatters
    assert all(span.trace_id in admitted for span in scatters)

    assert not [s for s in all_spans if s.name == "hedge_attempt"]

    follows = [s for s in all_spans if s.name == "coalesce_wait"]
    assert follows, "identical concurrent requests must coalesce"
    for span in follows:
        assert span.trace_id in admitted
        assert span.attrs.get("leader_trace") in admitted

    # The flight recorder retained every completion (threshold 1e-9)
    # with a per-request breakdown, and every request completed.
    digests = server.records(status="completed")
    assert {d["trace_id"] for d in digests} >= admitted
    by_trace = {d["trace_id"]: d for d in digests}
    for trace_id in admitted:
        breakdown = by_trace[trace_id]["breakdown"]
        assert breakdown["store_calls"] > 0
    assert any(
        by_trace[trace_id]["breakdown"]["shard_fetch_s"]
        for trace_id in admitted
    )
    totals = server.status()["totals"]
    assert totals["completed"] == totals["submitted"] == len(admitted)


# -- satellite: tracer reset vs in-flight serving ------------------------------


def test_tracer_reset_under_concurrent_serving():
    """``reset()`` racing live requests never corrupts them: every
    request completes, and once the resets stop a fresh request's trace
    is fully retained under its own id."""
    quepa = _mini_real_quepa()
    with QuepaServer(quepa, ServingConfig(workers=4)) as server:
        stop = threading.Event()

        def resetter():
            while not stop.is_set():
                quepa.obs.tracer.reset()
                time.sleep(0)  # yield so workers make progress

        thread = threading.Thread(target=resetter, daemon=True)
        thread.start()
        try:
            tickets = [
                server.submit_search(
                    f"session-{i % 2}", "catalogue", DOC_QUERY, level=1
                )
                for i in range(12)
            ]
            answers = [ticket.result(10.0) for ticket in tickets]
        finally:
            stop.set()
            thread.join()
        assert all(answer.originals for answer in answers)

        fresh = server.submit_search("fresh", "catalogue", DOC_QUERY, level=1)
        fresh.result(10.0)
        spans = quepa.obs.tracer.spans_for(fresh.trace_id)
        assert [s.name for s in spans if s.name == "request"] == ["request"]
        assert any(s.name == "store_call" for s in spans)


# -- a long-lived server keeps recording (the blind-after-saturation bug) -------


def test_saturated_tracer_still_records_served_requests():
    """Once both budgets are full — untraced spans of classic runs, and
    ``max_spans`` spans of earlier served requests — a new request still
    keeps its whole trace: the oldest traces make room. (The tracer used
    to drop every new span for good once 10 000 were retained.)"""
    quepa = _mini_real_quepa()
    tracer = quepa.obs.tracer
    for _ in range(tracer.max_spans):
        tracer.record("aged", 0.0, 0.0)
    for old in range(tracer.max_spans // 5 + 1):
        root = tracer.begin("request", 0.0, None, f"old-{old:06d}")
        for _ in range(4):
            tracer.record(
                "store_call", 0.0, 0.0, root.span_id, f"old-{old:06d}",
                database="catalogue",
            )
        tracer.end(root, 0.0)
    assert len(tracer) >= tracer.max_spans

    with QuepaServer(quepa, ServingConfig(workers=2)) as server:
        server.scheduler.recorder = FlightRecorder(slow_threshold=1e-9)
        ticket = server.submit_search("s1", "catalogue", DOC_QUERY, level=1)
        assert ticket.result(10.0).originals
        digests = server.records(status="completed")

    spans = tracer.spans_for(ticket.trace_id)
    roots = [span for span in spans if span.parent_id is None]
    assert [span.name for span in roots] == ["request"]
    ids = {span.span_id for span in spans}
    assert all(span.parent_id in ids for span in spans if span not in roots)
    assert {"plan", "augment", "store_call"} <= {span.name for span in spans}
    summary = quepa.last_record.span_summary
    assert summary["store_call"]["count"] > 0
    assert summary["augment"]["count"] == 1
    (digest,) = [d for d in digests if d["trace_id"] == ticket.trace_id]
    assert digest["breakdown"]["store_calls"] > 0
    assert tracer.evicted > 0
    assert len(tracer) <= 2 * tracer.max_spans


def test_served_outcome_trace_describes_the_request_not_the_buffer(
    monkeypatch,
):
    """``AugmentationOutcome.trace`` of a served search has the span
    kinds and counts of the same search run classically on a fresh
    ``Quepa`` — whatever else the shared tracer retains."""
    from repro.core.augmenters.base import Augmenter

    outcomes = []
    execute = Augmenter.execute

    def capturing(self, ctx, plan, config):
        outcome = execute(self, ctx, plan, config)
        outcomes.append(outcome)
        return outcome

    monkeypatch.setattr(Augmenter, "execute", capturing)

    def by_kind(trace):
        return {kind: entry["count"] for kind, entry in trace["by_kind"].items()}

    classic = Quepa(make_mini_polystore(), make_mini_aindex())
    classic.augmented_search("catalogue", DOC_QUERY, level=1)
    expected = outcomes.pop().trace

    served = Quepa(make_mini_polystore(), make_mini_aindex())  # VirtualRuntime
    served.obs.tracer.record("aged", 0.0, 0.0)
    with QuepaServer(served, ServingConfig(workers=1)) as server:
        server.search("s1", "catalogue", DOC_QUERY, level=1, timeout=10.0)
        server.search("s2", "transactions",
                      "SELECT * FROM inventory", level=1, timeout=10.0)
        outcomes.clear()
        served.cache.clear()  # as cold as the classic run
        server.search("s1", "catalogue", DOC_QUERY, level=1, timeout=10.0)
    (outcome,) = outcomes
    assert len(served.obs.tracer) > outcome.trace["spans"]
    assert by_kind(outcome.trace) == by_kind(expected)
    assert outcome.trace["spans"] == expected["spans"]
    assert set(outcome.trace) == {"spans", "dropped", "by_kind"}


# -- satellite: histogram percentile edge cases --------------------------------


def test_percentile_empty_histogram_is_zero():
    hist = Histogram()
    assert hist.percentile(0.5) == 0.0
    assert hist.percentile(1.0) == 0.0


def test_percentile_q_at_or_below_zero_is_lower_edge():
    hist = Histogram()
    hist.observe(0.2)
    hist.observe(0.4)
    assert hist.percentile(0.0) == 0.0
    assert hist.percentile(-1.0) == 0.0


def test_percentile_q_at_or_above_one_is_observed_max():
    hist = Histogram()
    hist.observe(0.003)
    hist.observe(0.7)
    assert hist.percentile(1.0) == 0.7
    assert hist.percentile(2.0) == 0.7


def test_percentile_all_mass_in_overflow_is_observed_max():
    hist = Histogram(buckets=(0.001,))
    hist.observe(5.0)
    hist.observe(9.0)
    assert hist.percentile(0.5) == 9.0


# -- satellite: one Chrome-trace lane per request ------------------------------


def test_chrome_trace_gives_each_request_its_own_process():
    tracer = Tracer()
    root_a = tracer.begin("request", 0.0, None, "t-000001", session="alice")
    tracer.record(
        "store_call", 0.1, 0.2, root_a.span_id, "t-000001", database="db"
    )
    tracer.end(root_a, 0.3)
    root_b = tracer.begin("request", 0.05, None, "t-000002", session="bob")
    tracer.record(
        "shard_fetch", 0.06, 0.09, root_b.span_id, "t-000002", shard=1
    )
    tracer.end(root_b, 0.1)
    tracer.record("plan", 0.0, 0.01)  # classic untraced span

    exported = json.loads(json.dumps(to_chrome_trace(tracer.spans(), pid=7)))
    events = exported["traceEvents"]

    meta = [e for e in events if e["ph"] == "M"]
    assert [m["args"]["name"] for m in meta] == [
        "request t-000001 [alice]",
        "request t-000002 [bob]",
    ]
    request_pids = [m["pid"] for m in meta]
    assert len(set(request_pids)) == 2
    assert 7 not in request_pids

    complete = [e for e in events if e["ph"] == "X"]
    by_pid: dict[int, list[dict]] = {}
    for event in complete:
        by_pid.setdefault(event["pid"], []).append(event)
    # Untraced spans keep the caller's pid and carry no trace_id arg.
    assert [e["name"] for e in by_pid[7]] == ["plan"]
    assert "trace_id" not in by_pid[7][0]["args"]
    # Each request renders in its own process with parent links intact.
    for pid, trace_id, child in (
        (request_pids[0], "t-000001", "store_call"),
        (request_pids[1], "t-000002", "shard_fetch"),
    ):
        names = sorted(e["name"] for e in by_pid[pid])
        assert names == sorted(["request", child])
        assert all(e["args"]["trace_id"] == trace_id for e in by_pid[pid])
        root = next(e for e in by_pid[pid] if e["name"] == "request")
        leaf = next(e for e in by_pid[pid] if e["name"] == child)
        assert leaf["args"]["parent_id"] == root["args"]["span_id"]


def test_chrome_trace_without_trace_ids_is_single_process():
    tracer = Tracer()
    parent = tracer.begin("augment", 0.0)
    tracer.record("store_call", 0.1, 0.4, parent.span_id)
    tracer.end(parent, 0.5)
    exported = to_chrome_trace(tracer.spans(), pid=3)
    events = exported["traceEvents"]
    assert all(e["ph"] == "X" for e in events)
    assert {e["pid"] for e in events} == {3}


# -- satellite: concurrent writers through the JSONL sink ----------------------


def test_event_journal_sink_survives_concurrent_writers(tmp_path):
    path = tmp_path / "events.jsonl"
    journal = EventJournal(max_events=4096)
    journal.attach_sink(str(path))
    workers, per_worker = 8, 50

    def hammer(worker: int) -> None:
        for seq in range(per_worker):
            journal.emit("tick", worker=worker, seq=seq)

    threads = [
        threading.Thread(target=hammer, args=(i,)) for i in range(workers)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    journal.close_sink()

    lines = path.read_text().splitlines()
    assert len(lines) == workers * per_worker
    rows = [json.loads(line) for line in lines]  # every line is valid JSON
    for worker in range(workers):
        seqs = [
            row["attrs"]["seq"]
            for row in rows
            if row["attrs"]["worker"] == worker
        ]
        # The lock serializes writes, so each writer's lines land in
        # its own emit order even when interleaved with the others.
        assert seqs == list(range(per_worker))


# -- flight recorder unit suite ------------------------------------------------


def _digest(
    trace: str = "t-000001",
    status: str = "completed",
    latency: float = 0.01,
    **overrides,
) -> RequestDigest:
    fields = dict(
        trace_id=trace,
        request_id=1,
        session="s1",
        kind="search",
        status=status,
        latency_s=latency,
    )
    fields.update(overrides)
    return RequestDigest(**fields)


def test_recorder_keeps_errors_sheds_and_degraded_drops_fast():
    recorder = FlightRecorder(capacity=8, slow_threshold=1.0)
    assert recorder.observe(_digest("t-1", "failed", error="boom"))
    assert recorder.observe(
        _digest("t-2", "shed", shed_reason="queue_full", error="ServerBusy")
    )
    assert recorder.observe(_digest("t-3", degraded=True))
    assert not recorder.observe(_digest("t-4", latency=0.001))
    kept = {d.trace_id: d.kept_because for d in recorder.records()}
    # A shed digest carries its shed exception, but "shed" is the more
    # specific verdict and must win over "error".
    assert kept == {"t-1": "error", "t-2": "shed", "t-3": "degraded"}
    stats = recorder.stats()
    assert stats["observed"] == 4
    assert stats["kept"] == 3
    assert stats["kept_by_reason"] == {"error": 1, "shed": 1, "degraded": 1}


def test_recorder_absolute_slow_threshold():
    recorder = FlightRecorder(slow_threshold=0.5)
    assert not recorder.observe(_digest("t-1", latency=0.499))
    assert recorder.observe(_digest("t-2", latency=0.5))  # at threshold
    assert recorder.records()[0].kept_because == "slow"


def test_recorder_adaptive_p95_after_min_samples():
    recorder = FlightRecorder()
    for i in range(ADAPTIVE_MIN_SAMPLES):
        assert not recorder.observe(_digest(f"t-{i}", latency=0.01))
    # Rolling p95 is now ~0.01; an outlier at 10x is retained.
    assert recorder.observe(_digest("t-slow", latency=0.1))
    assert recorder.records()[0].kept_because == "slow"


def test_recorder_capacity_evicts_oldest():
    recorder = FlightRecorder(capacity=2, slow_threshold=1.0)
    for trace in ("t-1", "t-2", "t-3"):
        recorder.observe(_digest(trace, "failed", error="x"))
    assert [d.trace_id for d in recorder.records()] == ["t-2", "t-3"]
    assert recorder.stats()["evicted"] == 1


def test_recorder_filters_and_limit():
    recorder = FlightRecorder(slow_threshold=1.0)
    recorder.observe(_digest("t-1", "failed", session="a", error="x"))
    recorder.observe(_digest("t-2", "failed", session="b", error="x"))
    recorder.observe(_digest("t-3", "shed", session="a"))
    assert [d.trace_id for d in recorder.records(session="a")] == [
        "t-1",
        "t-3",
    ]
    assert [d.trace_id for d in recorder.records(status="shed")] == ["t-3"]
    assert [d.trace_id for d in recorder.records(limit=2)] == ["t-2", "t-3"]
    assert recorder.records(limit=0) == []
    assert recorder.as_dicts(session="b")[0]["trace_id"] == "t-2"


def test_recorder_limit_above_the_held_count_returns_everything():
    # 3 held, 5 asked: all 3, the oldest included.
    recorder = FlightRecorder(slow_threshold=1.0)
    for i in range(1, 4):
        recorder.observe(_digest(f"t-{i}", "failed", error="x"))
    assert [d.trace_id for d in recorder.records(limit=5)] == [
        "t-1",
        "t-2",
        "t-3",
    ]


# -- latency breakdown fold ----------------------------------------------------


def test_latency_breakdown_folds_span_kinds():
    tracer = Tracer()
    trace = "t-000009"
    root = tracer.begin("request", 0.0, None, trace)
    tracer.record("plan", 0.0, 0.1, root.span_id, trace)
    tracer.record("store_call", 0.1, 0.3, root.span_id, trace, database="db1")
    tracer.record("store_call", 0.3, 0.4, root.span_id, trace, database="db1")
    tracer.record("store_call", 0.4, 0.5, root.span_id, trace, database="db2")
    sg = tracer.record(
        "scatter_gather", 0.5, 0.8, root.span_id, trace, database="db1"
    )
    tracer.record(
        "shard_fetch", 0.5, 0.7, sg.span_id, trace, database="db1", shard=0
    )
    tracer.record(
        "shard_fetch", 0.5, 0.8, sg.span_id, trace, database="db1", shard=1
    )
    tracer.record(
        "coalesce_wait", 0.8, 0.9, root.span_id, trace, leader_trace="t-1"
    )
    tracer.record("cpu_settle", 0.90, 0.95, root.span_id, trace, owed_s=0.04)
    tracer.record("cpu_settle", 0.95, 1.0, root.span_id, trace, owed_s=0.04)
    tracer.end(root, 1.0)

    out = latency_breakdown(tracer.spans_for(trace))
    assert out["store_s"]["db1"] == pytest.approx(0.3)
    assert out["store_s"]["db2"] == pytest.approx(0.1)
    assert out["store_calls"] == 3
    assert out["shard_fetch_s"]["db1/0"] == pytest.approx(0.2)
    assert out["shard_fetch_s"]["db1/1"] == pytest.approx(0.3)
    assert out["scatter_gathers"] == 1
    assert out["coalesce_wait_s"] == pytest.approx(0.1)
    assert out["coalesce_followed"] == 1
    assert "hedge" not in out
    assert out["plan_s"] == pytest.approx(0.1)
    assert out["cpu_s"] == pytest.approx(0.1)


# -- HTTP surfaces -------------------------------------------------------------


def test_api_requests_endpoint_without_server():
    api = QuepaApi(_mini_real_quepa())
    assert api.handle("GET", "/requests") == {
        "requests": [],
        "enabled": False,
        "recorder": None,
    }


def test_api_slo_endpoint_without_server_is_404():
    """There is no SLO report any more: ``/slo`` is an unknown route,
    with or without a serving layer (see the live-server test below)."""
    api = QuepaApi(_mini_real_quepa())
    with pytest.raises(ApiError) as err:
        api.handle("GET", "/slo")
    assert err.value.status == 404


def test_api_requests_and_slo_with_live_server():
    """``/requests`` over a live server; ``/slo`` is gone. (The id
    predates the removal of the SLO monitor.)"""
    quepa = _mini_real_quepa()
    with QuepaServer(quepa, ServingConfig(workers=2)) as server:
        server.scheduler.recorder = FlightRecorder(slow_threshold=1e-9)
        api = QuepaApi(quepa, server=server)
        server.search("s1", "catalogue", DOC_QUERY, level=1, timeout=10.0)

        listing = api.handle("GET", "/requests")
        assert listing["enabled"] is True
        assert listing["recorder"]["kept"] >= 1
        assert listing["requests"][0]["status"] == "completed"
        assert listing["requests"][0]["trace_id"].startswith("t-")

        filtered = api.handle("GET", "/requests?session=nobody")
        assert filtered["requests"] == []
        with pytest.raises(ApiError) as err:
            api.handle("GET", "/requests?limit=many")
        assert err.value.status == 400

        with pytest.raises(ApiError) as err:
            api.handle("GET", "/slo")
        assert err.value.status == 404
