"""Tests for the tracing + metrics layer (repro.obs) and its wiring."""

import json
import sys
import threading
import time

import pytest

from repro.core import Quepa
from repro.core.augmentation import AugmentationConfig
from repro.network import RealRuntime, VirtualRuntime, centralized_profile
from repro.obs import (
    Histogram,
    MetricsRegistry,
    Observability,
    Tracer,
    tree_lines,
)

QUERY = "SELECT * FROM inventory WHERE name LIKE '%wish%'"


# ---------------------------------------------------------------------------
# Tracer
# ---------------------------------------------------------------------------


class TestTracer:
    def test_begin_end_retains_span(self):
        tracer = Tracer()
        span = tracer.begin("work", 1.0, None, database="db")
        assert len(tracer) == 0  # not retained until closed
        tracer.end(span, 3.5)
        assert len(tracer) == 1
        assert span.duration == 2.5
        assert span.attrs == {"database": "db"}

    def test_record_is_one_shot(self):
        tracer = Tracer()
        span = tracer.record("call", 0.0, 0.25, objects=3)
        assert span.end == 0.25
        assert tracer.spans() == [span]

    def test_parent_child_ids(self):
        tracer = Tracer()
        parent = tracer.begin("outer", 0.0, None)
        child = tracer.begin("inner", 0.1, parent.span_id)
        tracer.end(child, 0.2)
        tracer.end(parent, 0.3)
        assert child.parent_id == parent.span_id
        assert parent.parent_id is None

    def test_summary_groups_by_kind(self):
        tracer = Tracer()
        tracer.record("fetch", 0.0, 1.0)
        tracer.record("fetch", 1.0, 3.0)
        tracer.record("plan", 0.0, 0.5)
        summary = tracer.summary()
        assert summary["fetch"] == {"count": 2, "total_s": 3.0}
        assert summary["plan"]["count"] == 1

    def test_reset_clears_everything(self):
        tracer = Tracer(max_spans=1)
        tracer.record("a", 0.0, 1.0)
        tracer.record("b", 0.0, 1.0)  # over the cap
        assert tracer.dropped == 1
        tracer.reset()
        assert len(tracer) == 0
        assert tracer.dropped == 0
        # Ids are monotonic across resets: recycling them would let a
        # new span claim a dead span's id while concurrent serving
        # requests still hold references to it as a parent.
        assert tracer.record("c", 0.0, 1.0).span_id == 3

    def test_reset_discards_in_flight_spans_of_older_runs(self):
        # A span begun before reset() belongs to a discarded run: when
        # it finally ends it must not leak into the fresh trace (and
        # must not count as dropped — its run's counters are gone).
        tracer = Tracer()
        stale = tracer.begin("augment", 0.0)
        tracer.reset()
        fresh = tracer.begin("augment", 1.0)
        tracer.end(stale, 2.0)
        tracer.end(fresh, 2.0)
        assert [span.span_id for span in tracer.spans()] == [fresh.span_id]
        assert tracer.dropped == 0

    def test_cap_counts_drops(self):
        tracer = Tracer(max_spans=2)
        for i in range(5):
            tracer.record("s", float(i), float(i) + 1)
        assert len(tracer) == 2
        assert tracer.dropped == 3

    def test_invalid_cap_rejected(self):
        with pytest.raises(ValueError):
            Tracer(max_spans=0)

    def test_as_dicts_is_json_ready(self):
        tracer = Tracer()
        tracer.record("fetch", 0.0, 0.5, database="catalogue")
        payload = json.dumps(tracer.as_dicts())
        assert "catalogue" in payload

    def test_stats_is_one_consistent_snapshot(self):
        tracer = Tracer(max_spans=2)
        for i in range(5):
            tracer.record("s", float(i), float(i) + 1)
        assert tracer.stats() == {
            "spans": 2, "dropped": 3, "max_spans": 2,
        }
        tracer.reset()
        assert tracer.stats() == {
            "spans": 0, "dropped": 0, "max_spans": 2,
        }

    def test_tree_lines_indent_children(self):
        tracer = Tracer()
        parent = tracer.begin("augment", 0.0, None)
        tracer.record("fetch", 0.1, 0.2, parent.span_id)
        tracer.end(parent, 0.3)
        lines = tree_lines(tracer.spans())
        assert lines[0].startswith("augment")
        assert lines[1].startswith("  fetch")


class TestTraceRetention:
    """Request spans: one bucket per trace, whole-trace ring retention."""

    @staticmethod
    def _request(tracer, trace_id, children=2):
        """One finished request: ``children`` spans, then the root."""
        root = tracer.begin("request", 0.0, None, trace_id)
        for i in range(children):
            tracer.record("store_call", 0.0, 0.1, root.span_id, trace_id, n=i)
        tracer.end(root, 1.0)

    def test_bucket_holds_completion_order(self):
        tracer = Tracer()
        root = tracer.begin("request", 0.0, None, "t-1")
        inner = tracer.begin("augment", 0.1, root.span_id, "t-1")
        tracer.record("store_call", 0.2, 0.3, inner.span_id, "t-1")
        tracer.record("store_call", 0.0, 0.1, None, "t-2")
        tracer.end(inner, 0.4)
        tracer.end(root, 0.5)
        assert [s.name for s in tracer.spans_for("t-1")] == [
            "store_call", "augment", "request",
        ]
        assert [s.trace_id for s in tracer.spans_for("t-2")] == ["t-2"]
        assert tracer.spans_for("t-unknown") == []
        # A copy, not the live bucket.
        tracer.spans_for("t-1").clear()
        assert len(tracer.spans_for("t-1")) == 3

    def test_spans_lists_untraced_then_traces_oldest_first(self):
        tracer = Tracer()
        tracer.record("a", 0.0, 1.0, None, "t-1")
        tracer.record("b", 0.0, 1.0, None, "t-2")
        tracer.record("plan", 0.0, 1.0)
        tracer.record("c", 0.0, 1.0, None, "t-1")
        assert [s.name for s in tracer.spans()] == ["plan", "a", "c", "b"]
        assert [d["name"] for d in tracer.as_dicts()] == [
            "plan", "a", "c", "b",
        ]
        assert len(tracer) == 4
        assert tracer.stats()["spans"] == 4

    def test_summary_of_one_trace(self):
        tracer = Tracer()
        self._request(tracer, "t-1", children=2)
        self._request(tracer, "t-2", children=5)
        tracer.record("plan", 0.0, 1.0)
        assert tracer.summary("t-1") == {
            "store_call": {"count": 2, "total_s": pytest.approx(0.2)},
            "request": {"count": 1, "total_s": 1.0},
        }
        assert tracer.summary("t-gone") == {}
        assert tracer.summary()["store_call"]["count"] == 7

    def test_oldest_traces_are_evicted_whole(self):
        tracer = Tracer(max_spans=9)
        for i in range(1, 4):
            self._request(tracer, f"t-{i}")  # 3 spans each: budget full
        assert tracer.evicted == 0
        self._request(tracer, "t-4")
        # One whole trace made room for all three spans of the new one.
        assert tracer.evicted == 1
        assert tracer.dropped == 0
        assert tracer.spans_for("t-1") == []
        for i in (2, 3, 4):
            assert len(tracer.spans_for(f"t-{i}")) == 3
        self._request(tracer, "t-5", children=5)  # 6 spans: two victims
        assert tracer.evicted == 3
        assert [s.trace_id for s in tracer.spans()] == ["t-4"] * 3 + ["t-5"] * 6

    def test_untraced_buffer_and_request_spans_have_separate_budgets(self):
        tracer = Tracer(max_spans=3)
        for _ in range(5):
            tracer.record("classic", 0.0, 1.0)  # drop-newest, as ever
        assert tracer.dropped == 2
        self._request(tracer, "t-1")
        assert len(tracer.spans_for("t-1")) == 3
        assert tracer.stats() == {"spans": 6, "dropped": 2, "max_spans": 3}
        self._request(tracer, "t-2")
        assert tracer.evicted == 1
        assert [s.name for s in tracer.spans()[:3]] == ["classic"] * 3

    def test_open_trace_is_never_evicted(self):
        tracer = Tracer(max_spans=4)
        slow_root = tracer.begin("request", 0.0, None, "t-slow")
        tracer.record("store_call", 0.0, 0.1, slow_root.span_id, "t-slow")
        for i in range(6):
            self._request(tracer, f"t-{i}", children=1)
        # t-slow is the oldest bucket, but its root is still open.
        assert len(tracer.spans_for("t-slow")) == 1
        tracer.end(slow_root, 9.0)
        assert [s.name for s in tracer.spans_for("t-slow")] == [
            "store_call", "request",
        ]
        assert tracer.dropped == 0
        # Closed, it is the oldest evictable trace.
        self._request(tracer, "t-next", children=1)
        assert tracer.spans_for("t-slow") == []

    def test_single_trace_over_budget_drops_its_own_newest(self):
        tracer = Tracer(max_spans=3)
        self._request(tracer, "t-big", children=5)
        assert [s.attrs.get("n") for s in tracer.spans_for("t-big")] == [
            0, 1, 2,
        ]
        assert tracer.dropped == 3  # two children and the root
        assert tracer.evicted == 0  # never its own victim

    def test_in_flight_spans_over_budget_are_dropped_not_evicted(self):
        tracer = Tracer(max_spans=2)
        roots = [
            tracer.begin("request", 0.0, None, f"t-{i}") for i in range(3)
        ]
        for i, root in enumerate(roots):
            tracer.record("store_call", 0.0, 0.1, root.span_id, f"t-{i}")
        assert tracer.dropped == 1 and tracer.evicted == 0
        for root in roots:
            tracer.end(root, 1.0)
        assert tracer._open == {}

    def test_reset_empties_buckets_and_in_flight_bookkeeping(self):
        tracer = Tracer(max_spans=3)
        self._request(tracer, "t-1")
        self._request(tracer, "t-2")
        stale = tracer.begin("request", 0.0, None, "t-3")
        assert tracer.evicted == 1 and tracer._open == {"t-3": 1}
        tracer.reset()
        assert len(tracer) == 0
        assert tracer.spans_for("t-2") == []
        assert tracer.evicted == 0
        assert tracer._open == {} and tracer._traces == {}
        # Begun before the reset: discarded at end, leaves nothing behind.
        tracer.end(stale, 1.0)
        assert tracer.spans_for("t-3") == []
        assert tracer._open == {}
        assert tracer.stats() == {"spans": 0, "dropped": 0, "max_spans": 3}

    def test_no_in_flight_state_after_completed_failed_and_shed_requests(self):
        from repro.errors import RequestDeadlineExceeded, ServerBusy
        from repro.serving import QuepaServer, ServingConfig
        from tests.conftest import make_mini_aindex, make_mini_polystore

        polystore = make_mini_polystore()
        profile = centralized_profile(list(polystore))
        quepa = Quepa(
            polystore, make_mini_aindex(),
            profile=profile, runtime=RealRuntime(profile),
        )
        query = {"collection": "albums", "filter": {}}
        gate = threading.Event()
        started = threading.Event()
        real = quepa.serve_search

        def gated(*args, **kwargs):
            started.set()
            assert gate.wait(10), "test gate never opened"
            return real(*args, **kwargs)

        tracer = quepa.obs.tracer
        server = QuepaServer(quepa, ServingConfig(workers=1)).start()
        done = server.submit_search("s", "catalogue", query, level=1)
        done.result(10)
        failed = server.submit_search("s", "nosuchdb", query)
        with pytest.raises(Exception):
            failed.result(10)
        quepa.serve_search = gated
        blocker = server.submit_search("s", "catalogue", query)
        assert started.wait(10)
        with pytest.raises(RequestDeadlineExceeded):  # shed at admission
            server.submit_search("s", "catalogue", query, deadline=1e-9)
        doomed = server.submit_search("s", "catalogue", query, deadline=0.01)
        assert set(tracer._open) == {blocker.trace_id, doomed.trace_id}
        time.sleep(0.05)
        gate.set()
        blocker.result(10)
        with pytest.raises(RequestDeadlineExceeded):  # shed on deadline
            doomed.result(10)
        gate.clear()
        started.clear()
        second = server.submit_search("s", "catalogue", query)
        assert started.wait(10)
        queued = server.submit_search("s", "catalogue", query)
        stopper = threading.Thread(target=lambda: server.stop(drain=False))
        stopper.start()
        with pytest.raises(ServerBusy):  # shed on stop
            queued.result(10)
        gate.set()
        stopper.join(30)
        second.result(10)
        assert failed.status == "failed"
        assert doomed.status == queued.status == "shed"
        assert tracer._open == {}
        # Every admitted request left exactly one closed root span.
        for ticket in (done, failed, blocker, doomed, second, queued):
            roots = [
                s for s in tracer.spans_for(ticket.trace_id)
                if s.name == "request"
            ]
            assert len(roots) == 1 and roots[0].end is not None

    def test_threaded_begin_end_keeps_the_accounting_exact(self):
        tracer = Tracer(max_spans=64)
        trace_ids = [f"t-{i}" for i in range(8)]
        errors = []

        def hammer(worker):
            try:
                for i in range(400):
                    trace_id = trace_ids[(worker + i) % len(trace_ids)]
                    root = tracer.begin("request", 0.0, None, trace_id)
                    tracer.record("store_call", 0.0, 0.1, root.span_id, trace_id)
                    if i % 5 == 0:
                        tracer.record("classic", 0.0, 0.1)
                    tracer.end(root, 1.0)
                    assert len(tracer) <= 2 * tracer.max_spans
            except BaseException as exc:  # surface in the main thread
                errors.append(exc)

        threads = [
            threading.Thread(target=hammer, args=(w,)) for w in range(6)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # force interleavings inside begin/end
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        untraced = [s for s in tracer.spans() if s.trace_id is None]
        in_buckets = sum(len(tracer.spans_for(t)) for t in trace_ids)
        assert len(untraced) == tracer.max_spans
        assert in_buckets <= tracer.max_spans
        assert len(tracer) == len(untraced) + in_buckets
        assert tracer._traced == in_buckets
        assert tracer._open == {}
        # 6 x 400 x 2 request spans + 6 x 80 classic ones, all accounted
        # for: retained, dropped, or gone with an evicted trace.
        assert tracer.dropped >= 6 * 80 - tracer.max_spans
        assert tracer.evicted > 0


# ---------------------------------------------------------------------------
# Metrics registry
# ---------------------------------------------------------------------------


class TestMetrics:
    def test_counter_monotonic(self):
        registry = MetricsRegistry()
        counter = registry.counter("queries_total")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_gauge_moves_both_ways(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("pool_size")
        gauge.set(10)
        gauge.inc(2)
        gauge.dec(5)
        assert gauge.value == 7

    def test_histogram_buckets_cumulative(self):
        histogram = Histogram(buckets=(0.1, 1.0, 10.0))
        for value in (0.05, 0.5, 0.5, 5.0, 50.0):
            histogram.observe(value)
        snap = histogram.snapshot()
        assert snap["count"] == 5
        assert snap["max"] == 50.0
        assert snap["mean"] == pytest.approx(56.05 / 5)
        assert snap["buckets"] == {"0.1": 1, "1": 3, "10": 4, "+Inf": 5}

    def test_histogram_rejects_bad_buckets(self):
        with pytest.raises(ValueError):
            Histogram(buckets=())
        with pytest.raises(ValueError):
            Histogram(buckets=(1.0, 1.0))

    def test_get_or_create_by_name_and_labels(self):
        registry = MetricsRegistry()
        a = registry.counter("calls", database="x")
        b = registry.counter("calls", database="x")
        c = registry.counter("calls", database="y")
        assert a is b
        assert a is not c
        assert len(registry) == 2

    def test_kind_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("thing")
        with pytest.raises(TypeError):
            registry.gauge("thing")

    def test_snapshot_deterministic_and_json_ready(self):
        registry = MetricsRegistry()
        registry.counter("b_metric").inc()
        registry.counter("a_metric", database="z").inc(2)
        registry.histogram("lat", database="z").observe(0.2)
        snap = registry.snapshot()
        assert [entry["name"] for entry in snap] == [
            "a_metric", "b_metric", "lat",
        ]
        json.dumps(snap)  # must not raise
        assert snap[0]["labels"] == {"database": "z"}
        assert snap[0]["value"] == 2

    def test_snapshot_sorts_mixed_name_types(self):
        # Regression: a non-string metric name used to make the
        # snapshot sort raise TypeError (str vs int comparison).
        registry = MetricsRegistry()
        registry.counter("zeta").inc()
        registry.counter(99).inc(2)
        names = [entry["name"] for entry in registry.snapshot()]
        assert set(names) == {"zeta", 99}
        json.dumps(registry.snapshot(), default=str)

    def test_reset_forgets_instruments(self):
        registry = MetricsRegistry()
        registry.counter("x").inc()
        registry.reset()
        assert len(registry) == 0
        assert registry.counter("x").value == 0


class TestMetricsThreadSafety:
    def test_concurrent_counter_and_histogram_updates(self):
        registry = MetricsRegistry()
        counter = registry.counter("hits")
        histogram = registry.histogram("lat")

        def hammer():
            for _ in range(1000):
                counter.inc()
                histogram.observe(0.001)

        threads = [threading.Thread(target=hammer) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert counter.value == 8000
        assert histogram.count == 8000
        assert histogram.sum == pytest.approx(8.0)

    def test_concurrent_updates_from_real_runtime_pool(self):
        runtime = RealRuntime(centralized_profile(["db"]))
        ctx = runtime.root()

        def task(child):
            for _ in range(200):
                child.obs.metrics.counter("task_ticks").inc()
            return 1

        pool = ctx.pool(8)
        for _ in range(16):
            pool.submit(task)
        results = pool.join()
        assert sum(results) == 16
        assert runtime.obs.metrics.counter("task_ticks").value == 16 * 200

    def test_registry_get_or_create_race(self):
        registry = MetricsRegistry()
        barrier = threading.Barrier(8)
        instruments = []

        def grab():
            barrier.wait()
            instruments.append(registry.counter("shared"))

        threads = [threading.Thread(target=grab) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len({id(instrument) for instrument in instruments}) == 1


# ---------------------------------------------------------------------------
# Runtime wiring
# ---------------------------------------------------------------------------


class TestRuntimeWiring:
    def test_real_runtime_elapsed_zero_before_root(self):
        runtime = RealRuntime(centralized_profile(["db"]))
        # Regression: used to return `monotonic() - 0`, a huge number.
        assert runtime.elapsed == 0.0

    def test_virtual_root_resets_trace_not_metrics(self, mini_quepa):
        mini_quepa.augmented_search("transactions", QUERY)
        counter = mini_quepa.obs.metrics.counter(
            "store_queries_total", database="transactions"
        )
        first = counter.value
        assert len(mini_quepa.obs.tracer) > 0
        mini_quepa.augmented_search("transactions", QUERY)
        # Metrics are cumulative across runs, the tracer is per-run.
        second = counter.value
        assert second > first
        spans = mini_quepa.obs.tracer.spans()
        assert all(span.start >= 0.0 for span in spans)

    def test_plan_span_says_how_many_seeds_it_expanded(self, mini_quepa):
        """The plan-cache hit ratio, from the program's own spans:
        ``expanded`` is 0 exactly when the plan came from the cache."""

        def plan_span():
            mini_quepa.augmented_search("transactions", QUERY, level=1)
            (span,) = [
                s for s in mini_quepa.obs.tracer.spans() if s.name == "plan"
            ]
            return span.attrs

        first, second = plan_span(), plan_span()
        assert first["expanded"] == first["seeds"] > 0
        assert second["expanded"] == 0
        assert second["fetches"] == first["fetches"]

    def test_span_nesting_under_pool(self, mini_polystore, mini_aindex):
        quepa = Quepa(mini_polystore, mini_aindex)
        config = AugmentationConfig(augmenter="inner", threads_size=2)
        quepa.augmented_search("transactions", QUERY, config=config)
        spans = {span.span_id: span for span in quepa.obs.tracer.spans()}
        fetches = [s for s in spans.values() if s.name == "fetch"]
        assert fetches, "inner augmenter should emit fetch spans"
        for fetch in fetches:
            # Every fetch hangs off the augment span via inheritance.
            parent = spans[fetch.parent_id]
            assert parent.name == "augment"


# ---------------------------------------------------------------------------
# Acceptance: a level-1 query is fully observable under both runtimes
# ---------------------------------------------------------------------------


def _assert_observable(quepa):
    quepa.augmented_search("transactions", QUERY, level=1)
    summary = quepa.obs.tracer.summary()
    kinds = set(summary)
    assert {"plan", "store_call"} <= kinds
    assert kinds & {"fetch", "fetch_group", "augment"}
    assert len(kinds) >= 3
    snap = quepa.obs.metrics.snapshot()
    latencies = [
        entry for entry in snap if entry["name"] == "store_call_seconds"
    ]
    databases = {entry["labels"]["database"] for entry in latencies}
    assert "transactions" in databases
    assert len(databases) >= 2  # level 1 reaches other stores
    for entry in latencies:
        assert entry["count"] >= 1
        assert entry["buckets"]["+Inf"] == entry["count"]
    trace = quepa.last_record.span_summary
    assert trace["store_call"]["count"] >= 1


class TestAcceptance:
    def test_virtual_runtime_observable(self, mini_polystore, mini_aindex):
        profile = centralized_profile(list(mini_polystore))
        quepa = Quepa(
            mini_polystore, mini_aindex,
            runtime=VirtualRuntime(profile),
        )
        _assert_observable(quepa)

    def test_real_runtime_observable(self, mini_polystore, mini_aindex):
        profile = centralized_profile(list(mini_polystore))
        quepa = Quepa(
            mini_polystore, mini_aindex,
            runtime=RealRuntime(profile),
        )
        _assert_observable(quepa)

    def test_outcome_carries_trace_summary(self, mini_quepa):
        answer = mini_quepa.augmented_search("transactions", QUERY, level=1)
        assert answer.stats.elapsed > 0.0
        record = mini_quepa.last_record
        assert record.queries_by_database["transactions"] >= 1
        assert sum(record.objects_by_database.values()) > 0


class TestObservabilityBundle:
    def test_snapshot_shape(self):
        obs = Observability()
        obs.metrics.counter("x").inc()
        obs.tracer.record("y", 0.0, 1.0)
        snap = obs.snapshot()
        assert snap["trace"]["spans"] == 1
        assert snap["trace"]["by_kind"]["y"]["count"] == 1
        assert snap["metrics"][0]["name"] == "x"
