"""Tests for deployment profiles and the execution runtimes."""

import threading

import pytest

from repro.core import Quepa
from repro.core.augmentation import AugmentationConfig
from repro.errors import TimeoutExceeded
from repro.model.objects import DataObject, GlobalKey
from repro.network import executor
from repro.network import (
    CostModel,
    RealRuntime,
    VirtualRuntime,
    centralized_profile,
    distributed_profile,
)
from repro.workloads.queries import QueryWorkload


class TestProfiles:
    def test_centralized_places_all_stores_near(self):
        profile = centralized_profile(["a", "b"])
        assert profile.site("a").one_way_latency < 0.001
        assert profile.site("a").machine is profile.site("b").machine

    def test_distributed_latencies_are_large_and_distinct(self):
        profile = distributed_profile(["a", "b", "c"])
        latencies = {profile.site(db).one_way_latency for db in "abc"}
        assert len(latencies) == 3
        assert all(lat >= 0.040 for lat in latencies)

    def test_distributed_is_seeded(self):
        one = distributed_profile(["a", "b"], seed=9)
        two = distributed_profile(["a", "b"], seed=9)
        assert one.site("a").one_way_latency == two.site("a").one_way_latency

    def test_unplaced_database_gets_default_site(self):
        profile = centralized_profile(["a"])
        site = profile.site("never-placed")
        assert site.machine is profile.quepa_machine


def _fetch_objects(count):
    return [
        DataObject(GlobalKey("db", "c", str(i)), i) for i in range(count)
    ]


class TestVirtualRuntime:
    def make(self, databases=("db",)):
        profile = centralized_profile(list(databases))
        return VirtualRuntime(profile)

    def test_store_call_charges_roundtrip_and_service(self):
        runtime = self.make()
        ctx = runtime.root()
        ctx.store_call("db", lambda: _fetch_objects(10))
        cost = runtime.profile.cost_model
        site = runtime.profile.site("db")
        expected = (
            site.roundtrip
            + cost.per_query_overhead
            + 10 * cost.per_object_service
            + 10 * cost.per_object_cpu
        )
        assert runtime.elapsed == pytest.approx(expected)

    def test_meter_counts_queries_and_objects(self):
        runtime = self.make()
        ctx = runtime.root()
        ctx.store_call("db", lambda: _fetch_objects(3))
        ctx.store_call("db", lambda: _fetch_objects(2))
        assert runtime.meter.total_queries == 2
        assert runtime.meter.total_objects == 5
        assert runtime.meter.queries_by_database == {"db": 2}

    def test_sequential_tasks_in_one_worker_serialize(self):
        runtime = self.make()
        ctx = runtime.root()
        pool = ctx.pool(1)
        for __ in range(3):
            pool.submit(lambda child: child.cpu(1.0))
        pool.join()
        assert runtime.elapsed >= 3.0

    def test_parallel_tasks_overlap(self):
        runtime = VirtualRuntime(centralized_profile(["db"], cores=16))
        ctx = runtime.root()
        pool = ctx.pool(4)
        for __ in range(4):
            pool.submit(lambda child: child.cpu(1.0))
        pool.join()
        assert runtime.elapsed < 1.5

    def test_graham_bound_caps_speedup_at_cores(self):
        """More workers than cores cannot beat total_work / cores."""
        runtime = VirtualRuntime(centralized_profile(["db"], cores=2))
        ctx = runtime.root()
        pool = ctx.pool(16)
        for __ in range(16):
            pool.submit(lambda child: child.cpu(1.0))
        pool.join()
        assert runtime.elapsed >= 16.0 / 2

    def test_latency_waits_do_not_consume_cores(self):
        """Blocked threads overlap freely even on a 1-core host."""
        profile = distributed_profile(["db"], cores=1, min_latency=0.1,
                                      max_latency=0.1)
        runtime = VirtualRuntime(profile)
        ctx = runtime.root()
        pool = ctx.pool(10)
        for __ in range(10):
            pool.submit(
                lambda child: child.store_call("db", lambda: [])
            )
        pool.join()
        # 10 x 0.2s roundtrips overlapped: far less than 2s sequential.
        assert runtime.elapsed < 0.5

    def test_nested_pools_compose(self):
        runtime = VirtualRuntime(centralized_profile(["db"], cores=64))
        ctx = runtime.root()

        def outer_task(child):
            inner = child.pool(2)
            inner.submit(lambda grandchild: grandchild.cpu(1.0))
            inner.submit(lambda grandchild: grandchild.cpu(1.0))
            inner.join()
            return child.now

        pool = ctx.pool(2)
        pool.submit(outer_task)
        pool.submit(outer_task)
        pool.join()
        # 4 seconds of CPU across 4-way nested parallelism.
        assert runtime.elapsed < 1.6

    def test_results_returned_in_submission_order(self):
        runtime = self.make()
        ctx = runtime.root()
        pool = ctx.pool(2)
        for value in range(5):
            pool.submit(lambda child, v=value: v)
        assert pool.join() == [0, 1, 2, 3, 4]

    def test_root_resets_elapsed(self):
        runtime = self.make()
        ctx = runtime.root()
        ctx.cpu(5.0)
        assert runtime.elapsed == pytest.approx(5.0)
        runtime.root()
        assert runtime.elapsed == 0.0


class _StubTime:
    """Stands in for the ``time`` module inside
    ``repro.network.executor``: a sleep is recorded and moves a fake
    clock forward instead of blocking."""

    def __init__(self):
        self._lock = threading.Lock()
        self.reset()

    def reset(self):
        self.clock = 1000.0
        #: (thread ident, requested seconds), in call order.
        self.sleeps = []

    @property
    def requested(self):
        return [seconds for _, seconds in self.sleeps]

    def monotonic(self):
        return self.clock

    def sleep(self, seconds):
        with self._lock:
            self.sleeps.append((threading.get_ident(), seconds))
            self.clock += seconds


@pytest.fixture
def stub_time(monkeypatch):
    stub = _StubTime()
    monkeypatch.setattr(executor, "time", stub)
    return stub


def _real_quepa(bundle, cost_model=None):
    """A ``Quepa`` over ``bundle`` on ``RealRuntime`` at ``time_scale=1``."""
    profile = centralized_profile(list(bundle.polystore), cost_model=cost_model)
    return Quepa(
        bundle.polystore,
        bundle.aindex,
        profile=profile,
        runtime=RealRuntime(profile, time_scale=1.0),
    )


class TestRealRuntime:
    def test_tasks_actually_run_and_results_collected(self):
        runtime = RealRuntime(centralized_profile(["db"]))
        ctx = runtime.root()
        pool = ctx.pool(4)
        for value in range(8):
            pool.submit(lambda child, v=value: v * 2)
        assert pool.join() == [0, 2, 4, 6, 8, 10, 12, 14]

    def test_store_call_executes_and_meters(self):
        runtime = RealRuntime(centralized_profile(["db"]))
        ctx = runtime.root()
        results = ctx.store_call("db", lambda: _fetch_objects(4))
        assert len(results) == 4
        assert runtime.meter.total_objects == 4

    def test_elapsed_measures_wall_time(self):
        runtime = RealRuntime(centralized_profile(["db"]))
        runtime.root()
        runtime.stop()
        assert runtime.elapsed >= 0.0

    def test_cost_model_exposed_via_context(self):
        model = CostModel(cache_probe_cost=0.123)
        profile = centralized_profile(["db"], cost_model=model)
        runtime = RealRuntime(profile)
        assert runtime.root().cost_model.cache_probe_cost == 0.123

    # -- CPU debt: charged per call, slept once per blocking boundary -------

    def test_charges_are_paid_in_one_sleep_before_the_store_call(
        self, stub_time
    ):
        profile = centralized_profile(["db"])
        runtime = RealRuntime(profile, time_scale=2.0)
        ctx = runtime.root()
        charges = [1e-6 * (k % 7 + 1) for k in range(50)]
        charged = 0.0
        for seconds in charges:
            ctx.cpu(seconds)
            charged += seconds
        assert stub_time.requested == []
        # Bit for bit: one float addition per charge, as before.
        assert runtime.obs.metrics.counter("cpu_seconds_total").value == charged
        ctx.store_call("db", lambda: _fetch_objects(3))
        roundtrip = profile.site("db").roundtrip
        assert stub_time.requested == [charged * 2.0, roundtrip * 2.0]
        assert ctx._debt == 0.0
        assert runtime.obs.metrics.counter("runtime_sleeps_total").value == 2

    def test_store_call_timing_excludes_pending_debt(self, stub_time):
        def timed(pending_charges):
            runtime = RealRuntime(centralized_profile(["db"]), time_scale=1.0)
            ctx = runtime.root()
            for _ in range(pending_charges):
                ctx.cpu(1e-6)
            ctx.store_call("db", lambda: _fetch_objects(3))
            (span,) = [
                s for s in runtime.obs.tracer.spans() if s.name == "store_call"
            ]
            histogram = runtime.obs.metrics.histogram(
                "store_call_seconds", database="db"
            )
            return span.duration, histogram.snapshot()["sum"]

        indebted, clean = timed(1000), timed(0)
        assert indebted == pytest.approx(clean, abs=1e-12)
        assert clean[0] == pytest.approx(0.0004)

    def test_settlement_is_a_span_on_the_contexts_trace(self, stub_time):
        runtime = RealRuntime(centralized_profile(["db"]), time_scale=1.0)
        ctx = runtime.request_context(trace_id="t-000001")
        ctx.cpu(0.25)
        ctx.settle()
        (span,) = runtime.obs.tracer.spans_for("t-000001")
        assert span.name == "cpu_settle"
        assert span.attrs["owed_s"] == 0.25
        assert span.duration == pytest.approx(0.25)
        ctx.settle()  # nothing owed: no sleep, no span
        assert stub_time.requested == [0.25]

    def test_now_runs_ahead_by_the_owed_debt(self, stub_time):
        runtime = RealRuntime(centralized_profile(["db"]), time_scale=3.0)
        ctx = runtime.root()
        before = ctx.now
        ctx.cpu(0.5)
        assert ctx.now == pytest.approx(before + 1.5)
        ctx.settle()
        assert ctx.now == pytest.approx(before + 1.5)

    def test_time_scale_zero_never_sleeps_and_owes_nothing(self, stub_time):
        runtime = RealRuntime(centralized_profile(["db"]))
        ctx = runtime.root()
        ctx.cpu(0.5)
        assert ctx._debt == 0.0
        ctx.store_call("db", lambda: _fetch_objects(1))
        ctx.sleep(1.0)
        pool = ctx.pool(2)
        pool.submit(lambda child: child.cpu(0.5))
        pool.join()
        ctx.settle()
        assert stub_time.requested == []
        assert runtime.obs.metrics.counter("cpu_seconds_total").value > 1.0

    def test_failing_task_pays_its_debt_on_its_own_thread(self, stub_time):
        runtime = RealRuntime(centralized_profile(["db"]), time_scale=1.0)
        ctx = runtime.root()
        pool = ctx.pool(1)

        def task(child):
            child.cpu(0.5)
            raise ValueError("boom")

        pool.submit(task)
        with pytest.raises(ValueError, match="boom"):
            pool.join()
        parent_sleep, child_sleep = stub_time.sleeps
        me = threading.get_ident()
        overhead = runtime.profile.cost_model.pool_create_overhead
        assert parent_sleep == (me, overhead)
        assert child_sleep[1] == 0.5 and child_sleep[0] != me

    def test_failing_task_leaves_no_pool_thread_behind(self):
        runtime = RealRuntime(centralized_profile(["db"]))
        ctx = runtime.root()
        before = set(threading.enumerate())
        pool = ctx.pool(4)
        gate = threading.Event()

        def task(child, fail):
            gate.wait(timeout=5)
            if fail:
                raise ValueError("boom")

        for index in range(4):
            pool.submit(lambda child, fail=index == 0: task(child, fail))
        gate.set()
        with pytest.raises(ValueError, match="boom"):
            pool.join()
        leaked = [
            thread
            for thread in set(threading.enumerate()) - before
            if thread.is_alive()
        ]
        assert leaked == []

    def test_served_search_owes_nothing_and_sleeps_per_boundary(
        self, small_bundle, stub_time, monkeypatch
    ):
        contexts = []

        class Tracked(executor._RealContext):
            def __init__(self, runtime):
                super().__init__(runtime)
                contexts.append(self)

        monkeypatch.setattr(executor, "_RealContext", Tracked)
        quepa = _real_quepa(small_bundle)
        runtime, profile = quepa.runtime, quepa.profile
        query = QueryWorkload(small_bundle).query("transactions", 12)
        answer = quepa.serve_search(
            "transactions",
            query.query,
            level=1,
            config=AugmentationConfig(
                augmenter="outer_batch", batch_size=4, threads_size=4
            ),
            trace_id="t-000001",
        )
        assert answer.stats.planned_fetches > 20
        assert len(contexts) > 1
        assert [ctx._debt for ctx in contexts] == [0.0] * len(contexts)
        metrics = runtime.obs.metrics
        store_calls = runtime.meter.total_queries
        pool_tasks = metrics.counter("pool_tasks_total").value
        assert pool_tasks > 0
        assert len(stub_time.requested) <= store_calls * 2 + pool_tasks + 3
        # Every modelled second was slept, none twice.
        modelled = (
            metrics.counter("cpu_seconds_total").value
            + store_calls * profile.site("transactions").roundtrip
        )
        assert sum(stub_time.requested) == pytest.approx(modelled)
        settles = [
            span
            for span in runtime.obs.tracer.spans_for("t-000001")
            if span.name == "cpu_settle"
        ]
        assert sum(span.attrs["owed_s"] for span in settles) == pytest.approx(
            metrics.counter("cpu_seconds_total").value
        )

    @pytest.mark.parametrize("skip_unavailable", [False, True])
    def test_timeout_budget_counts_unpaid_debt(
        self, small_bundle, stub_time, monkeypatch, skip_unavailable
    ):
        """A budget shorter than the debt trips at the fetch it tripped
        at when every charge slept on the spot."""

        class SleepsPerCharge(executor._RealContext):
            def cpu(self, seconds):
                super().cpu(seconds)
                self.settle()

        def run(context_class):
            monkeypatch.setattr(executor, "_RealContext", context_class)
            stub_time.reset()
            quepa = _real_quepa(
                small_bundle, CostModel(cache_probe_cost=0.01)
            )
            query = QueryWorkload(small_bundle).query("transactions", 12)
            config = AugmentationConfig(
                augmenter="sequential",
                timeout_budget=0.035,
                skip_unavailable=skip_unavailable,
            )
            try:
                answer = quepa.serve_search(
                    "transactions", query.query, level=1, config=config
                )
            except TimeoutExceeded:
                outcome = "raised"
            else:
                outcome = (
                    answer.stats.degraded,
                    answer.stats.queries_issued,
                    sorted(str(a.key) for a in answer.augmented),
                )
            return outcome, quepa.runtime.meter.total_queries

        deferred = run(executor._RealContext)
        per_charge = run(SleepsPerCharge)
        assert deferred == per_charge
        outcome, store_queries = deferred
        # The local query plus the three fetches the budget had room for.
        assert store_queries == 4
        if skip_unavailable:
            assert outcome[0] is True
        else:
            assert outcome == "raised"

