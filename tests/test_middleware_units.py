"""Unit backfill for the middleware emulators (edge cases of Fig 13).

Three families of edge behaviour the benchmark suites never hit:

* **empty joins** — a local query matching nothing must flow through
  META-NAT's join rounds, META-AUG's fetch loop and TALEND's pipeline
  without errors and with an empty answer;
* **cast round-trips** — keys and payloads survive the trip through the
  middleware's row model: ``GlobalKey`` parse/str round-trips and
  ``multi_get`` returns the exact stored objects, which is what makes
  the planner's materialized strategies bit-identical to push-down;
* **unavailability** — ``MiddlewareSystem.run`` reports an unreachable
  store on the result (``unavailable=...``) instead of raising or
  returning a half answer, mirroring the OOM red-X behaviour.
"""

from __future__ import annotations

import math

import pytest

from repro.errors import InjectedFaultError, StoreUnavailableError
from repro.faults import FaultInjector
from repro.middleware import EtlWorkflow, FederatedMiddleware, MultiModelStore
from repro.planner.plans import SCAN_PAGE, page_scan
from repro.model.objects import GlobalKey
from repro.network import centralized_profile
from repro.network.executor import VirtualRuntime
from repro.workloads import PolystoreScale, QueryWorkload, build_polyphony
from repro.workloads.queries import WorkloadQuery

BIG_BUDGET = 10_000_000


@pytest.fixture(scope="module")
def bundle():
    return build_polyphony(stores=4, scale=PolystoreScale(n_albums=60), seed=9)


@pytest.fixture
def profile(bundle):
    return centralized_profile(bundle.database_names())


def empty_query(database: str = "catalogue") -> WorkloadQuery:
    """A valid document query matching zero objects."""
    return WorkloadQuery(
        database=database,
        engine="document",
        query={"collection": "albums", "filter": {"seq": {"$gte": 10**9}}},
        size=0,
        variant=0,
    )


class TestEmptyJoins:
    def test_meta_native_empty_frontier(self, bundle, profile):
        system = FederatedMiddleware(
            bundle, profile, mode="native", memory_budget=BIG_BUDGET
        )
        result = system.run(empty_query(), level=1)
        assert len(result.answer) == 0
        assert not result.out_of_memory
        assert result.unavailable == ()
        # The join rounds still scanned the remote collections.
        assert result.elapsed > 0

    def test_meta_augmented_empty_answer(self, bundle, profile):
        system = FederatedMiddleware(
            bundle, profile, mode="augmented", memory_budget=BIG_BUDGET
        )
        result = system.run(empty_query(), level=2)
        assert len(result.answer) == 0
        assert not result.out_of_memory

    def test_etl_pipeline_with_zero_records(self, bundle, profile):
        system = EtlWorkflow(bundle, profile, memory_budget=BIG_BUDGET)
        result = system.run(empty_query(), level=1)
        assert len(result.answer) == 0
        # Startup and staging are paid regardless of the empty answer.
        assert result.elapsed > 1.0

    def test_multimodel_empty_answer(self, bundle, profile):
        system = MultiModelStore(bundle, profile, memory_budget=BIG_BUDGET)
        result = system.run(empty_query(), level=1)
        assert len(result.answer) == 0

    def test_page_scan_empty_collection_issues_no_calls(self, profile):
        from repro.stores import DocumentStore

        store = DocumentStore()
        store.create_collection("empty")
        runtime = VirtualRuntime(profile)
        ctx = runtime.root()
        keys = page_scan(ctx, store, "catalogue", "empty")
        assert keys == []
        assert runtime.meter.total_queries == 0


class TestPageScan:
    def test_one_roundtrip_per_page(self, bundle, profile):
        store = bundle.polystore.database("catalogue")
        runtime = VirtualRuntime(profile)
        ctx = runtime.root()
        keys = page_scan(ctx, store, "catalogue", "albums", page_size=7)
        assert len(keys) == 60
        assert runtime.meter.total_queries == math.ceil(60 / 7)
        assert SCAN_PAGE == 1000

    def test_issue_callback_replaces_store_call(self, bundle, profile):
        store = bundle.polystore.database("catalogue")
        runtime = VirtualRuntime(profile)
        ctx = runtime.root()
        routed = []

        def issue(ctx, database, op):
            routed.append(database)
            return ctx.store_call(database, op)

        page_scan(ctx, store, "catalogue", "albums", page_size=25, issue=issue)
        assert routed == ["catalogue"] * math.ceil(60 / 25)

    def test_issue_callback_failures_propagate(self, bundle, profile):
        store = bundle.polystore.database("catalogue")
        ctx = VirtualRuntime(profile).root()

        def issue(ctx, database, op):
            raise InjectedFaultError(f"{database} is down")

        with pytest.raises(StoreUnavailableError):
            page_scan(ctx, store, "catalogue", "albums", issue=issue)


class TestCastRoundTrips:
    def test_global_key_parse_str_round_trip(self, bundle):
        store = bundle.polystore.database("catalogue")
        for key in list(store.collection_keys("albums"))[:10]:
            global_key = GlobalKey("catalogue", "albums", key)
            assert GlobalKey.parse(str(global_key)) == global_key

    def test_multi_get_returns_exact_stored_payloads(self, bundle):
        """The materializing strategies rely on this identity."""
        store = bundle.polystore.database("catalogue")
        originals = store.execute(
            {"collection": "albums", "filter": {"seq": {"$lt": 5}}}
        )
        keys = [obj.key for obj in originals]
        fetched = store.multi_get(keys)
        assert {obj.key: obj.value for obj in fetched} == {
            obj.key: obj.value for obj in originals
        }

    def test_multi_get_dedups_and_drops_missing(self, bundle):
        store = bundle.polystore.database("catalogue")
        key = store.execute(
            {"collection": "albums", "filter": {"seq": {"$lt": 1}}}
        )[0].key
        ghost = GlobalKey("catalogue", "albums", "no-such-album")
        fetched = store.multi_get([key, key, ghost])
        assert [obj.key for obj in fetched] == [key]


class TestUnavailability:
    def _faults(self, database):
        faults = FaultInjector(seed=2)
        faults.inject(database, "fail", rate=1.0)
        return faults

    @pytest.mark.parametrize(
        "factory,mode",
        [
            (FederatedMiddleware, "native"),
            (FederatedMiddleware, "augmented"),
            (EtlWorkflow, None),
            (MultiModelStore, "augmented"),
        ],
    )
    def test_run_reports_unavailable_instead_of_raising(
        self, bundle, profile, factory, mode
    ):
        kwargs = {
            "memory_budget": BIG_BUDGET, "faults": self._faults("similar")
        }
        if mode is not None:
            kwargs["mode"] = mode
        system = factory(bundle, profile, **kwargs)
        query = QueryWorkload(bundle).query("catalogue", 10)
        result = system.run(query, level=1)
        assert len(result.answer) == 0
        assert result.unavailable == ("similar",)
        assert "similar" in result.errors["similar"]
        assert not result.out_of_memory

    def test_oom_still_reported_as_red_x(self, bundle, profile):
        system = FederatedMiddleware(
            bundle, profile, mode="native", memory_budget=10
        )
        result = system.run(QueryWorkload(bundle).query("catalogue", 10))
        assert result.out_of_memory
        assert result.unavailable == ()
        assert result.footprint > 10

    def test_home_store_down_reports_unavailable(self, bundle, profile):
        system = FederatedMiddleware(
            bundle, profile, mode="augmented", memory_budget=BIG_BUDGET,
            faults=self._faults("catalogue"),
        )
        result = system.run(QueryWorkload(bundle).query("catalogue", 10))
        assert len(result.answer) == 0
        assert result.unavailable == ("catalogue",)
