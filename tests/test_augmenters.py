"""Tests for the six augmenter strategies (Section IV).

The key invariant: all strategies produce exactly the same *answer*;
they differ only in the number of native queries and their overlap.
"""

import pytest

from repro.core.aindex import AIndex
from repro.core.augmentation import Augmentation, AugmentationConfig
from repro.core.augmenters import (
    BATCHING,
    POOLED,
    available_augmenters,
    make_augmenter,
)
from repro.core.cache import LruCache
from repro.core.connectors import ConnectorRegistry
from repro.core.runlog import QueryFeatures, RunRecord
from repro.core.system import Quepa
from repro.errors import ConfigurationError, UnknownAugmenterError
from repro.model.objects import GlobalKey
from repro.model.prelations import PRelation
from repro.network import RealRuntime, VirtualRuntime, centralized_profile
from repro.optimizer import RunLogRepository
from repro.optimizer.costbased import CostBasedOptimizer
from repro.workloads import QueryWorkload

K = GlobalKey.parse
ALL_AUGMENTERS = (
    "sequential", "batch", "inner", "outer", "outer_batch", "outer_inner",
)


@pytest.fixture
def setup(mini_polystore, mini_aindex):
    registry = ConnectorRegistry(mini_polystore)
    augmentation = Augmentation(mini_aindex)
    seeds = [
        K("transactions.inventory.a32"),
        K("transactions.inventory.a34"),
    ]
    plan = augmentation.plan(seeds, level=1)
    profile = centralized_profile(list(mini_polystore))
    return registry, plan, profile


def run_augmenter(name, registry, plan, profile, cache=None, **config_kwargs):
    cache = cache if cache is not None else LruCache(0)
    runtime = VirtualRuntime(profile)
    ctx = runtime.root()
    augmenter = make_augmenter(name, registry, cache)
    config = AugmentationConfig(augmenter=name, **config_kwargs)
    outcome = augmenter.execute(ctx, plan, config)
    return outcome, runtime


def answer_signature(outcome):
    return sorted(
        (str(entry.key), str(entry.source), round(entry.probability, 6))
        for entry in outcome.objects
    )


class TestRegistry:
    def test_all_six_registered(self):
        assert set(ALL_AUGMENTERS) <= set(available_augmenters())

    def test_unknown_augmenter_raises(self, setup):
        registry, __, ___ = setup
        with pytest.raises(UnknownAugmenterError):
            make_augmenter("warp-drive", registry, LruCache(0))

    def test_invalid_config_rejected(self, setup):
        registry, plan, profile = setup
        with pytest.raises(ConfigurationError):
            run_augmenter("batch", registry, plan, profile, batch_size=0)
        with pytest.raises(ConfigurationError):
            run_augmenter("outer", registry, plan, profile, threads_size=0)


class TestAnswersAreEquivalent:
    @pytest.mark.parametrize("name", ALL_AUGMENTERS)
    def test_same_answer_as_sequential(self, setup, name):
        registry, plan, profile = setup
        baseline, __ = run_augmenter("sequential", registry, plan, profile)
        outcome, __ = run_augmenter(
            name, registry, plan, profile, batch_size=2, threads_size=4
        )
        assert answer_signature(outcome) == answer_signature(baseline)

    @pytest.mark.parametrize("name", ALL_AUGMENTERS)
    def test_same_answer_under_real_threads(self, setup, name):
        registry, plan, profile = setup
        baseline, __ = run_augmenter("sequential", registry, plan, profile)
        runtime = RealRuntime(profile)
        ctx = runtime.root()
        augmenter = make_augmenter(name, registry, LruCache(0))
        config = AugmentationConfig(
            augmenter=name, batch_size=2, threads_size=4
        )
        outcome = augmenter.execute(ctx, plan, config)
        assert answer_signature(outcome) == answer_signature(baseline)

    def test_inner_with_warm_cache_creates_no_pool(self, setup):
        """Regression: INNER paid the pool-creation overhead even when
        every probe hit the cache and no task was ever submitted."""
        registry, plan, profile = setup
        cache = LruCache(10_000)
        run_augmenter("inner", registry, plan, profile, cache=cache)
        outcome, runtime = run_augmenter(
            "inner", registry, plan, profile, cache=cache
        )
        assert outcome.cache_hits == plan.total_fetches()
        pools = runtime.obs.metrics.counter("pools_created_total")
        assert pools.value == 0

    @pytest.mark.parametrize(
        "name", ("inner", "outer", "outer_batch", "outer_inner")
    )
    def test_empty_plan_creates_no_pool(self, name, setup, mini_aindex):
        """``outer_inner`` used to open and join a pool over nothing."""
        registry, __, profile = setup
        empty_plan = Augmentation(mini_aindex).plan([], level=1)
        assert empty_plan.total_fetches() == 0
        outcome, runtime = run_augmenter(name, registry, empty_plan, profile)
        assert outcome.objects == []
        pools = runtime.obs.metrics.counter("pools_created_total")
        assert pools.value == 0
        assert "pool" not in {span.name for span in runtime.obs.tracer.spans()}
        assert runtime.elapsed == 0.0

    def test_probabilities_attached_to_objects(self, setup):
        registry, plan, profile = setup
        outcome, __ = run_augmenter("sequential", registry, plan, profile)
        assert all(0 < entry.probability <= 1 for entry in outcome.objects)
        assert any(entry.probability < 1 for entry in outcome.objects)


class TestQueryCounts:
    def test_sequential_issues_one_query_per_fetch(self, setup):
        registry, plan, profile = setup
        outcome, runtime = run_augmenter("sequential", registry, plan, profile)
        assert outcome.queries_issued == plan.total_fetches()
        assert runtime.meter.total_queries == plan.total_fetches()

    def test_batch_respects_batch_size(self, setup):
        """Fig 6(b): one query per full group, plus the final flushes."""
        registry, plan, profile = setup
        outcome, runtime = run_augmenter(
            "batch", registry, plan, profile, batch_size=4
        )
        databases = {key.database for key in plan.keys}
        import math
        upper = sum(
            math.ceil(
                sum(1 for key in plan.keys if key.database == db) / 4
            )
            for db in databases
        )
        assert outcome.queries_issued <= upper
        assert outcome.queries_issued < plan.total_fetches()

    def test_batch_size_one_degenerates_to_sequential_count(self, setup):
        registry, plan, profile = setup
        outcome, __ = run_augmenter(
            "batch", registry, plan, profile, batch_size=1
        )
        assert outcome.queries_issued == plan.total_fetches()

    def test_huge_batch_size_one_query_per_database(self, setup):
        registry, plan, profile = setup
        outcome, __ = run_augmenter(
            "batch", registry, plan, profile, batch_size=10_000
        )
        databases = {key.database for key in plan.keys}
        assert outcome.queries_issued == len(databases)

    def test_outer_batch_also_batches(self, setup):
        registry, plan, profile = setup
        outcome, __ = run_augmenter(
            "outer_batch", registry, plan, profile,
            batch_size=10_000, threads_size=4,
        )
        databases = {key.database for key in plan.keys}
        assert outcome.queries_issued == len(databases)


class TestBudgetAccounting:
    @pytest.mark.parametrize("name", ALL_AUGMENTERS)
    def test_barred_tasks_are_skipped_not_issued(self, small_bundle, name):
        """Regression: the pooled strategies counted every submitted
        task as an issued query, also the ones the timeout budget barred
        before they reached a store — up to four phantom queries per
        real one in the run log the optimizer trains on."""
        query = QueryWorkload(small_bundle).query("transactions", 15)

        def search(**knobs):
            quepa = Quepa(small_bundle.polystore, small_bundle.aindex)
            config = AugmentationConfig(name, 8, 4, cache_size=0, **knobs)
            answer = quepa.augmented_search(
                query.database, query.query, level=1, config=config
            )
            return quepa, answer.stats

        __, baseline = search()
        quepa, stats = search(
            skip_unavailable=True, timeout_budget=baseline.elapsed / 4
        )
        assert stats.queries_issued == quepa.runtime.meter.total_queries
        assert stats.queries_issued < baseline.queries_issued
        barred = quepa.last_record.skipped_flushes
        assert barred > 0
        if name not in ("batch", "outer_batch"):
            # One task per planned fetch: each was issued or barred.
            assert stats.queries_issued - 1 + barred == stats.planned_fetches


class TestCacheInteraction:
    def test_cache_hits_skip_store_queries(self, setup):
        registry, plan, profile = setup
        cache = LruCache(1000)
        first, __ = run_augmenter(
            "sequential", registry, plan, profile, cache=cache
        )
        assert first.cache_hits == 0
        second, runtime = run_augmenter(
            "sequential", registry, plan, profile, cache=cache
        )
        assert second.cache_hits == plan.total_fetches()
        assert runtime.meter.total_queries == 0
        assert answer_signature(second) == answer_signature(first)

    @pytest.mark.parametrize("name", ALL_AUGMENTERS)
    def test_warm_cache_equivalence(self, setup, name):
        registry, plan, profile = setup
        cache = LruCache(1000)
        cold, __ = run_augmenter(name, registry, plan, profile, cache=cache,
                                 batch_size=2, threads_size=4)
        warm, __ = run_augmenter(name, registry, plan, profile, cache=cache,
                                 batch_size=2, threads_size=4)
        assert answer_signature(warm) == answer_signature(cold)
        assert warm.cache_hits > 0

    def test_cached_probability_reweighted_per_fetch(self, setup):
        """A cached object must carry the probability of *this* path."""
        registry, plan, profile = setup
        cache = LruCache(1000)
        run_augmenter("sequential", registry, plan, profile, cache=cache)
        warm, __ = run_augmenter("sequential", registry, plan, profile,
                                 cache=cache)
        by_pair = {
            (str(e.key), str(e.source)): e.probability for e in warm.objects
        }
        cold, __ = run_augmenter("sequential", registry, plan, profile)
        for entry in cold.objects:
            assert by_pair[(str(entry.key), str(entry.source))] == pytest.approx(
                entry.probability
            )


class TestMissingObjects:
    def test_missing_objects_reported(self, mini_polystore, mini_aindex):
        ghost = K("transactions.inventory.ghost")
        mini_aindex.add(
            PRelation.identity(K("transactions.inventory.a32"), ghost, 0.9)
        )
        registry = ConnectorRegistry(mini_polystore)
        plan = Augmentation(mini_aindex).plan(
            [K("transactions.inventory.a32")], level=0
        )
        profile = centralized_profile(list(mini_polystore))
        for name in ALL_AUGMENTERS:
            outcome, __ = run_augmenter(
                name, registry, plan, profile, batch_size=2, threads_size=2
            )
            assert ghost in outcome.missing, name


class TestTimingShapes:
    """Coarse performance sanity on virtual time (full curves live in
    benchmarks/)."""

    def test_batching_is_faster_than_sequential(self, seven_store_bundle):
        bundle = seven_store_bundle
        registry = ConnectorRegistry(bundle.polystore)
        seeds = [bundle.entity_key("transactions", i) for i in range(50)]
        plan = Augmentation(bundle.aindex).plan(seeds, level=0)
        profile = centralized_profile(bundle.database_names())
        slow, __ = run_augmenter("sequential", registry, plan, profile)
        fast, __ = run_augmenter("batch", registry, plan, profile,
                                 batch_size=64)
        __, runtime_seq = run_augmenter("sequential", registry, plan, profile)
        __, runtime_batch = run_augmenter("batch", registry, plan, profile,
                                          batch_size=64)
        assert runtime_batch.elapsed < runtime_seq.elapsed

    def test_threads_speed_up_outer(self, seven_store_bundle):
        bundle = seven_store_bundle
        registry = ConnectorRegistry(bundle.polystore)
        seeds = [bundle.entity_key("catalogue", i) for i in range(50)]
        plan = Augmentation(bundle.aindex).plan(seeds, level=0)
        profile = centralized_profile(bundle.database_names())
        __, one = run_augmenter("outer", registry, plan, profile,
                                threads_size=1)
        __, eight = run_augmenter("outer", registry, plan, profile,
                                  threads_size=8)
        assert eight.elapsed < one.elapsed


class TestFamilies:
    """BATCHING and POOLED are declared once; every reader agrees."""

    def test_every_reader_agrees_with_the_declaration(self, mini_quepa):
        assert BATCHING | POOLED <= set(available_augmenters())
        logs = RunLogRepository()
        for rank, name in enumerate(available_augmenters()):
            features = QueryFeatures(
                "relational", "transactions", 0, rank, 10, 4, "centralized"
            )
            logs.add(RunRecord(features, name, 100 + rank, 200 + rank, 0, 1.0))
        batched = {ex.target - 100 for ex in logs.batch_size_examples()}
        pooled = {ex.target - 200 for ex in logs.threads_size_examples()}
        for rank, name in enumerate(available_augmenters()):
            assert (len(CostBasedOptimizer._batch_options(name)) > 1) == (
                name in BATCHING
            )
            assert (len(CostBasedOptimizer._thread_options(name)) > 1) == (
                name in POOLED
            )
            assert (rank in batched) == (name in BATCHING)
            assert (rank in pooled) == (name in POOLED)
            execution = mini_quepa.explain(
                "transactions",
                "SELECT * FROM inventory WHERE name LIKE '%wish%'",
                config=AugmentationConfig(augmenter=name),
            )["execution"]
            assert execution["batching"] == (name in BATCHING)
            assert execution["pooled"] == (name in POOLED)
