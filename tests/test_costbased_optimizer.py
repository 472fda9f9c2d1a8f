"""Tests for the cost-based optimizer baseline."""

import pytest

from repro.core.runlog import QueryFeatures
from repro.network.latency import CostModel
from repro.optimizer.costbased import CostBasedOptimizer


def features(planned=1000, original=100, stores=7, deployment="centralized"):
    return QueryFeatures(
        engine="relational",
        database="transactions",
        level=0,
        original_count=original,
        planned_fetches=planned,
        store_count=stores,
        deployment=deployment,
    )


class TestCostBased:
    def test_picks_batching_for_large_remote_answers(self):
        optimizer = CostBasedOptimizer(roundtrip=0.2)
        config = optimizer.configure(features(planned=5000), 1024)
        assert config.augmenter in ("batch", "outer_batch")
        assert config.batch_size >= 64

    def test_picks_cheap_strategy_for_tiny_answers(self):
        optimizer = CostBasedOptimizer()
        config = optimizer.configure(features(planned=3, original=1), 1024)
        # Anything lightweight is acceptable for three fetches; the
        # heavyweight strategies must not be picked.
        assert config.augmenter in ("sequential", "batch", "inner")

    def test_estimate_monotone_in_fetches(self):
        optimizer = CostBasedOptimizer()
        from repro.core.augmentation import AugmentationConfig

        config = AugmentationConfig(augmenter="sequential")
        small = optimizer.estimate(features(planned=10), config)
        large = optimizer.estimate(features(planned=1000), config)
        assert large > small

    def test_sequential_estimate_formula(self):
        optimizer = CostBasedOptimizer(
            CostModel(per_query_overhead=0.0, per_object_service=0.0),
            roundtrip=0.1,
        )
        from repro.core.augmentation import AugmentationConfig

        cost = optimizer.estimate(
            features(planned=10), AugmentationConfig(augmenter="sequential")
        )
        assert cost == pytest.approx(1.0)

    def test_cache_size_passes_through(self):
        optimizer = CostBasedOptimizer()
        config = optimizer.configure(features(), 4321)
        assert config.cache_size == 4321

    def test_quepa_accepts_it_as_optimizer(self, mini_polystore, mini_aindex):
        from repro.core import Quepa

        quepa = Quepa(
            mini_polystore, mini_aindex, optimizer=CostBasedOptimizer()
        )
        answer = quepa.augmented_search(
            "transactions", "SELECT * FROM inventory WHERE name LIKE '%wish%'"
        )
        assert len(answer.augmented) == 3

    def test_wrong_assumptions_change_choices(self):
        """The paper's point: the cost model is only as good as its
        knowledge of each store."""
        believes_fast_network = CostBasedOptimizer(
            CostModel(thread_spawn_overhead=0.01), roundtrip=0.00001
        )
        believes_slow_network = CostBasedOptimizer(roundtrip=0.5)
        f = features(planned=2000)
        fast_choice = believes_fast_network.configure(f, 0)
        slow_choice = believes_slow_network.configure(f, 0)
        assert (fast_choice.augmenter, fast_choice.batch_size) != (
            slow_choice.augmenter, slow_choice.batch_size
        )

