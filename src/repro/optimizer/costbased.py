"""A cost-based optimizer baseline (what the paper argues against).

Section V: "Traditional cost-based optimizers are difficult to
implement in a polystore because we might not have enough knowledge
about each database system in play." This module implements exactly
such an optimizer so the claim can be examined: it predicts the
execution time of every configuration from an analytic cost formula
and picks the argmin.

Its formulas need per-store parameters — roundtrip latency, per-query
overhead, service time — that a real deployment would have to measure
or guess. :class:`CostBasedOptimizer` therefore takes *assumed*
parameters; when they match the true deployment it is near-optimal,
and when they are off (the realistic polystore situation: closed
stores, shifting load) its choices degrade — which is the ablation
``benchmarks/test_ablation_optimizers.py`` runs against ADAPTIVE.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.core.augmentation import AugmentationConfig
from repro.core.augmenters import BATCHING, POOLED, available_augmenters
from repro.core.runlog import QueryFeatures

#: The parameter grid the cost model searches (same as the baselines').
BATCH_SIZES = (1, 16, 64, 256, 1024)
THREADS_SIZES = (1, 2, 4, 8, 16)


@dataclass(frozen=True)
class AssumedCosts:
    """What the optimizer believes about the deployment."""

    roundtrip_latency: float = 0.001
    per_query_overhead: float = 0.0005
    per_object_service: float = 0.00002
    thread_spawn_overhead: float = 0.0006
    pool_create_overhead: float = 0.001
    cores: int = 16

    @classmethod
    def from_profile(cls, profile, roundtrip: float) -> "AssumedCosts":
        """A deployment profile's true scalar costs, with ``roundtrip``
        as the one store latency the formulas take."""
        cost = profile.cost_model
        return cls(
            roundtrip_latency=roundtrip,
            per_query_overhead=cost.per_query_overhead,
            per_object_service=cost.per_object_service,
            thread_spawn_overhead=cost.thread_spawn_overhead,
            pool_create_overhead=cost.pool_create_overhead,
            cores=profile.quepa_machine.cores,
        )


class CostBasedOptimizer:
    """Analytic argmin over (augmenter, batch_size, threads_size)."""

    def __init__(self, assumed: AssumedCosts | None = None) -> None:
        self.assumed = assumed or AssumedCosts()

    def configure(
        self, features: QueryFeatures, current_cache_size: int
    ) -> AugmentationConfig:
        best: tuple[float, AugmentationConfig] | None = None
        for augmenter in available_augmenters():
            for batch_size in self._batch_options(augmenter):
                for threads_size in self._thread_options(augmenter):
                    config = AugmentationConfig(
                        augmenter=augmenter,
                        batch_size=batch_size,
                        threads_size=threads_size,
                        cache_size=current_cache_size,
                    )
                    cost = self.estimate(features, config)
                    if best is None or cost < best[0]:
                        best = (cost, config)
        assert best is not None
        return best[1]

    @staticmethod
    def _batch_options(augmenter: str):
        return BATCH_SIZES if augmenter in BATCHING else (1,)

    @staticmethod
    def _thread_options(augmenter: str):
        return THREADS_SIZES if augmenter in POOLED else (1,)

    # -- the analytic cost formulas -----------------------------------------------

    def estimate(
        self, features: QueryFeatures, config: AugmentationConfig
    ) -> float:
        """Predicted execution time of ``config`` on ``features``."""
        a = self.assumed
        n = max(1, features.planned_fetches)
        seeds = max(1, features.original_count)
        per_seed = n / seeds
        fetch = a.roundtrip_latency + a.per_query_overhead + a.per_object_service
        if config.augmenter == "sequential":
            return n * fetch
        if config.augmenter == "batch":
            queries = self._group_count(features, config, n)
            return queries * (
                a.roundtrip_latency + a.per_query_overhead
            ) + n * a.per_object_service
        if config.augmenter == "inner":
            pool_cost = seeds * a.pool_create_overhead
            spawn = n * a.thread_spawn_overhead
            effective = min(config.threads_size, a.cores, math.ceil(per_seed))
            return pool_cost + spawn + seeds * math.ceil(
                per_seed / effective
            ) * fetch
        if config.augmenter == "outer":
            spawn = seeds * a.thread_spawn_overhead
            effective = min(config.threads_size, a.cores)
            waves = math.ceil(seeds / effective)
            return a.pool_create_overhead + spawn + waves * per_seed * fetch
        if config.augmenter == "outer_batch":
            queries = self._group_count(features, config, n)
            spawn = queries * a.thread_spawn_overhead
            effective = min(config.threads_size, a.cores)
            waves = math.ceil(queries / effective)
            per_query = (
                a.roundtrip_latency
                + a.per_query_overhead
                + config.batch_size * a.per_object_service
            )
            return a.pool_create_overhead + spawn + waves * per_query
        if config.augmenter == "outer_inner":
            half = max(1, config.threads_size // 2)
            spawn = (seeds + n) * a.thread_spawn_overhead
            waves = math.ceil(seeds / min(half, a.cores))
            inner_waves = math.ceil(per_seed / max(1, half))
            return (
                a.pool_create_overhead * (1 + seeds)
                + spawn
                + waves * inner_waves * fetch
            )
        return float("inf")

    @staticmethod
    def _group_count(
        features: QueryFeatures, config: AugmentationConfig, n: float
    ) -> float:
        stores = max(1, features.store_count - 1)
        per_store = n / stores
        return stores * max(1.0, math.ceil(per_store / config.batch_size))
