"""A cost-based optimizer baseline (what the paper argues against).

Section V: "Traditional cost-based optimizers are difficult to
implement in a polystore because we might not have enough knowledge
about each database system in play." This module implements exactly
such an optimizer so the claim can be examined: it predicts the
execution time of every configuration from an analytic cost formula
and picks the argmin.

Its formulas need per-store parameters — roundtrip latency, per-query
overhead, service time — that a real deployment would have to measure
or guess. :class:`CostBasedOptimizer` therefore takes *assumed* ones: a
:class:`~repro.network.latency.CostModel` plus a roundtrip and a core
count, the two numbers a cost model does not hold. When they match the
true deployment it is near-optimal, and when they are off (the
realistic polystore situation: closed stores, shifting load) its
choices degrade — which is the ablation
``benchmarks/test_ablation_optimizers.py`` runs against ADAPTIVE.

:func:`fetch_cost` is the one push-down fetch formula: the cross-store
planner (:mod:`repro.planner.costs`) prices its push-down plans with it
over the deployment's own cost model.
"""

from __future__ import annotations

import math

from repro.core.augmentation import AugmentationConfig
from repro.core.augmenters import BATCHING, POOLED, available_augmenters
from repro.core.runlog import QueryFeatures
from repro.network.latency import CostModel

#: The parameter grid the cost model searches (same as the baselines').
BATCH_SIZES = (1, 16, 64, 256, 1024)
THREADS_SIZES = (1, 2, 4, 8, 16)


def fetch_cost(
    cost: CostModel, roundtrip: float, cores: int,
    augmenter: str, batch_size: int, threads_size: int,
    fetches: int, seeds: int, stores: int,
) -> float:
    """Predicted time for ``augmenter`` to fetch ``fetches`` planned
    objects for ``seeds`` seeds from ``stores`` databases (the home
    database included), each call paying ``roundtrip``."""
    n = max(1, fetches)
    seeds = max(1, seeds)
    per_seed = n / seeds
    fetch = roundtrip + cost.per_query_overhead + cost.per_object_service
    if augmenter == "sequential":
        return n * fetch
    if augmenter == "batch":
        queries = _group_count(stores, batch_size, n)
        return queries * (
            roundtrip + cost.per_query_overhead
        ) + n * cost.per_object_service
    if augmenter == "inner":
        pool_cost = seeds * cost.pool_create_overhead
        spawn = n * cost.thread_spawn_overhead
        effective = min(threads_size, cores, math.ceil(per_seed))
        return pool_cost + spawn + seeds * math.ceil(
            per_seed / effective
        ) * fetch
    if augmenter == "outer":
        spawn = seeds * cost.thread_spawn_overhead
        effective = min(threads_size, cores)
        waves = math.ceil(seeds / effective)
        return cost.pool_create_overhead + spawn + waves * per_seed * fetch
    if augmenter == "outer_batch":
        queries = _group_count(stores, batch_size, n)
        spawn = queries * cost.thread_spawn_overhead
        effective = min(threads_size, cores)
        waves = math.ceil(queries / effective)
        per_query = (
            roundtrip
            + cost.per_query_overhead
            + batch_size * cost.per_object_service
        )
        return cost.pool_create_overhead + spawn + waves * per_query
    if augmenter == "outer_inner":
        half = max(1, threads_size // 2)
        spawn = (seeds + n) * cost.thread_spawn_overhead
        waves = math.ceil(seeds / min(half, cores))
        inner_waves = math.ceil(per_seed / max(1, half))
        return (
            cost.pool_create_overhead * (1 + seeds)
            + spawn
            + waves * inner_waves * fetch
        )
    return float("inf")


def _group_count(stores: int, batch_size: int, n: float) -> float:
    stores = max(1, stores - 1)
    per_store = n / stores
    return stores * max(1.0, math.ceil(per_store / batch_size))


class CostBasedOptimizer:
    """Analytic argmin over (augmenter, batch_size, threads_size)."""

    def __init__(
        self, cost: CostModel = CostModel(), roundtrip: float = 0.001,
        cores: int = 16,
    ) -> None:
        self.cost = cost
        self.roundtrip = roundtrip
        self.cores = cores

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

    def estimate(
        self, features: QueryFeatures, config: AugmentationConfig
    ) -> float:
        """Predicted execution time of ``config`` on ``features``."""
        return fetch_cost(
            self.cost, self.roundtrip, self.cores,
            config.augmenter, config.batch_size, config.threads_size,
            features.planned_fetches, features.original_count,
            features.store_count,
        )
