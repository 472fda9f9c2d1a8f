"""Ablations of QUEPA design choices called out in DESIGN.md.

1. Insert-time materialization of the Consistency Condition (Section
   III-C) vs leaving the index un-closed: with materialization, a
   level-0 plan already sees the whole identity clique; without it the
   same reachability needs deeper (and slower) traversals.
2. Promotion of p-relations (Section III-D.a): after promotion, the
   endpoint of a popular exploration path is reachable in one step.
3. Connector batch fetch vs per-object fetch at equal answer quality
   (complements Figs 9/10 with a direct head-to-head at fixed size).
"""

from __future__ import annotations

import time

from repro.core import Quepa
from repro.core.aindex import AIndex
from repro.core.augmentation import Augmentation, AugmentationConfig
from repro.core.promotion import PathRepository, PromotionPolicy
from repro.model.objects import GlobalKey
from repro.model.prelations import PRelation
from repro.workloads import QueryWorkload

from .harness import run_cold_warm


def build_chain_indexes(entities: int = 300, stores: int = 6):
    """Same p-relations, one index closed at insert, one left raw."""
    closed = AIndex(enforce_consistency=True)
    raw = AIndex(enforce_consistency=False)
    for entity in range(entities):
        keys = [
            GlobalKey(f"db{s}", "c", f"e{entity}") for s in range(stores)
        ]
        # A spanning chain of identities; closure makes it a clique.
        for left, right in zip(keys, keys[1:]):
            relation = PRelation.identity(left, right, 0.95)
            closed.add(relation)
            raw.add(relation)
    return closed, raw


def test_ablation_insert_time_materialization(benchmark, report):
    closed, raw = benchmark.pedantic(
        build_chain_indexes, rounds=1, iterations=1
    )
    seeds = [GlobalKey("db0", "c", f"e{i}") for i in range(300)]

    started = time.perf_counter()
    closed_plan = Augmentation(closed).plan(seeds, level=0)
    closed_time = time.perf_counter() - started

    started = time.perf_counter()
    # The raw index needs level = stores-2 to reach the same objects.
    raw_plan = Augmentation(raw).plan(seeds, level=4)
    raw_time = time.perf_counter() - started

    report.section("insert-time closure vs query-time traversal")
    report.row(index="materialized", level=0,
               fetches=closed_plan.total_fetches(),
               edges=closed_plan.edges_examined, plan_s=closed_time)
    report.row(index="raw", level=4, fetches=raw_plan.total_fetches(),
               edges=raw_plan.edges_examined, plan_s=raw_time)

    # Same reachability...
    assert closed_plan.total_fetches() == raw_plan.total_fetches()
    # ...but the materialized index reaches it at level 0, and the raw
    # traversal examines at least as many edges.
    assert raw_plan.edges_examined >= closed_plan.edges_examined
    # Storage trade-off: the clique holds more edges than the chain.
    assert closed.edge_count() > raw.edge_count()
    report.note("closure trades index size for single-hop planning")


def test_ablation_promotion_shortcuts(benchmark, bundle4, report):
    def run():
        aindex = bundle4.aindex
        policy = PromotionPolicy(base=4, min_visits=2)
        paths = PathRepository(aindex, policy)
        # Walk two matching hops of the generated index: transactions
        # entity 0 -> catalogue entity 1 -> similar entity 2. The
        # endpoint is not a direct neighbour of the start.
        start = bundle4.entity_key("transactions", 0)
        middle = bundle4.entity_key("catalogue", 1)
        end = bundle4.entity_key("similar", 2)
        walk = (start, middle, end)
        before = Augmentation(aindex).plan([start], level=0)
        before_reaches = end in before.keys
        promoted = None
        for __ in range(policy.threshold(2)):
            promoted = paths.record_path(walk) or promoted
        after = Augmentation(aindex).plan([start], level=0)
        after_reaches = end in after.keys
        # Clean up the promoted edge so other benches see the original
        # index (bundles are session-shared).
        if promoted is not None:
            aindex.remove_relation(promoted.left, promoted.right)
        return before_reaches, promoted, after_reaches

    before_reaches, promoted, after_reaches = benchmark.pedantic(
        run, rounds=1, iterations=1
    )
    report.section("promotion on/off: one-step reachability of a "
                   "popular path's endpoint")
    report.row(before=before_reaches, promoted=promoted is not None,
               after=after_reaches)
    assert not before_reaches
    assert promoted is not None
    assert after_reaches
    report.note("promotion turns a 2-step walk into a 1-step link")


def test_ablation_frozen_index_planning(benchmark, bundle10, report):
    """Future work VIII: a compressed, read-only A' index snapshot.

    Planning over the CSR snapshot must return identical plans; the
    figure records the relative planning speed and snapshot properties.
    """
    from repro.core.compressed import FrozenAIndex

    seeds = [bundle10.entity_key("transactions", i) for i in range(200)]

    def run():
        frozen = FrozenAIndex.freeze(bundle10.aindex)
        live_planner = Augmentation(bundle10.aindex)
        frozen_planner = Augmentation(frozen)  # duck-typed index

        started = time.perf_counter()
        live_plan = live_planner.plan(seeds, level=1)
        live_time = time.perf_counter() - started

        started = time.perf_counter()
        frozen_plan = frozen_planner.plan(seeds, level=1)
        frozen_time = time.perf_counter() - started
        return live_plan, live_time, frozen_plan, frozen_time

    live_plan, live_time, frozen_plan, frozen_time = benchmark.pedantic(
        run, rounds=1, iterations=1
    )
    report.section("live dict index vs frozen CSR snapshot (level-1 plan)")
    report.row(index="live", fetches=live_plan.total_fetches(),
               plan_s=live_time)
    report.row(index="frozen", fetches=frozen_plan.total_fetches(),
               plan_s=frozen_time)
    assert frozen_plan.total_fetches() == live_plan.total_fetches()
    live_keys = set(zip(live_plan.sources, live_plan.keys))
    frozen_keys = set(zip(frozen_plan.sources, frozen_plan.keys))
    assert frozen_keys == live_keys
    report.note("identical plans from the read-only snapshot")


def test_ablation_batch_fetch_vs_single(benchmark, bundle7, report):
    workload = QueryWorkload(bundle7)
    query = workload.query("catalogue", 200)

    def run():
        single = run_cold_warm(
            bundle7, query,
            AugmentationConfig(augmenter="sequential", cache_size=0),
        )
        batched = run_cold_warm(
            bundle7, query,
            AugmentationConfig(augmenter="batch", batch_size=256,
                               cache_size=0),
        )
        return single, batched

    single, batched = benchmark.pedantic(run, rounds=1, iterations=1)
    report.section("connector batch fetch vs per-object fetch")
    report.row(mode="single", cold_s=single.cold,
               queries=single.queries_issued, answer=single.augmented)
    report.row(mode="batched", cold_s=batched.cold,
               queries=batched.queries_issued, answer=batched.augmented)
    assert batched.augmented == single.augmented  # same answer
    assert batched.queries_issued < single.queries_issued / 10
    assert batched.cold < single.cold / 3
    report.note("identical answers, an order of magnitude fewer queries")
