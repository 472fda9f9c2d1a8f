"""A warm search takes its rank from the plan, and that rank is the
row-by-row one.

``assemble_answer`` ranks an outcome with ``AugmentationPlan.rank()`` —
computed once per plan and kept by the plan cache — when the outcome
says its rows are in plan order and it holds every row of the plan,
and row by row otherwise. Every strategy, at every cache state that
decides which of the two runs, must answer what the ranking over built
entries answers (``reference_rank``), and what the row-by-row path
answers, field for field.
"""

from __future__ import annotations

import sys
import threading
from dataclasses import replace

import pytest

from repro.core import augmentation as augmentation_module
from repro.core import search as search_module
from repro.core import system as system_module
from repro.core.augmentation import Augmentation, AugmentationConfig
from repro.core.augmenters import available_augmenters, make_augmenter
from repro.core.cache import LruCache
from repro.core.connectors import ConnectorRegistry
from repro.core.search import SearchStats, assemble_answer
from repro.core.system import Quepa
from repro.model.objects import DataObject
from repro.network import VirtualRuntime, centralized_profile
from repro.workloads import PolystoreScale, build_polyphony

from .reference_interpreters import reference_rank

QUERY = "SELECT * FROM inventory WHERE seq < 10"
BIG_CACHE = 200_000


@pytest.fixture(scope="module")
def bundle():
    """A private bundle: nothing here writes to it."""
    return build_polyphony(stores=4, scale=PolystoreScale(n_albums=60), seed=5)


def seeds(bundle, count=10):
    return [bundle.entity_key("transactions", seq) for seq in range(count)]


def signature(answer):
    return [
        (
            entry.key,
            entry.source,
            entry.path,
            entry.probability,
            entry.object.probability,
            entry.object.value,
        )
        for entry in answer.augmented
    ]


def takes_plan_rank(outcome) -> bool:
    """The condition ``assemble_answer`` takes the plan's rank on (and
    an outcome that claims plan order has its rows ascending)."""
    rows = outcome.rows
    if outcome.in_plan_order:
        assert rows == sorted(set(rows))
    return outcome.in_plan_order and len(rows) == outcome.plan.total_fetches()


def check(outcome):
    """The answer equals the reference ranking and the row-by-row path."""
    answer = assemble_answer([], outcome, SearchStats())
    row_by_row = assemble_answer(
        [], replace(outcome, in_plan_order=False), SearchStats()
    )
    assert answer.augmented == reference_rank(outcome.objects)
    assert signature(answer) == signature(row_by_row)
    return answer


def execute(name, bundle, cache, plan, registry=None):
    registry = registry or ConnectorRegistry(bundle.polystore)
    config = AugmentationConfig(name, 4, 4, cache_size=cache.capacity)
    profile = centralized_profile([db for db, __ in bundle.databases])
    ctx = VirtualRuntime(profile).root()
    return make_augmenter(name, registry, cache).execute(ctx, plan, config)


@pytest.mark.parametrize("level", (0, 1))
@pytest.mark.parametrize("name", available_augmenters())
def test_cold_then_warm_repeat(bundle, name, level):
    plan = Augmentation(bundle.aindex).plan(seeds(bundle), level)
    cache = LruCache(BIG_CACHE)
    cold = execute(name, bundle, cache, plan)
    assert cold.queries_issued > 0
    check(cold)
    warm = execute(name, bundle, cache, plan)
    assert warm.cache_hits == plan.total_fetches()
    assert takes_plan_rank(warm)
    assert signature(check(warm)) == signature(check(cold))


@pytest.mark.parametrize("name", available_augmenters())
def test_partial_hit(bundle, name):
    planner = Augmentation(bundle.aindex)
    cache = LruCache(BIG_CACHE)
    execute(name, bundle, cache, planner.plan(seeds(bundle)[::2], 1))
    plan = planner.plan(seeds(bundle), 1)
    partial = execute(name, bundle, cache, plan)
    assert 0 < partial.cache_hits < plan.total_fetches()
    check(partial)


@pytest.mark.parametrize("name", available_augmenters())
def test_small_cache_evicts_mid_run(bundle, name):
    """A cache smaller than the plan: every repeat is a mix of hits and
    fetches, and the pooled strategies reorder their rows."""
    plan = Augmentation(bundle.aindex).plan(seeds(bundle), 1)
    cache = LruCache(plan.total_fetches() // 3)
    for __ in range(3):
        check(execute(name, bundle, cache, plan))


@pytest.mark.parametrize("name", available_augmenters())
def test_one_plan_shared_by_two_quepas(bundle, name):
    """Two systems over one polystore run the same plan object: the
    rank one of them memoised is the one the other reads."""
    first, second = (
        Quepa(bundle.polystore, bundle.aindex) for __ in range(2)
    )
    first.cache.resize(BIG_CACHE)
    second.cache.resize(BIG_CACHE)
    plan = first.augmentation.plan(seeds(bundle), 1)
    answers = []
    for quepa in (first, second):
        for __ in ("cold", "warm"):
            outcome = execute(
                name, bundle, quepa.cache, plan, registry=quepa.registry
            )
            answers.append(signature(check(outcome)))
    memo = plan.rank()
    assert memo is plan.rank()
    assert memo[1] == [plan.path(row) for row in memo[0]]
    assert all(answer == answers[0] for answer in answers)


@pytest.mark.parametrize("name", available_augmenters())
def test_warm_repeats_rank_once_per_plan_and_copy_nothing(
    bundle, name, monkeypatch
):
    """All-hit repeats of a cached plan: assembly calls ``_rank`` at most
    once, to fill the plan's memo (a strategy whose cold rows are in plan
    order filled it already), and zero times after that. It constructs
    zero ``DataObject``s: no winner is copied."""
    quepa = Quepa(
        bundle.polystore,
        bundle.aindex,
        config=AugmentationConfig(name, 4, 4, cache_size=BIG_CACHE),
    )
    cold = quepa.augmented_search("transactions", QUERY, level=1)
    calls = {"_rank": 0, "DataObject": 0}
    inside = [False]

    real_rank = getattr(search_module, "_rank", None)

    def counted_rank(*args):
        calls["_rank"] += inside[0]
        return real_rank(*args)

    real_init = DataObject.__init__

    def counted_init(self, *args, **kwargs):
        calls["DataObject"] += inside[0]
        real_init(self, *args, **kwargs)

    real_assemble = system_module.assemble_answer

    def assemble(*args):
        inside[0] = True
        try:
            return real_assemble(*args)
        finally:
            inside[0] = False

    monkeypatch.setattr(search_module, "_rank", counted_rank, raising=False)
    monkeypatch.setattr(
        augmentation_module, "_rank", counted_rank, raising=False
    )
    monkeypatch.setattr(DataObject, "__init__", counted_init)
    monkeypatch.setattr(system_module, "assemble_answer", assemble)
    per_repeat = []
    for __ in range(3):
        plan_hits = quepa.augmentation.plan_cache_stats()["hits"]
        warm = quepa.augmented_search("transactions", QUERY, level=1)
        assert quepa.augmentation.plan_cache_stats()["hits"] == plan_hits + 1
        assert warm.stats.cache_hits == warm.stats.planned_fetches > 0
        assert signature(warm) == signature(cold)
        per_repeat.append(dict(calls))
        calls.update(dict.fromkeys(calls, 0))
    assert per_repeat[0]["_rank"] <= 1
    assert per_repeat[1:] == [{"_rank": 0, "DataObject": 0}] * 2
    assert all(repeat["DataObject"] == 0 for repeat in per_repeat)


def test_racing_first_ranks_of_one_plan_agree(bundle):
    """The memo's fill is an unlocked write: threads that race to fill
    it on one fresh plan all read the same order."""
    plan = Augmentation(bundle.aindex).plan(seeds(bundle), 1)
    threads = 8
    start = threading.Barrier(threads)
    orders = []

    def rank() -> None:
        start.wait(timeout=10)
        orders.append(plan.rank())

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=rank) for __ in range(threads)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(worker.is_alive() for worker in workers)
    assert len(orders) == threads
    assert all(order == orders[0] for order in orders)
    assert orders[0][0] == search_module._rank(
        plan.nodes, plan.probabilities, plan.keys, range(plan.total_fetches())
    )
