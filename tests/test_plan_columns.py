"""The plan is columns: what a plan keeps, and that it is the plan.

``AugmentationPlan`` holds parallel columns (keys, probabilities,
sources, nodes, parents) and per-seed row bounds; a path is built when
it is read.

* Allocation guards: planning keeps no GC-tracked object per row, and
  an all-hit warm repeat builds no path.
* Equivalence: every seed's rows of a multi-seed plan are
  :func:`~tests.test_plan_traversal.reference_expand`'s fetches, paths
  included, on a frozen, a patched and a live index, and through
  ``restrict_plan``.
"""

from __future__ import annotations

import gc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.augmentation import (
    Augmentation,
    AugmentationConfig,
    AugmentationPlan,
)
from repro.core.augmenters import available_augmenters
from repro.core.compressed import FrozenAIndex
from repro.core.system import Quepa
from repro.model.objects import GlobalKey
from repro.model.prelations import PRelation
from repro.planner.plans import restrict_plan
from repro.workloads import PolystoreScale, build_polyphony

from .test_plan_traversal import (
    ABSENT,
    NODES,
    Fetch,
    build,
    edge,
    plan_rows,
    reference_expand,
)

DATABASES = ("transactions", "catalogue", "similar", "discount")
#: Tracked objects a plan may keep whatever its size: the plan, its
#: columns, the seed list and the plan-cache entry.
PLAN_CONSTANT = 64
PER_SEED = 0.1
BALLAST = [GlobalKey("db5", "c", f"x{i:02d}") for i in range(40)]


@pytest.fixture(scope="module")
def bundle():
    """A private bundle: nothing here writes to it."""
    return build_polyphony(stores=4, scale=PolystoreScale(n_albums=600), seed=7)


def five_hundred_seeds(bundle) -> list[GlobalKey]:
    return [
        bundle.entity_key(database, seq)
        for seq in range(125)
        for database in DATABASES
    ]


# ---------------------------------------------------------------------------
# Allocation guards
# ---------------------------------------------------------------------------


def young_growth(planner, seeds, level) -> tuple[AugmentationPlan, int]:
    """A plan by ``planner``, and how much it grew the collector's young
    generation."""
    gc.collect()
    gc.disable()
    try:
        before = gc.get_count()[0]
        plan = planner.plan(seeds, level)
        grown = gc.get_count()[0] - before
    finally:
        gc.enable()
    return plan, grown


@pytest.mark.parametrize("level", (0, 1))
def test_planning_keeps_no_object_per_row(bundle, level):
    """Planning 500 seeds on a frozen index grows the collector's young
    generation by a constant, not by one object per planned fetch (a
    fetch tuple and a path tuple per row read 3 018 / 8 501). The plan
    measured is served entirely from the snapshot's seed segments."""
    seeds = five_hundred_seeds(bundle)
    assert all(seed in bundle.aindex for seed in seeds)
    # Warm the snapshot's lazy rows and hop tuples, and file its seed
    # segments: they are the index's, kept once whatever the number of
    # plans.
    Augmentation(bundle.aindex).plan(seeds, level)
    plan, grown = young_growth(Augmentation(bundle.aindex), seeds, level)
    assert plan.segments_reused == len(seeds)
    assert plan.total_fetches() > 4 * len(seeds)
    assert grown <= PLAN_CONSTANT + PER_SEED * len(seeds), grown


@pytest.mark.parametrize("level", (0, 1))
def test_traversing_into_segments_keeps_no_object_per_row(bundle, level):
    """The same guard on the traversal that files the segments: a fresh
    snapshot, its rows warmed by a plan under a cut (which files
    nothing), and its arena for ``level`` made by filing one other
    seed (an arena is the snapshot's, made once per level)."""
    seeds = five_hundred_seeds(bundle)
    snapshot = FrozenAIndex.freeze(bundle.aindex)
    Augmentation(snapshot).plan(seeds, level, 1e-9)
    Augmentation(snapshot).plan([bundle.entity_key(DATABASES[0], 200)], level)
    assert snapshot.segments.stats()["segments"] == 1
    plan, grown = young_growth(Augmentation(snapshot), seeds, level)
    assert plan.segments_reused == 0
    assert snapshot.segments.stats()["segments"] == 1 + len(seeds)
    assert plan.total_fetches() > 4 * len(seeds)
    assert grown <= PLAN_CONSTANT + PER_SEED * len(seeds), grown


@pytest.mark.parametrize("name", available_augmenters())
def test_an_all_hit_warm_repeat_builds_no_path(bundle, name, monkeypatch):
    quepa = Quepa(
        bundle.polystore,
        bundle.aindex,
        config=AugmentationConfig(name, 4, 4, cache_size=200_000),
    )
    query = "SELECT * FROM inventory WHERE seq < 10"
    cold = quepa.augmented_search("transactions", query, level=1)
    # The first all-hit repeat fills the plan's rank memo (if the cold
    # run did not), paths of the winners included.
    quepa.augmented_search("transactions", query, level=1)
    built = []
    real_path = AugmentationPlan.path

    def counted_path(plan, row):
        built.append(row)
        return real_path(plan, row)

    monkeypatch.setattr(AugmentationPlan, "path", counted_path)
    warm = quepa.augmented_search("transactions", query, level=1)
    assert warm.stats.cache_hits == warm.stats.planned_fetches > 0
    assert built == []
    assert [
        (entry.key, entry.source, entry.path, entry.probability)
        for entry in warm.augmented
    ] == [
        (entry.key, entry.source, entry.path, entry.probability)
        for entry in cold.augmented
    ]


# ---------------------------------------------------------------------------
# The columns are the reference plan
# ---------------------------------------------------------------------------


def seed_fetches(plan: AugmentationPlan) -> list[list[Fetch]]:
    """Each seed's rows, read back from the columns through the bounds."""
    fetches = plan_rows(plan)
    bounds = plan.bounds
    assert len(bounds) == len(plan.seeds) + 1
    assert bounds[0] == 0 and bounds[-1] == plan.total_fetches()
    return [fetches[start:stop] for start, stop in zip(bounds, bounds[1:])]


def assert_columns_are_the_reference(
    index, seeds, oracle=None, levels=(0, 1, 2), cuts=(0.0, 0.5)
):
    oracle = oracle or index
    for level in levels:
        for cut in cuts:
            plan, __ = Augmentation(index)._plan_on(index, seeds, level, cut)
            expected = [
                reference_expand(oracle, seed, level, cut) for seed in seeds
            ]
            assert seed_fetches(plan) == [fetches for fetches, __ in expected]
            assert plan.edges_examined == sum(edges for __, edges in expected)
            for row, key in enumerate(plan.keys):
                assert plan.path(row)[-1] == key
            for targets in (("db0",), ("db1", "db2"), ()):
                restricted = restrict_plan(plan, targets)
                assert seed_fetches(restricted) == [
                    [f for f in fetches if f.key.database in targets]
                    for fetches, __ in expected
                ]
                assert restricted.edges_examined == plan.edges_examined


@settings(max_examples=40, deadline=None)
@given(edges=st.lists(edge, max_size=30), consistent=st.booleans())
def test_frozen_and_live_plans_are_the_reference(edges, consistent):
    index = build(edges, consistent)
    seeds = NODES + [ABSENT]
    assert_columns_are_the_reference(index.frozen(), seeds, oracle=index)
    assert_columns_are_the_reference(index, seeds)


@settings(max_examples=30, deadline=None)
@given(
    edges=st.lists(edge, min_size=4, max_size=30),
    later=st.lists(edge, min_size=1, max_size=3),
)
def test_a_patched_snapshot_plans_the_reference(edges, later):
    index = build(edges)
    # Ballast: a base big enough that the edits below are an overlay.
    for i, key in enumerate(BALLAST):
        index.add(PRelation.matching(key, BALLAST[i - 1], 0.5))
        index.add(PRelation.matching(key, NODES[i % 10], 0.4))
    index.frozen()
    for a, b, p, __ in later:
        # Past the base's key table: ids are interned by the patch.
        late = GlobalKey("db4", "c", f"l{b}")
        index.add(PRelation.matching(NODES[a], late, p))
        if a != b:
            index.add(PRelation.matching(NODES[a], NODES[b], p))
    patched = index.frozen()
    assert patched.overlay_nodes
    seeds = NODES + [GlobalKey("db4", "c", f"l{b}") for b in range(10)]
    assert_columns_are_the_reference(
        patched, seeds, oracle=FrozenAIndex.freeze(index)
    )


def test_a_generated_bundle_plans_the_reference(bundle):
    seeds = five_hundred_seeds(bundle)[::25]
    assert_columns_are_the_reference(
        bundle.aindex.frozen(), seeds, oracle=bundle.aindex,
        levels=(0, 1), cuts=(0.0,),
    )


def test_a_depth_one_path_is_the_snapshots_hop(bundle):
    """A direct neighbour's path is the snapshot's own ``(key,)``; a
    deeper one is its parent row's path plus its own key."""
    snapshot = bundle.aindex.frozen()
    plan = Augmentation(bundle.aindex).plan(five_hundred_seeds(bundle)[:8], 1)
    depth_one = [row for row, above in enumerate(plan.parents) if above < 0]
    deeper = [row for row, above in enumerate(plan.parents) if above >= 0]
    assert depth_one and deeper
    for row in depth_one:
        assert plan.path(row) is snapshot._hops[plan.nodes[row]]
    for row in deeper:
        assert plan.path(row)[:-1] == plan.path(plan.parents[row])
        assert plan.path(row)[-1] == plan.keys[row]
