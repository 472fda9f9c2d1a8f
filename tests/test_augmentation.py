"""Tests for the augmentation operator alpha^n (Definition 2)."""

import pytest

from repro.core.aindex import AIndex
from repro.core import Quepa
from repro.core.augmentation import Augmentation, AugmentationConfig
from repro.model.objects import GlobalKey
from repro.model.prelations import PRelation
from repro.network import centralized_profile

from tests.conftest import make_mini_aindex, make_mini_polystore
from tests.test_plan_traversal import NeighborsOnly, plan_rows

K = GlobalKey.parse


@pytest.fixture
def mini_augmentation(mini_aindex) -> Augmentation:
    return Augmentation(mini_aindex)


SEED = K("transactions.inventory.a32")


class TestPlanning:
    def test_level_0_reaches_direct_neighbors(self, mini_augmentation):
        plan = mini_augmentation.plan([SEED], level=0)
        keys = set(plan.keys)
        # a32 ~ d1 (0.9); the Consistency Condition materializes
        # a32 ~ discount (0.72) and a32 = i1 (0.63).
        assert keys == {
            "catalogue.albums.d1",
            "discount.drop.k1:cure:wish",
            "similar.Item.i1",
        }

    def test_level_0_probabilities(self, mini_augmentation):
        plan = mini_augmentation.plan([SEED], level=0)
        by_key = dict(zip(plan.keys, plan.probabilities))
        assert by_key["catalogue.albums.d1"] == pytest.approx(0.9)
        assert by_key["discount.drop.k1:cure:wish"] == pytest.approx(0.72)
        assert by_key["similar.Item.i1"] == pytest.approx(0.63)

    def test_level_1_reaches_two_hops(self, mini_augmentation):
        plan = mini_augmentation.plan([SEED], level=1)
        keys = set(plan.keys)
        assert "similar.Item.i2" in keys  # via i1's matching edge

    def test_level_bounds_depth(self, mini_aindex):
        """A chain u0-u1-u2-u3 is cut off at level+1 hops."""
        index = AIndex(enforce_consistency=False)
        chain = [K(f"db{i}.c.u{i}") for i in range(4)]
        for left, right in zip(chain, chain[1:]):
            index.add(PRelation.matching(left, right, 0.8))
        augmentation = Augmentation(index)
        for level, expected in [(0, 1), (1, 2), (2, 3)]:
            plan = augmentation.plan([chain[0]], level)
            assert len(plan.keys) == expected

    def test_probability_multiplies_along_path(self):
        index = AIndex(enforce_consistency=False)
        a, b, c = K("d1.c.a"), K("d2.c.b"), K("d3.c.c")
        index.add(PRelation.matching(a, b, 0.8))
        index.add(PRelation.matching(b, c, 0.5))
        plan = Augmentation(index).plan([a], level=1)
        probabilities = dict(zip(plan.keys, plan.probabilities))
        assert probabilities[c] == pytest.approx(0.4)

    def test_best_path_wins_on_diamond(self):
        """When two paths reach the same object, keep the max product."""
        index = AIndex(enforce_consistency=False)
        s, x, y, t = K("d1.c.s"), K("d2.c.x"), K("d3.c.y"), K("d4.c.t")
        index.add(PRelation.matching(s, x, 0.9))
        index.add(PRelation.matching(x, t, 0.9))  # product 0.81
        index.add(PRelation.matching(s, y, 0.6))
        index.add(PRelation.matching(y, t, 0.6))  # product 0.36
        plan = Augmentation(index).plan([s], level=1)
        row = plan.keys.index(t)
        assert plan.probabilities[row] == pytest.approx(0.81)
        assert plan.path(row) == (x, t)

    def test_seed_not_fetched_for_itself(self, mini_augmentation):
        plan = mini_augmentation.plan([SEED], level=2)
        assert SEED not in plan.keys

    def test_min_probability_prunes(self, mini_augmentation):
        plan = mini_augmentation.plan([SEED], level=0, min_probability=0.7)
        keys = set(plan.keys)
        assert "similar.Item.i1" not in keys  # p = 0.63 < 0.7
        assert "catalogue.albums.d1" in keys

    def test_fetches_ordered_by_probability(self, mini_augmentation):
        plan = mini_augmentation.plan([SEED], level=1)
        assert plan.probabilities == sorted(plan.probabilities, reverse=True)

    def test_unknown_seed_plans_nothing(self, mini_augmentation):
        ghost = K("nowhere.c.k")
        plan = mini_augmentation.plan([ghost], level=1)
        assert plan.keys == []

    def test_negative_level_rejected(self, mini_augmentation):
        with pytest.raises(ValueError):
            mini_augmentation.plan([SEED], level=-1)

    def test_edges_examined_counted(self, mini_augmentation):
        plan = mini_augmentation.plan([SEED], level=0)
        assert plan.edges_examined > 0

    def test_all_fetches_in_seed_order(self, mini_augmentation):
        other = K("transactions.inventory.a34")
        plan = mini_augmentation.plan([SEED, other], level=0)
        seeds_in_order = plan.sources
        boundary = seeds_in_order.index(other)
        assert all(s == SEED for s in seeds_in_order[:boundary])

    def test_overlapping_seeds_keep_duplicates_in_plan(self):
        """Overlap across seeds is preserved (dedup happens in the
        answer; the plan is what the cache optimizes, Section IV-C)."""
        index = AIndex(enforce_consistency=False)
        s1, s2, shared = K("d1.c.s1"), K("d2.c.s2"), K("d3.c.x")
        index.add(PRelation.matching(s1, shared, 0.8))
        index.add(PRelation.matching(s2, shared, 0.7))
        plan = Augmentation(index).plan([s1, s2], level=0)
        assert plan.total_fetches() == 2


class TestDuplicateSeeds:
    """Regression: a seed listed three times was expanded, charged and
    probed three times, while ``total_fetches`` counted it once."""

    def test_a_repeated_seed_is_planned_once(self, mini_augmentation):
        once = mini_augmentation.plan([SEED], level=0)
        thrice = Augmentation(make_mini_aindex()).plan([SEED] * 3, level=0)
        assert thrice.seeds == [SEED]
        assert len(thrice.keys) == thrice.total_fetches()
        assert thrice.total_fetches() == once.total_fetches() == 3
        assert thrice.edges_examined == once.edges_examined
        assert plan_rows(thrice) == plan_rows(once)
        assert thrice.bounds == once.bounds == [0, 3]

    def test_distinct_seeds_keep_first_seen_order(self, mini_augmentation):
        other = K("catalogue.albums.d1")
        plan = mini_augmentation.plan([SEED, other, SEED, other], level=0)
        assert plan.seeds == [SEED, other]
        middle = plan.bounds[1]
        assert plan.bounds == [0, middle, plan.total_fetches()]
        assert plan.sources == (
            [SEED] * middle + [other] * (plan.total_fetches() - middle)
        )

    def test_the_plan_cache_replays_the_deduplicated_plan(
        self, mini_augmentation
    ):
        plan = mini_augmentation.plan([SEED, SEED], level=1)
        assert mini_augmentation.plan([SEED, SEED], level=1) is plan
        assert plan.seeds == [SEED]

    def test_a_search_probes_what_it_says_it_planned(self):
        """``mget [k, k, k]`` returns three equal originals; the
        augmentation of the answer is that of ``mget [k]``."""

        def search(keys):
            polystore = make_mini_polystore()
            quepa = Quepa(
                polystore,
                make_mini_aindex(),
                profile=centralized_profile(list(polystore)),
            )
            answer = quepa.augmented_search(
                "discount", ("mget", keys), level=0
            )
            stats = quepa.cache.stats()
            return answer, stats["hits"] + stats["misses"]

        single, single_probes = search(["k1:cure:wish"])
        triple, triple_probes = search(["k1:cure:wish"] * 3)
        assert len(triple.originals) == 3
        assert triple.stats.planned_fetches == single.stats.planned_fetches
        assert triple_probes == single_probes == single.stats.planned_fetches
        assert [str(o.key) for o in triple.augmented] == [
            str(o.key) for o in single.augmented
        ]


class TestPlanCache:
    """Which planning indexes anchor a cached plan: immutable snapshots
    do, whoever holds them; a live index without snapshots cannot."""

    def test_a_planner_on_a_live_index_caches_per_snapshot(self):
        index = make_mini_aindex()
        planner = Augmentation(index)
        assert planner.plan([SEED], 1) is planner.plan([SEED], 1)
        assert planner.plan_cache_stats()["hits"] == 1

    def test_a_planner_built_on_a_snapshot_caches_too(self):
        """Regression: "mutable" was ``hasattr(index, "add")``, and the
        snapshots define ``add`` — to raise."""
        index = make_mini_aindex()
        planner = Augmentation(index.frozen())
        assert planner.plan([SEED], 1) is planner.plan([SEED], 1)
        stats = planner.plan_cache_stats()
        assert (stats["hits"], stats["misses"]) == (1, 1)

    def test_a_live_index_without_snapshots_is_never_an_anchor(self):
        index = make_mini_aindex()
        planner = Augmentation(NeighborsOnly(index))
        first = planner.plan([SEED], 0)
        index.remove_object(K("catalogue.albums.d1"))
        second = planner.plan([SEED], 0)
        assert len(second.keys) < len(first.keys)
        assert planner.plan_cache_stats()["hits"] == 0

    def test_expanded_counts_the_seeds_traversed(self, mini_augmentation):
        other = K("catalogue.albums.d1")
        attrs = {}
        mini_augmentation.plan([SEED, other, SEED], 1, attrs=attrs)
        assert attrs == {"expanded": 2, "segments_reused": 0}
        mini_augmentation.plan([SEED, other, SEED], 1, attrs=attrs)
        # From the plan cache.
        assert attrs == {"expanded": 0, "segments_reused": 0}
        mini_augmentation.plan([other, SEED], 1, attrs=attrs)
        # A new plan of planned seeds: copied from their segments.
        assert attrs == {"expanded": 2, "segments_reused": 2}
        mini_augmentation.plan([other, SEED], 1, 0.5, attrs=attrs)
        # A probability cut traverses.
        assert attrs == {"expanded": 2, "segments_reused": 0}


class TestConfig:
    def test_defaults(self):
        config = AugmentationConfig()
        assert config.augmenter == "sequential"
        assert config.batch_size >= 1
        assert config.threads_size >= 1
