"""Tests for the multi-instance QUEPA deployment (Section III-A).

Every instance of a cluster plans against the index the caller passes.
"""

import pytest

from repro.cluster import DispatchPolicy, QuepaCluster
from repro.errors import ConfigurationError
from repro.model.objects import GlobalKey
from repro.model.prelations import PRelation
from repro.serving import QuepaServer, ServingConfig
from repro.workloads import QueryWorkload

K = GlobalKey.parse
QUERY = "SELECT * FROM inventory WHERE name LIKE '%wish%'"
DISINTEGRATION = "SELECT * FROM inventory WHERE name = 'Disintegration'"


@pytest.fixture
def cluster(mini_polystore, mini_aindex) -> QuepaCluster:
    return QuepaCluster(mini_polystore, mini_aindex, instances=3)


def _keys(answer) -> set[str]:
    return {str(key) for key in answer.augmented_keys()}


def _seen_by_each(cluster, query, key) -> list[bool]:
    """Whether each instance's answer to ``query`` augments with ``key``."""
    return [
        str(key) in _keys(
            cluster.instance(index).augmented_search("transactions", query)
        )
        for index in range(len(cluster))
    ]


class TestConstruction:
    def test_instances_share_the_callers_index(self, cluster, mini_aindex):
        """One index, no copy; each instance keeps its own runtime,
        cache and augmentation (so its own plan cache)."""
        instances = [cluster.instance(index) for index in range(3)]
        assert len(cluster) == 3
        assert all(quepa.aindex is mini_aindex for quepa in instances)
        for part in ("runtime", "cache", "augmentation"):
            assert len({id(getattr(quepa, part)) for quepa in instances}) == 3

    def test_zero_instances_rejected(self, mini_polystore, mini_aindex):
        with pytest.raises(ConfigurationError):
            QuepaCluster(mini_polystore, mini_aindex, instances=0)


class TestDispatch:
    def test_round_robin_cycles(self, mini_polystore, mini_aindex):
        cluster = QuepaCluster(
            mini_polystore, mini_aindex, instances=2,
            policy=DispatchPolicy.ROUND_ROBIN,
        )
        picks = [
            cluster.submit("transactions", QUERY).instance for __ in range(4)
        ]
        assert picks == [0, 1, 0, 1]

    def test_least_loaded_balances(self, cluster):
        for __ in range(6):
            cluster.submit("transactions", QUERY)
        report = cluster.drain()
        assert report.per_instance_counts() == {0: 2, 1: 2, 2: 2}

    def test_answers_match_single_instance(self, cluster, mini_quepa):
        """Against a standalone instance over the plain index, at both
        levels, through a drain."""
        for level in (0, 1):
            clustered = cluster.submit("transactions", QUERY, level=level)
            solo = mini_quepa.augmented_search(
                "transactions", QUERY, level=level
            )
            assert _keys(clustered.answer) == _keys(solo)
            assert {str(o.key) for o in clustered.answer.originals} == {
                str(o.key) for o in solo.originals
            }
        assert len(cluster.drain().results) == 2

    def test_makespan_shrinks_with_more_instances(self, seven_store_bundle):
        """The paper's point: independent queries answer in parallel."""
        bundle = seven_store_bundle
        workload = QueryWorkload(bundle)
        queries = [workload.query("transactions", 40, variant=v)
                   for v in range(6)]

        def makespan(instances: int) -> float:
            cluster = QuepaCluster(
                bundle.polystore, bundle.aindex, instances=instances
            )
            for query in queries:
                cluster.submit(query.database, query.query)
            return cluster.drain().makespan

        assert makespan(3) < makespan(1)

    def test_queries_queue_on_busy_instances(self, cluster):
        first = cluster.submit("transactions", QUERY)
        second = cluster.submit("transactions", QUERY)
        third = cluster.submit("transactions", QUERY)
        fourth = cluster.submit("transactions", QUERY)  # queues behind one
        assert first.waited == 0.0
        assert fourth.started_at >= min(
            first.completed_at, second.completed_at, third.completed_at
        )

    def test_drain_resets_batch(self, cluster):
        cluster.submit("transactions", QUERY)
        report = cluster.drain()
        assert len(report.results) == 1
        assert cluster.drain().results == []

    def test_clock_advances_across_batches(self, cluster):
        cluster.submit("transactions", QUERY)
        first = cluster.drain()
        result = cluster.submit("transactions", QUERY)
        assert result.submitted_at == first.makespan


class TestMaintenance:
    """Maintenance is the caller's index, written once: every instance
    sees the write at its next refreeze. (The ``..._broadcasts`` and
    ``..._sync_on_drain`` ids predate the deletion of the cluster's own
    broadcasts and drain-time sync.)"""

    def test_add_relation_broadcasts(self, cluster, mini_aindex):
        i2 = K("similar.Item.i2")
        assert _seen_by_each(cluster, DISINTEGRATION, i2) == [False] * 3
        mini_aindex.add(
            PRelation.matching(K("transactions.inventory.a33"), i2, 0.7)
        )
        assert _seen_by_each(cluster, DISINTEGRATION, i2) == [True] * 3

    def test_remove_object_broadcasts(self, cluster, mini_aindex):
        d1 = K("catalogue.albums.d1")
        assert _seen_by_each(cluster, QUERY, d1) == [True] * 3
        mini_aindex.remove_object(d1)
        assert _seen_by_each(cluster, QUERY, d1) == [False] * 3

    def test_lazy_deletions_sync_on_drain(self, cluster, mini_polystore):
        """One instance discovers a deletion; every instance sees it."""
        mini_polystore.database("catalogue").delete_one("albums", "d1")
        for __ in range(3):
            cluster.submit("transactions", QUERY)
        cluster.drain()
        for index in range(len(cluster)):
            assert K("catalogue.albums.d1") not in cluster.instance(index).aindex

    def test_lazy_deletion_survives_drain_without_wiping(
        self, cluster, mini_aindex, mini_polystore
    ):
        """A lazy deletion one instance finds removes exactly that node
        — nothing else is lost — and no
        other instance's answer carries it afterwards."""
        before = set(mini_aindex.nodes())
        victim = K("catalogue.albums.d1")
        mini_polystore.database("catalogue").delete_one("albums", "d1")
        first = cluster.submit("transactions", QUERY)
        assert first.answer.stats.missing_objects == 1
        cluster.drain()
        assert set(mini_aindex.nodes()) == before - {victim}
        assert _seen_by_each(cluster, QUERY, victim) == [False] * 3

    def test_answers_unaffected_by_unrelated_deletion(
        self, cluster, mini_aindex
    ):
        baseline = cluster.submit("transactions", QUERY, level=1).answer
        cluster.drain()
        mini_aindex.remove_object(K("similar.Item.i3"))
        for __ in range(len(cluster)):
            repeat = cluster.submit("transactions", QUERY, level=1).answer
            assert _keys(repeat) == _keys(baseline)
        cluster.drain()


class TestServing:
    def test_scheduler_drives_a_cluster_instance(self, cluster):
        with QuepaServer(
            cluster.instance(0), ServingConfig(workers=2)
        ) as server:
            answer = server.search("s1", "transactions", QUERY, level=1)
        assert {str(obj.key) for obj in answer.originals} == {
            "transactions.inventory.a32"
        }
        assert _keys(answer) == _keys(
            cluster.instance(1).augmented_search(
                "transactions", QUERY, level=1
            )
        )

