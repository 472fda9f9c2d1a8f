"""Tests for the partitioned cluster: ownership routing and the
lazy-deletion drain regression (ISSUE 7's bugfix sweep).

The replica cluster's ``_sync_lazy_deletions`` union-diffs per-instance
node sets — correct only when every instance holds a full replica.
Under partitioning that diff would mistake by-design absence for
deletion and wipe the index, so the base cluster now refuses
partitioned indexes outright and ``ShardedCluster`` re-delivers
*recorded* deletions to owners only.
"""

from __future__ import annotations

import pytest

from repro.cluster import Delivery, QuepaCluster, ShardedCluster
from repro.errors import ConfigurationError
from repro.model import GlobalKey
from repro.model.prelations import PRelation
from repro.sharding import ShardedAIndex, shard_aindex

from tests.conftest import make_mini_aindex, make_mini_polystore

K = GlobalKey.parse
QUERY = "SELECT * FROM inventory WHERE name LIKE '%wish%'"


@pytest.fixture
def polystore():
    return make_mini_polystore()


@pytest.fixture
def aindex() -> ShardedAIndex:
    return shard_aindex(make_mini_aindex(), shards=4)


@pytest.fixture
def cluster(polystore, aindex) -> ShardedCluster:
    return ShardedCluster(polystore, aindex, instances=2)


class TestConstruction:
    def test_requires_sharded_index(self, polystore):
        with pytest.raises(ConfigurationError):
            ShardedCluster(polystore, make_mini_aindex(), instances=2)

    def test_instances_cannot_outnumber_shards(self, polystore, aindex):
        with pytest.raises(ConfigurationError):
            ShardedCluster(polystore, aindex, instances=5)

    def test_ownership_is_round_robin(self, cluster):
        assert cluster.ownership == {0: 0, 1: 1, 2: 0, 3: 1}
        assert cluster.owned_shards(0) == [0, 2]
        assert cluster.owned_shards(1) == [1, 3]

    def test_instances_share_the_authoritative_index(self, cluster, aindex):
        for index in range(len(cluster)):
            view = cluster.instance(index).aindex
            assert view.partitioned
            assert view.edge_count() == aindex.edge_count()
            assert view.frozen() is aindex.frozen()
            # The snapshot counters the planner gauges read.
            assert view.refreezes == aindex.refreezes == 1
            assert view.compactions == aindex.compactions == 1
            assert view.overlay_nodes == aindex.overlay_nodes == 0

    def test_base_cluster_refuses_partitioned_indexes(
        self, polystore, aindex
    ):
        cluster = QuepaCluster.__new__(QuepaCluster)
        sharded = ShardedCluster(polystore, aindex, instances=2)
        # A replica cluster that somehow ends up over partitioned views
        # must fail loudly on drain, not silently wipe the index.
        cluster.__dict__.update(sharded.__dict__)
        cluster.submit("transactions", QUERY)
        with pytest.raises(ConfigurationError):
            QuepaCluster.drain(cluster)


class TestBroadcastRouting:
    def test_add_relation_reaches_exactly_endpoint_owners(
        self, cluster, aindex
    ):
        relation = PRelation.identity(
            K("catalogue.albums.d2"), K("discount.drop.k2:pixies:doolittle"),
            0.85,
        )
        expected_owners = {
            cluster.owner_of(aindex.shard_of(relation.left)),
            cluster.owner_of(aindex.shard_of(relation.right)),
        }
        cluster.add_relation(relation)
        delivery = Delivery("add_relation", relation)
        received = {
            index
            for index in range(len(cluster))
            if delivery in cluster.deliveries(index)
        }
        assert received == expected_owners
        assert aindex.relation(relation.left, relation.right) is not None

    def test_remove_object_reaches_exactly_stub_owners(self, cluster, aindex):
        key = K("catalogue.albums.d1")
        expected_owners = {
            cluster.owner_of(shard) for shard in aindex.owning_shards(key)
        }
        cluster.remove_object(key)
        delivery = Delivery("remove_object", key)
        received = {
            index
            for index in range(len(cluster))
            if delivery in cluster.deliveries(index)
        }
        assert received == expected_owners
        assert key not in aindex

    def test_every_shard_routes_to_exactly_one_owner(self, cluster, aindex):
        for shard in range(aindex.shards):
            owner = cluster.owner_of(shard)
            assert shard in cluster.owned_shards(owner)
            others = [
                index
                for index in range(len(cluster))
                if index != owner and shard in cluster.owned_shards(index)
            ]
            assert others == []


class TestQueries:
    def test_queries_dispatch_and_drain(self, cluster):
        for __ in range(4):
            cluster.submit("transactions", QUERY, level=1)
        report = cluster.drain()
        assert len(report.results) == 4
        assert report.makespan > 0
        for result in report.results:
            keys = {str(obj.key) for obj in result.answer.originals}
            assert "transactions.inventory.a32" in keys


class TestDrainRegression:
    def test_lazy_deletion_survives_drain_without_wiping(
        self, cluster, aindex
    ):
        """The regression: a lazy deletion recorded by one instance must
        not trigger replica-style union-diffing on drain — only the
        deleted key goes, every other node survives."""
        before = set(aindex.nodes())
        victim = K("catalogue.albums.d1")
        # Instance 0 discovers the deletion mid-batch through its view.
        cluster.instance(0).aindex.remove_object(victim)
        cluster.submit("transactions", QUERY)
        cluster.drain()
        after = set(aindex.nodes())
        assert victim not in after
        assert after == before - {victim}

    def test_drain_redelivery_is_idempotent(self, cluster, aindex):
        victim = K("catalogue.albums.d1")
        cluster.instance(0).aindex.remove_object(victim)
        node_count = aindex.node_count()
        cluster.drain()
        cluster.drain()
        assert aindex.node_count() == node_count
        assert victim not in aindex

    def test_answers_unaffected_by_unrelated_deletion(self, cluster):
        baseline = cluster.submit("transactions", QUERY, level=1)
        cluster.drain()
        cluster.instance(1).aindex.remove_object(K("similar.Item.i3"))
        repeat = cluster.submit("transactions", QUERY, level=1)
        cluster.drain()
        assert {str(o.key) for o in repeat.answer.originals} == {
            str(o.key) for o in baseline.answer.originals
        }


class TestServingIntegration:
    def test_scheduler_drives_a_cluster_instance(self, cluster):
        from repro.serving import QuepaServer, ServingConfig

        with QuepaServer(
            cluster.instance(0), ServingConfig(workers=2)
        ) as server:
            answer = server.search("s1", "transactions", QUERY, level=1)
        assert {str(obj.key) for obj in answer.originals} == {
            "transactions.inventory.a32"
        }
