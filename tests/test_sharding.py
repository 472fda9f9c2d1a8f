"""Unit tests for the sharding layer: schemes, stores, the index copy,
wiring."""

from __future__ import annotations

from zlib import crc32

import pytest

from repro.core import AIndex, Quepa
from repro.core.connectors import Connector
from repro.errors import (
    ConfigurationError,
    KeyNotFoundError,
    QueryError,
    SqlSyntaxError,
)
from repro.model import GlobalKey, PRelation
from repro.serving import LoadGenerator
from repro.sharding import (
    HashScheme,
    RangeScheme,
    ShardConnector,
    ShardedStore,
    hash_shard,
    make_scheme,
    partition_store,
    shard_aindex,
    shard_polystore,
)
from repro.stores import DocumentStore, GraphStore, RelationalStore
from repro.stores.base import token_window
from repro.stores.document.query import token_bounds as document_bounds
from repro.stores.relational.executor import token_bounds as sql_bounds
from repro.stores.relational.parser import parse_sql
from repro.stores.relational.types import Column, ColumnType, TableSchema

from tests.conftest import make_mini_aindex, make_mini_polystore

K = GlobalKey.parse


# -- placement schemes -------------------------------------------------------


class TestHashScheme:
    def test_hash_shard_is_crc32(self):
        assert hash_shard("a32", 4) == crc32(b"a32") % 4
        # Stable across calls (no per-process salt).
        assert hash_shard("a32", 4) == hash_shard("a32", 4)

    def test_key_and_object_placement_agree(self):
        scheme = HashScheme(4)
        for key in ("a32", "d1", "disc:17", "i3"):
            assert scheme.shard_of_key(key) == scheme.shard_of_object(
                "any", key, {"seq": 3}
            )

    def test_scans_cannot_prune(self):
        assert HashScheme(3).scan_candidates((0.0, 10.0)) == [0, 1, 2]

    def test_zero_shards_rejected(self):
        with pytest.raises(ConfigurationError):
            HashScheme(0)


class TestRangeScheme:
    def test_fit_produces_sorted_cuts(self):
        scheme = RangeScheme(4)
        scheme.fit(list(range(100)))
        assert scheme.boundaries == sorted(scheme.boundaries)
        assert len(scheme.boundaries) == 3

    def test_boundary_count_validated(self):
        with pytest.raises(ConfigurationError):
            RangeScheme(4, boundaries=[10.0])

    def test_point_lookups_cannot_route(self):
        scheme = RangeScheme(2, boundaries=[50.0])
        assert scheme.shard_of_key("a32") is None

    def test_tokened_objects_place_by_boundary(self):
        scheme = RangeScheme(2, boundaries=[50.0])
        assert scheme.shard_of_object("t", "x", {"seq": 10}) == 0
        assert scheme.shard_of_object("t", "y", {"seq": 99}) == 1

    def test_untokened_objects_fall_back_to_shard_zero(self):
        scheme = RangeScheme(2, boundaries=[50.0])
        assert scheme.shard_of_object("t", "x", {"name": "Wish"}) == 0
        assert scheme.has_untokened
        # ...and shard 0 can no longer be pruned away.
        assert 0 in scheme.scan_candidates((60.0, 70.0))

    def test_scan_prunes_non_overlapping_shards(self):
        scheme = RangeScheme(4, boundaries=[25.0, 50.0, 75.0])
        assert scheme.scan_candidates((0.0, 10.0)) == [0]
        assert scheme.scan_candidates((30.0, 60.0)) == [1, 2]
        assert scheme.scan_candidates(None) == [0, 1, 2, 3]


def sql_window(query: str, field: str = "seq"):
    return token_window(sql_bounds(parse_sql(query).where, field))


def document_window(filter_doc, field: str = "seq"):
    return token_window(document_bounds(filter_doc, field))


class TestQueryInterval:
    """The engines' token windows: a SQL WHERE's, a document filter's."""

    def test_sql_window(self):
        assert sql_window(
            "SELECT * FROM inventory WHERE seq >= 10 AND seq < 20"
        ) == (10.0, 20.0)

    def test_sql_without_window(self):
        query = "SELECT * FROM inventory WHERE name LIKE '%wish%'"
        assert sql_window(query) is None

    def test_document_window(self):
        assert document_window({"seq": {"$gte": 5, "$lt": 9}}) == (5.0, 9.0)

    def test_document_closed_bounds(self):
        # ``$gt: 4`` bounds from 4 (over-inclusive); 5 would drop 4.5.
        assert document_window({"seq": {"$gt": 4, "$lte": 8}}) == (4.0, 9.0)

    def test_document_non_numeric_bound_proves_nothing(self):
        # The ``$gt`` bound still holds; ``"z"`` bounds nothing above.
        window = document_window({"seq": {"$gt": 4, "$lte": "z"}})
        assert window == (4.0, float("inf"))

    @pytest.mark.parametrize(
        "where",
        [
            "name = 'x' OR seq >= 0 AND seq < 5",
            "NOT (seq >= 0 AND seq < 5)",
            "name = 'WHERE seq >= 0 AND seq < 5'",
            "seq >= 0 AND seq < 5 + 10",
            "seq >= 0 AND seq < 5.5",
            "10 - seq >= 0 AND seq < 5",
        ],
    )
    def test_sql_unprovable_windows_are_not_derived(self, where):
        """Windows a regex over the text could not prove: the AST derives
        one only from top-level ``seq op number`` conjuncts (the last
        three), and it holds every row the query matches."""
        query = f"SELECT * FROM t WHERE {where}"
        plain = _seq_table()
        lo, hi = sql_window(query) or (float("-inf"), float("inf"))
        assert all(lo <= obj.value["seq"] < hi for obj in plain.execute(query))
        sharded = partition_store(plain, RangeScheme(4, boundaries=[5, 10, 15]))
        assert _answer(sharded, query) == _answer(plain, query)

    def test_graph_queries_never_prove_a_window(self):
        targets, __ = GraphStore().scatter(
            {"op": "match", "label": "Item"}, RangeScheme(2, boundaries=[5])
        )
        assert [shard for shard, __ in targets] == [0, 1]

    def test_make_scheme_rejects_unknown_placement(self):
        with pytest.raises(ConfigurationError):
            make_scheme("round_robin", 2)


# -- sharded stores ----------------------------------------------------------


@pytest.fixture
def polystore():
    return make_mini_polystore()


class TestShardedStore:
    def test_partitioning_preserves_every_object(self, polystore):
        for name, store in polystore.databases.items():
            sharded = partition_store(store, HashScheme(3))
            assert sharded.count_objects() == store.count_objects()
            assert sharded.collections() == store.collections()
            assert sorted(sharded.collection_keys(store.collections()[0])) == \
                sorted(store.collection_keys(store.collections()[0]))

    def test_multi_get_matches_unsharded(self, polystore):
        store = polystore.database("transactions")
        sharded = partition_store(store, HashScheme(3))
        keys = [
            K("transactions.inventory.a32"),
            K("transactions.inventory.a34"),
            K("transactions.inventory.a33"),
        ]
        plain = {obj.key: obj.value for obj in store.multi_get(keys)}
        routed = sharded.multi_get(keys)
        assert [obj.key for obj in routed] == keys  # first-occurrence order
        assert {obj.key: obj.value for obj in routed} == plain
        assert sharded.stats.multi_gets == 1

    def test_get_value_routes_under_hash(self, polystore):
        store = polystore.database("catalogue")
        sharded = partition_store(store, HashScheme(4))
        assert sharded.get_value("albums", "d1")["title"] == "Wish"
        with pytest.raises(KeyNotFoundError):
            sharded.get_value("albums", "nope")

    def test_get_value_probes_under_range(self, polystore):
        store = polystore.database("catalogue")
        sharded = partition_store(store, RangeScheme(2, token_field="year"))
        assert sharded.get_value("albums", "d2")["title"] == "Doolittle"
        with pytest.raises(KeyNotFoundError):
            sharded.get_value("albums", "nope")

    def test_kv_mget_splits_exactly_under_hash(self, polystore):
        store = polystore.database("discount")
        sharded = partition_store(store, HashScheme(2))
        query = ("mget", ["k1:cure:wish", "k2:pixies:doolittle"])
        plain = {obj.key for obj in store.execute(query)}
        assert {obj.key for obj in sharded.execute(query)} == plain
        targets, __ = sharded.shards[0].scatter(
            ("mget", ["k1:cure:wish"]), sharded.scheme
        )
        assert targets == [(hash_shard("k1:cure:wish", 2), ("mget", ["k1:cure:wish"]))]

    def test_execute_counts_scanned_and_pruned(self, polystore):
        store = polystore.database("transactions")
        sharded = partition_store(
            store, RangeScheme(2, token_field="price")
        )
        # Window (1, 2) sits below every boundary: only shard 0 can
        # answer, shard 1 is provably prunable.
        sharded.execute("SELECT * FROM inventory WHERE price >= 1 AND price < 2")
        assert sharded.partitions_scanned_total == 1
        assert sharded.partitions_pruned_total == 1

    def test_range_scan_prunes_partitions(self):
        polystore = make_mini_polystore()
        store = polystore.database("catalogue")
        sharded = partition_store(store, RangeScheme(2, token_field="year"))
        query = {
            "collection": "albums",
            "filter": {"year": {"$gte": 1900, "$lt": 1991}},
        }
        results = sharded.execute(query)
        assert {obj.value["title"] for obj in results} == {"Doolittle"}
        assert sharded.partitions_pruned_total >= 1

    def test_sql_writes_rejected(self, polystore):
        store = polystore.database("transactions")
        sharded = partition_store(store, HashScheme(2))
        with pytest.raises(QueryError):
            sharded.execute("DELETE FROM inventory")

    def test_scan_results_match_unsharded(self, polystore):
        store = polystore.database("transactions")
        sharded = partition_store(store, HashScheme(3))
        query = "SELECT * FROM inventory WHERE name LIKE '%i%'"
        assert {obj.key for obj in sharded.execute(query)} == {
            obj.key for obj in store.execute(query)
        }

    def test_graph_split_keeps_colocated_edges_and_counts_cut(self, polystore):
        store = polystore.database("similar")
        sharded = partition_store(store, HashScheme(2))
        per_shard_edges = sum(
            len(shard._edges) for shard in sharded.shards
        )
        assert per_shard_edges + sharded.cut_edges == len(store._edges)
        report = sharded.describe_sharding()
        assert report["engine"] == "graph"
        assert sum(report["objects_per_shard"]) == store.count_objects()

    def test_explain_plan_reports_fanout(self, polystore):
        store = polystore.database("transactions")
        sharded = partition_store(store, HashScheme(2))
        plan = sharded._explain_plan("SELECT * FROM inventory")
        assert plan["access_path"] == "sharded_fanout"
        assert plan["scanned_partitions"] == [0, 1]
        assert len(plan["per_shard"]) == 2

    @pytest.mark.parametrize(
        ("database", "query", "pushed", "merge"),
        [
            (
                "transactions",
                "SELECT name FROM inventory ORDER BY price DESC LIMIT 2 OFFSET 1",
                "SELECT * FROM inventory ORDER BY price DESC LIMIT 3",
                {"order": ["price DESC"], "skip": 1, "limit": 2},
            ),
            (
                "catalogue",
                {"collection": "albums", "sort": [("year", -1)], "skip": 1,
                 "limit": 1, "projection": {"title": 1}},
                str({"collection": "albums", "sort": [("year", -1)],
                     "skip": 0, "limit": 2}),
                {"order": [("year", -1)], "skip": 1, "limit": 1},
            ),
            (
                "similar",
                "MATCH (a:Item) RETURN a ORDER BY a.title LIMIT 2",
                "MATCH (a:Item) RETURN a ORDER BY a.title LIMIT 2",
                {"order": ["a.title"], "limit": 2},
            ),
            ("discount", "KEYS k*", "KEYS k*", "rerun"),
        ],
    )
    def test_explain_reports_pushdown_and_merge(
        self, polystore, database, query, pushed, merge
    ):
        store = polystore.database(database)
        sharded = partition_store(store, HashScheme(2))
        plan = sharded.explain(query)
        assert [entry["query"] for entry in plan["per_shard"]] == [pushed] * 2
        assert plan["merge"] == merge
        assert [obj.value for obj in sharded.execute(query)] == [
            obj.value for obj in store.execute(query)
        ]

    def test_shard_count_must_match_scheme(self, polystore):
        store = polystore.database("discount")
        shards = partition_store(store, HashScheme(2)).shards
        with pytest.raises(ConfigurationError):
            ShardedStore(shards, HashScheme(3))

    def test_shard_polystore_covers_every_database(self, polystore):
        sharded = shard_polystore(polystore, shards=2, placement="hash")
        assert set(sharded.databases) == set(polystore.databases)
        for name, store in sharded.databases.items():
            assert store.sharded
            assert store.database_name == name
            assert store.count_objects() == (
                polystore.database(name).count_objects()
            )


def _seq_table() -> RelationalStore:
    """``k0..k19`` with ``seq = i``; ``k15`` is the one named ``x``."""
    store = RelationalStore()
    store.create_table(
        "t",
        TableSchema(
            columns=[
                Column("id", ColumnType.TEXT, nullable=False),
                Column("name", ColumnType.TEXT),
                Column("seq", ColumnType.INTEGER),
            ],
            primary_key="id",
        ),
    )
    for i in range(20):
        store.insert_row(
            "t", {"id": f"k{i}", "name": "x" if i == 15 else f"n{i}", "seq": i}
        )
    return store


def _answer(store, query) -> list[str]:
    return sorted(str(obj.key) for obj in store.execute(query))


class TestRangePruningAnswers:
    """Sharded ≡ plain on the queries that a too-eager window pruned."""

    @pytest.mark.parametrize(
        ("where", "rows"),
        [
            ("name = 'x' OR seq >= 0 AND seq < 5", 6),  # lost k15
            ("NOT (seq >= 0 AND seq < 5)", 15),  # lost all 15
        ],
    )
    def test_sql_window_under_or_and_not(self, where, rows):
        plain = _seq_table()
        sharded = partition_store(plain, RangeScheme(4, boundaries=[5, 10, 15]))
        query = f"SELECT * FROM t WHERE {where}"
        assert len(_answer(plain, query)) == rows
        assert _answer(sharded, query) == _answer(plain, query)

    def test_document_gt_on_fractional_tokens(self):
        plain = DocumentStore()
        for i in range(40):
            plain.insert("c", {"_id": f"d{i}", "seq": i / 4})
        sharded = partition_store(
            plain, RangeScheme(4, boundaries=[2.5, 5, 7.5])
        )
        query = {"collection": "c", "filter": {"seq": {"$gt": 2.0, "$lt": 20}}}
        assert _answer(sharded, query) == _answer(plain, query)
        # d9 (2.25) sits below the old ``$gt + 1`` bound of 3.0.
        assert any(key.endswith(".d9") for key in _answer(sharded, query))

    @pytest.mark.parametrize("query", ["", "   "])
    def test_blank_sql_is_a_syntax_error_like_the_plain_engine(self, query):
        plain = _seq_table()
        sharded = partition_store(plain, RangeScheme(4, boundaries=[5, 10, 15]))
        with pytest.raises(SqlSyntaxError):
            plain.execute(query)
        with pytest.raises(SqlSyntaxError):
            sharded.execute(query)


class TestRouting:
    def test_hash_routes_each_key_to_one_shard(self, polystore):
        sharded = partition_store(
            polystore.database("transactions"), HashScheme(4)
        )
        keys = [K("transactions.inventory.a32"), K("transactions.inventory.a33")]
        routing = sharded.route_keys(keys)
        assert routing.placement == "hash"
        assert routing.per_key_fanout == 1.0
        assert sorted(routing.scanned + routing.pruned) == [0, 1, 2, 3]

    def test_range_routes_probe_every_shard(self, polystore):
        sharded = partition_store(
            polystore.database("transactions"),
            RangeScheme(2, token_field="price"),
        )
        routing = sharded.route_keys([K("transactions.inventory.a32")])
        assert routing.fanout == 2
        assert routing.pruned == []
        assert routing.per_key_fanout == 2.0

    def test_empty_key_list_prunes_everything(self, polystore):
        sharded = partition_store(
            polystore.database("transactions"), HashScheme(2)
        )
        routing = sharded.route_keys([])
        assert routing.fanout == 0
        assert routing.pruned == [0, 1]


# -- the A' index copy -------------------------------------------------------


def _neighbor_sets(index, keys):
    return {
        key: {
            (n.key, n.type, round(n.probability, 12))
            for n in index.neighbors(key)
        }
        for key in keys
    }


def test_shard_aindex_copies_existing_index():
    """``shard_aindex`` partitions nothing: it returns a plain copy,
    lineage included (``tests/test_api_completeness.py`` cascades on
    one)."""
    plain = make_mini_aindex()
    copy = shard_aindex(plain, shards=4)
    assert type(copy) is AIndex and copy is not plain
    keys = set(plain.nodes())
    assert set(copy.nodes()) == keys
    assert _neighbor_sets(copy, keys) == _neighbor_sets(plain, keys)
    assert copy.edge_count() == plain.edge_count()
    assert copy._lineage == plain._lineage
    assert copy._lineage_by_node == plain._lineage_by_node


# -- wiring ------------------------------------------------------------------


class TestWiring:
    def test_registry_picks_shard_connector(self):
        polystore = shard_polystore(make_mini_polystore(), shards=2)
        quepa = Quepa(polystore, make_mini_aindex())
        connector = quepa.registry.connector("transactions")
        assert isinstance(connector, ShardConnector)

    def test_plain_store_keeps_plain_connector(self, polystore):
        quepa = Quepa(polystore, make_mini_aindex())
        connector = quepa.registry.connector("transactions")
        assert type(connector) is Connector

    def test_explain_reports_shard_routing(self):
        polystore = shard_polystore(make_mini_polystore(), shards=2)
        quepa = Quepa(polystore, make_mini_aindex())
        report = quepa.explain(
            "transactions",
            "SELECT * FROM inventory WHERE name LIKE '%wish%'",
            level=1,
        )
        shardings = [
            entry["sharding"]
            for entry in report["execution"]["per_database"].values()
            if "sharding" in entry
        ]
        assert shardings, "no sharded fetch surfaced in EXPLAIN"
        for sharding in shardings:
            assert sharding["placement"] == "hash"
            assert sharding["shards"] == 2
            assert sharding["fanout"] >= 1


# -- zipfian load skew -------------------------------------------------------


class _StubServer:
    def search(self, *args, **kwargs):  # pragma: no cover - never driven
        raise AssertionError("planning must not touch the server")


class _StubWorkload:
    class bundle:
        databases = [("transactions", None)]

    def query(self, database, size, variant=0):
        class Q:
            pass

        q = Q()
        q.query = ("variant", variant)
        return q


class TestZipfSkew:
    def test_zero_skew_keeps_legacy_scripts(self):
        legacy = LoadGenerator(
            _StubServer(), _StubWorkload(), databases=["transactions"], seed=7
        )
        skewless = LoadGenerator(
            _StubServer(), _StubWorkload(), databases=["transactions"],
            seed=7, zipf_s=0.0,
        )
        assert legacy.plan_for_client(0, 50) == skewless.plan_for_client(0, 50)

    def test_skew_concentrates_on_low_ranks(self):
        generator = LoadGenerator(
            _StubServer(), _StubWorkload(), databases=["transactions"],
            seed=7, zipf_s=1.5, zipf_variants=16,
        )
        script = generator.plan_for_client(0, 400)
        variants = [planned.query[1] for planned in script]
        assert all(0 <= v < 16 for v in variants)
        hottest = sum(1 for v in variants if v == 0)
        # Zipf(1.5) over 16 ranks gives rank 0 ~59% of the mass.
        assert hottest > len(variants) * 0.4
        assert len(set(variants)) > 1

    def test_deterministic_per_seed(self):
        def plan():
            return LoadGenerator(
                _StubServer(), _StubWorkload(), databases=["transactions"],
                seed=11, zipf_s=1.1,
            ).plan_for_client(2, 64)

        assert plan() == plan()

    def test_validation(self):
        with pytest.raises(ValueError):
            LoadGenerator(
                _StubServer(), _StubWorkload(), databases=["transactions"],
                zipf_s=-0.1,
            )
        with pytest.raises(ValueError):
            LoadGenerator(
                _StubServer(), _StubWorkload(), databases=["transactions"],
                zipf_variants=0,
            )
