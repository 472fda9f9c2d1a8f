"""Tests for the property-graph store."""

import pytest

from repro.errors import KeyNotFoundError, QueryError
from repro.stores import GraphStore, RelationalStore
from repro.stores.relational.types import Column, ColumnType, TableSchema


@pytest.fixture
def store() -> GraphStore:
    g = GraphStore()
    g.database_name = "similar"
    for i in range(1, 6):
        g.create_node("Item", {"title": f"t{i}", "rank": i}, node_id=f"i{i}")
    g.create_node(("Artist", "Person"), {"name": "Cure"}, node_id="ar1")
    g.create_edge("i1", "SIMILAR", "i2", {"weight": 0.9})
    g.create_edge("i2", "SIMILAR", "i3", {"weight": 0.5})
    g.create_edge("i3", "SIMILAR", "i4")
    g.create_edge("ar1", "MADE", "i1")
    return g


class TestWrites:
    def test_create_node_autogenerates_id(self, store):
        node = store.create_node("Item", {"title": "x"})
        assert node.id.startswith("n")

    def test_duplicate_node_id_rejected(self, store):
        with pytest.raises(QueryError):
            store.create_node("Item", node_id="i1")

    def test_edge_requires_endpoints(self, store):
        with pytest.raises(KeyNotFoundError):
            store.create_edge("i1", "SIMILAR", "missing")

    def test_delete_node_removes_incident_edges(self, store):
        assert store.delete_node("i2") is True
        assert store.delete_node("i2") is False
        assert [n.id for n in store.neighbors("i1", "SIMILAR")] == []
        assert [n.id for n in store.neighbors("i3", direction="in")] == []

    def test_counts(self, store):
        assert store.node_count() == 6
        assert store.edge_count() == 4


class TestReads:
    def test_match_by_label(self, store):
        assert len(store.match("Item")) == 5

    def test_match_secondary_label(self, store):
        assert [n.id for n in store.match("Person")] == ["ar1"]

    def test_match_with_properties(self, store):
        assert [n.id for n in store.match("Item", {"rank": 3})] == ["i3"]

    def test_match_limit(self, store):
        assert len(store.match("Item", limit=2)) == 2

    def test_neighbors_out(self, store):
        assert [n.id for n in store.neighbors("i2", direction="out")] == ["i3"]

    def test_neighbors_in(self, store):
        assert [n.id for n in store.neighbors("i2", direction="in")] == ["i1"]

    def test_neighbors_both_dedup(self, store):
        ids = {n.id for n in store.neighbors("i2")}
        assert ids == {"i1", "i3"}

    def test_neighbors_filter_by_type(self, store):
        assert [n.id for n in store.neighbors("i1", "MADE")] == ["ar1"]

    def test_traverse_depth(self, store):
        one_hop = {n.id for n in store.traverse("i1", 1, "SIMILAR")}
        two_hop = {n.id for n in store.traverse("i1", 2, "SIMILAR")}
        assert one_hop == {"i2"}
        assert two_hop == {"i2", "i3"}

    def test_shortest_path(self, store):
        assert store.shortest_path("i1", "i4") == ["i1", "i2", "i3", "i4"]
        assert store.shortest_path("i1", "i1") == ["i1"]
        assert store.shortest_path("i1", "i5") is None

    def test_node_missing_raises(self, store):
        with pytest.raises(KeyNotFoundError):
            store.node("zz")


class TestStoreContract:
    def test_execute_match(self, store):
        objects = store.execute({"op": "match", "label": "Item", "limit": 3})
        assert all(o.key.collection == "Item" for o in objects)

    def test_execute_neighbors(self, store):
        objects = store.execute({"op": "neighbors", "node": "i2"})
        assert {o.key.key for o in objects} == {"i1", "i3"}

    def test_execute_traverse(self, store):
        objects = store.execute(
            {"op": "traverse", "node": "i1", "depth": 2, "rel_type": "SIMILAR"}
        )
        assert {o.key.key for o in objects} == {"i2", "i3"}

    def test_execute_unknown_op_raises(self, store):
        with pytest.raises(QueryError):
            store.execute({"op": "zap"})

    def test_execute_non_dict_raises(self, store):
        with pytest.raises(QueryError):
            store.execute("MATCH (n)")

    def test_get_value_includes_labels(self, store):
        payload = store.get_value("Item", "i1")
        assert payload["_labels"] == ["Item"]
        assert payload["title"] == "t1"

    def test_get_value_wrong_label_raises(self, store):
        with pytest.raises(KeyNotFoundError):
            store.get_value("Artist", "i1")

    def test_collections_are_labels(self, store):
        assert store.collections() == ["Artist", "Item", "Person"]

    def test_collection_keys(self, store):
        assert list(store.collection_keys("Artist")) == ["ar1"]


#: One mixed-type property: int, float, bool, text, an explicit null and
#: a missing one (``_MISSING``), with ties (2 / 2.0, 1 / True).
_MISSING = object()
_MIXED = [2, "a", None, 1.5, True, "10", _MISSING, 0, 2.0, "B", 1, False, -3.5]


@pytest.mark.parametrize("sql_order, cypher_order", [
    ("v", "n.v"),
    ("v DESC", "n.v DESC"),
    ("g, v DESC", "n.g, n.v DESC"),
    ("v DESC, g", "n.v DESC, n.g"),
])
def test_sql_and_cypher_order_mixed_types_alike(sql_order, cypher_order):
    """SQL and Cypher ORDER BY share one order over the same values."""
    typed = {bool: "b", int: "i", float: "f", str: "s"}
    sql = RelationalStore()
    sql.create_table("t", TableSchema(columns=[
        Column("id", ColumnType.TEXT, nullable=False),
        Column("g", ColumnType.TEXT),
        Column("b", ColumnType.BOOLEAN),
        Column("i", ColumnType.INTEGER),
        Column("f", ColumnType.FLOAT),
        Column("s", ColumnType.TEXT),
    ], primary_key="id"))
    graph = GraphStore()
    for position, value in enumerate(_MIXED):
        row = {"id": f"r{position:02d}", "g": "xy"[position % 2]}
        properties = {"g": row["g"]}
        if value is not _MISSING:
            properties["v"] = value
            if value is not None:
                row[typed[type(value)]] = value
        sql.insert_row("t", row)
        graph.create_node("Row", properties, node_id=row["id"])
    by_sql = sql.execute(
        f"SELECT id, g, COALESCE(b, i, f, s) AS v FROM t ORDER BY {sql_order}"
    )
    by_cypher = graph.execute(f"MATCH (n:Row) RETURN n ORDER BY {cypher_order}")
    assert [obj.key.key for obj in by_sql] == [obj.key.key for obj in by_cypher]
    assert len(by_sql) == len(_MIXED)
