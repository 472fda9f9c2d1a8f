"""Ordered access paths: a range read from the path is the scan's answer.

Every engine derives one ordered path per (collection, field) the first
time a numeric range needs it and drops it when the store's write
counter moves (``Store.range_rows``). The path only narrows what the
predicate is evaluated on, so it must return the scan's rows in the
scan's order. Each engine is checked against itself: the same range is
also written in a form no path serves (under an ``OR`` / ``$and`` /
``NOT NOT``), which scans, and the two answers must agree element for
element after any sequence of inserts, updates, deletes and
``load_state`` round trips. Field values mix ``None``, missing fields,
bools, NaN, ±inf, ints, floats and strs; a field holding a bool or a
str keeps the scan, which the EXPLAIN of the served form must say.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import QueryError
from repro.stores import DocumentStore, GraphStore, RelationalStore
from repro.stores.base import OrderedPath
from repro.stores.relational.types import Column, ColumnType, TableSchema

KEYS = [f"k{i}" for i in range(8)]
#: What a document field or node property may hold (``"missing"``: no
#: field at all).
ANY_VALUE = st.one_of(
    st.just("missing"), st.none(), st.booleans(),
    st.just(math.nan), st.just(math.inf), st.just(-math.inf),
    st.integers(-5, 5), st.sampled_from([-2.5, 0.0, 0.5, 1.0, 3.25]),
    st.sampled_from(["a", "3"]),
)
#: What a FLOAT column may hold.
FLOAT_VALUE = st.one_of(
    st.none(), st.just(math.nan), st.just(math.inf), st.just(-math.inf),
    st.integers(-5, 5).map(float), st.sampled_from([-2.5, 0.5, 3.25]),
)
#: Bounds every language can write as a literal.
BOUND = st.one_of(st.integers(0, 5), st.sampled_from([0.5, 1.0, 2.5]))
BOUNDS = st.lists(
    st.tuples(st.sampled_from([">", ">=", "<", "<="]), BOUND),
    min_size=1, max_size=3,
)


def operations(values):
    """A script of writes and range queries over ``KEYS``."""
    return st.lists(st.one_of(
        st.tuples(st.just("put"), st.sampled_from(KEYS), values),
        st.tuples(st.just("delete"), st.sampled_from(KEYS)),
        st.tuples(st.just("reload")),
        st.tuples(st.just("query"), BOUNDS),
    ), min_size=1, max_size=25)


def orderable(values) -> bool:
    """Whether a path serves the field (no bool / str beside numbers)."""
    return all(
        value is None or type(value) in (int, float) for value in values
    )


def run(engine, script):
    """Play ``script`` on ``engine``; every query's served answer must be
    its scanned answer, and the served form must say which path it took."""
    store = engine.new()
    held: dict[str, object] = {}
    for step in script:
        if step[0] == "put":
            engine.put(store, step[1], step[2], step[1] in held)
            held[step[1]] = None if step[2] == "missing" else step[2]
        elif step[0] == "delete":
            engine.delete(store, step[1])
            held.pop(step[1], None)
        elif step[0] == "reload":
            store = type(store).load_state(store.dump_state())
        else:
            served, scanned = engine.queries(step[1])
            assert engine.path(store, scanned) in engine.scans
            try:
                expected = engine.keys(store.execute(scanned))
            except QueryError:
                expected = QueryError
            store.stats.reset()
            try:
                got = engine.keys(store.execute(served))
            except QueryError:
                got = QueryError
            assert got == expected, (served, held)
            path = engine.path(store, served)
            if engine.serves and orderable(held.values()):
                assert path == "index_range"
                assert store.stats.rows_examined == engine.estimate(store, served)
            else:
                assert path in engine.scans


class Relational:
    scans = ("full_scan",)
    #: Whether a numeric range may be served at all: a number compared
    #: with a TEXT column may raise, so the statement keeps the scan.
    serves = True

    def __init__(self, kind: ColumnType) -> None:
        self.kind = kind
        self.serves = kind is not ColumnType.TEXT

    def new(self):
        store = RelationalStore()
        store.create_table("t", TableSchema(
            columns=[
                Column("id", ColumnType.TEXT, nullable=False),
                Column("v", self.kind),
            ],
            primary_key="id",
        ))
        return store

    def put(self, store, key, value, exists):
        if exists:
            store.table("t").update(key, {"v": value})
        else:
            store.insert_row("t", {"id": key, "v": value})

    def delete(self, store, key):
        store.sql(f"DELETE FROM t WHERE id = '{key}'")

    def queries(self, bounds):
        where = " AND ".join(f"v {op} {b!r}" for op, b in bounds)
        return (
            f"SELECT * FROM t WHERE {where}",
            f"SELECT * FROM t WHERE ({where}) OR id IS NULL",
        )

    def keys(self, objects):
        return [obj.key.key for obj in objects]

    def path(self, store, query):
        return store.explain(query)["access_path"]

    def estimate(self, store, query):
        return store.explain(query)["estimated_rows"]


class Document(Relational):
    scans = ("collection_scan",)

    def __init__(self) -> None:
        pass

    def new(self):
        store = DocumentStore()
        store.create_collection("c")
        return store

    def put(self, store, key, value, exists):
        document = {} if value == "missing" else {"v": value}
        if exists:
            store.update_one("c", key, {"$set": document} if document
                             else {"$unset": {"v": 1}})
        else:
            store.insert("c", {"_id": key, **document})

    def delete(self, store, key):
        store.delete_one("c", key)

    def queries(self, bounds):
        names = {">": "$gt", ">=": "$gte", "<": "$lt", "<=": "$lte"}
        condition: dict = {}
        extra = []
        for op, bound in bounds:
            if names[op] in condition:  # one key per operator in a dict
                extra.append({"v": {names[op]: bound}})
            else:
                condition[names[op]] = bound
        served = {"v": condition}
        if extra:
            served = {"v": condition, "$and": extra}
        scanned = {"$and": [{"v": condition}, *extra]}
        return (
            {"collection": "c", "filter": served},
            {"collection": "c", "filter": scanned},
        )


class Graph(Relational):
    scans = ("label_index",)

    def __init__(self) -> None:
        pass

    def new(self):
        return GraphStore()

    def put(self, store, key, value, exists):
        properties = {} if value == "missing" else {"v": value}
        if exists:
            store.update_node(key, properties, replace=True)
        else:
            store.create_node("L", properties, node_id=key)

    def delete(self, store, key):
        store.delete_node(key)

    def queries(self, bounds):
        where = " AND ".join(f"n.v {op} {b}" for op, b in bounds)
        return (
            f"MATCH (n:L) WHERE {where} RETURN n",
            f"MATCH (n:L) WHERE NOT (NOT ({where})) RETURN n",
        )


class TestServedEqualsScanned:
    @given(operations(FLOAT_VALUE))
    @settings(max_examples=80, deadline=None)
    def test_relational_float_column(self, script):
        run(Relational(ColumnType.FLOAT), script)

    @given(operations(st.one_of(st.none(), st.integers(-5, 5))))
    @settings(max_examples=40, deadline=None)
    def test_relational_integer_column(self, script):
        run(Relational(ColumnType.INTEGER), script)

    @given(operations(st.one_of(st.none(), st.booleans())))
    @settings(max_examples=30, deadline=None)
    def test_relational_boolean_column_keeps_the_scan(self, script):
        run(Relational(ColumnType.BOOLEAN), script)

    @given(operations(st.one_of(st.none(), st.sampled_from(["a", "3"]))))
    @settings(max_examples=30, deadline=None)
    def test_relational_text_column_keeps_the_scan(self, script):
        run(Relational(ColumnType.TEXT), script)

    @given(operations(ANY_VALUE))
    @settings(max_examples=100, deadline=None)
    def test_document(self, script):
        run(Document(), script)

    @given(operations(ANY_VALUE))
    @settings(max_examples=100, deadline=None)
    def test_graph(self, script):
        run(Graph(), script)


class TestTheDerivedPath:
    def test_a_write_rebuilds_it_and_a_stats_reset_does_not(self):
        store = DocumentStore()
        for seq in range(5):
            store.insert("c", {"_id": f"d{seq}", "v": seq})
        query = ("c", {"v": {"$gte": 3}})
        assert [o.key.key for o in store.execute(query)] == ["d3", "d4"]
        version = store.content_version
        store.stats.reset()  # rewinds stats.writes, not the counter
        assert store.content_version == version
        store.update_one("c", "d0", {"$set": {"v": 9}})
        assert store.content_version == version + 1
        assert [o.key.key for o in store.execute(query)] == ["d0", "d3", "d4"]

    def test_create_and_drop_move_the_counter(self):
        store = RelationalStore()
        schema = TableSchema(
            [Column("id", ColumnType.TEXT, False), Column("v", ColumnType.INTEGER)],
            "id",
        )
        store.create_table("t", schema)
        store.insert_row("t", {"id": "a", "v": 1})
        assert len(store.execute("SELECT * FROM t WHERE v > 0")) == 1
        version = store.content_version
        store.drop_table("t")
        store.create_table("t", schema)
        assert store.content_version == version + 2
        assert store.execute("SELECT * FROM t WHERE v > 0") == []

    def test_a_failed_update_changes_nothing(self):
        """An update is all or nothing, so no write escapes the counter."""
        store = DocumentStore()
        store.insert("c", {"_id": "d0", "v": 1, "name": "x", "tags": []})
        store.create_index("c", "v")
        version = store.content_version
        try:
            store.update_one("c", "d0", {
                "$set": {"v": 5}, "$push": {"tags": "t"}, "$inc": {"name": 1},
            })
        except QueryError:
            pass
        assert store.content_version == version
        assert store.find("c", {"v": 1}) == [
            {"_id": "d0", "v": 1, "name": "x", "tags": []}
        ]
        assert store.find("c", {"v": {"$gt": 2}}) == []

    def test_values_that_are_not_numbers(self):
        rows = ["r0", "r1", "r2", "r3", "r4"]
        path = OrderedPath.build(rows, [2, None, math.nan, -math.inf, 1.5])
        assert path.values == [-math.inf, 1.5, 2]
        assert path.select([(">=", -math.inf)]) == ["r0", "r3", "r4"]
        assert path.select([(">", 1.5), ("<=", 2)]) == ["r0"]
        for unorderable in (True, "2", [2], {"a": 1}):
            assert OrderedPath.build(rows, [2, unorderable]) is None

    def test_a_bound_that_is_not_a_number_scans(self):
        store = DocumentStore()
        store.insert("c", {"_id": "d0", "v": 1})
        for bound in (math.nan, "1", True, None):
            query = ("c", {"v": {"$gte": bound}})
            assert store.explain(query)["access_path"] == "collection_scan"

    def test_the_graph_label_list_is_derived_once_per_write(self):
        store = GraphStore()
        for index in (3, 1, 2):
            store.create_node("L", {}, node_id=f"n{index}")
        first = store._label_nodes("L")
        assert [node.id for node in first] == ["n1", "n2", "n3"]
        assert store._label_nodes("L") is first
        assert list(store.collection_keys("L")) == ["n1", "n2", "n3"]
        store.delete_node("n2")
        assert [node.id for node in store.match("L", limit=5)] == ["n1", "n3"]


class TestIndexOrder:
    def test_an_equality_index_returns_collection_order(self):
        """An index probe used to return its ``set`` order, which moved
        with the hash seed; it returns what the scan returns now."""
        store = DocumentStore()
        for index in range(8):
            store.insert("c", {"_id": f"x{index}", "g": 1})
        scanned = store.find("c", {"g": 1})
        store.create_index("c", "g")
        assert store.explain(("c", {"g": 1}))["access_path"] == "index_probe"
        assert store.find("c", {"g": 1}) == scanned
        assert [doc["_id"] for doc in scanned] == [f"x{i}" for i in range(8)]
        store.update_one("c", "x3", {"$set": {"g": 2}})
        store.update_one("c", "x3", {"$set": {"g": 1}})
        assert [doc["_id"] for doc in store.find("c", {"g": {"$in": [1]}})] == [
            f"x{i}" for i in range(8)
        ]


class TestARefusalDoesNotDependOnThePath:
    """The scan meets every row, so a WHERE that may raise on a row the
    path would skip keeps the scan."""

    def test_sql_that_may_raise_scans(self):
        store = RelationalStore()
        store.sql("CREATE TABLE t (id TEXT PRIMARY KEY, a INTEGER, s TEXT)")
        store.insert_row("t", {"id": "r0", "a": 0, "s": "ab"})
        for where in ("a < s AND a > 0", "a + s > 1 AND a > 0",
                      "ABS(s) > 1 AND a BETWEEN 1 AND 2"):
            sql = f"SELECT * FROM t WHERE {where}"
            assert store.explain(sql)["access_path"] == "full_scan"
            with pytest.raises(QueryError):
                store.sql(sql)
        safe = ("SELECT * FROM t WHERE a > 0 AND s LIKE 'a%' AND s >= 'a' "
                "AND NOT (s IN ('x', NULL) OR a IS NULL) AND a != s")
        assert store.explain(safe)["access_path"] == "index_range"
        assert store.sql(safe) == []

    def test_cypher_naming_another_variable_scans(self):
        store = GraphStore()
        store.create_node("L", {"v": 1}, node_id="n1")
        query = "MATCH (n:L) WHERE m.v = 1 AND n.v > 5 RETURN n"
        assert store.explain(query)["access_path"] == "label_index"
        with pytest.raises(QueryError):
            store.execute(query)
