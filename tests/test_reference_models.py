"""Differential testing: engines vs naive Python reference models.

Hypothesis generates random data and random queries; each engine's
answer is compared against a straightforward Python evaluation of the
same predicate. Any divergence is a real bug in the parser, the
evaluator, or an index fast path.
"""

from __future__ import annotations

import math
import operator

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.stores import GraphStore, RelationalStore
from repro.stores.relational.types import Column, ColumnType, TableSchema

# ---------------------------------------------------------------------------
# SQL WHERE evaluation vs Python
# ---------------------------------------------------------------------------

_ROWS = st.lists(
    st.tuples(
        st.integers(-20, 20),                      # val
        st.one_of(st.none(), st.integers(0, 9)),   # opt (nullable)
        st.sampled_from(["red", "green", "blue"]), # color
    ),
    min_size=0,
    max_size=25,
)


def build_table(rows) -> RelationalStore:
    store = RelationalStore()
    store.database_name = "db"
    store.create_table(
        "t",
        TableSchema(
            columns=[
                Column("id", ColumnType.TEXT, nullable=False),
                Column("val", ColumnType.INTEGER),
                Column("opt", ColumnType.INTEGER),
                Column("color", ColumnType.TEXT),
            ],
            primary_key="id",
        ),
    )
    for index, (val, opt, color) in enumerate(rows):
        store.insert_row(
            "t", {"id": f"r{index}", "val": val, "opt": opt, "color": color}
        )
    return store


# A comparison predicate and its Python reference, as paired factories.
_COMPARISONS = st.sampled_from([
    ("val > {k}", lambda row, k: row["val"] > k),
    ("val <= {k}", lambda row, k: row["val"] <= k),
    ("val = {k}", lambda row, k: row["val"] == k),
    ("val != {k}", lambda row, k: row["val"] != k),
    ("val BETWEEN {k} AND {k2}",
     lambda row, k, k2=None: k <= row["val"] <= (k2 if k2 is not None else k)),
    ("opt IS NULL", lambda row, k: row["opt"] is None),
    ("opt IS NOT NULL", lambda row, k: row["opt"] is not None),
    ("opt > {k}", lambda row, k: row["opt"] is not None and row["opt"] > k),
    ("color = 'red'", lambda row, k: row["color"] == "red"),
    ("color IN ('red', 'blue')",
     lambda row, k: row["color"] in ("red", "blue")),
    ("color LIKE 'g%'", lambda row, k: row["color"].startswith("g")),
    ("val + {k} > 0", lambda row, k: row["val"] + k > 0),
])


class TestSqlVersusReference:
    @given(_ROWS, _COMPARISONS, st.integers(-10, 10), st.integers(-10, 10),
           st.sampled_from(["AND", "OR"]), _COMPARISONS)
    @settings(max_examples=120, deadline=None)
    def test_where_matches_python(
        self, rows, first, k, k2, connector, second
    ):
        store = build_table(rows)
        low, high = sorted((k, k2))
        sql_one = first[0].format(k=low, k2=high)
        sql_two = second[0].format(k=low, k2=high)
        sql = f"SELECT id FROM t WHERE {sql_one} {connector} {sql_two}"
        got = {row["id"] for row in store.sql(sql)}

        def ref_one(row):
            return first[1](row, low, high) if "BETWEEN" in first[0] \
                else first[1](row, low)

        def ref_two(row):
            return second[1](row, low, high) if "BETWEEN" in second[0] \
                else second[1](row, low)

        expected = set()
        for index, (val, opt, color) in enumerate(rows):
            row = {"val": val, "opt": opt, "color": color}
            try:
                a = ref_one(row)
                b = ref_two(row)
            except TypeError:
                continue  # NULL in a comparison: SQL filters the row out
            keep = (a and b) if connector == "AND" else (a or b)
            if keep:
                expected.add(f"r{index}")
        assert got == expected

    @given(_ROWS)
    @settings(max_examples=60, deadline=None)
    def test_order_by_matches_sorted(self, rows):
        store = build_table(rows)
        got = [row["id"] for row in
               store.sql("SELECT id FROM t WHERE val IS NOT NULL "
                         "ORDER BY val, id")]
        expected = [
            f"r{i}" for i, __ in sorted(
                enumerate(rows), key=lambda pair: (pair[1][0], f"r{pair[0]}")
            )
        ]
        assert got == expected

    @given(_ROWS)
    @settings(max_examples=60, deadline=None)
    def test_aggregates_match_python(self, rows):
        store = build_table(rows)
        row = store.sql(
            "SELECT COUNT(*) AS n, COUNT(opt) AS no, SUM(val) AS s, "
            "MIN(val) AS lo, MAX(val) AS hi FROM t"
        )[0]
        values = [r[0] for r in rows]
        opts = [r[1] for r in rows if r[1] is not None]
        assert row["n"] == len(rows)
        assert row["no"] == len(opts)
        assert row["s"] == (sum(values) if values else None)
        assert row["lo"] == (min(values) if values else None)
        assert row["hi"] == (max(values) if values else None)

    @given(_ROWS, st.integers(0, 10), st.integers(0, 10))
    @settings(max_examples=60, deadline=None)
    def test_limit_offset_window(self, rows, limit, offset):
        store = build_table(rows)
        everything = [row["id"] for row in
                      store.sql("SELECT id FROM t ORDER BY id")]
        window = [row["id"] for row in store.sql(
            f"SELECT id FROM t ORDER BY id LIMIT {limit} OFFSET {offset}"
        )]
        assert window == everything[offset:offset + limit]

    @given(_ROWS, st.sampled_from(["val", "opt"]), st.integers(-25, 25),
           st.integers(-25, 25), st.sampled_from([">", ">="]),
           st.sampled_from(["<", "<="]))
    @settings(max_examples=80, deadline=None)
    def test_range_matches_python_in_scan_order(
        self, rows, column, low, high, lower, upper
    ):
        """A range read from the column's ordered path: the rows Python's
        own filter keeps, in insertion order, and no other row examined.
        A negative literal is an expression (``-3``), which scans."""
        store = build_table(rows)
        sql = (f"SELECT id FROM t WHERE {column} {lower} {low} "
               f"AND {high} {_FLIP[upper]} {column}")
        expected = [
            f"r{index}" for index, row in enumerate(rows)
            if (value := row[("val", "opt").index(column)]) is not None
            and _OPS[lower](value, low) and _OPS[upper](value, high)
        ]
        store.stats.reset()
        assert [row["id"] for row in store.sql(sql)] == expected
        assert store.explain(sql)["access_path"] == (
            "index_range" if max(low, high) >= 0 else "full_scan"
        )
        if min(low, high) >= 0:
            assert store.stats.rows_examined == len(expected)

    @given(_ROWS, st.sampled_from(["val", "color", "opt"]))
    @settings(max_examples=60, deadline=None)
    def test_index_fast_path_equals_full_scan(self, rows, column):
        """Point queries give identical answers with and without an
        index on the column."""
        store = build_table(rows)
        probe = {"val": 0, "color": "'red'", "opt": 3}[column]
        sql = f"SELECT id FROM t WHERE {column} = {probe} ORDER BY id"
        without_index = store.sql(sql)
        store.table("t").create_index(column)
        with_index = store.sql(sql)
        assert with_index == without_index


_FLIP = {"<": ">", "<=": ">="}
_OPS = {">": operator.gt, ">=": operator.ge, "<": operator.lt, "<=": operator.le}


# ---------------------------------------------------------------------------
# Cypher pattern matching vs brute force
# ---------------------------------------------------------------------------

_EDGE_LISTS = st.lists(
    st.tuples(st.integers(0, 6), st.integers(0, 6)),
    min_size=0,
    max_size=15,
)


def build_graph(edges) -> GraphStore:
    store = GraphStore()
    store.database_name = "g"
    for index in range(7):
        store.create_node(
            "N", {"rank": index, "parity": index % 2}, node_id=f"n{index}"
        )
    for start, end in edges:
        if start != end:
            store.create_edge(f"n{start}", "E", f"n{end}")
    return store


class TestCypherVersusBruteForce:
    @given(_EDGE_LISTS)
    @settings(max_examples=80, deadline=None)
    def test_one_hop_out_matches_adjacency(self, edges):
        store = build_graph(edges)
        rows = store.cypher(
            "MATCH (a:N)-[:E]->(b:N) RETURN a.rank AS x, b.rank AS y"
        )
        got = {(row["x"], row["y"]) for row in rows}
        expected = {(s, e) for s, e in edges if s != e}
        assert got == expected

    @given(_EDGE_LISTS)
    @settings(max_examples=80, deadline=None)
    def test_two_hop_matches_composition(self, edges):
        store = build_graph(edges)
        rows = store.cypher(
            "MATCH (a:N)-[:E]->(b:N)-[:E]->(c:N) "
            "RETURN a.rank AS x, b.rank AS y, c.rank AS z"
        )
        got = {(row["x"], row["y"], row["z"]) for row in rows}
        simple = {(s, e) for s, e in edges if s != e}
        expected = {
            (a, b, c)
            for a, b in simple
            for b2, c in simple
            if b == b2
        }
        assert got == expected

    @given(_EDGE_LISTS, st.integers(0, 7), st.integers(0, 7),
           st.sampled_from([0, 1]))
    @settings(max_examples=80, deadline=None)
    def test_single_node_range_matches_python(self, edges, low, high, parity):
        """``MATCH (a:N) WHERE a.rank >= x AND a.rank < y`` reads the
        (label, property) ordered path: Python's filter, in label order,
        examining only those nodes."""
        store = build_graph(edges)
        store.stats.reset()
        rows = store.cypher(
            f"MATCH (a:N) WHERE a.rank >= {low} AND a.rank < {high} "
            f"AND a.parity = {parity} RETURN a.rank AS x"
        )
        window = [rank for rank in range(7) if low <= rank < high]
        assert [row["x"] for row in rows] == [
            rank for rank in window if rank % 2 == parity
        ]
        assert store.stats.rows_examined == len(window)

    @given(_EDGE_LISTS, st.integers(0, 6))
    @settings(max_examples=80, deadline=None)
    def test_where_filter_matches_python(self, edges, threshold):
        store = build_graph(edges)
        rows = store.cypher(
            f"MATCH (a:N)-[:E]->(b:N) WHERE b.rank >= {threshold} "
            f"AND a.parity = 0 RETURN a.rank AS x, b.rank AS y"
        )
        got = {(row["x"], row["y"]) for row in rows}
        expected = {
            (s, e) for s, e in edges
            if s != e and e >= threshold and s % 2 == 0
        }
        assert got == expected
