"""Tests for SELECT evaluation: predicates, joins, aggregates, ordering."""

import pytest

from repro.errors import QueryError
from repro.stores import RelationalStore
from repro.stores.relational.types import Column, ColumnType, TableSchema


@pytest.fixture
def store() -> RelationalStore:
    r = RelationalStore()
    r.database_name = "db"
    r.create_table(
        "items",
        TableSchema(
            columns=[
                Column("id", ColumnType.TEXT, nullable=False),
                Column("grp", ColumnType.TEXT),
                Column("val", ColumnType.INTEGER),
                Column("note", ColumnType.TEXT),
            ],
            primary_key="id",
        ),
    )
    data = [
        ("k1", "a", 10, "first one"),
        ("k2", "a", 20, None),
        ("k3", "b", 30, "third"),
        ("k4", "b", None, "no value"),
        ("k5", "c", 50, "Fifth_Item"),
    ]
    for id_, grp, val, note in data:
        r.insert_row("items", {"id": id_, "grp": grp, "val": val, "note": note})
    r.create_table(
        "groups",
        TableSchema(
            columns=[
                Column("g", ColumnType.TEXT, nullable=False),
                Column("label", ColumnType.TEXT),
            ],
            primary_key="g",
        ),
    )
    r.insert_row("groups", {"g": "a", "label": "alpha"})
    r.insert_row("groups", {"g": "b", "label": "beta"})
    return r


def ids(rows):
    return [row["id"] for row in rows]


class TestPredicates:
    def test_equality(self, store):
        assert ids(store.sql("SELECT id FROM items WHERE grp = 'a'")) == ["k1", "k2"]

    def test_comparison_skips_nulls(self, store):
        """SQL semantics: NULL comparisons are unknown, row filtered out."""
        assert ids(store.sql("SELECT id FROM items WHERE val > 15")) == [
            "k2", "k3", "k5",
        ]

    def test_is_null(self, store):
        assert ids(store.sql("SELECT id FROM items WHERE val IS NULL")) == ["k4"]

    def test_is_not_null(self, store):
        assert len(store.sql("SELECT id FROM items WHERE val IS NOT NULL")) == 4

    def test_like_case_insensitive(self, store):
        assert ids(store.sql("SELECT id FROM items WHERE note LIKE '%fifth%'")) == ["k5"]

    def test_like_underscore(self, store):
        assert ids(store.sql("SELECT id FROM items WHERE grp LIKE '_'")) == [
            "k1", "k2", "k3", "k4", "k5",
        ]

    def test_not_like(self, store):
        rows = store.sql("SELECT id FROM items WHERE note NOT LIKE '%one%'")
        # k2 has NULL note: excluded (unknown), k1 matches LIKE.
        assert ids(rows) == ["k3", "k4", "k5"]

    def test_in(self, store):
        assert ids(store.sql("SELECT id FROM items WHERE id IN ('k1', 'k5')")) == [
            "k1", "k5",
        ]

    def test_not_in(self, store):
        rows = store.sql("SELECT id FROM items WHERE grp NOT IN ('a', 'b')")
        assert ids(rows) == ["k5"]

    def test_between(self, store):
        assert ids(store.sql("SELECT id FROM items WHERE val BETWEEN 20 AND 30")) == [
            "k2", "k3",
        ]

    def test_not_between(self, store):
        assert ids(
            store.sql("SELECT id FROM items WHERE val NOT BETWEEN 20 AND 30")
        ) == ["k1", "k5"]

    def test_and_or_with_nulls(self, store):
        rows = store.sql(
            "SELECT id FROM items WHERE val > 100 OR grp = 'c'"
        )
        assert ids(rows) == ["k5"]

    def test_not(self, store):
        rows = store.sql("SELECT id FROM items WHERE NOT grp = 'a'")
        assert ids(rows) == ["k3", "k4", "k5"]

    def test_arithmetic_in_where(self, store):
        rows = store.sql("SELECT id FROM items WHERE val * 2 = 40")
        assert ids(rows) == ["k2"]

    def test_division_by_zero_is_null(self, store):
        rows = store.sql("SELECT id FROM items WHERE val / 0 > 1")
        assert rows == []


class TestProjection:
    def test_star(self, store):
        row = store.sql("SELECT * FROM items WHERE id = 'k1'")[0]
        assert set(row) == {"id", "grp", "val", "note"}

    def test_expression_with_alias(self, store):
        row = store.sql("SELECT val + 1 AS nxt FROM items WHERE id = 'k1'")[0]
        assert row == {"nxt": 11}

    def test_scalar_functions(self, store):
        row = store.sql(
            "SELECT UPPER(grp) AS u, LENGTH(note) AS l, ABS(0 - val) AS a, "
            "COALESCE(val, 0) AS c FROM items WHERE id = 'k1'"
        )[0]
        assert row == {"u": "A", "l": 9, "a": 10, "c": 10}

    def test_coalesce_null_fallback(self, store):
        row = store.sql("SELECT COALESCE(val, -1) AS c FROM items WHERE id = 'k4'")[0]
        assert row == {"c": -1}

    def test_round(self, store):
        row = store.sql("SELECT ROUND(2.567, 1) AS r FROM items WHERE id = 'k1'")[0]
        assert row == {"r": 2.6}

    def test_distinct(self, store):
        rows = store.sql("SELECT DISTINCT grp FROM items")
        assert sorted(r["grp"] for r in rows) == ["a", "b", "c"]
        # Only output columns can order a DISTINCT answer; the refusal
        # names DISTINCT, not an aggregate the query does not have.
        with pytest.raises(
            QueryError, match="select list of a DISTINCT query"
        ):
            store.sql("SELECT DISTINCT grp FROM items ORDER BY id DESC")


class TestAggregates:
    def test_count_star_and_column(self, store):
        row = store.sql("SELECT COUNT(*) AS n, COUNT(val) AS nv FROM items")[0]
        assert row == {"n": 5, "nv": 4}

    def test_sum_avg_min_max(self, store):
        row = store.sql(
            "SELECT SUM(val) AS s, AVG(val) AS a, MIN(val) AS lo, MAX(val) AS hi "
            "FROM items"
        )[0]
        assert row == {"s": 110, "a": 27.5, "lo": 10, "hi": 50}

    def test_group_by(self, store):
        rows = store.sql(
            "SELECT grp, COUNT(*) AS n FROM items GROUP BY grp ORDER BY grp"
        )
        assert rows == [
            {"grp": "a", "n": 2},
            {"grp": "b", "n": 2},
            {"grp": "c", "n": 1},
        ]

    def test_having(self, store):
        rows = store.sql(
            "SELECT grp, COUNT(*) AS n FROM items GROUP BY grp "
            "HAVING COUNT(*) > 1 ORDER BY grp"
        )
        assert [r["grp"] for r in rows] == ["a", "b"]

    def test_count_distinct(self, store):
        row = store.sql("SELECT COUNT(DISTINCT grp) AS g FROM items")[0]
        assert row == {"g": 3}

    def test_aggregate_over_empty_input(self, store):
        rows = store.sql("SELECT COUNT(*) AS n, SUM(val) AS s FROM items WHERE val > 999")
        assert rows == [{"n": 0, "s": None}]

    def test_aggregate_arithmetic(self, store):
        row = store.sql("SELECT MAX(val) - MIN(val) AS spread FROM items")[0]
        assert row == {"spread": 40}

    def test_aggregates_ignore_nulls(self, store):
        row = store.sql("SELECT AVG(val) AS a FROM items WHERE grp = 'b'")[0]
        assert row == {"a": 30}


class TestJoins:
    def test_inner_join(self, store):
        rows = store.sql(
            "SELECT i.id, g.label FROM items i JOIN groups g ON i.grp = g.g "
            "ORDER BY i.id"
        )
        assert len(rows) == 4  # k5's group 'c' has no label row
        assert rows[0] == {"id": "k1", "label": "alpha"}

    def test_left_join_fills_nulls(self, store):
        rows = store.sql(
            "SELECT i.id, g.label FROM items i LEFT JOIN groups g ON i.grp = g.g "
            "ORDER BY i.id"
        )
        assert len(rows) == 5
        assert rows[-1] == {"id": "k5", "label": None}

    def test_join_with_filter(self, store):
        rows = store.sql(
            "SELECT i.id FROM items i JOIN groups g ON i.grp = g.g "
            "WHERE g.label = 'beta'"
        )
        assert ids(rows) == ["k3", "k4"]

    def test_ambiguous_column_raises(self, store):
        store.create_table(
            "items2",
            TableSchema(
                columns=[Column("id", ColumnType.TEXT, nullable=False)],
                primary_key="id",
            ),
        )
        store.insert_row("items2", {"id": "k1"})
        with pytest.raises(QueryError):
            store.sql("SELECT id FROM items i JOIN items2 j ON i.id = j.id")


class TestOrderingAndLimits:
    def test_order_by_value_desc(self, store):
        rows = store.sql("SELECT id FROM items WHERE val IS NOT NULL ORDER BY val DESC")
        assert ids(rows) == ["k5", "k3", "k2", "k1"]

    def test_nulls_first_ascending(self, store):
        rows = store.sql("SELECT id FROM items ORDER BY val")
        assert ids(rows)[0] == "k4"

    def test_nulls_last_descending(self, store):
        rows = store.sql("SELECT id FROM items ORDER BY val DESC")
        assert ids(rows)[-1] == "k4"

    def test_order_by_expression_not_in_select(self, store):
        rows = store.sql("SELECT id FROM items ORDER BY grp DESC, id")
        assert ids(rows)[0] == "k5"

    def test_limit_offset(self, store):
        rows = store.sql("SELECT id FROM items ORDER BY id LIMIT 2 OFFSET 1")
        assert ids(rows) == ["k2", "k3"]

    def test_index_fast_path_matches_scan(self, store):
        """Same result with and without a secondary index."""
        unindexed = store.sql("SELECT id FROM items WHERE grp = 'b' ORDER BY id")
        store.table("items").create_index("grp")
        indexed = store.sql("SELECT id FROM items WHERE grp = 'b' ORDER BY id")
        assert unindexed == indexed

    def test_pk_in_lookup(self, store):
        rows = store.sql(
            "SELECT id FROM items WHERE id IN ('k5', 'k1') ORDER BY id"
        )
        assert ids(rows) == ["k1", "k5"]


# -- ISSUE 22: bad input is refused with QueryError, whatever the data -------


@pytest.fixture
def typed() -> RelationalStore:
    r = RelationalStore()
    r.sql("CREATE TABLE t (id TEXT PRIMARY KEY, n INTEGER, name TEXT)")
    r.sql("INSERT INTO t VALUES ('a', 1, 'x'), ('b', NULL, 'y')")
    return r


@pytest.fixture
def empty() -> RelationalStore:
    r = RelationalStore()
    r.sql("CREATE TABLE t (id TEXT PRIMARY KEY, n INTEGER, name TEXT)")
    r.sql("CREATE TABLE u (id TEXT PRIMARY KEY, k INTEGER)")
    return r


class TestBadInputIsRefused:
    """Each of these raised a raw ``TypeError`` at the parent (an HTTP
    500 and an ``http_internal_error`` event) while ``n < 'a'`` was a
    ``QueryError``: one translation now, in the compiler."""

    @pytest.mark.parametrize("sql, fragment", [
        ("SELECT * FROM t WHERE n BETWEEN 'a' AND 'z'", "type error in BETWEEN"),
        ("SELECT * FROM t WHERE n < 'a'", "type error in <"),
        ("SELECT * FROM t WHERE -name = 1", "type error in unary -"),
        ("SELECT ABS(name) FROM t", "type error in ABS"),
        ("SELECT ROUND(name) FROM t", "type error in ROUND"),
        ("SELECT ROUND(n, name) FROM t", "type error in ROUND"),
        ("SELECT SUM(name) FROM t", "type error in SUM"),
        ("UPDATE t SET n = n + name", "type error in +"),
        ("DELETE FROM t WHERE name > 1", "type error in >"),
    ])
    def test_type_errors_are_query_errors(self, typed, sql, fragment):
        with pytest.raises(QueryError, match=fragment):
            typed.sql(sql)

    def test_type_errors_stay_properties_of_the_data(self, typed, empty):
        """No row, no operand, no error: only names are checked early."""
        assert empty.sql("SELECT * FROM t WHERE n BETWEEN 'a' AND 'z'") == []
        assert typed.sql("SELECT * FROM t WHERE id = 'zz' AND n < 'a'") == []


class TestRefusalDoesNotDependOnTheData:
    """At the parent ``WHERE id = 'zz' AND nope = 1`` returned ``[]``
    (the short-circuit never reached ``nope``) and so did any unknown
    column over an empty table. Names are bound per execution, before
    the first row."""

    @pytest.mark.parametrize("sql, message", [
        ("SELECT * FROM t WHERE nope = 1", "unknown column 'nope'"),
        ("SELECT * FROM t WHERE id = 'zz' AND nope = 1", "unknown column 'nope'"),
        ("SELECT nope FROM t", "unknown column 'nope'"),
        ("SELECT id FROM t ORDER BY nope", "unknown column 'nope'"),
        ("SELECT id FROM t GROUP BY nope", "unknown column 'nope'"),
        ("SELECT COUNT(nope) FROM t", "unknown column 'nope'"),
        ("SELECT * FROM t x WHERE t.id = 'a'", "unknown table alias 't'"),
        ("SELECT * FROM t WHERE t.nope = 1", "unknown column t.nope"),
        ("SELECT id FROM t JOIN u ON t.id = u.id", "ambiguous column 'id' (in ['t', 'u'])"),
        ("SELECT t.id FROM t JOIN u ON t.id = u.nope", "unknown column u.nope"),
        ("SELECT t.id FROM t JOIN u ON t.id = u.id WHERE k = nope",
         "unknown column 'nope'"),
        ("UPDATE t SET n = nope + 1", "unknown column 'nope'"),
        ("UPDATE t SET n = 1 WHERE id = 'zz' AND nope = 1", "unknown column 'nope'"),
        ("DELETE FROM t WHERE nope = 1", "unknown column 'nope'"),
    ])
    def test_same_refusal_on_empty_and_populated_tables(
        self, typed, empty, sql, message
    ):
        typed.sql("CREATE TABLE u (id TEXT PRIMARY KEY, k INTEGER)")
        for store in (empty, typed):
            before = store.dump_state()
            with pytest.raises(QueryError) as err:
                store.sql(sql)
            assert str(err.value) == message
            assert store.dump_state() == before  # refused before any write

    def test_aggregate_misuse_is_refused_without_rows(self, empty):
        with pytest.raises(QueryError, match="outside aggregation context"):
            empty.sql("SELECT id FROM t WHERE COUNT(*) > 1")
        with pytest.raises(QueryError, match="select list of an aggregate"):
            empty.sql("SELECT n, COUNT(*) FROM t GROUP BY n ORDER BY name")

    def test_order_by_alias_is_not_a_column_reference(self, typed):
        rows = typed.sql("SELECT id, COALESCE(n, 0) + 1 AS nxt FROM t ORDER BY nxt")
        assert [row["nxt"] for row in rows] == [1, 2]
