"""Tests for the validator: augmentability checks and rewrites."""

import pytest

from repro.core.validator import Validator
from repro.errors import NotAugmentableError
from repro.stores.relational.ast import expr_to_string, sql_to_string
from repro.stores.relational.parser import parse_sql

from tests.conftest import make_mini_polystore


@pytest.fixture
def validator() -> Validator:
    return Validator()


class TestRelational:
    def test_plain_select_star_passes(self, validator, mini_polystore):
        store = mini_polystore.database("transactions")
        result = validator.validate(store, "SELECT * FROM inventory")
        assert result.rewritten is False
        assert result.query == "SELECT * FROM inventory"

    def test_aggregate_rejected(self, validator, mini_polystore):
        store = mini_polystore.database("transactions")
        with pytest.raises(NotAugmentableError):
            validator.validate(store, "SELECT COUNT(*) FROM inventory")

    def test_group_by_rejected(self, validator, mini_polystore):
        store = mini_polystore.database("transactions")
        with pytest.raises(NotAugmentableError):
            validator.validate(
                store, "SELECT artist FROM inventory GROUP BY artist"
            )

    def test_distinct_rejected(self, validator, mini_polystore):
        store = mini_polystore.database("transactions")
        with pytest.raises(NotAugmentableError):
            validator.validate(store, "SELECT DISTINCT artist FROM inventory")

    def test_join_rejected(self, validator, mini_polystore):
        store = mini_polystore.database("transactions")
        with pytest.raises(NotAugmentableError):
            validator.validate(
                store,
                "SELECT * FROM inventory a JOIN inventory b ON a.id = b.id",
            )

    def test_insert_rejected(self, validator, mini_polystore):
        store = mini_polystore.database("transactions")
        with pytest.raises(NotAugmentableError):
            validator.validate(
                store, "INSERT INTO inventory (id) VALUES ('x')"
            )

    def test_broken_sql_rejected(self, validator, mini_polystore):
        store = mini_polystore.database("transactions")
        with pytest.raises(NotAugmentableError):
            validator.validate(store, "SELETC * FORM inventory")

    def test_non_string_rejected(self, validator, mini_polystore):
        store = mini_polystore.database("transactions")
        with pytest.raises(NotAugmentableError):
            validator.validate(store, {"collection": "inventory"})

    def test_missing_pk_injected(self, validator, mini_polystore):
        """The validator 'rewrites queries by adding all identifiers'."""
        store = mini_polystore.database("transactions")
        result = validator.validate(
            store, "SELECT name FROM inventory WHERE price > 10"
        )
        assert result.rewritten is True
        assert "id" in result.query
        # The rewritten query must still run and return the pk.
        rows = store.sql(result.query)
        assert all("id" in row for row in rows)

    def test_pk_already_selected_not_rewritten(self, validator, mini_polystore):
        store = mini_polystore.database("transactions")
        result = validator.validate(store, "SELECT id, name FROM inventory")
        assert result.rewritten is False

    def test_rewrite_preserves_semantics(self, validator, mini_polystore):
        store = mini_polystore.database("transactions")
        original = "SELECT name FROM inventory WHERE name LIKE '%wish%' ORDER BY name LIMIT 2"
        result = validator.validate(store, original)
        rewritten_rows = store.sql(result.query)
        original_rows = store.sql(original)
        assert [r["name"] for r in rewritten_rows] == [
            r["name"] for r in original_rows
        ]


REFUSED = [
    "SELECT COUNT(*) FROM inventory",
    "SELECT artist FROM inventory GROUP BY artist",
    "SELECT DISTINCT artist FROM inventory",
    "SELECT * FROM inventory a JOIN inventory b ON a.id = b.id",
    "INSERT INTO inventory (id) VALUES ('x')",
    "SELETC * FORM inventory",
    {"collection": "inventory"},
]
ACCEPTED = [
    "SELECT * FROM inventory",
    "SELECT id, name FROM inventory",
    "SELECT name FROM inventory WHERE price > 10",
    "SELECT name FROM inventory WHERE name LIKE '%wish%' ORDER BY name LIMIT 2",
]


class TestEveryKindOfRelationalStore:
    """Validation asks ``store.engine``, not the class: a sharded or a
    wrapped relational database refuses and rewrites exactly what the
    plain one does."""

    @pytest.fixture(params=["plain", "2-shard", "flaky"])
    def store(self, request, mini_polystore):
        from repro.sharding import HashScheme, partition_store
        from repro.testing import FlakyStore

        plain = mini_polystore.database("transactions")
        if request.param == "2-shard":
            return partition_store(plain, HashScheme(2))
        if request.param == "flaky":
            return FlakyStore(plain, fail_every=10**9)
        return plain

    @pytest.mark.parametrize("query", REFUSED, ids=str)
    def test_refusals(self, validator, store, query):
        with pytest.raises(NotAugmentableError):
            validator.validate(store, query)

    @pytest.mark.parametrize("query", ACCEPTED)
    def test_rewrites(self, validator, store, query):
        plain = validator.validate(
            make_mini_polystore().database("transactions"), query
        )
        result = validator.validate(store, query)
        assert (result.query, result.rewritten, result.notes) == (
            plain.query, plain.rewritten, plain.notes
        )
        # The (possibly rewritten) query runs and every row carries its
        # primary key, so every result is a stored object.
        objects = store.execute(result.query)
        assert objects
        assert all("id" in obj.value for obj in objects)
        assert all(obj.key.collection == "inventory" for obj in objects)

    def test_unknown_table_is_the_engines_error(self, validator, store):
        from repro.errors import QueryError

        with pytest.raises(QueryError):
            validator.validate(store, "SELECT name FROM nowhere")

    def test_sharded_execute_refuses_derived_rows(
        self, mini_polystore
    ):
        """The facade's own ``execute`` is not the validator: called
        directly on two shards it refuses what per-shard rows cannot
        answer; one shard is the engine itself."""
        from repro.errors import QueryError
        from repro.sharding import HashScheme, partition_store

        store = mini_polystore.database("transactions")
        for query in (
            "SELECT COUNT(*) AS n FROM inventory",
            "SELECT DISTINCT name FROM inventory",
            "SELECT a.id FROM inventory a JOIN inventory b ON a.id = b.id",
        ):
            with pytest.raises(QueryError):
                partition_store(store, HashScheme(2)).execute(query)
            one = partition_store(store, HashScheme(1)).execute(query)
            assert [obj.value for obj in one] == [
                obj.value for obj in store.execute(query)
            ]


class TestDocument:
    def test_plain_filter_passes(self, validator, mini_polystore):
        store = mini_polystore.database("catalogue")
        query = {"collection": "albums", "filter": {"year": 1992}}
        result = validator.validate(store, query)
        assert result.rewritten is False

    def test_projection_excluding_id_rewritten(self, validator, mini_polystore):
        store = mini_polystore.database("catalogue")
        query = {
            "collection": "albums",
            "filter": {},
            "projection": {"title": 1, "_id": 0},
        }
        result = validator.validate(store, query)
        assert result.rewritten is True
        assert result.query["projection"] == {"title": 1}

    def test_projection_only_excluding_id_dropped(self, validator, mini_polystore):
        store = mini_polystore.database("catalogue")
        query = {"collection": "albums", "filter": {}, "projection": {"_id": 0}}
        result = validator.validate(store, query)
        assert "projection" not in result.query


class TestGraphAndKv:
    def test_graph_query_passes_through(self, validator, mini_polystore):
        store = mini_polystore.database("similar")
        query = {"op": "match", "label": "Item"}
        assert validator.validate(store, query).query is query

    def test_kv_pattern_passes_through(self, validator, mini_polystore):
        store = mini_polystore.database("discount")
        assert validator.validate(store, "KEYS *").query == "KEYS *"


class TestSqlPrinting:
    @pytest.mark.parametrize(
        "sql",
        [
            "SELECT * FROM inventory",
            "SELECT name AS n, price FROM inventory WHERE price > 10",
            "SELECT * FROM t WHERE name LIKE '%x%' AND a IN (1, 2)",
            "SELECT * FROM t WHERE a BETWEEN 1 AND 2 OR b IS NOT NULL",
            "SELECT * FROM t WHERE NOT a = 1 ORDER BY b DESC LIMIT 3 OFFSET 1",
            "SELECT a FROM t WHERE c = 'it''s'",
            "SELECT UPPER(name) FROM t WHERE price * 2 >= 10",
        ],
    )
    def test_round_trip_is_stable(self, sql):
        """parse -> print -> parse -> print reaches a fixpoint."""
        printed = sql_to_string(parse_sql(sql))
        reprinted = sql_to_string(parse_sql(printed))
        assert printed == reprinted

    def test_literals(self):
        from repro.stores.relational.ast import Literal

        assert expr_to_string(Literal(None)) == "NULL"
        assert expr_to_string(Literal(True)) == "TRUE"
        assert expr_to_string(Literal("o'clock")) == "'o''clock'"
        assert expr_to_string(Literal(3)) == "3"
