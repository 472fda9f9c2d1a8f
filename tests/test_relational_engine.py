"""Tests for the relational engine: tables, SQL execution, contract."""

import pytest

from repro.errors import (
    DuplicateKeyError,
    KeyNotFoundError,
    QueryError,
    SchemaError,
)
from repro.stores import RelationalStore
from repro.stores.relational.types import Column, ColumnType, TableSchema


def inventory_schema() -> TableSchema:
    return TableSchema(
        columns=[
            Column("id", ColumnType.TEXT, nullable=False),
            Column("artist", ColumnType.TEXT),
            Column("name", ColumnType.TEXT),
            Column("price", ColumnType.FLOAT),
            Column("stock", ColumnType.INTEGER),
        ],
        primary_key="id",
    )


@pytest.fixture
def store() -> RelationalStore:
    r = RelationalStore()
    r.database_name = "transactions"
    r.create_table("inventory", inventory_schema())
    rows = [
        ("a1", "Cure", "Wish", 14.9, 10),
        ("a2", "Cure", "Disintegration", 12.5, 3),
        ("a3", "Pixies", "Doolittle", 11.0, 0),
        ("a4", "Smiths", "The Queen Is Dead", None, 7),
    ]
    for id_, artist, name, price, stock in rows:
        r.insert_row(
            "inventory",
            {"id": id_, "artist": artist, "name": name, "price": price, "stock": stock},
        )
    return r


class TestSchema:
    def test_duplicate_column_rejected(self):
        with pytest.raises(SchemaError):
            TableSchema(
                columns=[Column("a", ColumnType.TEXT), Column("a", ColumnType.TEXT)],
                primary_key="a",
            )

    def test_pk_must_be_a_column(self):
        with pytest.raises(SchemaError):
            TableSchema(columns=[Column("a", ColumnType.TEXT)], primary_key="b")

    def test_type_validation(self):
        with pytest.raises(SchemaError):
            ColumnType.INTEGER.validate("not-an-int")
        with pytest.raises(SchemaError):
            ColumnType.INTEGER.validate(True)  # bools are not ints here
        assert ColumnType.FLOAT.validate(3) == 3.0
        assert ColumnType.TEXT.validate("x") == "x"
        assert ColumnType.BOOLEAN.validate(True) is True

    def test_not_null_enforced(self):
        column = Column("a", ColumnType.TEXT, nullable=False)
        with pytest.raises(SchemaError):
            column.validate(None)

    def test_unknown_column_in_row_rejected(self, store):
        with pytest.raises(SchemaError):
            store.insert_row("inventory", {"id": "x", "bogus": 1})

    def test_null_pk_rejected(self, store):
        with pytest.raises(SchemaError):
            store.table("inventory").insert({"id": None})


class TestTable:
    def test_insert_and_row(self, store):
        table = store.table("inventory")
        assert table.row("a1")["name"] == "Wish"
        assert len(table) == 4

    def test_duplicate_pk_rejected(self, store):
        with pytest.raises(DuplicateKeyError):
            store.insert_row("inventory", {"id": "a1"})

    def test_update(self, store):
        store.table("inventory").update("a3", {"stock": 99})
        assert store.table("inventory").row("a3")["stock"] == 99

    def test_update_pk_rejected(self, store):
        with pytest.raises(SchemaError):
            store.table("inventory").update("a3", {"id": "zz"})

    def test_delete(self, store):
        assert store.table("inventory").delete("a1") is True
        assert store.table("inventory").delete("a1") is False

    def test_row_missing_raises(self, store):
        with pytest.raises(KeyNotFoundError):
            store.table("inventory").row("zz")

    def test_secondary_index_lookup(self, store):
        table = store.table("inventory")
        table.create_index("artist")
        assert table.index_lookup("artist", "Cure") == ["a1", "a2"]
        assert table.index_lookup("artist", "Nobody") == []

    def test_pk_always_indexed(self, store):
        table = store.table("inventory")
        assert table.has_index("id")
        assert table.index_lookup("id", "a2") == ["a2"]

    def test_index_maintenance_on_update_delete(self, store):
        table = store.table("inventory")
        table.create_index("artist")
        table.update("a2", {"artist": "Pixies"})
        assert table.index_lookup("artist", "Pixies") == ["a2", "a3"]
        table.delete("a3")
        assert table.index_lookup("artist", "Pixies") == ["a2"]


class TestSqlDml:
    def test_insert_via_sql(self, store):
        store.sql("INSERT INTO inventory (id, artist, name) VALUES ('a9', 'X', 'Y')")
        assert store.table("inventory").row("a9")["artist"] == "X"

    def test_update_via_sql(self, store):
        store.sql("UPDATE inventory SET stock = stock + 1 WHERE artist = 'Cure'")
        assert store.table("inventory").row("a1")["stock"] == 11
        assert store.table("inventory").row("a2")["stock"] == 4

    def test_delete_via_sql(self, store):
        store.sql("DELETE FROM inventory WHERE stock = 0")
        assert len(store.table("inventory")) == 3

    def test_insert_arity_mismatch(self, store):
        with pytest.raises(QueryError):
            store.sql("INSERT INTO inventory (id, name) VALUES ('z')")


class TestWriteStats:
    """``StoreStats.writes`` counts every row write exactly once,
    whichever surface made it."""

    def test_direct_table_writes_are_counted(self, store):
        table = store.table("inventory")
        before = store.stats.writes
        assert before == 4  # the fixture's insert_row calls
        table.insert({"id": "a9"})
        table.update("a3", {"stock": 99})
        assert table.delete("a1") is True
        assert store.stats.writes == before + 3
        # A delete that finds nothing writes nothing.
        assert table.delete("a1") is False
        assert store.stats.writes == before + 3

    def test_sql_writes_count_once_per_row(self, store):
        before = store.stats.writes
        store.sql("INSERT INTO inventory (id) VALUES ('b1'), ('b2')")
        store.sql("UPDATE inventory SET stock = 1 WHERE artist = 'Cure'")
        store.sql("DELETE FROM inventory WHERE id = 'a3'")
        assert store.stats.writes == before + 2 + 2 + 1


class TestStoreContract:
    def test_execute_returns_objects_with_provenance(self, store):
        objects = store.execute("SELECT * FROM inventory WHERE artist = 'Cure'")
        assert {str(o.key) for o in objects} == {
            "transactions.inventory.a1",
            "transactions.inventory.a2",
        }

    def test_execute_projection_keeps_provenance(self, store):
        objects = store.execute("SELECT name FROM inventory WHERE id = 'a1'")
        assert objects[0].key.key == "a1"
        assert objects[0].value == {"name": "Wish"}

    def test_execute_aggregate_has_synthetic_keys(self, store):
        objects = store.execute("SELECT COUNT(*) FROM inventory")
        assert objects[0].key.collection == "_result"

    def test_execute_join_has_synthetic_keys(self, store):
        store.create_table(
            "tags",
            TableSchema(
                columns=[
                    Column("id", ColumnType.TEXT, nullable=False),
                    Column("item", ColumnType.TEXT),
                ],
                primary_key="id",
            ),
        )
        store.insert_row("tags", {"id": "t1", "item": "a1"})
        objects = store.execute(
            "SELECT * FROM inventory i JOIN tags t ON i.id = t.item"
        )
        assert objects[0].key.collection == "_result"

    def test_execute_requires_string(self, store):
        with pytest.raises(QueryError):
            store.execute({"not": "sql"})

    def test_get_value(self, store):
        assert store.get_value("inventory", "a3")["name"] == "Doolittle"

    def test_get_value_missing_table(self, store):
        with pytest.raises(KeyNotFoundError):
            store.get_value("nope", "a1")

    def test_multi_get_batches(self, store):
        from repro.model.objects import GlobalKey

        keys = [
            GlobalKey("transactions", "inventory", "a1"),
            GlobalKey("transactions", "inventory", "zz"),
            GlobalKey("transactions", "inventory", "a3"),
        ]
        objects = store.multi_get(keys)
        assert [o.key.key for o in objects] == ["a1", "a3"]
        assert store.stats.multi_gets == 1

    def test_collections(self, store):
        assert store.collections() == ["inventory"]

    def test_unknown_table_query(self, store):
        with pytest.raises(QueryError):
            store.sql("SELECT * FROM missing_table")
