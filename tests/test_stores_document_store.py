"""Tests for the document store engine."""

import pytest

from repro.errors import DuplicateKeyError, KeyNotFoundError, QueryError
from repro.stores import DocumentStore


@pytest.fixture
def store() -> DocumentStore:
    doc = DocumentStore()
    doc.database_name = "catalogue"
    doc.insert("albums", {"_id": "d1", "title": "Wish", "artist": "Cure", "year": 1992})
    doc.insert("albums", {"_id": "d2", "title": "Pornography", "artist": "Cure", "year": 1982})
    doc.insert("albums", {"_id": "d3", "title": "Doolittle", "artist": "Pixies", "year": 1989})
    return doc


class TestWrites:
    def test_insert_assigns_id_when_missing(self, store):
        doc_id = store.insert("albums", {"title": "Untitled"})
        assert store.get_value("albums", doc_id)["title"] == "Untitled"

    def test_insert_duplicate_raises(self, store):
        with pytest.raises(DuplicateKeyError):
            store.insert("albums", {"_id": "d1"})

    def test_insert_many(self, store):
        ids = store.insert_many("albums", [{"x": 1}, {"x": 2}])
        assert len(ids) == 2

    def test_update_one(self, store):
        store.update_one("albums", "d1", {"year": 1993})
        assert store.get_value("albums", "d1")["year"] == 1993

    def test_update_missing_raises(self, store):
        with pytest.raises(KeyNotFoundError):
            store.update_one("albums", "zzz", {})

    def test_update_cannot_change_id(self, store):
        store.update_one("albums", "d1", {"_id": "hacked"})
        assert store.get_value("albums", "d1")["_id"] == "d1"

    def test_delete_one(self, store):
        assert store.delete_one("albums", "d1") is True
        assert store.delete_one("albums", "d1") is False

    def test_drop_collection(self, store):
        store.drop_collection("albums")
        assert "albums" not in store.collections()


class TestFind:
    def test_find_all(self, store):
        assert len(store.find("albums")) == 3

    def test_find_filter(self, store):
        out = store.find("albums", {"artist": "Cure"})
        assert {d["_id"] for d in out} == {"d1", "d2"}

    def test_find_projection(self, store):
        out = store.find("albums", {"_id": "d1"}, projection={"title": 1})
        assert out == [{"_id": "d1", "title": "Wish"}]

    def test_find_sort_ascending(self, store):
        out = store.find("albums", sort=[("year", 1)])
        assert [d["year"] for d in out] == [1982, 1989, 1992]

    def test_find_sort_descending(self, store):
        out = store.find("albums", sort=[("year", -1)])
        assert [d["year"] for d in out] == [1992, 1989, 1982]

    def test_find_compound_sort(self, store):
        out = store.find("albums", sort=[("artist", 1), ("year", -1)])
        assert [d["_id"] for d in out] == ["d1", "d2", "d3"]

    def test_find_sort_null_with_missing(self):
        """Null sorts with missing (Mongo's order), not as the text
        ``"None"``; numbers and booleans rank together, text after."""
        doc = DocumentStore()
        values = ["Z", None, "A", 1, "<missing>", "Nz", True, 0.5]
        for position, value in enumerate(values):
            fields = {} if value == "<missing>" else {"x": value}
            doc.insert("c", {"_id": f"d{position}", **fields})
        ascending = doc.find("c", sort=[("x", 1)])
        assert [d["_id"] for d in ascending] == [
            "d1", "d4", "d7", "d3", "d6", "d2", "d5", "d0"
        ]
        descending = doc.find("c", sort=[("x", -1)])
        assert [d["_id"] for d in descending] == [
            "d0", "d5", "d2", "d3", "d6", "d7", "d1", "d4"
        ]

    def test_find_skip_limit(self, store):
        out = store.find("albums", sort=[("year", 1)], skip=1, limit=1)
        assert [d["_id"] for d in out] == ["d3"]

    def test_find_one(self, store):
        assert store.find_one("albums", {"_id": "d3"})["title"] == "Doolittle"
        assert store.find_one("albums", {"_id": "zz"}) is None

    def test_count(self, store):
        assert store.count("albums") == 3
        assert store.count("albums", {"artist": "Cure"}) == 2

    def test_find_unknown_collection_raises(self, store):
        with pytest.raises(KeyNotFoundError):
            store.find("nope")

    def test_results_are_copies(self, store):
        store.find("albums", {"_id": "d1"})[0]["title"] = "mutated"
        assert store.get_value("albums", "d1")["title"] == "Wish"


class TestIndexes:
    def test_index_used_for_equality(self, store):
        store.create_index("albums", "artist")
        out = store.find("albums", {"artist": "Pixies"})
        assert [d["_id"] for d in out] == ["d3"]

    def test_index_used_for_in(self, store):
        store.create_index("albums", "artist")
        out = store.find("albums", {"artist": {"$in": ["Pixies", "Cure"]}})
        assert len(out) == 3

    def test_index_maintained_on_insert(self, store):
        store.create_index("albums", "artist")
        store.insert("albums", {"_id": "d4", "artist": "Pixies"})
        assert len(store.find("albums", {"artist": "Pixies"})) == 2

    def test_index_maintained_on_update(self, store):
        store.create_index("albums", "artist")
        store.update_one("albums", "d3", {"artist": "Cure"})
        assert len(store.find("albums", {"artist": "Cure"})) == 3
        assert store.find("albums", {"artist": "Pixies"}) == []

    def test_index_maintained_on_delete(self, store):
        store.create_index("albums", "artist")
        store.delete_one("albums", "d3")
        assert store.find("albums", {"artist": "Pixies"}) == []

    def test_index_combines_with_residual_filter(self, store):
        store.create_index("albums", "artist")
        out = store.find("albums", {"artist": "Cure", "year": {"$gt": 1990}})
        assert [d["_id"] for d in out] == ["d1"]


class TestStoreContract:
    def test_execute_tuple_form(self, store):
        objects = store.execute(("albums", {"artist": "Cure"}))
        assert {str(o.key) for o in objects} == {
            "catalogue.albums.d1", "catalogue.albums.d2",
        }

    def test_execute_dict_form_with_options(self, store):
        objects = store.execute(
            {
                "collection": "albums",
                "filter": {},
                "sort": [("year", 1)],
                "limit": 2,
            }
        )
        assert [o.key.key for o in objects] == ["d2", "d3"]

    def test_execute_bad_query_raises(self, store):
        with pytest.raises(QueryError):
            store.execute(["albums"])

    def test_collection_keys(self, store):
        assert sorted(store.collection_keys("albums")) == ["d1", "d2", "d3"]
