"""Tests for Mongo-style filter evaluation and projection."""

import pytest

from repro.errors import QueryError
from repro.stores.document.query import matches_filter, project, resolve_path

DOC = {
    "_id": "d1",
    "title": "Wish",
    "year": 1992,
    "price": 14.9,
    "genres": ["rock", "goth"],
    "artist": {"name": "The Cure", "country": "UK"},
    "tracks": [
        {"no": 1, "name": "Open", "sec": 411},
        {"no": 2, "name": "High", "sec": 216},
    ],
}


class TestResolvePath:
    def test_top_level(self):
        assert resolve_path(DOC, "title") == ["Wish"]

    def test_nested(self):
        assert resolve_path(DOC, "artist.name") == ["The Cure"]

    def test_through_array_of_documents(self):
        assert resolve_path(DOC, "tracks.name") == ["Open", "High"]

    def test_array_index(self):
        assert resolve_path(DOC, "tracks.1.name") == ["High"]

    def test_missing(self):
        assert resolve_path(DOC, "nope.deep") == []


class TestComparisons:
    def test_literal_equality(self):
        assert matches_filter(DOC, {"title": "Wish"})
        assert not matches_filter(DOC, {"title": "wish"})

    def test_eq_operator(self):
        assert matches_filter(DOC, {"year": {"$eq": 1992}})

    def test_ne(self):
        assert matches_filter(DOC, {"year": {"$ne": 2000}})
        assert not matches_filter(DOC, {"year": {"$ne": 1992}})

    def test_gt_gte_lt_lte(self):
        assert matches_filter(DOC, {"year": {"$gt": 1991}})
        assert matches_filter(DOC, {"year": {"$gte": 1992}})
        assert matches_filter(DOC, {"year": {"$lt": 1993}})
        assert matches_filter(DOC, {"year": {"$lte": 1992}})
        assert not matches_filter(DOC, {"year": {"$gt": 1992}})

    def test_range_conjunction_in_one_operator_doc(self):
        assert matches_filter(DOC, {"year": {"$gte": 1990, "$lt": 1995}})
        assert not matches_filter(DOC, {"year": {"$gte": 1993, "$lt": 1995}})

    def test_incomparable_types_do_not_match(self):
        assert not matches_filter(DOC, {"title": {"$gt": 5}})

    def test_in_nin(self):
        assert matches_filter(DOC, {"year": {"$in": [1991, 1992]}})
        assert matches_filter(DOC, {"year": {"$nin": [1, 2]}})
        assert not matches_filter(DOC, {"year": {"$in": [1, 2]}})


class TestArrayAndElement:
    def test_array_member_literal_match(self):
        assert matches_filter(DOC, {"genres": "rock"})

    def test_array_whole_equality(self):
        assert matches_filter(DOC, {"genres": {"$eq": ["rock", "goth"]}})

    def test_all(self):
        assert matches_filter(DOC, {"genres": {"$all": ["rock", "goth"]}})
        assert not matches_filter(DOC, {"genres": {"$all": ["rock", "pop"]}})

    def test_size(self):
        assert matches_filter(DOC, {"genres": {"$size": 2}})
        assert not matches_filter(DOC, {"genres": {"$size": 3}})

    def test_elem_match(self):
        query = {"tracks": {"$elemMatch": {"no": 2, "sec": {"$lt": 300}}}}
        assert matches_filter(DOC, query)
        bad = {"tracks": {"$elemMatch": {"no": 1, "sec": {"$lt": 300}}}}
        assert not matches_filter(DOC, bad)

    def test_exists(self):
        assert matches_filter(DOC, {"price": {"$exists": True}})
        assert matches_filter(DOC, {"rating": {"$exists": False}})
        assert not matches_filter(DOC, {"rating": {"$exists": True}})

    def test_type(self):
        assert matches_filter(DOC, {"year": {"$type": "int"}})
        assert matches_filter(DOC, {"title": {"$type": "string"}})
        assert matches_filter(DOC, {"genres": {"$type": "array"}})
        assert not matches_filter(DOC, {"year": {"$type": "string"}})

    def test_regex(self):
        assert matches_filter(DOC, {"title": {"$regex": "^Wi"}})
        assert not matches_filter(DOC, {"title": {"$regex": "^wi"}})

    def test_not(self):
        assert matches_filter(DOC, {"year": {"$not": {"$gt": 2000}}})
        assert not matches_filter(DOC, {"year": {"$not": {"$gt": 1990}}})


class TestLogical:
    def test_and(self):
        assert matches_filter(
            DOC, {"$and": [{"title": "Wish"}, {"year": 1992}]}
        )
        assert not matches_filter(
            DOC, {"$and": [{"title": "Wish"}, {"year": 1}]}
        )

    def test_or(self):
        assert matches_filter(DOC, {"$or": [{"title": "No"}, {"year": 1992}]})
        assert not matches_filter(DOC, {"$or": [{"title": "No"}, {"year": 1}]})

    def test_nor(self):
        assert matches_filter(DOC, {"$nor": [{"title": "No"}, {"year": 1}]})

    def test_implicit_and_of_fields(self):
        assert matches_filter(DOC, {"title": "Wish", "year": 1992})

    def test_unknown_top_level_operator_raises(self):
        with pytest.raises(QueryError):
            matches_filter(DOC, {"$xor": []})

    def test_unknown_field_operator_raises(self):
        with pytest.raises(QueryError):
            matches_filter(DOC, {"year": {"$近": 3}})

    def test_empty_filter_matches_everything(self):
        assert matches_filter(DOC, {})


class TestProjection:
    def test_none_returns_copy(self):
        out = project(DOC, None)
        assert out == DOC
        assert out is not DOC

    def test_inclusion(self):
        assert project(DOC, {"title": 1}) == {"_id": "d1", "title": "Wish"}

    def test_inclusion_without_id(self):
        assert project(DOC, {"title": 1, "_id": 0}) == {"title": "Wish"}

    def test_exclusion(self):
        out = project(DOC, {"tracks": 0, "artist": 0})
        assert "tracks" not in out and "artist" not in out
        assert out["title"] == "Wish"

    def test_mixed_raises(self):
        with pytest.raises(QueryError):
            project(DOC, {"title": 1, "year": 0})

    def test_missing_included_field_omitted(self):
        assert project(DOC, {"nope": 1}) == {"_id": "d1"}


# -- ISSUE 22: the filter compiler ---------------------------------------------

ABSENT = {"_id": "1", "a": 1}


class TestMalformedFiltersAreRefused:
    """Operand shapes are checked when the filter compiles: at the
    parent ``$in: 5`` was a raw ``TypeError`` and a bad ``$regex`` a raw
    ``re.error`` (an HTTP 500 each)."""

    @pytest.mark.parametrize("query, fragment", [
        ({"a": {"$in": 5}}, r"\$in needs a list"),
        ({"a": {"$nin": "ab"}}, r"\$nin needs a list"),
        ({"a": {"$all": 1}}, r"\$all needs a list"),
        ({"a": {"$regex": "("}}, r"invalid \$regex"),
        ({"a": {"$regex": 5}}, r"invalid \$regex"),
        ({"a": {"$size": "x"}}, r"\$size needs an integer"),
        ({"a": {"$size": True}}, r"\$size needs an integer"),
        ({"a": {"$type": "nope"}}, r"unknown \$type name"),
        ({"a": {"$type": []}}, r"unknown \$type name"),
        ({"a": {"$elemMatch": 3}}, r"\$elemMatch needs a filter document"),
        ({"a": {"$not": {"$in": 5}}}, r"\$in needs a list"),
        ({"$and": 5}, r"\$and needs a list of filter documents"),
        ({"$or": [1]}, r"\$or needs a list of filter documents"),
        ({3: 1}, "filter keys are strings"),
    ])
    def test_refused_with_query_error(self, query, fragment):
        with pytest.raises(QueryError, match=fragment):
            matches_filter(ABSENT, query)


class TestRefusalDoesNotDependOnTheData:
    """``{"zz": {"$bogus": 1}}`` returned ``[]`` at the parent because
    no document had ``zz``; so did any bad filter on an empty
    collection."""

    @pytest.mark.parametrize("query", [
        {"a": {"$bogus": 1}},
        {"zz": {"$bogus": 1}},
        {"zz": {"$in": 5}},
        {"zz.deep": {"$regex": "("}},
        {"$or": [{"a": 1}, {"zz": {"$bogus": 1}}]},
        {"a": {"$elemMatch": {"zz": {"$bogus": 1}}}},
    ])
    def test_same_refusal_on_empty_and_populated_collections(self, query):
        from repro.stores import DocumentStore

        empty, populated = DocumentStore(), DocumentStore()
        empty.create_collection("c")
        populated.insert("c", ABSENT)
        for store in (empty, populated):
            with pytest.raises(QueryError):
                store.find("c", query)
            with pytest.raises(QueryError):
                store.execute({"collection": "c", "filter": query})


class TestNegationsMatchAnAbsentField:
    """MongoDB's rule: ``$ne`` / ``$nin`` / ``$not`` hold of a document
    that lacks the field. The parent quantified them with ``any`` over
    the (empty) list of values at the path and returned nothing."""

    @pytest.mark.parametrize("query", [
        {"zz": {"$ne": 1}},
        {"zz": {"$nin": [1]}},
        {"zz": {"$not": {"$eq": 1}}},
    ])
    def test_absent_field_matches(self, query):
        assert matches_filter(ABSENT, query)
        assert matches_filter(DOC, {f"artist.{k}": v for k, v in query.items()})

    def test_present_fields_are_judged_as_before(self):
        assert not matches_filter(ABSENT, {"a": {"$ne": 1}})
        assert not matches_filter(ABSENT, {"a": {"$nin": [1]}})
        assert not matches_filter(ABSENT, {"a": {"$not": {"$eq": 1}}})
        assert matches_filter(ABSENT, {"a": {"$ne": 2, "$nin": [3]}})

    def test_a_positive_operator_beside_a_negation_still_needs_a_value(self):
        assert not matches_filter(ABSENT, {"zz": {"$ne": 1, "$gt": 0}})
        assert not matches_filter(ABSENT, {"zz": {"$ne": 1, "$exists": True}})
        assert matches_filter(ABSENT, {"zz": {"$ne": 1, "$exists": False}})
