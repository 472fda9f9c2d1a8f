"""Tests for GlobalKey, DataObject and AugmentedObject."""

import pytest

from repro.errors import InvalidGlobalKeyError
from repro.model.objects import AugmentedObject, DataObject, GlobalKey


class TestGlobalKey:
    def test_parse_three_parts(self):
        key = GlobalKey.parse("transactions.sales.s8")
        assert key.database == "transactions"
        assert key.collection == "sales"
        assert key.key == "s8"

    def test_parse_key_with_dots(self):
        """Local keys may contain dots (Redis-style keys)."""
        key = GlobalKey.parse("discount.drop.k1.cure.wish")
        assert key.database == "discount"
        assert key.collection == "drop"
        assert key.key == "k1.cure.wish"

    def test_str_round_trip(self):
        key = GlobalKey("db", "coll", "object:1")
        assert GlobalKey.parse(str(key)) == key

    def test_parse_too_few_parts(self):
        with pytest.raises(InvalidGlobalKeyError):
            GlobalKey.parse("db.only")

    def test_empty_database_rejected(self):
        with pytest.raises(InvalidGlobalKeyError):
            GlobalKey("", "c", "k")

    def test_empty_collection_rejected(self):
        with pytest.raises(InvalidGlobalKeyError):
            GlobalKey("d", "", "k")

    def test_empty_key_rejected(self):
        with pytest.raises(InvalidGlobalKeyError):
            GlobalKey("d", "c", "")

    def test_database_with_separator_rejected(self):
        with pytest.raises(InvalidGlobalKeyError):
            GlobalKey("d.b", "c", "k")

    def test_hashable_and_equal(self):
        a = GlobalKey("d", "c", "k")
        b = GlobalKey.parse("d.c.k")
        assert a == b
        assert len({a, b}) == 1


class TestDataObject:
    def test_equality_is_by_key(self):
        key = GlobalKey("d", "c", "k")
        assert DataObject(key, {"x": 1}) == DataObject(key, {"x": 2})

    def test_hash_is_by_key(self):
        key = GlobalKey("d", "c", "k")
        objects = {DataObject(key, 1), DataObject(key, 2)}
        assert len(objects) == 1

    def test_not_equal_to_other_types(self):
        assert DataObject(GlobalKey("d", "c", "k")) != "d.c.k"

    def test_with_probability_returns_copy(self):
        obj = DataObject(GlobalKey("d", "c", "k"), {"x": 1})
        weighted = obj.with_probability(0.5)
        assert weighted.probability == 0.5
        assert obj.probability == 1.0
        assert weighted.value == obj.value

    def test_with_the_probability_it_has_is_the_object_itself(self):
        """Objects are immutable: the cache's p = 1 normalisation and an
        identity-edge winner (p = 1) copy nothing."""
        obj = DataObject(GlobalKey("d", "c", "k"), {"x": 1})
        assert obj.with_probability(1.0) is obj
        weighted = obj.with_probability(0.5)
        assert weighted.with_probability(0.5) is weighted
        assert weighted.with_probability(1.0) is not weighted

    def test_fields_of_mapping_value(self):
        obj = DataObject(GlobalKey("d", "c", "k"), {"a": 1, "b": "two"})
        assert dict(obj.fields()) == {"a": 1, "b": "two"}

    def test_fields_of_scalar_value(self):
        obj = DataObject(GlobalKey("d", "c", "k"), "40%")
        assert dict(obj.fields()) == {"value": "40%"}


class TestAugmentedObject:
    def test_object_is_the_reweighted_view(self):
        key = GlobalKey("d", "c", "k")
        stored = DataObject(key, {"n": 1})
        entry = AugmentedObject(stored, probability=0.42)
        assert entry.probability == 0.42
        assert entry.object.probability == 0.42
        assert entry.object.value is stored.value
        assert entry.key == key

    def test_path_defaults_empty(self):
        entry = AugmentedObject(DataObject(GlobalKey("d", "c", "k")))
        assert entry.path == ()
        assert entry.source is None
