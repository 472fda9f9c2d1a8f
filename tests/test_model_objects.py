"""Tests for GlobalKey, DataObject and AugmentedObject."""

import copy
import pickle
import sys
import threading

import pytest

from repro.core.augmentation import AugmentationConfig
from repro.core.system import Quepa
from repro.errors import InvalidGlobalKeyError
from repro.model import objects
from repro.model.objects import AugmentedObject, DataObject, GlobalKey
from repro.network import centralized_profile
from repro.workloads import PolystoreScale, build_polyphony

from tests.conftest import make_mini_aindex, make_mini_polystore


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

    def test_collection_with_separator_rejected(self):
        with pytest.raises(InvalidGlobalKeyError):
            GlobalKey("d", "c.x", "k")

    def test_parse_empty_parts_rejected(self):
        for text in ("", "..", "d..k", ".c.k", "d.c."):
            with pytest.raises(InvalidGlobalKeyError):
                GlobalKey.parse(text)


class TestKeyIsItsText:
    """A key is a ``str`` whose value is ``database.collection.key``:
    hashing, equality and ordering are the text's, in C."""

    KEY = GlobalKey("discount", "drop", "k1.cure:wish")

    def test_the_value_is_the_text(self):
        assert self.KEY == "discount.drop.k1.cure:wish"
        assert isinstance(self.KEY, str)
        assert hash(self.KEY) == hash("discount.drop.k1.cure:wish")
        assert hash(self.KEY) == hash(str(self.KEY))
        assert {self.KEY: 1}["discount.drop.k1.cure:wish"] == 1

    def test_str_is_the_plain_text(self):
        """``str(key)`` is the text as a plain ``str`` (a copy, made in
        C), so output built from it reads as before; hot paths compare
        and hash the key itself and call no ``str``."""
        text = str(self.KEY)
        assert type(text) is str and text == self.KEY
        assert repr(text) == "'discount.drop.k1.cure:wish'"
        assert type(f"{self.KEY}") is str

    def test_keys_sort_as_their_texts(self):
        keys = [GlobalKey("b", "c", "k"), GlobalKey("a", "c", "k2"),
                GlobalKey("a", "c", "k10")]
        assert sorted(keys) == sorted(keys, key=lambda key: f"{key}")
        assert sorted(keys)[0] == "a.c.k10"

    def test_repr_is_the_field_form(self):
        assert repr(self.KEY) == (
            "GlobalKey(database='discount', collection='drop', "
            "key='k1.cure:wish')"
        )

    @pytest.mark.parametrize(
        "clone",
        [
            lambda key: pickle.loads(pickle.dumps(key)),
            lambda key: pickle.loads(pickle.dumps(key, protocol=0)),
            copy.copy,
            copy.deepcopy,
        ],
        ids=["pickle", "pickle-0", "copy", "deepcopy"],
    )
    def test_round_trips(self, clone):
        cloned = clone(self.KEY)
        assert type(cloned) is GlobalKey
        assert cloned == self.KEY
        assert (cloned.database, cloned.collection, cloned.key) == (
            "discount", "drop", "k1.cure:wish"
        )
        assert repr(cloned) == repr(self.KEY)

    def test_fields_are_read_only(self):
        for name in ("database", "collection", "key"):
            with pytest.raises(AttributeError):
                setattr(self.KEY, name, "x")
            with pytest.raises(AttributeError):
                delattr(self.KEY, name)
        with pytest.raises(AttributeError):
            self.KEY.other = 1
        assert self.KEY.database == "discount"


def _live_keys(store) -> set:
    return {
        (collection, key)
        for collection, key, __ in store.records()
        if not collection.startswith("_")
    }


def _interned(store) -> set:
    return {
        (collection, local)
        for collection, keys in store._interned.items()
        for local in keys
    }


class TestInterning:
    """One key object per live object, owned by its store."""

    @pytest.mark.parametrize(
        "database, added",
        [
            ("transactions", {"id": "zz9", "name": "Zz"}),
            ("catalogue", {"_id": "zz9", "title": "Zz"}),
            ("discount", "5%"),
            ("similar", {"title": "Zz"}),
        ],
    )
    def test_the_table_holds_exactly_the_live_keys(self, database, added):
        polystore = make_mini_polystore()
        store = polystore.database(database)
        first = {obj.key: obj.key for obj in store.iter_objects()}
        assert _interned(store) == _live_keys(store)
        again = list(store.scan_objects(chunk_size=2))
        assert all(first[obj.key] is obj.key for obj in again)
        (collection, local), *__ = sorted(_live_keys(store))
        with store.lock:
            store.apply_change("delete", collection, local)
            store.apply_change("append", collection, "zz9", added)
        assert (collection, local) not in _interned(store)
        list(store.iter_objects())
        assert _interned(store) == _live_keys(store)
        assert (collection, "zz9") in _interned(store)
        for (collection, local) in _live_keys(store):
            key = store._interned[collection][local]
            assert key == f"{database}.{collection}.{local}"

    def test_a_repeated_query_returns_the_same_key_objects(self):
        polystore = make_mini_polystore()
        queries = {
            "transactions": "SELECT * FROM inventory",
            "catalogue": {"collection": "albums", "filter": {}},
            "discount": ("mget", ["k1:cure:wish", "k2:pixies:doolittle"]),
            "similar": "MATCH (n:Item) RETURN n",
        }
        for database, query in queries.items():
            store = polystore.database(database)
            first = [obj.key for obj in store.execute(query)]
            second = [obj.key for obj in store.execute(query)]
            assert first and first == second
            assert all(a is b for a, b in zip(first, second)), database

    def test_readers_racing_a_writer_share_one_key_per_object(self):
        """Eight readers run the native query under the store lock, as
        the search path does, while a writer deletes and re-inserts
        documents: every reader gets the same key object for an object
        no write touched, and the table ends holding the live keys."""
        store = make_mini_polystore().database("catalogue")
        query = {"collection": "albums", "filter": {}}
        seen: list[list] = []
        done = threading.Event()

        def read():
            keys = []
            for __ in range(200):
                with store.lock:
                    keys.extend(obj.key for obj in store.execute(query))
            seen.append(keys)

        def write():
            for step in range(200):
                with store.lock:
                    if step % 2:
                        store.apply_change("delete", "albums", "w1")
                    else:
                        store.apply_change(
                            "append", "albums", "w1", {"_id": "w1", "year": 1}
                        )
            done.set()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=read) for __ in range(8)]
            workers.append(threading.Thread(target=write))
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        assert done.is_set() and len(seen) == 8
        untouched = [key for keys in seen for key in keys if key.key != "w1"]
        assert len(untouched) == 8 * 200 * 2
        assert len({id(key) for key in untouched}) == 2
        with store.lock:
            store.execute(query)
        assert _interned(store) == {
            (collection, key) for collection, key in _live_keys(store)
            if collection == "albums"
        }

    def test_a_store_shares_no_table(self):
        one, other = make_mini_polystore(), make_mini_polystore()
        key = next(one.database("discount").iter_objects()).key
        same = next(other.database("discount").iter_objects()).key
        assert key == same and key is not same


def test_a_warm_search_enters_no_key_frame():
    """Hash, equality and ordering of keys run in C: a warm search that
    hits the cache for every planned fetch calls no Python function of
    this module (the dataclass key made two hash frames per hit and an
    ``__eq__`` frame per seed of the plan-cache key)."""
    bundle = build_polyphony(
        stores=4, scale=PolystoreScale(n_albums=300), seed=7
    )
    quepa = Quepa(
        bundle.polystore,
        bundle.aindex,
        config=AugmentationConfig("outer_batch", 64, 4, cache_size=200_000),
    )
    query = "SELECT * FROM inventory WHERE seq < 20"
    for __ in range(2):
        quepa.augmented_search("transactions", query, level=1)
    entered = []

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            if code.co_filename == objects.__file__ or code.co_name in (
                "__hash__", "__eq__", "__lt__", "__str__"
            ):
                entered.append(code.co_name)

    sys.setprofile(profile)
    try:
        warm = quepa.augmented_search("transactions", query, level=1)
    finally:
        sys.setprofile(None)
    assert warm.stats.cache_hits == warm.stats.planned_fetches > 100
    assert entered == []


def test_search_answers_are_keyed_by_interned_keys():
    """The seeds a store hands out are the keys the plan cache holds:
    a repeat of a query plans nothing and reuses the plan."""
    polystore = make_mini_polystore()
    quepa = Quepa(
        polystore,
        make_mini_aindex(),
        profile=centralized_profile(list(polystore)),
    )
    query = "SELECT * FROM inventory WHERE artist = 'Cure'"
    first = quepa.augmented_search("transactions", query, level=1)
    second = quepa.augmented_search("transactions", query, level=1)
    assert [o.key for o in first.originals] == [o.key for o in second.originals]
    assert all(
        a.key is b.key for a, b in zip(first.originals, second.originals)
    )
    assert quepa.augmentation.plan_cache_stats()["hits"] >= 1


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
