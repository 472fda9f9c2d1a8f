"""Tests for the one LRU core, the object cache (Section IV-C) and the
tiers built on the core."""

import inspect
import random
import re
import threading
from collections import OrderedDict
from pathlib import Path

import pytest

import repro
from repro.cdc.materialize import MaterializedAugmentations
from repro.core.aindex import AIndex
from repro.core.augmentation import Augmentation
from repro.core.cache import BoundedLru, LruCache
from repro.core.search import AugmentedAnswer
from repro.model.objects import DataObject, GlobalKey
from repro.network import centralized_profile
from repro.network.executor import RealRuntime
from repro.serving import QuepaServer
from repro.sharding import shard_polystore
from repro.stores.querycache import QueryCache

from tests.conftest import make_mini_aindex, make_mini_polystore


def obj(name: str, value=None) -> DataObject:
    return DataObject(GlobalKey("db", "c", name), value)


class TestLru:
    def test_miss_then_hit(self):
        cache = LruCache(4)
        assert cache.get(obj("a").key) is None
        cache.put(obj("a", 1))
        assert cache.get(obj("a").key).value == 1
        assert cache.hits == 1
        assert cache.misses == 1

    def test_eviction_order_is_lru(self):
        cache = LruCache(2)
        cache.put(obj("a"))
        cache.put(obj("b"))
        cache.get(obj("a").key)  # refresh a
        cache.put(obj("c"))  # evicts b
        assert cache.get(obj("b").key) is None
        assert cache.get(obj("a").key) is not None
        assert cache.get(obj("c").key) is not None

    def test_put_refreshes_recency(self):
        cache = LruCache(2)
        cache.put(obj("a"))
        cache.put(obj("b"))
        cache.put(obj("a", "updated"))
        cache.put(obj("c"))  # evicts b, not a
        assert cache.get(obj("a").key).value == "updated"
        assert cache.get(obj("b").key) is None

    def test_capacity_zero_stores_nothing(self):
        cache = LruCache(0)
        cache.put(obj("a"))
        assert len(cache) == 0
        assert cache.get(obj("a").key) is None

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            LruCache(-1)

    def test_probability_normalized_on_put(self):
        """Cached objects carry p=1; each fetch re-weights per path."""
        cache = LruCache(4)
        cache.put(obj("a").with_probability(0.3))
        assert cache.get(obj("a").key).probability == 1.0

    def test_invalidate(self):
        cache = LruCache(4)
        cache.put(obj("a"))
        assert cache.invalidate(obj("a").key) is True
        assert cache.invalidate(obj("a").key) is False

    def test_resize_shrink_evicts_lru(self):
        cache = LruCache(4)
        for name in "abcd":
            cache.put(obj(name))
        cache.resize(2)
        assert len(cache) == 2
        assert cache.get(obj("d").key) is not None
        assert cache.get(obj("a").key) is None

    def test_resize_grow(self):
        cache = LruCache(1)
        cache.resize(3)
        for name in "xyz":
            cache.put(obj(name))
        assert len(cache) == 3

    def test_resize_negative_rejected(self):
        with pytest.raises(ValueError):
            LruCache(1).resize(-5)

    def test_clear_resets_stats(self):
        cache = LruCache(4)
        cache.put(obj("a"))
        cache.get(obj("a").key)
        cache.get(obj("b").key)
        cache.clear()
        assert len(cache) == 0
        assert cache.hits == 0 and cache.misses == 0

    def test_hit_rate(self):
        cache = LruCache(4)
        assert cache.hit_rate == 0.0
        cache.put(obj("a"))
        cache.get(obj("a").key)
        cache.get(obj("b").key)
        assert cache.hit_rate == 0.5

    def test_thread_safety_under_contention(self):
        cache = LruCache(64)
        errors = []

        def worker(start):
            try:
                for i in range(300):
                    cache.put(obj(f"k{start + i % 100}"))
                    cache.get(obj(f"k{i % 100}").key)
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(n,)) for n in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert len(cache) <= 64

    def test_put_races_concurrent_resize(self):
        """Regression: ``put`` read ``capacity`` outside the lock, so a
        concurrent ``resize(0)`` could let entries slip into a cache
        that should store nothing."""
        cache = LruCache(64)
        stop = threading.Event()
        errors = []

        def resizer():
            while not stop.is_set():
                cache.resize(0)
                cache.resize(64)

        def writer():
            try:
                for i in range(2000):
                    cache.put(obj(f"k{i % 50}"))
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        flipper = threading.Thread(target=resizer)
        workers = [threading.Thread(target=writer) for _ in range(4)]
        flipper.start()
        for thread in workers:
            thread.start()
        for thread in workers:
            thread.join()
        stop.set()
        flipper.join()
        assert not errors
        cache.resize(0)
        assert len(cache) == 0  # shrink-to-zero always empties it


# -- one contract for every tier ---------------------------------------------


class _Tier:
    """Adapter: ``insert(name)`` stores an entry, ``probe(name)`` looks
    one up and reports a hit; ``probes`` counts the lookups the tier's
    own counters should have seen (the compute-on-miss tiers count an
    insert as a missed lookup)."""

    capacity = 3
    probes = 0


class _BoundedLruTier(_Tier):
    def __init__(self):
        self.lru = BoundedLru(self.capacity)
        self.stats = self.lru.stats

    def insert(self, name):
        self.lru.put(name, name.upper())

    def probe(self, name):
        self.probes += 1
        return self.lru.get(name) == name.upper()


class _ObjectCacheTier(_Tier):
    def __init__(self):
        self.cache = LruCache(self.capacity)
        self.stats = self.cache.stats

    def insert(self, name):
        self.cache.put(obj(name, name.upper()))

    def probe(self, name):
        self.probes += 1
        return self.cache.get(obj(name).key) is not None


class _QueryCacheTier(_Tier):
    def __init__(self):
        self.cache = QueryCache("test_contract", self.capacity)
        self.stats = self.cache.stats

    def probe(self, name):
        self.probes += 1
        computed = []
        self.cache.get_or_compute(name, lambda: computed.append(name) or name)
        return not computed

    insert = probe


class _PlanCacheTier(_Tier):
    capacity = Augmentation.PLAN_CACHE_SIZE

    def __init__(self):
        self.planner = Augmentation(AIndex())
        self.stats = self.planner.plan_cache_stats
        self.plans = {}

    def probe(self, name):
        self.probes += 1
        plan = self.planner.plan([obj(name).key], level=0)
        hit = self.plans.get(name) is plan
        self.plans[name] = plan
        return hit

    insert = probe


class _MaterializedTier(_Tier):
    def __init__(self):
        self.tier = MaterializedAugmentations(self.capacity, hot_threshold=0)
        self.stats = self.tier.status

    def insert(self, name):
        self.tier.observe("db", name, 0, True, AugmentedAnswer())

    def probe(self, name):
        self.probes += 1
        return self.tier.lookup("db", name, 0) is not None


@pytest.fixture(
    params=[
        _BoundedLruTier,
        _ObjectCacheTier,
        _QueryCacheTier,
        _PlanCacheTier,
        _MaterializedTier,
    ],
    ids=["BoundedLru", "LruCache", "QueryCache", "plan_cache", "materialized"],
)
def tier(request):
    return request.param()


class TestTierContract:
    def test_lru_order_eviction_and_counters(self, tier):
        names = [f"k{i}" for i in range(tier.capacity + 1)]
        *resident, newcomer = names
        for name in resident:
            tier.insert(name)
        assert tier.stats()["size"] == tier.capacity
        assert tier.stats()["evictions"] == 0
        assert tier.probe(resident[0])  # refreshed: resident[1] is now LRU
        tier.insert(newcomer)
        stats = tier.stats()
        assert stats["size"] == tier.capacity
        assert stats["evictions"] == 1
        for name in [resident[0], *resident[2:], newcomer]:
            assert tier.probe(name), name
        assert not tier.probe(resident[1])  # the one eviction took the LRU

        stats = tier.stats()
        assert stats["hits"] + stats["misses"] == tier.probes
        assert stats["hits"] == tier.capacity + 1
        assert stats["hit_rate"] == stats["hits"] / tier.probes
        assert stats["capacity"] == tier.capacity
        assert {
            "capacity", "size", "hits", "misses", "evictions", "hit_rate",
        } <= set(stats)

    def test_tier_specific_keys_survive(self):
        assert QueryCache("test_keys").stats()["name"] == "test_keys"
        status = MaterializedAugmentations(hot_threshold=5).status()
        assert status["entries"] == status["size"] == 0
        assert status["invalidations"] == 0
        assert status["hot_threshold"] == 5


class TestBoundedLru:
    def test_peek_is_invisible(self):
        lru = BoundedLru(2)
        lru.put("a", 1)
        lru.put("b", 2)
        assert lru.peek("a") == 1 and lru.peek("zzz") is None
        assert lru.put("c", 3) == [("a", 1)]  # peek did not refresh "a"
        stats = lru.stats()
        assert stats["hits"] == stats["misses"] == 0

    def test_put_many_and_resize_report_evictions_lru_first(self):
        lru = BoundedLru(2)
        assert lru.put_many([("a", 1), ("b", 2), ("c", 3), ("d", 4)]) == [
            ("a", 1), ("b", 2),
        ]
        assert lru.items() == [("c", 3), ("d", 4)]
        assert lru.resize(1) == [("c", 3)]
        assert lru.pop("d") == 4 and lru.pop("d") is None
        assert lru.stats()["evictions"] == 3

    @pytest.mark.parametrize("capacity", (1, 3, 8, 20))
    def test_put_many_of_absent_keys_is_the_loop_of_put(self, capacity):
        """What ``_fetch_group`` relies on: every key of a flush missed
        the cache, so a batch inserts absent keys — the loop evicts one
        LRU entry per insert once full, the batch inserts all and then
        evicts as many from the same end, and what is left is the last
        ``capacity`` of (old entries, batch) either way. Also when the
        batch is larger than the cache and evicts its own head."""
        batch = [obj(f"n{i}") for i in range(12)]
        bulk, loop = LruCache(capacity), LruCache(capacity)
        for cache in (bulk, loop):
            cache.put_many([obj("old1"), obj("old2"), obj("old3")])
        bulk.put_many(batch)
        for entry in batch:
            loop.put(entry)
        assert bulk.items() == loop.items()
        assert bulk.stats() == loop.stats()
        assert bulk.items()[-1][1] is batch[-1]  # p = 1 already: no copy

    @pytest.mark.parametrize("seed", range(6))
    def test_object_cache_evicts_as_the_reference(self, seed):
        """``LruCache.put`` / ``put_many`` evict without building the
        evicted list nobody reads: under a seeded sequence of puts,
        probes and resizes, the eviction counter, the recency order and
        the contents are the reference's (an ``OrderedDict`` that pops
        its oldest entry while over capacity, as the LRU always did)."""
        rng = random.Random(seed)
        names = [f"k{i}" for i in range(24)]
        cache = LruCache(rng.randint(0, 8))
        entries: OrderedDict = OrderedDict()
        capacity, evictions = cache.capacity, 0

        def insert(objects):
            nonlocal evictions
            if capacity == 0:
                return
            for item in objects:
                entries[item.key] = item
                entries.move_to_end(item.key)
            while len(entries) > capacity:
                entries.popitem(last=False)
                evictions += 1

        for step in range(400):
            action = rng.random()
            if action < 0.35:
                item = obj(rng.choice(names), step)
                cache.put(item)
                insert([item])
            elif action < 0.55:
                batch = [obj(rng.choice(names), step) for __ in range(5)]
                cache.put_many(batch)
                insert(batch)
            elif action < 0.95:
                key = obj(rng.choice(names)).key
                found = cache.get(key)
                assert found is entries.get(key)
                if found is not None:
                    entries.move_to_end(key)
            else:
                capacity = rng.randint(0, 8)
                evicted = cache.resize(capacity)
                expected = []
                while len(entries) > capacity:
                    expected.append(entries.popitem(last=False))
                evictions += len(expected)
                assert evicted == expected
            assert cache.items() == list(entries.items())
            assert cache.evictions == evictions

    def test_get_many_counts_distinct_keys(self):
        """The run contract (the name predates it): one value and one
        counted probe per key *as listed*, repeats included, each
        exactly a ``get``; ``start`` / ``ends_run`` bound the run."""
        lru = BoundedLru(4)
        lru.put_many([("a", 1), ("b", 2)])
        assert lru.get_many(["b", "x", "b", "a"]) == ([2, None, 2, 1], 1)
        assert (lru.hits, lru.misses) == (3, 1)
        assert [key for key, __ in lru.items()] == ["b", "a"]
        # Ends on the miss at "y": "b" is never probed, "a" was.
        keys = ["b", "x", "a", "y", "b"]
        assert lru.get_many(
            keys, start=1, ends_run=lambda index: keys[index] == "y"
        ) == ([None, 1, None], 2)
        assert (lru.hits, lru.misses) == (4, 3)
        assert [key for key, __ in lru.items()] == ["b", "a"]
        assert lru.get_many(keys, start=5) == ([], 0)

    def test_plan_cache_misses_on_a_new_snapshot(self):
        index = make_mini_aindex()
        planner = Augmentation(index)
        seeds = [GlobalKey.parse("catalogue.albums.d1")]
        first = planner.plan(seeds, level=0)
        assert planner.plan(seeds, level=0) is first
        index.remove_object(GlobalKey.parse("similar.Item.i2"))
        assert planner.plan(seeds, level=0) is not first
        stats = planner.plan_cache_stats()
        assert (stats["hits"], stats["misses"]) == (1, 2)


class TestOneImplementation:
    """Structural guard: the LRU algorithm exists once, so a second
    copy cannot quietly grow back in a tier."""

    def test_lru_primitives_appear_only_in_core_cache(self):
        root = Path(repro.__file__).parent
        offenders = [
            str(path.relative_to(root))
            for path in sorted(root.rglob("*.py"))
            if re.search(r"move_to_end|popitem", path.read_text())
        ]
        assert offenders == ["core/cache.py"]

    def test_object_cache_has_no_striping_knob(self):
        assert list(inspect.signature(LruCache).parameters) == ["capacity"]
        assert not hasattr(LruCache(4), "shard_count")
        assert "shards" not in LruCache(4).stats()


# -- the object cache hears about writes -------------------------------------


ALBUM = GlobalKey.parse("catalogue.albums.d1")
SEED_QUERY = "SELECT * FROM inventory WHERE id = 'a32'"


def _plain():
    polystore = make_mini_polystore()
    quepa = repro.Quepa(polystore, make_mini_aindex())
    search = lambda: quepa.augmented_search("transactions", SEED_QUERY)  # noqa: E731
    return search, polystore.database("catalogue")


def _sharded():
    polystore = shard_polystore(make_mini_polystore(), shards=2)
    quepa = repro.Quepa(polystore, make_mini_aindex())
    search = lambda: quepa.augmented_search("transactions", SEED_QUERY)  # noqa: E731
    catalogue = polystore.database("catalogue")
    # Writes go to the partition that owns the key.
    return search, catalogue.shards[catalogue.scheme.shard_of_key("d1")]


def _served():
    polystore = make_mini_polystore()
    profile = centralized_profile(list(polystore))
    quepa = repro.Quepa(
        polystore, make_mini_aindex(), profile=profile,
        runtime=RealRuntime(profile),
    )

    def search():
        with QuepaServer(quepa) as server:
            return server.search("s1", "transactions", SEED_QUERY)

    return search, polystore.database("catalogue")


@pytest.mark.parametrize(
    "build", [_plain, _sharded, _served], ids=["plain", "sharded", "served"]
)
class TestWritesReachTheObjectCache:
    """Regression: ``LruCache.invalidate`` had no caller, so an object
    fetched once kept its first payload however often its store was
    written."""

    def _album(self, answer):
        found = [a.object for a in answer.augmented if a.object.key == ALBUM]
        return found[0] if found else None

    def test_update_is_visible_to_the_next_search(self, build):
        search, catalogue = build()
        assert self._album(search()).value["year"] == 1992
        with catalogue.lock:
            catalogue.update_one("albums", "d1", {"year": 1066})
        answer = search()
        assert self._album(answer).value["year"] == 1066
        assert answer.stats.cache_hits  # refreshed in place, not dropped

    def test_delete_is_visible_to_the_next_search(self, build):
        search, catalogue = build()
        assert self._album(search()) is not None
        with catalogue.lock:
            catalogue.delete_one("albums", "d1")
        assert self._album(search()) is None


def test_write_to_an_uncached_key_caches_nothing():
    polystore = make_mini_polystore()
    quepa = repro.Quepa(polystore, make_mini_aindex())
    catalogue = polystore.database("catalogue")
    reads = (catalogue.stats.gets, catalogue.stats.multi_gets)
    catalogue.update_one("albums", "d1", {"year": 1066})
    assert len(quepa.cache) == 0
    assert (catalogue.stats.gets, catalogue.stats.multi_gets) == reads
