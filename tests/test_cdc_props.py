"""Differential suite: incremental CDC maintenance == batch rebuild.

The tentpole invariant of :mod:`repro.cdc`: after any interleaving of
store writes and hub pumps, the incrementally maintained A' index holds
exactly the p-relations a from-scratch batch
:class:`~repro.collector.Collector` run over the current polystore
would produce, and augmented searches answer identically at levels 0
and 1 — unsharded and over sharded *stores* (both placements).
Probabilities are compared rounded to 12 decimals: closure products are
order-independent modulo float association in the last ulp.
"""

from __future__ import annotations

import random

import pytest

from repro.cdc import ChangeHub, IncrementalCollector
from repro.collector import Collector, JaroWinklerComparator, PairwiseMatcher
from repro.collector.matching import AttributeRule
from repro.core import Quepa
from repro.core.aindex import AIndex
from repro.model import Polystore
from repro.sharding import shard_polystore
from repro.stores import (
    DocumentStore,
    GraphStore,
    KeyValueStore,
    RelationalStore,
)
from repro.stores.relational.types import Column, ColumnType, TableSchema

SEEDS = (7, 23, 91)

#: Multi-token titles sharing the "silver" token, so the blocker keeps
#: putting mutated objects into contested buckets (and the query below
#: always has results to augment).
TITLES = (
    "Silver Sessions",
    "Silver Harbors",
    "Silver Rivers Live",
    "Violet Dreams",
    "Endless Rivers",
    "Quiet Harbors",
    "Golden Sessions",
    "Midnight Harbors",
)

QUERIES = (
    ("transactions", "SELECT * FROM inventory WHERE name LIKE '%Silver%'"),
    ("catalogue", {"collection": "albums", "filter": {}}),
)


def make_matcher() -> PairwiseMatcher:
    return PairwiseMatcher(
        [AttributeRule("name", "title", JaroWinklerComparator())],
        identity_threshold=0.9,
        matching_threshold=0.6,
    )


def build_polystore() -> Polystore:
    polystore = Polystore()
    sales = RelationalStore()
    sales.create_table(
        "inventory",
        TableSchema(
            columns=[
                Column("id", ColumnType.TEXT, nullable=False),
                Column("name", ColumnType.TEXT),
            ],
            primary_key="id",
        ),
    )
    catalogue = DocumentStore()
    similar = GraphStore()
    discount = KeyValueStore(keyspace="drop")
    for index, title in enumerate(TITLES[:5]):
        sales.insert_row("inventory", {"id": f"a{index}", "name": title})
        catalogue.insert("albums", {"_id": f"d{index}", "title": title})
        similar.create_node("Item", {"title": title}, node_id=f"i{index}")
    discount.set("k0", TITLES[0])
    discount.set("k1", TITLES[3])
    polystore.attach("transactions", sales)
    polystore.attach("catalogue", catalogue)
    polystore.attach("similar", similar)
    polystore.attach("discount", discount)
    return polystore


class Driver:
    """Seeded random writes across all four engines."""

    def __init__(self, polystore: Polystore, rng: random.Random) -> None:
        self.polystore = polystore
        self.rng = rng
        self.next_id = 100
        self.rows = [f"a{i}" for i in range(5)]
        self.docs = [f"d{i}" for i in range(5)]
        self.nodes = [f"i{i}" for i in range(5)]
        self.kv_keys = ["k0", "k1"]

    def title(self) -> str:
        base = self.rng.choice(TITLES)
        if self.rng.random() < 0.4:
            base += f" {self.rng.choice(('Live', 'Remaster', 'Deluxe'))}"
        return base

    def step(self) -> None:
        op = self.rng.randrange(11)
        sales = self.polystore.database("transactions")
        catalogue = self.polystore.database("catalogue")
        similar = self.polystore.database("similar")
        discount = self.polystore.database("discount")
        fresh = self.next_id
        self.next_id += 1
        if op == 0:
            sales.table("inventory").insert(
                {"id": f"a{fresh}", "name": self.title()}
            )
            self.rows.append(f"a{fresh}")
        elif op == 1:
            catalogue.insert(
                "albums", {"_id": f"d{fresh}", "title": self.title()}
            )
            self.docs.append(f"d{fresh}")
        elif op == 2:
            similar.create_node(
                "Item", {"title": self.title()}, node_id=f"i{fresh}"
            )
            self.nodes.append(f"i{fresh}")
        elif op == 3:
            key = f"k{fresh}"
            discount.set(key, self.title())
            self.kv_keys.append(key)
        elif op == 4 and self.rows:
            sales.table("inventory").update(
                self.rng.choice(self.rows), {"name": self.title()}
            )
        elif op == 5 and self.docs:
            catalogue.update_one(
                "albums", self.rng.choice(self.docs),
                {"$set": {"title": self.title()}},
            )
        elif op == 6 and self.nodes:
            similar.update_node(
                self.rng.choice(self.nodes), {"title": self.title()}
            )
        elif op == 7 and len(self.rows) > 1:
            sales.table("inventory").delete(self.rows.pop())
        elif op == 8 and len(self.docs) > 1:
            catalogue.delete_one("albums", self.docs.pop())
        elif op == 9 and len(self.nodes) > 1:
            similar.delete_node(self.nodes.pop())
        elif op == 10 and len(self.kv_keys) > 1:
            discount.delete(self.kv_keys.pop())


def land(store, event, value, rng) -> bool:
    """Land one captured write on a sharded store; returns whether it
    went straight to a shard. Half the writes that stay where they are
    (the key's holder is the scheme's owner for the new value) go to
    that shard directly, under its lock; the rest — and every write
    that moves the object — go through the routed write."""
    holders = [
        number for number, shard in enumerate(store.shards)
        if event.key in set(shard.collection_keys(event.collection))
    ]
    owner = holders[0] if event.op == "delete" and holders else (
        store.scheme.shard_of_object(event.collection, event.key, value)
    )
    if holders in ([], [owner]) and rng.random() < 0.5:
        shard = store.shards[owner]
        with shard.lock:
            shard.apply_change(event.op, event.collection, event.key, value)
        return True
    store.apply_change(event.op, event.collection, event.key, value)
    return False


def index_signature(index) -> set[tuple[str, str, str, float]]:
    signature = set()
    for node in set(index.nodes()):
        for neighbor in index.neighbors(node):
            signature.add(
                (
                    str(node),
                    str(neighbor.key),
                    neighbor.type.value,
                    round(neighbor.probability, 12),
                )
            )
    return signature


def batch_signature(polystore: Polystore) -> set:
    index = AIndex()
    Collector(make_matcher()).collect(polystore, index)
    return index_signature(index)


def answer_signature(answer):
    return (
        sorted(str(obj.key) for obj in answer.originals),
        sorted(
            (str(obj.key), round(obj.probability, 12))
            for obj in answer.augmented
        ),
    )


def assert_same_answers(polystore: Polystore, live_index) -> None:
    """Searches through the live index == searches through a rebuild."""
    batch_index = AIndex()
    Collector(make_matcher()).collect(polystore, batch_index)
    live = Quepa(polystore, live_index)
    batch = Quepa(polystore, batch_index)
    for database, query in QUERIES:
        for level in (0, 1):
            got = live.augmented_search(database, query, level=level)
            want = batch.augmented_search(database, query, level=level)
            assert answer_signature(got) == answer_signature(want), (
                f"answers diverged on {database} level {level}"
            )


class TestBootstrap:
    def test_bootstrap_matches_batch(self):
        polystore = build_polystore()
        index = AIndex()
        hub = ChangeHub(polystore, index, IncrementalCollector(make_matcher()))
        report = hub.bootstrap()
        assert report.objects_scanned > 0
        assert index_signature(index) == batch_signature(polystore)


class TestIncrementalEqualsBatch:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_unsharded(self, seed):
        rng = random.Random(seed)
        polystore = build_polystore()
        index = AIndex()
        hub = ChangeHub(polystore, index, IncrementalCollector(make_matcher()))
        hub.bootstrap()
        driver = Driver(polystore, rng)
        for step in range(60):
            driver.step()
            if rng.random() < 0.3:
                hub.pump()
        hub.pump()
        assert index_signature(index) == batch_signature(polystore)
        assert_same_answers(polystore, index)

    @pytest.mark.parametrize("placement", ["hash", "range"])
    @pytest.mark.parametrize("seed", SEEDS)
    def test_sharded_stores(self, seed, placement):
        """The *stores* are sharded: writes land on shards — through the
        facade's routed ``apply_change`` or straight on the shard that
        holds the key — and the database's one feed, hung on every
        shard, captures them all."""
        rng = random.Random(seed)
        polystore = shard_polystore(build_polystore(), 3, placement)
        index = AIndex()
        hub = ChangeHub(polystore, index, IncrementalCollector(make_matcher()))
        hub.bootstrap()
        # The seeded native writes happen on an unsharded twin; what its
        # feeds capture is what gets landed on the shards.
        twin = build_polystore()
        twin_hub = ChangeHub(twin, AIndex(), IncrementalCollector(make_matcher()))
        twin_hub.attach()
        driver = Driver(twin, rng)
        landed = captured = direct = 0
        for step in range(60):
            driver.step()
            for database, feed in twin_hub.feeds.items():
                store = polystore.database(database)
                for event in feed.read_since():
                    feed.ack(event.seq)
                    value = event.value
                    if isinstance(value, dict) and "id" not in value:
                        # A token for range placement to move objects by
                        # (the relational schema has no column for one;
                        # the cuts, fitted to token-less stores, are 0).
                        value = {**value, "seq": rng.randrange(-15, 15)}
                    landed += 1
                    direct += land(store, event, value, rng)
            if rng.random() < 0.3:
                captured += hub.pump().events
        captured += hub.pump().events
        # Nothing is lost on the way (a document replace emits two).
        assert captured >= landed > 40 and hub.lag() == 0
        assert 0 < direct < landed
        for database in twin:
            assert set(
                obj.key for obj in polystore.database(database).scan_objects()
            ) == set(obj.key for obj in twin.database(database).scan_objects())
        assert index_signature(index) == batch_signature(polystore)
        assert_same_answers(polystore, index)

    def test_pump_cadence_is_irrelevant(self):
        """The same writes produce the same index whether pumped after
        every write, in coarse batches, or once at the end."""
        signatures = []
        for cadence in (1, 7, 10_000):
            rng = random.Random(5)
            polystore = build_polystore()
            index = AIndex()
            hub = ChangeHub(
                polystore, index, IncrementalCollector(make_matcher())
            )
            hub.bootstrap()
            driver = Driver(polystore, rng)
            for step in range(40):
                driver.step()
                if (step + 1) % cadence == 0:
                    hub.pump()
            hub.pump()
            signatures.append(index_signature(index))
        assert signatures[0] == signatures[1] == signatures[2]


def assert_filed_values_are_current(polystore: Polystore, maintainer) -> None:
    """Each filed key's values are the rule fields of a fresh store read,
    its signature their names, and only tracked keys have filed values."""
    filed = maintainer._filed
    assert filed.keys() <= maintainer._tokens.keys()
    for key, (signature, filed_obj) in filed.items():
        (obj,) = polystore.database(key.database).multi_get([key])
        fields = obj.value if isinstance(obj.value, dict) else {"value": obj.value}
        values = {
            name: value
            for name in ("name", "title")
            if (value := fields.get(name)) is not None
        }
        assert filed_obj.key == key and filed_obj.value == values
        assert signature == frozenset(values)


class TestFiledValues:
    @pytest.mark.parametrize("restored", [False, True], ids=["live", "restored"])
    @pytest.mark.parametrize("seed", SEEDS)
    def test_filed_values_follow_the_stores(self, seed, restored):
        """After every pump; a restored maintainer starts with none and
        files a key's values the first time it decides a pair of it."""
        rng = random.Random(seed)
        polystore = build_polystore()
        index = AIndex()
        hub = ChangeHub(polystore, index, IncrementalCollector(make_matcher()))
        hub.bootstrap()
        maintainer = hub.maintainer
        assert maintainer.state()["filed_values"] == len(maintainer._tokens)
        if restored:
            maintainer.load_state(maintainer.dump_state(), polystore)
            assert maintainer.state()["filed_values"] == 0
        driver = Driver(polystore, rng)
        for step in range(60):
            driver.step()
            if rng.random() < 0.3:
                hub.pump()
                assert_filed_values_are_current(polystore, maintainer)
        hub.pump()
        assert_filed_values_are_current(polystore, maintainer)
        assert index_signature(index) == batch_signature(polystore)


class TestMaterializedTier:
    def test_hit_after_promotion_and_invalidation_on_write(self):
        from repro.cdc import MaterializedAugmentations

        polystore = build_polystore()
        index = AIndex()
        tier = MaterializedAugmentations(hot_threshold=2)
        hub = ChangeHub(
            polystore, index, IncrementalCollector(make_matcher()),
            materialized=tier,
        )
        hub.bootstrap()
        quepa = Quepa(polystore, index)
        database, query = QUERIES[0]

        def compute():
            return quepa.augmented_search(database, query, level=1)

        # Two misses promote; the third request hits.
        for __ in range(2):
            assert tier.lookup(database, query, 1) is None
            tier.observe(database, query, 1, True, compute())
        hit = tier.lookup(database, query, 1)
        assert hit is not None
        assert hit.stats.materialized
        assert answer_signature(hit) == answer_signature(compute())

        # A write on a dependency database invalidates the entry.
        polystore.database("transactions").table("inventory").update(
            "a0", {"name": "Renamed Entirely"}
        )
        hub.pump()
        assert tier.lookup(database, query, 1) is None
        # Recomputed-and-reobserved answers reflect the new state.
        tier.observe(database, query, 1, True, compute())
        fresh = tier.lookup(database, query, 1)
        assert fresh is not None
        assert answer_signature(fresh) == answer_signature(compute())
