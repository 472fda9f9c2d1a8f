"""Chaos suite for the CDC boundary: drop, duplicate, reorder batches.

The delivery seam of :class:`~repro.cdc.hub.ChangeHub` models a
misbehaving transport between the store feeds and the maintainer.
Under any seeded fault schedule the system must stay *stale, never
wrong*: a dropped batch is simply not acked (bounded lag, redelivered
until applied), duplicated and reordered batches are harmless because
the maintainer recomputes from current store state, and once delivery
heals the index converges to the batch-rebuild truth. The same holds
for a store that fails a read in the middle of ``apply``: the batch
raises, stays unacked, and must leave the maintainer as it found it.
"""

from __future__ import annotations

import random

import pytest

from repro.cdc import ChangeHub, IncrementalCollector, MaterializedAugmentations
from repro.collector import Collector, JaroWinklerComparator, PairwiseMatcher
from repro.collector.collector import CollectorSettings
from repro.collector.matching import AttributeRule
from repro.core.aindex import AIndex
from repro.errors import StoreUnavailableError
from repro.model import Polystore
from repro.stores import DocumentStore
from repro.testing import FlakyStore

from tests.test_cdc_props import (
    Driver,
    batch_signature,
    build_polystore,
    index_signature,
    make_matcher,
)

pytestmark = pytest.mark.chaos

SEEDS = (3, 17, 41)


class FaultyDelivery:
    """Seeded transport faults: drop / duplicate / reorder batches."""

    def __init__(
        self,
        seed: int,
        drop_rate: float = 0.0,
        duplicate_rate: float = 0.0,
        reorder_rate: float = 0.0,
    ) -> None:
        self.rng = random.Random(seed)
        self.drop_rate = drop_rate
        self.duplicate_rate = duplicate_rate
        self.reorder_rate = reorder_rate
        self.dropped = 0
        self.duplicated = 0
        self.reordered = 0
        self.healthy = False

    def __call__(self, database, events):
        if self.healthy:
            return events
        roll = self.rng.random()
        if roll < self.drop_rate:
            self.dropped += 1
            return None
        roll -= self.drop_rate
        if roll < self.duplicate_rate:
            self.duplicated += 1
            return list(events) + list(events)
        roll -= self.duplicate_rate
        if roll < self.reorder_rate:
            self.reordered += 1
            shuffled = list(events)
            self.rng.shuffle(shuffled)
            return shuffled
        return events


def run_chaotic(seed, **fault_rates):
    polystore = build_polystore()
    index = AIndex()
    delivery = FaultyDelivery(seed, **fault_rates)
    hub = ChangeHub(
        polystore, index, IncrementalCollector(make_matcher()),
        delivery=delivery,
    )
    hub.bootstrap()
    driver = Driver(polystore, random.Random(seed))
    for step in range(50):
        driver.step()
        if (step + 1) % 4 == 0:
            hub.pump()
    hub.pump()  # tail events (may itself be dropped — that's the point)
    return polystore, index, hub, delivery


class TestDroppedBatches:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_drops_bound_staleness_never_corrupt(self, seed):
        polystore, index, hub, delivery = run_chaotic(seed, drop_rate=0.5)
        assert delivery.dropped > 0
        # Staleness is bounded by the unacked lag the hub reports: the
        # events exist on the feeds, nothing was lost.
        assert hub.lag() == sum(f.pending() for f in hub.feeds.values())
        # Never wrong: replaying the *pending* events through a healed
        # pipe lands exactly on the batch rebuild.
        delivery.healthy = True
        while hub.pump().batches:
            pass
        assert hub.lag() == 0
        assert index_signature(index) == batch_signature(polystore)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_redelivery_retries_same_events(self, seed):
        """A dropped batch is redelivered verbatim on the next pump —
        ack-based feeds never skip past unapplied events."""
        polystore = build_polystore()
        index = AIndex()
        dropped_batches = []

        def drop_once(database, events):
            if not dropped_batches:
                dropped_batches.append([e.seq for e in events])
                return None
            return events

        hub = ChangeHub(
            polystore, index, IncrementalCollector(make_matcher()),
            delivery=drop_once,
        )
        hub.bootstrap()
        polystore.database("catalogue").insert(
            "albums", {"_id": "dx", "title": "Silver Sessions"}
        )
        first = hub.pump()
        assert first.dropped_batches == 1
        assert hub.lag() == 1
        second = hub.pump()
        assert second.batches == 1
        assert hub.lag() == 0
        assert index_signature(index) == batch_signature(polystore)


class TestDuplicatedAndReordered:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_duplicates_are_harmless(self, seed):
        polystore, index, __, delivery = run_chaotic(
            seed, duplicate_rate=0.6
        )
        assert delivery.duplicated > 0
        assert index_signature(index) == batch_signature(polystore)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_reordering_is_harmless(self, seed):
        polystore, index, __, delivery = run_chaotic(seed, reorder_rate=0.6)
        assert delivery.reordered > 0
        assert index_signature(index) == batch_signature(polystore)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_combined_faults_converge(self, seed):
        polystore, index, hub, delivery = run_chaotic(
            seed, drop_rate=0.25, duplicate_rate=0.25, reorder_rate=0.25
        )
        delivery.healthy = True
        while hub.pump().batches:
            pass
        assert index_signature(index) == batch_signature(polystore)


class TestMaterializedUnderFaults:
    def test_stale_answers_never_wrong(self):
        """With delivery down, a materialized answer may be stale — it
        reflects the last *applied* batch — but it is exactly the
        answer the pre-fault state produces, never a half-applied one,
        and invalidation fires as soon as the batch lands."""
        from repro.core import Quepa

        polystore = build_polystore()
        index = AIndex()
        tier = MaterializedAugmentations(hot_threshold=1)
        delivery = FaultyDelivery(0, drop_rate=1.0)
        hub = ChangeHub(
            polystore, index, IncrementalCollector(make_matcher()),
            materialized=tier, delivery=delivery,
        )
        hub.bootstrap()
        quepa = Quepa(polystore, index)
        database, query = (
            "transactions",
            "SELECT * FROM inventory WHERE name LIKE '%Silver%'",
        )
        baseline = quepa.augmented_search(database, query, level=1)
        tier.lookup(database, query, 1)  # miss -> hot after 1
        tier.observe(database, query, 1, True, baseline)

        # A write the hub cannot apply: the cached answer stays, stale
        # but equal to the last applied state.
        polystore.database("transactions").table("inventory").update(
            "a0", {"name": "Silver Sessions Anniversary"}
        )
        hub.pump()
        stale = tier.lookup(database, query, 1)
        assert stale is not None
        assert [str(o.key) for o in stale.originals] == [
            str(o.key) for o in baseline.originals
        ]
        assert hub.lag() > 0  # the staleness is visible, not silent

        # Delivery heals: the batch applies and the entry is gone.
        delivery.healthy = True
        report = hub.pump()
        assert report.invalidated >= 1
        assert tier.lookup(database, query, 1) is None
        assert index_signature(index) == batch_signature(polystore)


def batch_edges(polystore, matcher, settings) -> set:
    index = AIndex()
    Collector(matcher, settings=settings).collect(polystore, index)
    return index_signature(index)


def filed_values(maintainer) -> dict:
    """key -> (signature, values): the filed objects compare by key only."""
    return {
        key: (signature, obj.value)
        for key, (signature, obj) in maintainer._filed.items()
    }


class TestStoreFaultsDuringApply:
    """``apply`` reads the stores twice — the dirty keys, then the other
    ends of the pairs to re-decide that have no filed values — and moves
    the dirty keys between token buckets in between. A fault on the
    second read used to leave the buckets moved: the redelivered batch
    then saw no bucket cross the size cap and never retired the pairs
    that had lost candidacy.

    A bootstrap files every key's values, so the second read is reached
    through a maintainer restored by ``load_state``, which files none
    (as after a warm restart). A fault on the first read lands on a key
    written to the flaky store itself."""

    def alphas(self, filed: bool = True):
        """Three stores holding one "alpha" each; ``two`` can fail."""
        polystore = Polystore()
        stores = {}
        for name in ("one", "two", "three"):
            stores[name] = DocumentStore()
            stores[name].insert("albums", {"_id": "x", "title": "alpha"})
        flaky = FlakyStore(stores["two"], fail_every=10 ** 9)
        polystore.attach("one", stores["one"])
        polystore.attach("two", flaky)
        polystore.attach("three", stores["three"])
        settings = CollectorSettings(max_block_size=3)
        matcher = PairwiseMatcher(
            [AttributeRule("title", "title", JaroWinklerComparator())]
        )
        index = AIndex()
        hub = ChangeHub(
            polystore, index, IncrementalCollector(matcher, settings)
        )
        hub.bootstrap()
        if not filed:
            hub.maintainer.load_state(hub.maintainer.dump_state(), polystore)
            assert hub.maintainer.state()["filed_values"] == 0
        assert len(index_signature(index)) == 6
        return polystore, stores, flaky, matcher, settings, index, hub

    def converges_after_a_fault(self, writer: str, filed: bool) -> None:
        polystore, stores, flaky, matcher, settings, index, hub = self.alphas(
            filed
        )
        # A fourth "alpha" takes the bucket past the cap: every pair
        # loses candidacy, the three clean ones included.
        stores[writer].insert("albums", {"_id": "y", "title": "alpha"})
        flaky.fail_every = 1
        with pytest.raises(StoreUnavailableError):
            hub.pump()
        assert hub.lag() == 1
        flaky.fail_every = 10 ** 9
        report = hub.pump()
        assert (report.events, report.lag) == (1, 0)
        assert batch_edges(polystore, matcher, settings) == set()
        assert index_signature(index) == set()

    def leaves_the_maintainer_as_it_was(self, writer: str, filed: bool) -> None:
        polystore, stores, flaky, __, __, index, hub = self.alphas(filed)
        maintainer = hub.maintainer
        stores[writer].insert("albums", {"_id": "y", "title": "alpha"})
        before = (
            maintainer.state(),
            maintainer.base_relations(),
            dict(maintainer._tokens),
            {token: set(keys) for token, keys in maintainer._buckets.items()},
            filed_values(maintainer),
            index_signature(index),
        )
        flaky.fail_every = 1
        with pytest.raises(StoreUnavailableError):
            hub.pump()
        assert before == (
            maintainer.state(),
            maintainer.base_relations(),
            maintainer._tokens,
            maintainer._buckets,
            filed_values(maintainer),
            index_signature(index),
        )

    def test_redelivery_after_a_mid_apply_fault_converges(self):
        """The fault lands on the second read: ``two``'s "alpha" is the
        other end of the pairs the write in ``one`` re-decides."""
        self.converges_after_a_fault("one", filed=False)

    def test_a_raising_apply_leaves_the_maintainer_as_it_was(self):
        self.leaves_the_maintainer_as_it_was("one", filed=False)

    def test_redelivery_after_a_fault_on_the_first_read_converges(self):
        """The fault lands on the first read: the dirty key is ``two``'s."""
        self.converges_after_a_fault("two", filed=True)

    def test_a_raising_first_read_leaves_the_maintainer_as_it_was(self):
        self.leaves_the_maintainer_as_it_was("two", filed=True)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_flaky_reads_converge_once_healed(self, seed):
        """Any store's ``multi_get`` may fail during any pump; a cap of
        4 keeps the suite's "silver" and "harbors" buckets crossing it,
        so clean pairs gain and lose candidacy while batches fail."""
        polystore = build_polystore()
        settings = CollectorSettings(max_block_size=4)
        index = AIndex()
        hub = ChangeHub(
            polystore, index, IncrementalCollector(make_matcher(), settings)
        )
        hub.bootstrap()
        faults = random.Random(seed * 7919)
        armed = [True]
        failed = [0]

        def flaky(multi_get):
            def read(keys):
                if armed[0] and faults.random() < 0.3:
                    failed[0] += 1
                    raise StoreUnavailableError("injected read fault")
                return multi_get(keys)
            return read

        for database in polystore:
            store = polystore.database(database)
            store.multi_get = flaky(store.multi_get)
        driver = Driver(polystore, random.Random(seed))
        raised = 0
        for step in range(120):
            driver.step()
            if (step + 1) % 3 == 0:
                try:
                    hub.pump()
                except StoreUnavailableError:
                    raised += 1
        assert raised > 0 and failed[0] >= raised
        armed[0] = False
        while hub.pump().batches:
            pass
        assert hub.lag() == 0
        assert index_signature(index) == batch_edges(
            polystore, make_matcher(), settings
        )
