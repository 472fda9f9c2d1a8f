"""The incremental collector never forms a pair that no rule can score.

A pair a batch forms — a dirty key with its bucket mates, or the pairs
of a bucket whose validity flipped — is dropped when the *presence
signatures* of its ends (which rule fields each holds as non-``None``)
cannot reach ``matching_threshold``
(:meth:`~repro.collector.matching.PairwiseMatcher.reachable`). The
filter must change no relation:

* filtered ≡ unfiltered ≡ batch, on a weighted multi-rule matcher whose
  signature pairs reach exactly the threshold and one ulp under it, with
  fields added to and removed from dirty keys;
* a comparator that does not declare ``absent_scores_zero`` keeps every
  pair in play;
* every built-in comparator does score 0.0 when exactly one side is
  ``None``, which is what its ``absent_scores_zero`` claims.
"""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.cdc import ChangeHub, IncrementalCollector
from repro.collector import (
    Collector,
    ExactComparator,
    JaroWinklerComparator,
    LevenshteinComparator,
    NumericComparator,
    PairwiseMatcher,
    TokenOverlapComparator,
)
from repro.collector.collector import CollectorSettings
from repro.collector.comparators import Comparator
from repro.collector.matching import AttributeRule
from repro.core.aindex import AIndex
from repro.model import Polystore
from repro.model.objects import DataObject, GlobalKey
from repro.obs import Observability
from repro.stores import DocumentStore, KeyValueStore, RelationalStore
from repro.stores.relational.types import Column, ColumnType, TableSchema

from tests.test_cdc_props import index_signature

BUILT_INS = [
    ExactComparator(),
    LevenshteinComparator(),
    JaroWinklerComparator(),
    TokenOverlapComparator(),
    NumericComparator(),
]

TITLES = ("Silver Harbors", "Silver Harbours", "Quiet Rivers", "Quiet River")

#: name <-> title at weight 3, year at weight 1, label at weight 0: a
#: pair with a title match and one year absent reaches exactly 3/4.
AT_THRESHOLD = 0.75
ONE_ULP_OVER = math.nextafter(AT_THRESHOLD, 1.0)


def weighted_matcher(matching_threshold: float) -> PairwiseMatcher:
    return PairwiseMatcher(
        [
            AttributeRule("name", "title", JaroWinklerComparator(), 3.0),
            AttributeRule("year", "year", NumericComparator(0.1), 1.0),
            AttributeRule("label", "label", ExactComparator(), 0.0),
        ],
        identity_threshold=0.95,
        matching_threshold=matching_threshold,
    )


class Unfiltered(PairwiseMatcher):
    """The same matcher with every signature pair in reach."""

    def reachable(self, left, right) -> float:
        return 1.0


def unfiltered(matcher: PairwiseMatcher) -> PairwiseMatcher:
    return Unfiltered(
        matcher.rules, matcher.identity_threshold, matcher.matching_threshold
    )


class Corpus:
    """Three engines, objects that hold some of the rule fields each;
    seeded writes add and remove fields as well as edit and delete."""

    def __init__(self, rng: random.Random) -> None:
        self.rng = rng
        self.sales = RelationalStore()
        self.sales.create_table(
            "inventory",
            TableSchema(
                columns=[
                    Column("id", ColumnType.TEXT, nullable=False),
                    Column("name", ColumnType.TEXT),
                    Column("year", ColumnType.INTEGER),
                ],
                primary_key="id",
            ),
        )
        self.catalogue = DocumentStore()
        self.discount = KeyValueStore(keyspace="drop")
        self.polystore = Polystore()
        self.polystore.attach("transactions", self.sales)
        self.polystore.attach("catalogue", self.catalogue)
        self.polystore.attach("discount", self.discount)
        self.next_id = 0
        self.rows: list[str] = []
        self.docs: list[str] = []
        self.entries: list[str] = []
        for __ in range(4):
            self.insert(0)
            self.insert(1)
            self.insert(2)

    def record(self, with_name: bool) -> dict:
        """Some of the rule fields: a title (or a name), a year, a label."""
        record = {"name" if with_name else "title": self.rng.choice(TITLES)}
        if self.rng.random() < 0.5:
            record["year"] = self.rng.choice((1999, 2000))
        if self.rng.random() < 0.5:
            record["label"] = self.rng.choice(("dusk", "dawn"))
        return record

    def insert(self, engine: int) -> None:
        key = f"o{self.next_id}"
        self.next_id += 1
        if engine == 0:
            record = self.record(with_name=True)
            record.pop("label", None)
            self.sales.insert_row("inventory", {"id": key, **record})
            self.rows.append(key)
        elif engine == 1:
            self.catalogue.insert("albums", {"_id": key, **self.record(False)})
            self.docs.append(key)
        else:
            self.discount.set(key, self.record(with_name=False))
            self.entries.append(key)

    def step(self) -> None:
        rng = self.rng
        op = rng.randrange(9)
        if op < 3:
            self.insert(op)
        elif op == 3 and self.rows:
            year = rng.choice((None, 1999, 2000))
            self.sales.table("inventory").update(
                rng.choice(self.rows), {"year": year, "name": rng.choice(TITLES)}
            )
        elif op == 4 and self.docs:
            # A field added to a document, or taken away again: a name
            # lets the document match the other title-only objects.
            key = rng.choice(self.docs)
            field = rng.choice(("year", "name"))
            if rng.random() < 0.5:
                value = rng.choice((1999, 2000) if field == "year" else TITLES)
                self.catalogue.update_one("albums", key, {"$set": {field: value}})
            else:
                self.catalogue.update_one("albums", key, {"$unset": {field: ""}})
        elif op == 5 and self.entries:
            self.discount.set(rng.choice(self.entries), self.record(False))
        elif op == 6 and len(self.rows) > 1:
            self.sales.table("inventory").delete(self.rows.pop())
        elif op == 7 and len(self.docs) > 1:
            self.catalogue.delete_one("albums", self.docs.pop())
        elif op == 8 and len(self.entries) > 1:
            self.discount.delete(self.entries.pop())


def run_side_by_side(matcher: PairwiseMatcher, seed: int, steps: int = 80):
    """One corpus, one hub with ``matcher``; every delivered batch is
    also applied to a twin maintainer that filters nothing. Returns the
    corpus, both maintainers and indexes, and the filtered reports."""
    rng = random.Random(seed)
    corpus = Corpus(rng)
    settings = CollectorSettings(max_block_size=6)
    twin = IncrementalCollector(unfiltered(matcher), settings)
    twin_index = AIndex()
    twin.bootstrap(corpus.polystore, twin_index)

    def deliver(database, events):
        twin.apply(corpus.polystore, twin_index, events)
        return events

    index = AIndex()
    hub = ChangeHub(
        corpus.polystore,
        index,
        IncrementalCollector(matcher, settings),
        delivery=deliver,
    )
    hub.bootstrap()
    reports = []
    maintainer = hub.maintainer
    apply = maintainer.apply

    def recorded(polystore, aindex, events):
        report = apply(polystore, aindex, events)
        reports.append(report)
        return report

    maintainer.apply = recorded
    for step in range(steps):
        corpus.step()
        if rng.random() < 0.4:
            hub.pump()
            assert maintainer.base_relations() == twin.base_relations()
    hub.pump()
    return corpus, settings, maintainer, index, twin, twin_index, reports


def batch_signature(polystore, matcher, settings) -> set:
    index = AIndex()
    Collector(matcher, settings).collect(polystore, index)
    return index_signature(index)


class TestReachable:
    def test_a_title_match_with_one_year_absent_reaches_three_quarters(self):
        matcher = weighted_matcher(AT_THRESHOLD)
        named, titled = frozenset({"name"}), frozenset({"title", "year"})
        assert matcher.reachable(named, titled) == AT_THRESHOLD
        # The rule fields sit on either side: the fallback finds them.
        assert matcher.reachable(titled, named) == AT_THRESHOLD

    def test_a_pair_without_the_title_rule_cannot_match(self):
        matcher = weighted_matcher(AT_THRESHOLD)
        titled = frozenset({"title", "year", "label"})
        # name <-> title has one side only; year both; label weighs 0.
        assert matcher.reachable(titled, titled) == 0.25
        assert matcher.reachable(frozenset(), titled) == 0.0
        assert matcher.reachable(frozenset(), frozenset()) == 0.0

    def test_the_score_never_exceeds_what_the_signatures_reach(self):
        matcher = weighted_matcher(AT_THRESHOLD)
        rng = random.Random(5)
        corpus = Corpus(rng)
        for __ in range(60):
            corpus.step()
        objects = [
            obj
            for database in corpus.polystore
            for obj in corpus.polystore.database(database).scan_objects()
        ]
        for left in objects:
            for right in objects:
                reach = matcher.reachable(
                    frozenset(matcher.project(left)),
                    frozenset(matcher.project(right)),
                )
                assert matcher.score(left, right) <= reach

    def test_project_keeps_the_rule_fields_evidence_reads(self):
        matcher = weighted_matcher(AT_THRESHOLD)
        key = GlobalKey("db", "c", "k")
        record = {"title": "A", "year": None, "other": 1}
        assert matcher.project(DataObject(key, record)) == {"title": "A"}
        scalar = PairwiseMatcher(
            [AttributeRule("value", "title", ExactComparator())]
        )
        assert scalar.project(DataObject(key, "A")) == {"value": "A"}
        assert matcher.project(DataObject(key, "A")) == {}


class TestFilteredEqualsUnfiltered:
    @pytest.mark.parametrize(
        "threshold", [AT_THRESHOLD, ONE_ULP_OVER], ids=["at", "one_ulp_under"]
    )
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_same_relations(self, seed, threshold):
        matcher = weighted_matcher(threshold)
        corpus, settings, maintainer, index, twin, twin_index, reports = (
            run_side_by_side(matcher, seed)
        )
        assert maintainer.base_relations() == twin.base_relations()
        assert index_signature(index) == index_signature(twin_index)
        assert index_signature(index) == batch_signature(
            corpus.polystore, matcher, settings
        )
        # The filter did drop pairs; at 3/4, pairs with one year absent
        # match, so the index is not trivially empty.
        assert sum(report.pairs_unscorable for report in reports) > 0
        assert index_signature(index) or threshold != AT_THRESHOLD

    @pytest.mark.parametrize(
        "threshold, matches",
        [(AT_THRESHOLD, True), (ONE_ULP_OVER, False)],
        ids=["at", "one_ulp_under"],
    )
    def test_a_pair_reaching_exactly_its_score(self, threshold, matches):
        """A name equal to a title, with one year absent, scores exactly
        3/4, its reach: the filter keeps the pair either way, and it
        matches only at a threshold of 3/4."""
        corpus = Corpus(random.Random(4))
        maintainer = IncrementalCollector(weighted_matcher(threshold))
        hub = ChangeHub(corpus.polystore, AIndex(), maintainer)
        hub.bootstrap()
        corpus.sales.insert_row("inventory", {"id": "n", "name": "Violet Dreams"})
        corpus.catalogue.insert(
            "albums", {"_id": "t", "title": "Violet Dreams", "year": 2000}
        )
        hub.pump()
        pair = ("catalogue.albums.t", "transactions.inventory.n")
        got = {
            (str(r.left), str(r.right)): r.probability
            for r in maintainer.base_relations()
        }
        assert (got.get(pair) == AT_THRESHOLD) is matches
        assert (pair in got) is matches


class AbsentIsAMatch(Comparator):
    """Scores 1.0 when a side is absent: it declares nothing, so the
    matcher must keep every pair it is the rule of."""

    name = "absent_is_a_match"

    def compare(self, left, right) -> float:
        if left is None or right is None:
            return 1.0
        return JaroWinklerComparator().compare(left, right)


class TestUndeclaredComparator:
    def test_keeps_every_pair(self):
        matcher = PairwiseMatcher(
            [AttributeRule("name", "title", AbsentIsAMatch())],
            identity_threshold=0.95,
            matching_threshold=0.9,
        )
        corpus, settings, maintainer, index, twin, twin_index, reports = (
            run_side_by_side(matcher, 7)
        )
        assert sum(report.pairs_unscorable for report in reports) == 0
        assert index_signature(index) == index_signature(twin_index)
        assert index_signature(index) == batch_signature(
            corpus.polystore, matcher, settings
        )
        # Title-only objects match each other through the absent name.
        assert any(
            "transactions" not in (r.left.database, r.right.database)
            for r in maintainer.base_relations()
        )


VALUES = st.one_of(
    st.text(max_size=12),
    st.integers(-10**6, 10**6),
    st.floats(allow_nan=True, allow_infinity=True),
    st.booleans(),
)


class TestBuiltInsScoreAnAbsentSideZero:
    @given(value=VALUES, index=st.integers(0, len(BUILT_INS) - 1))
    def test_exactly_one_side_none(self, value, index):
        comparator = BUILT_INS[index]
        assert comparator.absent_scores_zero
        assert comparator.compare(None, value) == 0.0
        assert comparator.compare(value, None) == 0.0

    def test_the_abstract_default_declares_nothing(self):
        assert Comparator.absent_scores_zero is False


class TestObservability:
    def test_the_hub_journals_unscorable_pairs_and_refills(self):
        """``cdc_batch_applied`` carries ``pairs_unscorable`` and
        ``values_fetched``: a live maintainer reads no pair end, a
        restored one reads the ends it has no values for, once."""
        corpus = Corpus(random.Random(9))
        obs = Observability()
        hub = ChangeHub(
            corpus.polystore,
            AIndex(),
            IncrementalCollector(weighted_matcher(AT_THRESHOLD)),
            obs=obs,
        )
        hub.bootstrap()
        maintainer = hub.maintainer

        def pump() -> list[dict]:
            for __ in range(20):
                corpus.step()
            seen = len(obs.events.events(kind="cdc_batch_applied"))
            hub.pump()
            return [
                event.attrs
                for event in obs.events.events(kind="cdc_batch_applied")[seen:]
            ]

        live = pump()
        assert sum(attrs["pairs_unscorable"] for attrs in live) > 0
        assert all(attrs["values_fetched"] == 0 for attrs in live)

        maintainer.load_state(maintainer.dump_state(), corpus.polystore)
        restored = pump()
        assert sum(attrs["values_fetched"] for attrs in restored) > 0
        state = maintainer.state()
        assert 0 < state["filed_values"] <= state["tracked_keys"]
