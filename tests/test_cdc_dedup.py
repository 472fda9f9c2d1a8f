"""Slot-local dedup ≡ ``enforce_local_dedup``, and what a batch costs.

The incremental collector re-decides local dedup only in the slots of
the pairs whose scored relation changed. The batch function it replaced
on that path, :func:`repro.collector.matching.enforce_local_dedup` over
the whole scored set, is the oracle here: a state machine drives the
maintainer's commit step over a key space small enough that every slot
is contested and most probabilities tie, and checks the base set and
every derived structure after each step. The second half pins the cost
by counting: a batch re-decides the same pairs whether or not the
maintainer also tracks thousands of relations the batch never touches.
"""

from __future__ import annotations

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.cdc import ChangeHub, IncrementalCollector
from repro.cdc.maintainer import IngestReport, _canonical, _relation_order
from repro.collector.matching import enforce_local_dedup
from repro.core.aindex import AIndex
from repro.model import GlobalKey, Polystore, PRelation
from repro.model.prelations import RelationType
from repro.obs import Observability

from tests.test_cdc_props import (
    batch_signature,
    build_polystore,
    index_signature,
    make_matcher,
)

#: Three objects in each of three databases: every object has rivals
#: for each slot it can fill.
KEYS = [
    GlobalKey(database, "c", f"k{number}")
    for database in ("one", "two", "three")
    for number in range(3)
]
PAIRS = sorted(
    {_canonical(a, b) for a in KEYS for b in KEYS if a.database != b.database},
    key=lambda pair: (str(pair[0]), str(pair[1])),
)

#: Exact ties are the common case, 1.0 included.
relations = st.one_of(
    st.none(),
    st.builds(
        lambda kind, p: (kind, p),
        st.sampled_from([RelationType.IDENTITY, RelationType.IDENTITY,
                         RelationType.MATCHING]),
        st.sampled_from([1.0, 0.97, 0.95]),
    ),
)
batches = st.dictionaries(
    st.sampled_from(PAIRS), relations, min_size=1, max_size=4
)


def oracle(maintainer: IncrementalCollector) -> list[PRelation]:
    scored = sorted(maintainer._scored.values(), key=_relation_order)
    return sorted(enforce_local_dedup(scored), key=_relation_order)


class DedupMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.maintainer = IncrementalCollector(make_matcher())

    @rule(batch=batches)
    def commit(self, batch):
        """Set, replace and remove scored pairs the way ``apply`` does."""
        decided = {
            pair: spec and PRelation(pair[0], pair[1], spec[0], spec[1])
            for pair, spec in batch.items()
        }
        before = dict(self.maintainer._base)
        report = IngestReport()
        changed = self.maintainer._commit(decided, report)
        after = self.maintainer._base
        assert changed == {
            pair for pair in before.keys() | after.keys()
            if before.get(pair) != after.get(pair)
        }
        assert report.relations_removed == len(before.keys() - after.keys())
        assert report.relations_added == len(changed) - report.relations_removed
        assert report.dedup_rechecked >= len(changed)

    @rule()
    def reload(self):
        """The views are derived: a restart rebuilds them from the
        scored set alone."""
        restarted = IncrementalCollector(make_matcher())
        restarted.load_state(self.maintainer.dump_state(), Polystore())
        for name in ("_scored", "_scored_by_key", "_slot_rivals", "_base",
                     "_base_adj"):
            assert getattr(restarted, name) == getattr(self.maintainer, name)
        self.maintainer = restarted

    @invariant()
    def base_is_the_batch_dedup_of_the_scored_set(self):
        assert self.maintainer.base_relations() == oracle(self.maintainer)

    @invariant()
    def adjacency_is_the_base_graph(self):
        adjacency: dict[GlobalKey, set[GlobalKey]] = {}
        for a, b in self.maintainer._base:
            adjacency.setdefault(a, set()).add(b)
            adjacency.setdefault(b, set()).add(a)
        assert self.maintainer._base_adj == adjacency

    @invariant()
    def views_hold_exactly_the_scored_set(self):
        """Equality with dicts built from ``_scored`` is also the views'
        bound: no stale member, no empty container left behind."""
        by_key: dict[GlobalKey, set] = {}
        rivals: dict[tuple[GlobalKey, str], set] = {}
        for pair, relation in self.maintainer._scored.items():
            assert pair == (relation.left, relation.right)
            for key in pair:
                by_key.setdefault(key, set()).add(pair)
            if relation.type is RelationType.IDENTITY:
                rivals.setdefault((pair[0], pair[1].database), set()).add(pair)
                rivals.setdefault((pair[1], pair[0].database), set()).add(pair)
        assert self.maintainer._scored_by_key == by_key
        assert self.maintainer._slot_rivals == rivals
        state = self.maintainer.state()
        assert state["scored_keys"] == len(by_key)
        assert state["dedup_slots"] == len(rivals)


DedupMachine.TestCase.settings = settings(
    max_examples=60, stateful_step_count=40, deadline=None
)
TestSlotLocalDedupEqualsBatch = DedupMachine.TestCase


BYSTANDERS = 2000


def crowded_polystore() -> Polystore:
    """The differential suite's corpus plus entities no batch below goes
    near: each is copied into two stores under a title whose one token
    nothing else carries, so it is one more scored identity and one more
    base relation, in a bucket and a component of its own."""
    polystore = build_polystore()
    sales = polystore.database("transactions")
    catalogue = polystore.database("catalogue")
    for number in range(BYSTANDERS):
        title = f"bystander{number:04d}only"
        sales.insert_row("inventory", {"id": f"b{number}", "name": title})
        catalogue.insert("albums", {"_id": f"b{number}", "title": title})
    return polystore


def eight_event_batch(polystore: Polystore):
    """Eight writes over all four engines; contested titles, so slots
    change hands, and a delete."""
    sales = polystore.database("transactions").table("inventory")
    catalogue = polystore.database("catalogue")
    similar = polystore.database("similar")
    discount = polystore.database("discount")
    sales.update("a0", {"name": "Silver Harbors"})
    sales.update("a1", {"name": "Silver Sessions"})
    sales.insert({"id": "a9", "name": "Silver Sessions"})
    catalogue.update_one("albums", "d0", {"$set": {"title": "Silver Harbors"}})
    catalogue.delete_one("albums", "d4")
    similar.update_node("i2", {"title": "Silver Sessions"})
    similar.create_node("Item", {"title": "Violet Dreams"}, node_id="i9")
    discount.set("k1", "Silver Sessions")


def apply_as_one_batch(polystore: Polystore):
    index = AIndex()
    hub = ChangeHub(polystore, index, IncrementalCollector(make_matcher()))
    hub.bootstrap()
    sizes = hub.maintainer.state()
    eight_event_batch(polystore)
    events = [
        event for database in sorted(hub.feeds)
        for event in hub.feeds[database].read_since()
    ]
    assert len(events) == 8
    report = hub.maintainer.apply(polystore, index, events)
    assert index_signature(index) == batch_signature(polystore)
    return sizes, report


class TestABatchCostsItsDelta:
    def test_bystanders_are_not_revisited(self):
        """Counts, not timings: what a batch re-scores and what it
        re-decides for dedup do not depend on how much else is stored."""
        small, alone = apply_as_one_batch(build_polystore())
        large, crowded = apply_as_one_batch(crowded_polystore())
        for name in ("scored_relations", "base_relations", "dedup_slots"):
            grown = BYSTANDERS * (2 if name == "dedup_slots" else 1)
            assert large[name] == small[name] + grown
        assert alone.pairs_rescored == crowded.pairs_rescored > 0
        assert alone.dedup_rechecked == crowded.dedup_rechecked > 0
        assert alone.affected_nodes == crowded.affected_nodes
        assert alone.relations_added == crowded.relations_added
        assert alone.relations_removed == crowded.relations_removed > 0

    def test_the_hub_journals_what_each_batch_re_decided(self):
        """``cdc_batch_applied`` says how much a batch cost, not only
        what it changed."""
        polystore = build_polystore()
        obs = Observability()
        hub = ChangeHub(
            polystore, AIndex(), IncrementalCollector(make_matcher()), obs=obs
        )
        hub.bootstrap()
        eight_event_batch(polystore)
        report = hub.pump()
        applied = [
            event.attrs for event in obs.events.events(kind="cdc_batch_applied")
        ]
        assert len(applied) == report.batches == 4
        assert sum(attrs["pairs_rescored"] for attrs in applied) > 0
        assert sum(attrs["dedup_rechecked"] for attrs in applied) > 0
        assert all(
            attrs["dedup_rechecked"]
            >= attrs["relations_added"] + attrs["relations_removed"]
            for attrs in applied
        )
