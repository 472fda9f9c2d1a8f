"""Tests for the frozen A' index snapshot: the full CSR freeze, and
the patched snapshots ``AIndex.frozen()`` publishes from it."""

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.core.aindex import AIndex
from repro.core.augmentation import Augmentation
from repro.core.compressed import COMPACT_FRACTION, FrozenAIndex
from repro.model.objects import GlobalKey
from repro.model.prelations import PRelation, RelationType

from tests.test_plan_traversal import assert_planned_like_reference, plan_rows

K = GlobalKey.parse


class TestFreeze:
    def test_counts_match(self, mini_aindex):
        frozen = FrozenAIndex.freeze(mini_aindex)
        assert frozen.node_count() == mini_aindex.node_count()
        assert frozen.edge_count() == mini_aindex.edge_count()

    def test_neighbors_match_live_index(self, mini_aindex):
        frozen = FrozenAIndex.freeze(mini_aindex)
        for node in mini_aindex.nodes():
            live = {
                (str(n.key), n.type, round(n.probability, 9))
                for n in mini_aindex.neighbors(node)
            }
            snap = {
                (str(n.key), n.type, round(n.probability, 9))
                for n in frozen.neighbors(node)
            }
            assert snap == live

    def test_type_filter(self, mini_aindex):
        frozen = FrozenAIndex.freeze(mini_aindex)
        node = K("catalogue.albums.d1")
        identities = frozen.neighbors(node, RelationType.IDENTITY)
        matchings = frozen.neighbors(node, RelationType.MATCHING)
        assert len(identities) + len(matchings) == frozen.degree(node)
        assert all(n.type is RelationType.IDENTITY for n in identities)

    def test_contains_and_degree(self, mini_aindex):
        frozen = FrozenAIndex.freeze(mini_aindex)
        assert K("catalogue.albums.d1") in frozen
        assert K("nowhere.c.x") not in frozen
        assert frozen.degree(K("nowhere.c.x")) == 0

    def test_relation_lookup(self, mini_aindex):
        frozen = FrozenAIndex.freeze(mini_aindex)
        relation = frozen.relation(
            K("catalogue.albums.d1"), K("transactions.inventory.a32")
        )
        assert relation is not None
        assert relation.probability == pytest.approx(0.9)
        assert frozen.relation(K("catalogue.albums.d1"), K("nowhere.c.x")) is None

    def test_empty_index(self):
        frozen = FrozenAIndex.freeze(AIndex())
        assert frozen.node_count() == 0
        assert frozen.neighbors(K("a.b.c")) == []


class TestPlanningEquivalence:
    def test_same_plans_as_live_index(self, mini_aindex):
        frozen = FrozenAIndex.freeze(mini_aindex)
        seed = K("transactions.inventory.a32")
        for level in (0, 1, 2):
            live_plan = Augmentation(mini_aindex).plan([seed], level)
            frozen_plan = Augmentation(frozen).plan([seed], level)  # type: ignore[arg-type]
            live = {
                (str(key), round(probability, 9))
                for key, probability in zip(
                    live_plan.keys, live_plan.probabilities
                )
            }
            snap = {
                (str(key), round(probability, 9))
                for key, probability in zip(
                    frozen_plan.keys, frozen_plan.probabilities
                )
            }
            assert snap == live

    def test_generated_bundle_equivalence(self, small_bundle):
        frozen = FrozenAIndex.freeze(small_bundle.aindex)
        seeds = [small_bundle.entity_key("transactions", i) for i in range(5)]
        live_plan = Augmentation(small_bundle.aindex).plan(seeds, 1)
        frozen_plan = Augmentation(frozen).plan(seeds, 1)  # type: ignore[arg-type]
        assert frozen_plan.total_fetches() == live_plan.total_fetches()


class TestImmutability:
    def test_add_rejected(self, mini_aindex):
        frozen = FrozenAIndex.freeze(mini_aindex)
        with pytest.raises(TypeError):
            frozen.add(
                PRelation.matching(K("a.b.c"), K("d.e.f"), 0.5)
            )

    def test_remove_rejected(self, mini_aindex):
        frozen = FrozenAIndex.freeze(mini_aindex)
        with pytest.raises(TypeError):
            frozen.remove_object(K("catalogue.albums.d1"))

    def test_snapshot_unaffected_by_live_mutations(self, mini_aindex):
        frozen = FrozenAIndex.freeze(mini_aindex)
        before = frozen.degree(K("catalogue.albums.d1"))
        mini_aindex.remove_object(K("catalogue.albums.d1"))
        assert frozen.degree(K("catalogue.albums.d1")) == before


# -- patched ≡ rebuilt --------------------------------------------------------
#
# ``AIndex.frozen()`` publishes by patching the previous snapshot; the
# full rebuild (``freeze``) is the oracle.

NODES = [GlobalKey(f"db{i % 3}", "c", f"n{i:02d}") for i in range(24)]
#: Nodes no rule names (their rows still change, as neighbours): they
#: make the base big enough for an overlay to grow across many
#: publishes before it passes COMPACT_FRACTION and is compacted.
BALLAST = [GlobalKey(f"db{i % 3}", "c", f"x{i:02d}") for i in range(40)]
node = st.sampled_from(NODES)


def reads(index):
    """Everything a snapshot answers, as plain data. Rows keep their
    order (the planner breaks ties by discovery order); ``nodes()`` is
    compared as a set, and must list no ghost, tombstone or duplicate.
    The plans are read by node id: a later patch appends ghosts to the
    id tables a pinned snapshot shares, and must not move them.
    """
    nodes = list(index.nodes())
    assert len(nodes) == len(set(nodes)) == index.node_count()
    rows = {}
    for key in NODES + BALLAST:
        neighbors = index.neighbors(key)
        rows[key] = (
            key in index,
            index.degree(key),
            neighbors,
            index.neighbor_arcs(key),
            index.neighbors(key, RelationType.IDENTITY),
            [
                index.relation(key, other)
                for other in [NODES[0]] + [n.key for n in neighbors[:1]]
            ],
        )
    assert {key for key in rows if rows[key][0]} == set(nodes)
    planner = Augmentation(index)
    plans = [
        (plan_rows(plan), plan.edges_examined)
        for plan in (
            planner._plan_on(index, [seed], 2, 0.0)[0] for seed in NODES
        )
    ]
    return set(nodes), index.edge_count(), rows, plans


class SnapshotMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.index = AIndex()
        for i, key in enumerate(BALLAST):
            self.index.add(PRelation.matching(key, BALLAST[i - 1], 0.5))
            self.index.add(PRelation.matching(key, NODES[i % 24], 0.4))
        #: (snapshot, what the rebuild at its generation read), per publish.
        self.pinned = []

    @rule(a=node, b=node, p=st.floats(0.05, 1.0), identity=st.booleans())
    def add(self, a, b, p, identity):
        if a != b:
            make = PRelation.identity if identity else PRelation.matching
            self.index.add(make(a, b, p))

    @rule(key=node)
    def remove_object(self, key):
        self.index.remove_object(key)

    @rule(keys=st.sets(node, max_size=4))
    def excise(self, keys):
        self.index.excise(keys)

    @rule(a=node, pick=st.integers(0, 63), cascade=st.booleans())
    def remove_relation(self, a, pick, cascade):
        neighbors = self.index.neighbors(a)
        if neighbors:
            b = neighbors[pick % len(neighbors)].key
            self.index.remove_relation(a, b, cascade=cascade)

    @rule()
    def publish(self):
        snapshot = self.index.frozen()
        assert snapshot.generation == self.index.generation
        assert self.index.frozen() is snapshot
        if self.pinned:
            previous = self.pinned[-1][0]
            assert (snapshot is previous) == (
                snapshot.generation == previous.generation
            )
        with pytest.raises(TypeError):
            snapshot.add(PRelation.matching(NODES[0], NODES[1], 0.5))
        with pytest.raises(TypeError):
            snapshot.remove_object(NODES[0])
        # The oracle: a full rebuild of the live index, overlay-free.
        oracle = FrozenAIndex.freeze(self.index)
        assert oracle.overlay_nodes == 0
        expected = reads(oracle)
        assert reads(snapshot) == expected
        # Patched (overlay rows by id) against the reference traversal
        # over the rebuild, fetch for fetch.
        assert_planned_like_reference(
            snapshot, NODES, levels=(0, 2), cuts=(0.0, 0.3), oracle=oracle
        )
        self.pinned.append((snapshot, expected))

    @invariant()
    def published_snapshots_never_change(self):
        """Neither a live mutation nor a later patch or compaction (which
        share arrays with a pinned snapshot) writes through to it."""
        for snapshot, expected in self.pinned[-1:]:
            assert reads(snapshot) == expected

    @invariant()
    def every_arc_has_its_reverse(self):
        """What a full freeze relies on: after any add, remove_object,
        excise or remove_relation, every target of a live row is a node
        whose row holds the reverse arc, of the same type and
        probability."""
        adjacency = self.index._adjacency
        for a, row in adjacency.items():
            for b, edge in row.items():
                assert b in adjacency
                assert adjacency[b].get(a) == edge

    @invariant()
    def lineage_index_is_exact(self):
        """``_lineage_by_node`` is derived state: after any mix of
        writes, excisions and cascades it names exactly the records
        that mention each node."""
        mentions = {}
        for pair, supports in self.index._lineage.items():
            for key in {*pair, *(end for support in supports for end in support)}:
                mentions.setdefault(key, set()).add(pair)
        assert {
            key: set(records)
            for key, records in self.index._lineage_by_node.items()
        } == mentions

    def teardown(self):
        for snapshot, expected in self.pinned:
            assert reads(snapshot) == expected


SnapshotMachine.TestCase.settings = settings(
    max_examples=15, stateful_step_count=40, deadline=None
)
TestPatchedEqualsRebuiltPlain = SnapshotMachine.TestCase


# -- when a publish patches and when it compacts -------------------------------


def _chain(new_index, length=40):
    """``length`` nodes joined by matchings (matchings over no identity
    propagate nothing, so each ``add`` touches exactly its endpoints)."""
    index = new_index()
    keys = [GlobalKey("db", "c", f"k{i:02d}") for i in range(length)]
    for left, right in zip(keys, keys[1:]):
        index.add(PRelation.matching(left, right, 0.3))
    return index, keys


class TestPublish:
    @pytest.fixture(params=[AIndex], ids=["plain"])
    def new_index(self, request):
        return request.param

    def test_nothing_is_tracked_before_the_first_snapshot(self, new_index):
        index, keys = _chain(new_index)
        index.remove_object(keys[0])
        index.excise(keys[1:3])
        assert index._dirty is None
        assert (index.refreezes, index.compactions) == (0, 0)
        assert index.frozen().overlay_nodes == 0
        assert (index.refreezes, index.compactions) == (1, 1)
        assert index._dirty == {}
        index.add(PRelation.matching(keys[5], keys[6], 0.9))
        assert list(index._dirty) == [keys[5], keys[6]]

    def test_compactions_moves_exactly_when_an_overlay_passes_the_fraction(
        self, new_index
    ):
        """The model: the nodes touched since the base was built against
        COMPACT_FRACTION of the nodes the base holds."""
        index, keys = _chain(new_index)
        index.frozen()
        overlay: set[GlobalKey] = set()
        seen = {"patched": 0, "compacted": 0}
        for step, (left, right) in enumerate(zip(keys[::2], keys[1::2])):
            index.add(PRelation.matching(left, right, 0.5 + step / 100))
            overlay |= {left, right}
            outgrown = len(overlay) > COMPACT_FRACTION * len(keys)
            before = index.compactions
            snapshot = index.frozen()
            assert (index.compactions == before + 1) is outgrown
            assert index.refreezes == step + 2
            if outgrown:
                overlay.clear()
            seen["compacted" if outgrown else "patched"] += 1
            assert snapshot.overlay_nodes == len(overlay) == index.overlay_nodes
        assert seen["patched"] and seen["compacted"]

    def test_a_lineage_only_bump_publishes_a_new_equal_snapshot(self, new_index):
        """``excise`` of a node that is gone can still prune lineage: the
        generation moves, no row does."""
        index = new_index()
        a, b, c = (GlobalKey("db", "c", name) for name in "abc")
        index.add(PRelation.identity(a, b, 0.9))
        index.add(PRelation.identity(b, c, 0.9))  # infers a ~ c via b
        index.remove_object(b)  # lazy deletion keeps a ~ c and its lineage
        first = index.frozen()
        assert index.excise([b]) == 0 and index.is_inferred(a, c) is False
        second = index.frozen()
        assert second is not first and second.generation > first.generation
        for key in (a, b, c):
            assert (key in second) == (key in first)
            assert second.neighbors(key) == first.neighbors(key)


def test_overlay_order_does_not_depend_on_the_hash_seed():
    """``excise`` takes a set; the dirty record, and with it the order
    ``nodes()`` lists overlay nodes in, follows the keys' text. (CI
    reruns this file under two more PYTHONHASHSEEDs.)"""
    index, keys = _chain(AIndex)
    index.frozen()
    index.excise({keys[5], keys[3], keys[4]})
    assert list(index._dirty) == [keys[i] for i in (3, 2, 4, 5, 6)]
    snapshot = index.frozen()
    assert snapshot.overlay_nodes == 5
    assert list(snapshot.nodes()) == keys[:2] + keys[7:] + [keys[2], keys[6]]
