"""The planner's traversal against its reference.

:func:`reference_expand` is the per-key heap loop ``Augmentation._expand``
ran before it walked node handles — every heap entry carries its path,
every improvement builds a fetch, entries at the last depth are pushed
and dropped when popped — kept verbatim as the oracle. The planner must
return the same fetch list, fetch for fetch (key, probability, seed,
path, order), and the same ``edges_examined``, whatever the index:
a full snapshot and a patched one (by node id), a live index, a
duck-typed one (by key).
The plan keeps columns; :func:`plan_rows` reads them back as
:class:`Fetch` rows, paths rebuilt from the parent column.
"""

import heapq
from typing import NamedTuple

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.aindex import AIndex
from repro.core.augmentation import Augmentation, AugmentationPlan, _plan_view
from repro.core.compressed import FrozenAIndex
from repro.model.objects import GlobalKey
from repro.model.prelations import PRelation

K = GlobalKey.parse

NODES = [GlobalKey(f"db{i % 3}", "c", f"n{i:02d}") for i in range(10)]
ABSENT = GlobalKey("db9", "c", "absent")
LEVELS = (0, 1, 2, 3)
CUTS = (0.0, 0.3, 0.5)


class Fetch(NamedTuple):
    """One planned row: ``key`` fetched at ``probability`` for ``seed``,
    reached through ``path`` (the keys from the seed, excluded, to
    ``key``, included)."""

    key: GlobalKey
    probability: float
    seed: GlobalKey
    path: tuple[GlobalKey, ...]


def plan_rows(plan: AugmentationPlan) -> list[Fetch]:
    """Every row of ``plan`` as a :class:`Fetch`, read from its columns
    ``keys``, ``probabilities``, ``sources`` and ``path(row)``."""
    return [
        Fetch(key, probability, seed, plan.path(row))
        for row, (key, probability, seed) in enumerate(
            zip(plan.keys, plan.probabilities, plan.sources)
        )
    ]


def reference_expand(index, seed, level, min_probability):
    """The traversal as it was: over keys, through ``index.neighbors``."""

    def arcs(key):
        return [(n.key, n.probability) for n in index.neighbors(key)]

    max_depth = level + 1
    best = {seed: 1.0}
    result = {}
    edges = 0
    # Heap entries: (-probability, tiebreak, key, depth, path)
    counter = 0
    heap = [(-1.0, counter, seed, 0, ())]
    heappop, heappush = heapq.heappop, heapq.heappush
    best_get = best.get
    while heap:
        neg_probability, __, key, depth, path = heappop(heap)
        probability = -neg_probability
        if probability < best_get(key, 0.0):
            continue  # stale entry
        if depth >= max_depth:
            continue
        next_depth = depth + 1
        arc_list = arcs(key)
        edges += len(arc_list)
        for neighbor_key, neighbor_probability in arc_list:
            combined = probability * neighbor_probability
            if combined < min_probability or combined <= 0.0:
                continue
            if combined <= best_get(neighbor_key, 0.0):
                continue
            best[neighbor_key] = combined
            new_path = path + (neighbor_key,)
            if neighbor_key != seed:
                result[neighbor_key] = Fetch(
                    neighbor_key, combined, seed, new_path
                )
            counter += 1
            heappush(
                heap, (-combined, counter, neighbor_key, next_depth, new_path)
            )
    decorated = [
        (-fetch.probability, str(fetch.key), fetch)
        for fetch in result.values()
    ]
    decorated.sort()
    return [fetch for __, __, fetch in decorated], edges


def expand(index, seed, level, min_probability):
    """One seed's plan over ``index``: its rows, read from the columns,
    and the edges examined."""
    plan = AugmentationPlan(level, [seed], hop_of=_plan_view(index)[3])
    edges = Augmentation(index)._expand(
        index, seed, level, min_probability, plan
    )
    for name in ("probabilities", "sources", "nodes", "parents"):
        assert len(getattr(plan, name)) == len(plan.keys), name
    return plan_rows(plan), edges


def assert_planned_like_reference(
    index, seeds, levels=LEVELS, cuts=CUTS, oracle=None, label=""
):
    """``_expand`` over ``index`` equals the reference over ``oracle``
    (default: ``index`` itself, read through ``neighbors``)."""
    for level in levels:
        for cut in cuts:
            for seed in seeds:
                ours = expand(index, seed, level, cut)
                theirs = reference_expand(oracle or index, seed, level, cut)
                assert ours == theirs, (label, seed, level, cut)


class NeighborsOnly:
    """A duck-typed index: ``neighbors`` and nothing else."""

    def __init__(self, index):
        self.neighbors = index.neighbors


def flavours(index):
    """Every kind of index the planner is handed, built from ``index``,
    with the index whose ``neighbors`` is its oracle (``None``: itself)."""
    yield "live", index, None
    yield "duck-typed", NeighborsOnly(index), index
    yield "frozen", FrozenAIndex.freeze(index), index


def build(edges, consistent=False):
    index = AIndex(enforce_consistency=consistent)
    for a, b, probability, identity in edges:
        if a != b:
            make = PRelation.identity if identity else PRelation.matching
            index.add(make(NODES[a], NODES[b], probability))
    return index


#: Few distinct values, closed under products (0.5 * 0.5 = 0.25, and
#: 1.0 changes nothing): ties at every depth.
probability = st.sampled_from([1.0, 1.0, 0.5, 0.5, 0.25, 0.9, 0.45, 0.05])
edge = st.tuples(
    st.integers(0, 9), st.integers(0, 9), probability, st.booleans()
)


@settings(max_examples=60, deadline=None)
@given(edges=st.lists(edge, max_size=30), consistent=st.booleans())
def test_every_index_plans_like_the_reference(edges, consistent):
    index = build(edges, consistent)
    for name, flavour, oracle in flavours(index):
        assert_planned_like_reference(
            flavour, NODES + [ABSENT], oracle=oracle, label=name
        )


@settings(max_examples=40, deadline=None)
@given(
    edges=st.lists(edge, min_size=4, max_size=30),
    later=st.lists(edge, min_size=1, max_size=6),
    dropped=st.sets(st.integers(0, 9), max_size=2),
)
def test_a_patched_snapshot_plans_like_its_rebuild(edges, later, dropped):
    """Overlay rows are id rows, over keys the base never saw too."""
    index = build(edges)
    base = index.frozen()
    for a, b, p, identity in later:
        if a != b:
            # Past the base's key table: ids are interned by the patch.
            new = GlobalKey("db4", "c", f"late{b}")
            index.add(PRelation.matching(NODES[a], new, p))
            index.add(PRelation.matching(NODES[a], NODES[b], p))
    for node in dropped:
        index.remove_object(NODES[node])
    patched = index.frozen()
    rebuilt = FrozenAIndex.freeze(index)
    seeds = NODES + [ABSENT] + [
        GlobalKey("db4", "c", f"late{b}") for b in range(10)
    ]
    assert_planned_like_reference(patched, seeds, oracle=rebuilt)
    assert_planned_like_reference(rebuilt, seeds)
    # The patch appended ghosts to tables it shares with its base.
    assert_planned_like_reference(base, seeds, levels=(2,), cuts=(0.0,))


def chain(*probabilities):
    index = AIndex(enforce_consistency=False)
    for i, p in enumerate(probabilities):
        index.add(PRelation.matching(NODES[i], NODES[i + 1], p))
    return index


class TestTheRules:
    def test_depth_rule_a_node_is_a_leaf_where_its_best_entry_is(self):
        """n1 is reached at depth 1 with 0.2 and at depth 2 with 0.81.
        At level 1 its best entry sits at the last depth, so it is not
        expanded — not even through the weaker, shallower one — and n3,
        behind it, is not planned."""
        index = AIndex(enforce_consistency=False)
        seed, a, b, c = NODES[:4]
        index.add(PRelation.matching(seed, a, 0.2))
        index.add(PRelation.matching(seed, b, 0.9))
        index.add(PRelation.matching(b, a, 0.9))
        index.add(PRelation.matching(a, c, 1.0))
        for name, flavour, __ in flavours(index):
            fetches, edges = expand(flavour, seed, 1, 0.0)
            assert [(f.key, f.probability, f.path) for f in fetches] == [
                (b, 0.9, (b,)),
                (a, 0.9 * 0.9, (b, a)),
            ], name
            assert edges == 2 + 2, name  # the seed's row and n2's
            fetches, __ = expand(flavour, seed, 2, 0.0)
            assert Fetch(c, 0.9 * 0.9, seed, (b, a, c)) in fetches
        assert_planned_like_reference(FrozenAIndex.freeze(index), NODES[:4])

    def test_tie_rule_first_discovered_wins_and_is_expanded_first(self):
        """Two paths of 0.5 to n3: the one through the node discovered
        first stays (an equal arc replaces nothing)."""
        index = AIndex(enforce_consistency=False)
        seed, a, b, c = NODES[:4]
        index.add(PRelation.matching(seed, a, 0.5))
        index.add(PRelation.matching(seed, b, 0.5))
        index.add(PRelation.identity(b, c, 1.0))
        index.add(PRelation.identity(a, c, 1.0))
        frozen = FrozenAIndex.freeze(index)
        fetches, __ = expand(frozen, seed, 1, 0.0)
        assert {f.key: f.path for f in fetches} == {
            a: (a,), b: (b,), c: (a, c),
        }
        assert_planned_like_reference(frozen, NODES[:4])

    def test_certain_chain_and_cycle_back_to_the_seed(self):
        index = chain(1.0, 1.0, 1.0, 1.0)
        index.add(PRelation.identity(NODES[4], NODES[0], 1.0))
        frozen = FrozenAIndex.freeze(index)
        fetches, __ = expand(frozen, NODES[0], 3, 0.0)
        assert NODES[0] not in [f.key for f in fetches]
        assert {f.probability for f in fetches} == {1.0}
        assert_planned_like_reference(frozen, NODES[:5])

    def test_min_probability_cuts_the_path_not_just_the_fetch(self):
        frozen = FrozenAIndex.freeze(chain(0.5, 0.5, 1.0))
        fetches, edges = expand(frozen, NODES[0], 3, 0.3)
        assert [f.key for f in fetches] == [NODES[1]]
        assert edges == 1 + 2
        assert_planned_like_reference(frozen, NODES[:4])

    def test_a_seed_the_index_never_saw_plans_nothing(self, mini_aindex):
        for __, flavour, __ in flavours(mini_aindex):
            assert expand(flavour, ABSENT, 2, 0.0) == (
                [], 0
            )


def test_generated_bundle_plans_like_the_reference(small_bundle):
    """A real A' index, consistency edges and all, by id and by key."""
    index = small_bundle.aindex
    seeds = list(index.nodes())[::7][:40]
    assert_planned_like_reference(
        index.frozen(), seeds, levels=(0, 1, 2), cuts=(0.0, 0.6), oracle=index
    )
    assert_planned_like_reference(index, seeds, levels=(1,), cuts=(0.0,))
