"""Seed segments against the traversal they replace.

A snapshot files the alpha^level rows of each seed it plans without a
probability cut (``FrozenAIndex.segments``), and later plans copy them.
Every plan here is checked column for column against
:func:`~tests.test_plan_traversal.reference_expand`: keys,
probabilities, sources, nodes, parents, paths and ``edges_examined``.
The plans cover seeds that were traversed and filed, seeds copied at
another row offset, plans under a cut (which file nothing), and a
patched snapshot whose overlay changed a row its base had filed.
"""

from __future__ import annotations

import sys
import threading

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.aindex import AIndex
from repro.core.augmentation import Augmentation
from repro.core.compressed import FrozenAIndex
from repro.model.objects import GlobalKey
from repro.model.prelations import PRelation

from .test_plan_traversal import ABSENT, NODES, build, edge, reference_expand

LEVELS = (0, 1, 2)
CUTS = (0.0, 0.5)
BALLAST = [GlobalKey("db5", "c", f"x{i:02d}") for i in range(40)]
COLUMNS = ("keys", "probabilities", "sources", "nodes", "parents", "paths")


def expected_columns(oracle, ids, seeds, level, cut):
    """The columns the reference implies for ``seeds``: each distinct
    seed's fetches in order, node ids from ``ids``, and as parent the
    row of the path's previous hop among the seed's rows (-1 at the
    seed); then the edges examined."""
    columns = {name: [] for name in COLUMNS}
    edges = 0
    for seed in dict.fromkeys(seeds):
        fetches, examined = reference_expand(oracle, seed, level, cut)
        edges += examined
        first = len(columns["keys"])
        row_of = {fetch.key: first + i for i, fetch in enumerate(fetches)}
        for fetch in fetches:
            columns["keys"].append(fetch.key)
            columns["probabilities"].append(fetch.probability)
            columns["sources"].append(fetch.seed)
            columns["nodes"].append(ids[fetch.key])
            columns["parents"].append(
                row_of[fetch.path[-2]] if len(fetch.path) > 1 else -1
            )
            columns["paths"].append(fetch.path)
    return columns, edges


def plan_columns(plan):
    columns = {name: list(getattr(plan, name)) for name in COLUMNS[:-1]}
    columns["paths"] = [plan.path(row) for row in range(len(plan.keys))]
    return columns, plan.edges_examined


def planned(snapshot, seeds, level, cut, oracle=None):
    """A plan of ``seeds`` on ``snapshot`` by a new planner (no plan
    cache), asserted equal to the reference over ``oracle``."""
    plan, __ = Augmentation(snapshot)._plan_on(snapshot, seeds, level, cut)
    assert plan_columns(plan) == expected_columns(
        oracle or snapshot, snapshot._ids, seeds, level, cut
    ), (seeds, level, cut)
    return plan


def known(snapshot, seeds):
    """The distinct seeds the snapshot has a node for."""
    return [seed for seed in dict.fromkeys(seeds) if seed in snapshot._ids]


SEED_POOL = NODES + [ABSENT]
SEEDS = st.lists(st.sampled_from(SEED_POOL), min_size=1, max_size=8)


@settings(max_examples=60, deadline=None)
@given(
    edges=st.lists(edge, max_size=30),
    consistent=st.booleans(),
    first=SEEDS,
    second=SEEDS,
)
def test_copied_segments_plan_like_the_reference(
    edges, consistent, first, second
):
    """The second plan lists some seeds of the first in another order,
    behind others: their segments land at other row offsets, so the
    parents are rebased. Repeats and absent seeds ride along."""
    snapshot = FrozenAIndex.freeze(build(edges, consistent))
    filed: set[tuple[GlobalKey, int]] = set()
    for level in LEVELS:
        for cut in CUTS:
            for seeds in (first, second + first[::-1]):
                plan = planned(snapshot, seeds, level, cut)
                ours = known(snapshot, seeds)
                if cut:
                    assert plan.segments_reused == 0
                    continue
                assert plan.segments_reused == sum(
                    (seed, level) in filed for seed in ours
                )
                filed.update((seed, level) for seed in ours)
    assert snapshot.segments.stats()["segments"] == len(filed)


def test_the_rows_are_filed_once_per_seed_and_level(small_bundle):
    snapshot = FrozenAIndex.freeze(small_bundle.aindex)
    seeds = list(snapshot.nodes())[::11][:30]
    for level in LEVELS:
        fresh = planned(snapshot, seeds, level, 0.0, small_bundle.aindex)
        assert fresh.segments_reused == 0
        stats = snapshot.segments.stats()
        again = planned(snapshot, seeds[::-1], level, 0.0, small_bundle.aindex)
        assert again.segments_reused == len(seeds)
        assert snapshot.segments.stats() == stats
    assert stats == {
        "segments": len(LEVELS) * len(seeds),
        "rows": sum(
            len(reference_expand(small_bundle.aindex, seed, level, 0.0)[0])
            for seed in seeds
            for level in LEVELS
        ),
    }


def with_ballast(index: AIndex) -> AIndex:
    """A base big enough that a few edits are an overlay, not a
    compaction."""
    for i, key in enumerate(BALLAST):
        index.add(PRelation.matching(key, BALLAST[i - 1], 0.5))
        index.add(PRelation.matching(key, NODES[i % 10], 0.4))
    return index


@settings(max_examples=40, deadline=None)
@given(
    edges=st.lists(edge, min_size=4, max_size=30),
    later=st.lists(edge, min_size=1, max_size=3),
)
def test_a_patched_snapshot_files_its_own_segments(edges, later):
    """Every seed is filed on the base at every level, then edits
    change rows the base filed: the patched snapshot plans its own rows
    and the base keeps planning the base's."""
    index = with_ballast(build(edges))
    base = index.frozen()
    seeds = SEED_POOL
    for level in LEVELS:
        planned(base, seeds, level, 0.0)
    for a, b, p, __ in later:
        leaf = GlobalKey("db4", "c", f"l{b}")
        index.add(PRelation.matching(NODES[a], leaf, p))
        if a != b:
            index.add(PRelation.matching(NODES[a], NODES[b], p))
    patched = index.frozen()
    assert patched.overlay_nodes
    assert patched.segments.stats() == {"segments": 0, "rows": 0}
    rebuilt = FrozenAIndex.freeze(index)
    for level in LEVELS:
        for __ in range(2):  # traversed and filed, then copied
            planned(patched, seeds, level, 0.0, rebuilt)
        assert planned(base, seeds, level, 0.0).segments_reused == len(
            known(base, seeds)
        )


def test_a_changed_row_is_not_read_from_the_base():
    """n0's level-0 segment on the base is [n1]; an edit gives n0 a
    stronger neighbour, and the patched snapshot plans it."""
    index = with_ballast(AIndex(enforce_consistency=False))
    index.add(PRelation.matching(NODES[0], NODES[1], 0.5))
    base = index.frozen()
    before = planned(base, [NODES[0]], 0, 0.0)
    assert before.keys[0] == NODES[1]
    assert planned(base, [NODES[0]], 0, 0.0).segments_reused == 1
    index.add(PRelation.matching(NODES[0], NODES[5], 0.9))
    patched = index.frozen()
    assert patched.overlay_nodes and patched.segments is not base.segments
    after = planned(patched, [NODES[0]], 0, 0.0, FrozenAIndex.freeze(index))
    assert after.segments_reused == 0
    assert after.keys == [NODES[5]] + before.keys
    assert after.edges_examined == before.edges_examined + 1


def test_four_threads_plan_one_snapshot_alike(small_bundle):
    """Four planners race to file the same seeds on one fresh snapshot
    (a thread switch every microsecond): each gets the reference plan."""
    seeds = list(small_bundle.aindex.nodes())[::7][:40]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for level in (1, 2):
            snapshot = FrozenAIndex.freeze(small_bundle.aindex)
            start = threading.Barrier(4)
            plans = [None] * 4

            def plan(slot: int) -> None:
                start.wait()
                plans[slot] = Augmentation(snapshot)._plan_on(
                    snapshot, seeds, level, 0.0
                )[0]

            threads = [
                threading.Thread(target=plan, args=(slot,))
                for slot in range(4)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            expected = expected_columns(
                small_bundle.aindex, snapshot._ids, seeds, level, 0.0
            )
            for each in plans:
                assert plan_columns(each) == expected
            assert snapshot.segments.stats()["segments"] == len(seeds)
    finally:
        sys.setswitchinterval(interval)
