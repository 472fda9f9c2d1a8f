"""Tests for p-relation promotion (Section III-D.a)."""

import sys
import threading

import pytest

from repro.core.aindex import AIndex
from repro.core.promotion import PathRepository, PromotionPolicy
from repro.model.objects import GlobalKey
from repro.model.prelations import PRelation, RelationType

K = GlobalKey.parse


def chain_index(n: int = 5, probability: float = 0.8) -> tuple[AIndex, list]:
    index = AIndex(enforce_consistency=False)
    nodes = [K(f"db{i}.c.n{i}") for i in range(n)]
    for left, right in zip(nodes, nodes[1:]):
        index.add(PRelation.matching(left, right, probability))
    return index, nodes


class TestPolicy:
    def test_threshold_decreases_with_length(self):
        policy = PromotionPolicy(base=24, min_visits=2)
        thresholds = [policy.threshold(length) for length in (2, 3, 4, 6)]
        assert thresholds == sorted(thresholds, reverse=True)
        assert thresholds[-1] >= 2

    def test_minimum_visits_floor(self):
        policy = PromotionPolicy(base=4, min_visits=3)
        assert policy.threshold(10) == 3

    def test_short_path_rejected(self):
        with pytest.raises(ValueError):
            PromotionPolicy().threshold(1)


class TestRepository:
    def test_promotion_after_threshold_visits(self):
        index, nodes = chain_index()
        repo = PathRepository(index, PromotionPolicy(base=8, min_visits=2))
        path = tuple(nodes[:4])  # 3 edges
        threshold = repo.policy.threshold(3)
        promoted = None
        for __ in range(threshold):
            promoted = repo.record_path(path) or promoted
        assert promoted is not None
        assert promoted.type is RelationType.MATCHING
        assert index.relation(nodes[0], nodes[3]) is not None

    def test_probability_is_average_of_path_edges(self):
        index, nodes = chain_index(probability=0.8)
        repo = PathRepository(index, PromotionPolicy(base=2, min_visits=1))
        promoted = repo.record_path(tuple(nodes[:3]))
        assert promoted.probability == pytest.approx(0.8)

    def test_mixed_probabilities_averaged(self):
        index = AIndex(enforce_consistency=False)
        a, b, c = K("d1.c.a"), K("d2.c.b"), K("d3.c.c")
        index.add(PRelation.matching(a, b, 0.6))
        index.add(PRelation.matching(b, c, 0.9))
        repo = PathRepository(index, PromotionPolicy(base=2, min_visits=1))
        promoted = repo.record_path((a, b, c))
        assert promoted.probability == pytest.approx(0.75)

    def test_promotion_happens_exactly_once(self):
        index, nodes = chain_index()
        repo = PathRepository(index, PromotionPolicy(base=2, min_visits=1))
        path = tuple(nodes[:3])
        first = repo.record_path(path)
        second = repo.record_path(path)
        assert first is not None
        assert second is None
        assert len(repo.promoted) == 1

    def test_existing_edge_not_duplicated(self):
        index, nodes = chain_index()
        index.add(PRelation.matching(nodes[0], nodes[2], 0.99))
        repo = PathRepository(index, PromotionPolicy(base=2, min_visits=1))
        promoted = repo.record_path(tuple(nodes[:3]))
        assert promoted is None
        assert index.relation(nodes[0], nodes[2]).probability == 0.99

    def test_two_node_paths_ignored(self):
        index, nodes = chain_index()
        repo = PathRepository(index, PromotionPolicy(base=2, min_visits=1))
        assert repo.record_path((nodes[0], nodes[1])) is None
        assert repo.visits((nodes[0], nodes[1])) == 0

    def test_stale_path_with_deleted_edge_not_promoted(self):
        index, nodes = chain_index()
        repo = PathRepository(index, PromotionPolicy(base=2, min_visits=1))
        index.remove_relation(nodes[1], nodes[2])
        promoted = repo.record_path(tuple(nodes[:4]))
        assert promoted is None

    def test_longer_paths_promote_with_fewer_visits(self):
        index, nodes = chain_index(5)
        policy = PromotionPolicy(base=24, min_visits=2)
        assert policy.threshold(4) < policy.threshold(2)

    def test_distinct_paths_counted_separately(self):
        index, nodes = chain_index(5)
        repo = PathRepository(index, PromotionPolicy(base=100, min_visits=50))
        repo.record_path(tuple(nodes[:3]))
        repo.record_path(tuple(nodes[1:4]))
        assert repo.visits(tuple(nodes[:3])) == 1
        assert repo.visits(tuple(nodes[1:4])) == 1

    def test_cyclic_path_not_promoted(self):
        index, nodes = chain_index()
        repo = PathRepository(index, PromotionPolicy(base=2, min_visits=1))
        cyclic = (nodes[0], nodes[1], nodes[0])
        assert repo.record_path(cyclic) is None


class _AnnouncingLock:
    """A lock that calls ``arrived`` before each acquire."""

    def __init__(self, arrived) -> None:
        self._lock = threading.Lock()
        self._arrived = arrived

    def __enter__(self):
        self._arrived()
        return self._lock.__enter__()

    def __exit__(self, *exc):
        return self._lock.__exit__(*exc)


class _RacingVisits(dict):
    """D_P's visit counts, where every read lets the next racing close
    in before it returns its value."""

    def __init__(self, let_next_in) -> None:
        super().__init__()
        self._let_next_in = let_next_in

    def get(self, key, default=None):
        value = super().get(key, default)
        self._let_next_in()
        return value


def test_racing_closes_count_every_visit_and_promote_once():
    """Closes of one path race on its visit count. Each close's read is
    held open until the next close has either finished or is waiting
    for the repository's lock. Unlocked, every close reads 0 and writes
    1: all visits but one are lost and the threshold is never met.
    Locked, the closes serialize and exactly one promotes."""
    index, nodes = chain_index()
    repo = PathRepository(index, PromotionPolicy(base=8, min_visits=3))
    path = tuple(nodes[:4])
    closes = repo.policy.threshold(3) + 3
    mine = threading.local()
    threads: list[threading.Thread] = []
    results = []

    def close(settled: threading.Event) -> None:
        mine.settled = settled
        try:
            results.append(repo.record_path(path))
        finally:
            settled.set()

    def let_next_in() -> None:
        if len(threads) == closes:
            return
        settled = threading.Event()
        thread = threading.Thread(target=close, args=(settled,))
        threads.append(thread)
        thread.start()
        assert settled.wait(timeout=10)

    repo._visits = _RacingVisits(let_next_in)
    repo._lock = _AnnouncingLock(lambda: mine.settled.set())
    let_next_in()
    for thread in threads:
        thread.join(timeout=10)
    assert not any(thread.is_alive() for thread in threads)
    assert len(results) == closes
    assert repo.visits(path) == closes
    assert sum(result is not None for result in results) == 1
    assert len(repo.promoted) == 1


def test_racing_closes_under_a_short_switch_interval():
    """Stress: more threads than cores close one path, the interpreter
    switching threads every microsecond."""
    index, nodes = chain_index()
    repo = PathRepository(index, PromotionPolicy(base=8, min_visits=3))
    path = tuple(nodes[:4])
    threads, each = 8, 200
    start = threading.Barrier(threads)
    results = []

    def closes() -> None:
        start.wait(timeout=10)
        results.extend(repo.record_path(path) for __ in range(each))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=closes) for __ in range(threads)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(worker.is_alive() for worker in workers)
    assert repo.visits(path) == threads * each
    assert sum(result is not None for result in results) == 1
    assert len(repo.promoted) == 1
