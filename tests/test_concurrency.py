"""Concurrency stress suite (``-m concurrency``, excluded from tier 1).

Many client threads hammer one shared :class:`Quepa` on the real
runtime while a writer thread mutates stores (under ``store.lock``)
and the A' index. The properties under stress:

* no request raises, and every answer is well-formed (no torn reads);
* :class:`FrozenAIndex` snapshot generations observed by any one
  thread are monotonically non-decreasing (refreeze is race-free);
* :class:`LruCache` counters stay self-consistent under a counted
  concurrent hammering (``hits + misses == gets``);
* the serving layer pushes >= 1000 concurrent requests with zero
  drops: every request is accounted completed, and totals reconcile.

Run with ``PYTHONPATH=src python -m pytest -q -m concurrency``.
"""

from __future__ import annotations

import random
import threading

import pytest

from repro.core import Quepa
from repro.core.augmentation import AugmentationConfig
from repro.core.cache import LruCache
from repro.model import GlobalKey, PRelation
from repro.model.objects import DataObject
from repro.network import RealRuntime, centralized_profile
from repro.serving import LoadGenerator, QuepaServer, ServingConfig
from repro.workloads import PolystoreScale, build_polyphony
from repro.workloads.queries import QueryWorkload

pytestmark = pytest.mark.concurrency

K = GlobalKey.parse


def _fresh_quepa(config=None, time_scale=0.0):
    """A private bundle per test: the writer thread mutates it."""
    bundle = build_polyphony(
        stores=4, scale=PolystoreScale(n_albums=60), seed=9
    )
    profile = centralized_profile(list(bundle.polystore))
    quepa = Quepa(
        bundle.polystore,
        bundle.aindex,
        profile=profile,
        runtime=RealRuntime(profile, time_scale=time_scale),
        config=config,
    )
    return bundle, quepa


def _assert_well_formed(answer) -> None:
    """A served answer is structurally sound — never torn."""
    assert answer.stats.original_count == len(answer.originals)
    assert answer.stats.augmented_count == len(answer.augmented)
    for augmented in answer.augmented:
        assert 0.0 < augmented.probability <= 1.0
        assert augmented.path, "augmented object lost its provenance"
        assert augmented.source is not None


class _Writer:
    """Background mutator: inserts documents and grows the A' index."""

    def __init__(self, bundle, quepa) -> None:
        self.store = bundle.polystore.database("catalogue")
        self.aindex = quepa.aindex
        self.stop = threading.Event()
        self.writes = 0
        self.thread = threading.Thread(target=self._loop, daemon=True)

    def _loop(self) -> None:
        previous = None
        while not self.stop.is_set():
            i = self.writes
            doc_id = f"writer-{i}"
            with self.store.lock:
                self.store.insert(
                    "albums",
                    {"_id": doc_id, "title": f"Stress {i}", "seq": -1},
                )
            key = K(f"catalogue.albums.{doc_id}")
            if previous is not None:
                # Each add bumps the index generation, forcing readers
                # through the refreeze path over and over.
                self.aindex.add(PRelation.identity(previous, key, 0.6))
            previous = key
            self.writes += 1
            self.stop.wait(0.0005)

    def __enter__(self) -> "_Writer":
        self.thread.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop.set()
        self.thread.join(timeout=10)


def test_shared_quepa_survives_readers_plus_writer():
    """8 reader threads x 64 searches against a mutating polystore."""
    bundle, quepa = _fresh_quepa()
    workload = QueryWorkload(bundle)
    databases = [name for name, _ in bundle.databases]
    readers, per_reader = 8, 64
    baseline_generation = quepa.aindex.generation
    errors: list[BaseException] = []
    generation_regressions: list[tuple[int, int]] = []
    lock = threading.Lock()

    def reader(index: int) -> None:
        rng = random.Random(f"reader:{index}")
        last_generation = -1
        for _ in range(per_reader):
            database = rng.choice(databases)
            query = workload.query(
                database, rng.choice((8, 12)), variant=rng.randrange(4)
            ).query
            try:
                answer = quepa.serve_search(
                    database, query, level=rng.choice((1, 2))
                )
                _assert_well_formed(answer)
                snapshot = quepa.aindex.frozen()
                generation = snapshot.generation
                assert generation is not None
            except BaseException as exc:  # noqa: BLE001 - collected
                with lock:
                    errors.append(exc)
                return
            if generation < last_generation:
                with lock:
                    generation_regressions.append(
                        (last_generation, generation)
                    )
            last_generation = generation

    with _Writer(bundle, quepa) as writer:
        threads = [
            threading.Thread(target=reader, args=(i,))
            for i in range(readers)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

    assert not errors, f"concurrent searches raised: {errors[:3]}"
    assert not generation_regressions, (
        f"frozen generations went backwards: {generation_regressions[:3]}"
    )
    assert writer.writes > 0, "the writer thread never got a turn"
    # The writer's relations really landed while readers were active.
    assert quepa.aindex.generation > baseline_generation
    stats = quepa.cache.stats()
    assert stats["hits"] + stats["misses"] >= 0
    assert stats["size"] <= stats["capacity"]


def test_refreeze_generations_are_monotonic_under_writes():
    """Direct hammering of the publish path: concurrent frozen() calls
    interleaved with writes never observe a generation regression and
    never crash mid-publish — whether the publish patched the previous
    snapshot or compacted it, and the writer keeps going until the
    freezers have seen both."""
    bundle, quepa = _fresh_quepa()
    aindex = quepa.aindex
    aindex.frozen()  # the base every later publish patches or replaces
    stop = threading.Event()
    errors: list[BaseException] = []
    regressions: list[tuple[int, int]] = []
    #: Kinds of snapshot a freezer observed after the first publish.
    kinds: set[str] = set()
    lock = threading.Lock()

    def freezer() -> None:
        last = -1
        while not stop.is_set():
            try:
                snapshot = aindex.frozen()
                generation = snapshot.generation
                # The snapshot must be internally consistent: it was
                # built (base and overlay alike) under the index mutex.
                assert generation is not None
                head = K("catalogue.albums.freeze-0")
                assert (head in snapshot) == bool(snapshot.neighbor_arcs(head))
            except BaseException as exc:  # noqa: BLE001 - collected
                with lock:
                    errors.append(exc)
                return
            if generation < last:
                with lock:
                    regressions.append((last, generation))
            if generation > last > -1:
                kinds.add("patched" if snapshot.overlay_nodes else "compacted")
            last = generation

    def mutator() -> None:
        previous = K("catalogue.albums.freeze-0")
        for i in range(1, 20_000):
            if i >= 400 and kinds == {"patched", "compacted"}:
                break
            key = K(f"catalogue.albums.freeze-{i}")
            try:
                aindex.add(PRelation.matching(previous, key, 0.5))
            except BaseException as exc:  # noqa: BLE001 - collected
                with lock:
                    errors.append(exc)
                return
            previous = key
        stop.set()

    freezers = [threading.Thread(target=freezer) for _ in range(6)]
    writer = threading.Thread(target=mutator)
    for thread in freezers:
        thread.start()
    writer.start()
    writer.join(timeout=60)
    stop.set()
    for thread in freezers:
        thread.join(timeout=10)

    assert not errors, f"refreeze raced: {errors[:3]}"
    assert not regressions
    assert kinds == {"patched", "compacted"}
    assert aindex.refreezes > aindex.compactions > 1
    assert aindex.frozen().generation == aindex.generation


def test_lru_cache_counters_self_consistent_under_hammering():
    """``hits + misses`` equals the exact number of get() calls issued,
    even with concurrent putters evicting entries."""
    cache = LruCache(capacity=64)
    threads_n, gets_per_thread = 8, 2000
    keys = [K(f"db.coll.k{i}") for i in range(256)]
    objects = {
        key: DataObject(key=key, value={"i": i})
        for i, key in enumerate(keys)
    }
    errors: list[BaseException] = []
    lock = threading.Lock()

    def hammer(index: int) -> None:
        rng = random.Random(index)
        try:
            for _ in range(gets_per_thread):
                key = keys[rng.randrange(len(keys))]
                if cache.get(key) is None:
                    cache.put(objects[key])
        except BaseException as exc:  # noqa: BLE001 - collected
            with lock:
                errors.append(exc)

    threads = [
        threading.Thread(target=hammer, args=(i,))
        for i in range(threads_n)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()

    assert not errors
    stats = cache.stats()
    assert stats["hits"] + stats["misses"] == threads_n * gets_per_thread
    assert stats["size"] <= stats["capacity"]


def test_serving_layer_survives_1000_concurrent_requests():
    """Acceptance: >= 1000 requests through the scheduler with zero
    drops — every submission is accounted, none fail, none tear — and
    no thread left behind. A pooled augmenter on scaled real sleeps
    puts every request's worker pools, and the CPU debt their tasks
    settle as they end, under the same load."""
    bundle, quepa = _fresh_quepa(
        config=AugmentationConfig(
            augmenter="outer_batch", batch_size=8, threads_size=4
        ),
        time_scale=0.01,
    )
    workload = QueryWorkload(bundle)
    clients, per_client = 8, 125  # 1000 requests total
    threads_before = threading.active_count()
    with QuepaServer(
        quepa,
        ServingConfig(workers=8, queue_capacity=2048),
    ) as server:
        generator = LoadGenerator(
            server,
            workload,
            sizes=(8, 12),
            levels=(0, 1, 2),
            seed=17,
        )
        report = generator.run(clients, per_client)
        status = server.status()

    assert threading.active_count() == threads_before
    assert quepa.obs.metrics.counter("pool_tasks_total").value > 0
    assert report.completed == clients * per_client
    assert report.shed == 0 and report.failed == 0
    totals = status["totals"]
    assert totals["submitted"] == clients * per_client
    assert totals["completed"] == clients * per_client
    assert totals["failed"] == 0
    shed = totals["shed"]
    assert totals["submitted"] == (
        totals["admitted"]
        + shed["queue_full"]
        + shed["deadline_at_admission"]
    )
    assert totals["admitted"] == (
        totals["completed"]
        + totals["failed"]
        + shed["deadline"]
        + shed["stopped"]
    )
    # Every client saw an answer for every request (nothing dropped).
    for client_report in report.per_client:
        assert client_report.completed == per_client
        assert len(client_report.answer_sizes) == per_client
        assert all(size >= 0 for size in client_report.answer_sizes)
    assert status["latency_s"]["count"] == clients * per_client


def test_coalescing_and_hedging_survive_hot_hammering():
    """Stress single-flight itself: a hot-query pool makes most of the
    fleet issue identical requests at once (maximal contention on the
    flights). Zero drops, zero failures, ledgers reconcile. (The id
    predates the removal of hedged store calls.)"""
    bundle, quepa = _fresh_quepa()
    workload = QueryWorkload(bundle)
    clients, per_client = 8, 64
    config = ServingConfig(workers=8, queue_capacity=1024)
    with QuepaServer(quepa, config) as server:
        generator = LoadGenerator(
            server,
            workload,
            sizes=(8, 12),
            levels=(0, 1, 2),
            seed=23,
            hot_queries=6,
            hot_fraction=0.75,
        )
        report = generator.run(clients, per_client)
        status = server.status()

    assert report.completed == clients * per_client
    assert report.shed == 0 and report.failed == 0
    coalesce = status["accelerator"]["coalesce"]
    assert coalesce["leaders"] >= 1
    assert coalesce["wait_timeouts"] == 0, "a leader wedged"
    totals = status["totals"]
    assert totals["admitted"] == totals["completed"]


def test_mixed_priorities_under_stress_complete_everything():
    """Two fleets share the pool by session round-robin; under sustained
    full load neither is starved or dropped. (The id predates the
    removal of priority classes: the fleets were once two classes.)"""
    bundle, quepa = _fresh_quepa()
    workload = QueryWorkload(bundle)
    config = ServingConfig(workers=4, queue_capacity=1024)
    with QuepaServer(quepa, config) as server:
        interactive = LoadGenerator(
            server, workload, sizes=(8,), levels=(0, 1), seed=31,
        )
        batch = LoadGenerator(
            server, workload, sizes=(8,), levels=(0, 1), seed=32,
        )
        reports = {}

        def fleet(name, generator):
            reports[name] = generator.run(
                4, 40, session_prefix=name
            )

        threads = [
            threading.Thread(
                target=fleet, args=("interactive", interactive)
            ),
            threading.Thread(target=fleet, args=("batch", batch)),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        status = server.status()

    for name in ("interactive", "batch"):
        assert reports[name].completed == 4 * 40, f"{name} dropped work"
        assert reports[name].failed == 0
    totals = status["totals"]
    assert totals["completed"] == 2 * 4 * 40
    assert totals["failed"] == 0
