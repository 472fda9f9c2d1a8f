"""Run probing is the per-probe loop, bit for bit.

The augmenters used to charge ``ctx.cpu`` and call ``cache.get`` once
per planned fetch. They now probe in *runs* (``BoundedLru.get_many``),
charge a run in bulk (``ExecContext.cpu_repeat``) and keep what
materialized as columns until the answer is ranked. The per-probe loop
they replaced lives here as the reference, and every comparison below is
``==`` — on floats too: a run makes the same probes in the same order
and the same float additions in the same order, so there is no
tolerance to grant.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.aindex import AIndex
from repro.core.augmentation import (
    Augmentation,
    AugmentationConfig,
    AugmentationPlan,
)
from repro.core.augmenters import make_augmenter
from repro.core.augmenters.base import AugmentationOutcome, Augmenter
from repro.core.cache import BoundedLru, LruCache
from repro.core.connectors import ConnectorRegistry
from repro.core.system import Quepa
from repro.core.search import SearchStats, assemble_answer, result_seeds
from repro.model.objects import DataObject, GlobalKey
from repro.model.prelations import PRelation
from repro.network import RealRuntime, VirtualRuntime, centralized_profile
from repro.workloads import PolystoreScale, build_polyphony

from .conftest import make_mini_polystore
from .reference_interpreters import reference_rank

K = GlobalKey.parse
ALL_AUGMENTERS = (
    "sequential", "batch", "inner", "outer", "outer_batch", "outer_inner",
)


# ---------------------------------------------------------------------------
# (a) get_many is the loop of get
# ---------------------------------------------------------------------------


def reference_get_many(cache, keys, start, first_miss_ends):
    """``get`` per key of ``keys[start:]``, up to the first miss when
    ``first_miss_ends``."""
    values, misses = [], 0
    for key in keys[start:]:
        value = cache.get(key)
        values.append(value)
        if value is None:
            misses += 1
            if first_miss_ends:
                break
    return values, misses


KEYS = st.sampled_from("abcdefgh")


@given(
    capacity=st.integers(0, 6),
    stored=st.lists(KEYS, max_size=12),
    runs=st.lists(
        st.tuples(
            st.lists(KEYS, max_size=16),
            st.integers(0, 18),
            st.booleans(),
        ),
        min_size=1,
        max_size=4,
    ),
)
@settings(max_examples=200)
def test_get_many_is_the_loop_of_get(capacity, stored, runs):
    fast, twin = BoundedLru(capacity), BoundedLru(capacity)
    for cache in (fast, twin):
        cache.put_many((key, key.upper()) for key in stored)
    for keys, start, first_miss_ends in runs:
        ends_run = (lambda index: True) if first_miss_ends else None
        assert fast.get_many(keys, start, ends_run) == reference_get_many(
            twin, keys, start, first_miss_ends
        )
        assert fast.items() == twin.items()
        assert fast.stats() == twin.stats()


def reference_ends_run(cache, keys, start, ends_at, calls):
    """``get`` per key of ``keys[start:]``, ending after a miss at an
    index in ``ends_at``; every miss's index is appended to ``calls``."""
    values, misses = [], 0
    for index in range(start, len(keys)):
        value = cache.get(keys[index])
        values.append(value)
        if value is None:
            misses += 1
            calls.append(index)
            if index in ends_at:
                break
    return values, misses


@given(
    capacity=st.integers(0, 6),
    stored=st.lists(KEYS, max_size=12),
    runs=st.lists(
        st.tuples(
            st.lists(KEYS, max_size=16),
            st.integers(0, 18),
            st.sets(st.integers(0, 16), max_size=5),
        ),
        min_size=1,
        max_size=4,
    ),
)
@settings(max_examples=200)
def test_get_many_ending_runs_is_the_loop_of_get(capacity, stored, runs):
    """``ends_run`` sees every miss, in order, and ends the run on the
    one it says: values, misses, counters and recency are the loop's."""
    fast, twin = BoundedLru(capacity), BoundedLru(capacity)
    for cache in (fast, twin):
        cache.put_many((key, key.upper()) for key in stored)
    for keys, start, ends_at in runs:
        seen, expected_seen = [], []

        def ends_run(index):
            seen.append(index)
            return index in ends_at

        assert fast.get_many(keys, start, ends_run) == (
            reference_ends_run(twin, keys, start, ends_at, expected_seen)
        )
        assert seen == expected_seen
        assert fast.items() == twin.items()
        assert fast.stats() == twin.stats()


# ---------------------------------------------------------------------------
# (b) cpu_repeat is count calls of cpu
# ---------------------------------------------------------------------------

CHARGES = st.sampled_from([0.0, -1.0, 1e-9, 2.5e-7, 3.3e-6, 0.1, 1 / 3])
STEPS = st.lists(st.tuples(CHARGES, st.integers(0, 300)), max_size=6)


def _contexts(make_runtime):
    profile = centralized_profile(["transactions", "catalogue"])
    runtimes = make_runtime(profile), make_runtime(profile)
    return [(runtime, runtime.root()) for runtime in runtimes]


def _cpu_counter(runtime) -> float:
    return runtime.obs.metrics.counter("cpu_seconds_total").value


@given(steps=STEPS)
@settings(max_examples=100)
def test_cpu_repeat_is_repeated_cpu_on_the_virtual_clock(steps):
    (fast_rt, fast), (slow_rt, slow) = _contexts(VirtualRuntime)
    for seconds, count in steps:
        fast.cpu_repeat(seconds, count)
        for __ in range(count):
            slow.cpu(seconds)
        assert fast.now == slow.now
        assert fast.demand == slow.demand
        assert _cpu_counter(fast_rt) == _cpu_counter(slow_rt)


@given(steps=STEPS, time_scale=st.sampled_from([0.0, 1.0]))
@settings(max_examples=100)
def test_cpu_repeat_is_repeated_cpu_on_the_real_clock(steps, time_scale):
    # Nothing settles, so nothing sleeps: the debt only accumulates.
    (fast_rt, fast), (slow_rt, slow) = _contexts(
        lambda profile: RealRuntime(profile, time_scale=time_scale)
    )
    for seconds, count in steps:
        fast.cpu_repeat(seconds, count)
        for __ in range(count):
            slow.cpu(seconds)
        assert fast._debt == slow._debt
        assert _cpu_counter(fast_rt) == _cpu_counter(slow_rt)


# ---------------------------------------------------------------------------
# (c) the six strategies against the per-probe loop
# ---------------------------------------------------------------------------


class PerProbeAugmenter(Augmenter):
    """The six strategies as they probed before runs: ``ctx.cpu`` and
    ``cache.get`` once per planned fetch, in plan order. Fetching and
    accounting are the production helpers; probing, charging and the
    order rows land in are what is compared."""

    def __init__(self, strategy, registry, cache):
        super().__init__(registry, cache)
        self.strategy = strategy

    def _run(self, ctx, plan, config):
        return getattr(self, f"_{self.strategy}")(ctx, plan, config)

    def _hit(self, ctx, row, into) -> bool:
        ctx.cpu(self._probe_cost)
        cached = self.cache.get(self._keys[row])
        if cached is None:
            return False
        into.cache_hits += 1
        into.values.append(cached)
        into.rows.append(row)
        return True

    def _fill(self, ctx, plan, config, outcome, flush):
        groups = {}
        for row, key in enumerate(plan.keys):
            if self._hit(ctx, row, outcome):
                continue
            group = groups.setdefault(key.database, [])
            group.append(row)
            if len(group) >= config.batch_size:
                flush(key.database, group)
                groups[key.database] = []
        for database, group in groups.items():
            if group:
                flush(database, group)

    def _sequential(self, ctx, plan, config):
        outcome = AugmentationOutcome()
        for row in range(plan.total_fetches()):
            if not self._hit(ctx, row, outcome):
                self._fetch_single(ctx, row, outcome)
        return outcome

    def _batch(self, ctx, plan, config):
        outcome = AugmentationOutcome()
        self._fill(
            ctx, plan, config, outcome,
            lambda database, group: self._fetch_group(
                ctx, database, group, outcome
            ),
        )
        return outcome

    def _inner(self, ctx, plan, config):
        outcome = AugmentationOutcome()
        for start, stop in zip(plan.bounds, plan.bounds[1:]):
            pool = None
            for row in range(start, stop):
                if self._hit(ctx, row, outcome):
                    continue
                if pool is None:
                    pool = ctx.pool(config.threads_size)
                pool.submit(self._single_worker(row))
            if pool is not None:
                for part in pool.join():
                    outcome.absorb(part)
        return outcome

    def _outer(self, ctx, plan, config):
        def seed_worker(start, stop):
            def task(child):
                part = AugmentationOutcome()
                for row in range(start, stop):
                    if not self._hit(child, row, part):
                        self._fetch_single(child, row, part)
                return part

            return task

        return self._pool_seeds(ctx, plan, config.threads_size, seed_worker)

    def _outer_batch(self, ctx, plan, config):
        outcome = AugmentationOutcome()
        pool = ctx.pool(config.threads_size)

        def group_worker(database, group):
            def task(child):
                part = AugmentationOutcome()
                self._fetch_group(child, database, group, part)
                return part

            return task

        self._fill(
            ctx, plan, config, outcome,
            lambda database, group: pool.submit(group_worker(database, group)),
        )
        for part in pool.join():
            outcome.absorb(part)
        return outcome

    def _outer_inner(self, ctx, plan, config):
        half = max(1, config.threads_size // 2)

        def seed_worker(start, stop):
            def task(child):
                part = AugmentationOutcome()
                inner_pool = child.pool(half)
                for row in range(start, stop):
                    if not self._hit(child, row, part):
                        inner_pool.submit(self._single_worker(row))
                for fetched in inner_pool.join():
                    part.absorb(fetched)
                return part

            return task

        return self._pool_seeds(ctx, plan, half, seed_worker)


class PerObjectPutCache(LruCache):
    """``put_many`` as the ``put`` per fetched object ``_fetch_group``
    used to make: the reference for what a flush leaves in the cache,
    in which order, and how many evictions it counts."""

    def put_many(self, objects):
        for obj in objects:
            self.put(obj)


@pytest.fixture(scope="module")
def bundle():
    """A private bundle: nothing here writes to it."""
    return build_polyphony(stores=4, scale=PolystoreScale(n_albums=60), seed=5)


def answer_signature(outcome):
    answer = assemble_answer([], outcome, SearchStats())
    return [
        (str(entry.key), str(entry.source), entry.probability, entry.path)
        for entry in answer.augmented
    ]


def observe(make, bundle, plans, config, cache_class=LruCache):
    """Run ``plans`` one after the other on one cache with augmenters
    from ``make`` (``make_augmenter`` or the reference class);
    everything a search reports, per run."""
    registry = ConnectorRegistry(bundle.polystore)
    cache = cache_class(config.cache_size)
    profile = centralized_profile([name for name, __ in bundle.databases])
    seen = []
    for plan in plans:
        runtime = VirtualRuntime(profile)
        ctx = runtime.root()
        outcome = make(config.augmenter, registry, cache).execute(
            ctx, plan, config
        )
        seen.append(
            {
                "signature": answer_signature(outcome),
                "rows": [
                    (
                        value.key,
                        value.value,
                        plan.keys[row],
                        plan.probabilities[row],
                        plan.sources[row],
                        plan.path(row),
                    )
                    for value, row in zip(outcome.values, outcome.rows)
                ],
                "elapsed": runtime.elapsed,
                "demand": ctx.demand,
                "queries_issued": outcome.queries_issued,
                "store_queries": runtime.meter.total_queries,
                "cache_hits": outcome.cache_hits,
                "missing": outcome.missing,
                "cache": [(key, obj.value) for key, obj in cache.items()],
                "cache_stats": cache.stats(),
            }
        )
    return seen


@pytest.mark.parametrize("batch_size", (1, 4, 64))
@pytest.mark.parametrize("cache_size", (0, 8, 200_000))
@pytest.mark.parametrize("name", ALL_AUGMENTERS)
@given(
    windows=st.lists(
        st.tuples(st.integers(0, 59), st.integers(1, 8)),
        min_size=1,
        max_size=3,
    ),
    database=st.sampled_from(["transactions", "catalogue"]),
    level=st.integers(0, 1),
    threads_size=st.sampled_from([1, 4]),
)
@settings(
    max_examples=5,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_strategies_equal_the_per_probe_loop(
    bundle, name, cache_size, batch_size, windows, database, level,
    threads_size,
):
    """Overlapping searches on one cache: the later ones probe what the
    earlier ones put and, at ``cache_size`` 8, evicted."""
    planner = Augmentation(bundle.aindex)
    plans = [
        planner.plan(
            [
                bundle.entity_key(database, (first + offset) % 60)
                for offset in range(count)
            ],
            level,
        )
        for first, count in windows
    ]
    config = AugmentationConfig(
        name, batch_size, threads_size, cache_size=cache_size
    )
    assert observe(make_augmenter, bundle, plans, config) == observe(
        PerProbeAugmenter, bundle, plans, config, PerObjectPutCache
    )


def full_groups(plan, batch_size) -> tuple[int, bool]:
    """With every probe a miss: how many times a database group fills,
    and whether the plan's last row fills one."""
    sizes: dict[str, int] = {}
    fills, last_filled = 0, False
    for key in plan.keys:
        sizes[key.database] = sizes.get(key.database, 0) + 1
        last_filled = sizes[key.database] == batch_size
        if last_filled:
            fills += 1
            sizes[key.database] = 0
    return fills, last_filled


@pytest.mark.parametrize("batch_size", (1, 3, 8))
@pytest.mark.parametrize("name", ("batch", "outer_batch"))
def test_a_cold_plan_is_probed_in_one_run_per_flush(
    bundle, name, batch_size, monkeypatch
):
    """Every probe misses: a run ends where a group fills, so the runs
    are the groups that fill, plus one for the rows after the last."""
    plan = Augmentation(bundle.aindex).plan(
        [bundle.entity_key("transactions", seq) for seq in range(12)], 1
    )
    runs, flushes = [], []
    get_many, fetch_group = LruCache.get_many, Augmenter._fetch_group

    def counted_get_many(cache, *args):
        runs.append(args[1])
        return get_many(cache, *args)

    def counted_fetch_group(augmenter, ctx, database, group, into):
        flushes.append(len(group))
        return fetch_group(augmenter, ctx, database, group, into)

    monkeypatch.setattr(LruCache, "get_many", counted_get_many)
    monkeypatch.setattr(Augmenter, "_fetch_group", counted_fetch_group)
    config = AugmentationConfig(name, batch_size, 4, cache_size=0)
    registry = ConnectorRegistry(bundle.polystore)
    ctx = VirtualRuntime(
        centralized_profile([name for name, __ in bundle.databases])
    ).root()
    outcome = make_augmenter(name, registry, LruCache(0)).execute(
        ctx, plan, config
    )
    fills, last_filled = full_groups(plan, batch_size)
    assert fills and flushes.count(batch_size) == fills
    assert outcome.probe_runs == len(runs) == fills + (not last_filled)
    assert outcome.cache_hits == 0


def test_the_augment_span_counts_the_probe_runs(bundle):
    quepa = Quepa(
        bundle.polystore,
        bundle.aindex,
        config=AugmentationConfig("outer_batch", 4, 4, cache_size=0),
    )
    answer = quepa.augmented_search(
        "transactions", "SELECT * FROM inventory WHERE seq < 6", level=1
    )
    plan = quepa.augmentation.plan(result_seeds(answer.originals), 1)
    fills, last_filled = full_groups(plan, 4)
    (augment,) = [s for s in quepa.obs.tracer.spans() if s.name == "augment"]
    assert augment.attrs["probe_runs"] == fills + (not last_filled)
    assert augment.attrs["probe_runs"] < plan.total_fetches() / 2


# ---------------------------------------------------------------------------
# (d) ranking columns is ranking built objects: ties keep their winner
# ---------------------------------------------------------------------------


def ranked(raw_augmented):
    return assemble_answer([], raw_augmented, SearchStats()).augmented


@given(
    rows=st.lists(
        st.tuples(
            st.integers(0, 5),  # target
            st.integers(0, 5),  # seed (equal to the target: dropped)
            st.sampled_from([0.25, 0.5, 0.5, 1.0]),
        ),
        max_size=30,
    )
)
@settings(max_examples=200)
def test_ranking_columns_is_ranking_objects(rows):
    nodes = [GlobalKey("db", "c", f"n{i}") for i in range(6)]
    # A plan never has a row keyed by its own seed: the planner drops
    # the seed, so such a row is made here only to be left out.
    rows = [(t, seed, p) for t, seed, p in rows if t != seed]
    plan = AugmentationPlan(
        0,
        [],
        keys=[nodes[t] for t, __, __ in rows],
        probabilities=[p for __, __, p in rows],
        sources=[nodes[seed] for __, seed, __ in rows],
        nodes=[t for t, __, __ in rows],
        parents=[-1] * len(rows),
        hop_of=lambda node: (nodes[node],),
    )
    outcome = AugmentationOutcome(plan=plan)
    for row, (target, __, __) in enumerate(rows):
        outcome.values.append(DataObject(nodes[target], {"n": target}))
        outcome.rows.append(row)
    expected = reference_rank(outcome.objects)
    assert ranked(outcome) == expected
    assert ranked(outcome.objects) == expected
    # Dataclass equality is by key only for the object: pin the rest.
    assert [
        (e.object.value, e.probability, e.source) for e in ranked(outcome)
    ] == [(e.object.value, e.probability, e.source) for e in expected]


@given(
    name=st.sampled_from(ALL_AUGMENTERS),
    probability=st.sampled_from([0.5, 0.8, 1.0]),
    swapped=st.booleans(),
    batch_size=st.sampled_from([1, 2, 64]),
    cache_size=st.sampled_from([0, 1, 64]),
)
@settings(max_examples=60, deadline=None)
def test_equal_probabilities_keep_todays_winner(
    name, probability, swapped, batch_size, cache_size
):
    """Two seeds reach one key with the same probability. Whichever row
    the strategy materializes first wins — the first seed's, unless a
    later seed's cache hit overtakes a fetch still in a pool — and that
    is the winner the per-probe loop and the object ranking chose."""
    target = K("discount.drop.k1:cure:wish")
    seeds = [K("transactions.inventory.a32"), K("transactions.inventory.a34")]
    if swapped:
        seeds.reverse()
    index = AIndex()
    for seed in seeds:
        index.add(PRelation.matching(seed, target, probability))
    polystore = make_mini_polystore()
    plan = Augmentation(index).plan(seeds, level=0)
    config = AugmentationConfig(name, batch_size, 4, cache_size=cache_size)
    winners = []
    for make in (make_augmenter, PerProbeAugmenter):
        registry = ConnectorRegistry(polystore)
        cache = LruCache(cache_size)
        for __ in ("cold", "warm"):
            ctx = VirtualRuntime(centralized_profile(list(polystore))).root()
            outcome = make(name, registry, cache).execute(ctx, plan, config)
            (winner,) = ranked(outcome)
            assert [winner] == reference_rank(outcome.objects)
            assert winner.key == target
            winners.append(winner.source)
    assert winners[:2] == winners[2:]
    if name == "sequential":
        assert winners[0] == seeds[0]
