"""Sharding benchmark: placement trade-offs and scatter-gather speedup.

Sweeps shards {1, 2, 4} x placement {hash, range} over two workloads on
a 7-store centralized polystore:

* **entity-lookup** — a 1,000-result query augmented at level 1 with the
  BATCH augmenter: the fetch path is per-key ``multi_get`` routing, the
  augmentation hot path. Hash placement routes each key to exactly its
  owning shard (per-lookup fan-out 1) and the parallel scatter turns
  per-shard service time into concurrent work; range placement must
  probe every shard per key (fan-out = shards), the documented cost of
  token-based placement.
* **range-scan** — windowed native queries: range placement prunes the
  partitions whose token interval cannot overlap the window, hash
  placement has no window knowledge and scans every partition.

Acceptance floor asserted below: hash entity-lookup aggregate
throughput improves >= 1.5x from 1 to 4 shards, and per-lookup fan-out
stays 1 under hash vs = shards under range.
"""

from __future__ import annotations

import time

from repro.core import Quepa
from repro.core.augmentation import AugmentationConfig
from repro.network import centralized_profile
from repro.sharding import shard_aindex, shard_polystore
from repro.workloads import QueryWorkload

from .harness import write_bench_json

SHARD_COUNTS = (1, 2, 4)
PLACEMENTS = ("hash", "range")
LOOKUP_SIZE = 1_000
SCAN_WINDOWS = ((0, 100), (200, 300), (700, 800))

CONFIG = AugmentationConfig(augmenter="batch", batch_size=4096)


def _sharded_quepa(bundle, shards: int, placement: str):
    polystore = shard_polystore(
        bundle.polystore, shards=shards, placement=placement
    )
    aindex = (
        shard_aindex(bundle.aindex, shards=shards) if shards > 1
        else bundle.aindex
    )
    profile = centralized_profile(bundle.database_names())
    return Quepa(polystore, aindex, profile=profile), polystore


def _entity_lookup(bundle, quepa, level: int = 1):
    """One cold augmented entity-lookup query; virtual + wall times."""
    workload = QueryWorkload(bundle)
    query = workload.query("transactions", LOOKUP_SIZE)
    started = time.perf_counter()
    answer = quepa.augmented_search(
        query.database, query.query, level=level, config=CONFIG
    )
    wall = time.perf_counter() - started
    return answer, wall


def _per_lookup_fanout(polystore, bundle) -> float:
    """Mean shards probed per single-key lookup, from pure routing."""
    store = polystore.database("transactions")
    frozen = bundle.aindex.frozen()
    sampled = [
        key for key in frozen.nodes() if key.database == "transactions"
    ][:50]
    fanouts = [
        store.route_keys([key]).per_key_fanout for key in sampled
    ]
    return sum(fanouts) / len(fanouts)


def _range_scan(polystore) -> dict:
    """Windowed native scans; how many partitions ran vs were pruned."""
    store = polystore.database("transactions")
    before_scanned = store.partitions_scanned_total
    before_pruned = store.partitions_pruned_total
    rows = 0
    for lo, hi in SCAN_WINDOWS:
        rows += len(
            store.execute(
                f"SELECT * FROM inventory WHERE seq >= {lo} AND seq < {hi}"
            )
        )
    return {
        "rows": rows,
        "scanned": store.partitions_scanned_total - before_scanned,
        "pruned": store.partitions_pruned_total - before_pruned,
    }


def test_sharding_sweep(benchmark, bundle7, report):
    def run():
        points = []
        for placement in PLACEMENTS:
            for shards in SHARD_COUNTS:
                quepa, polystore = _sharded_quepa(
                    bundle7, shards, placement
                )
                answer, wall = _entity_lookup(bundle7, quepa)
                scan = _range_scan(polystore)
                points.append({
                    "placement": placement,
                    "shards": shards,
                    "workload": "entity_lookup",
                    "cold_s": round(answer.stats.elapsed, 6),
                    "cold_wall_s": round(wall, 6),
                    "queries": answer.stats.queries_issued,
                    "augmented": len(answer.augmented),
                    "throughput_objs_per_s": round(
                        LOOKUP_SIZE / answer.stats.elapsed, 2
                    ),
                    "per_lookup_fanout": round(
                        _per_lookup_fanout(polystore, bundle7), 3
                    ),
                    "scan_rows": scan["rows"],
                    "scan_partitions_scanned": scan["scanned"],
                    "scan_partitions_pruned": scan["pruned"],
                })
        return points

    points = benchmark.pedantic(run, rounds=1, iterations=1)
    by = {(p["placement"], p["shards"]): p for p in points}

    report.section(
        f"entity-lookup (size {LOOKUP_SIZE}, level 1, batch/4096) "
        "and windowed scans, 7 stores"
    )
    for point in points:
        report.row(**point)

    # Claim 1: hash placement routes every entity lookup to exactly its
    # owning shard; range placement must probe all of them.
    for shards in SHARD_COUNTS:
        assert by[("hash", shards)]["per_lookup_fanout"] == 1.0
        assert by[("range", shards)]["per_lookup_fanout"] == float(shards)

    # Claim 2 (acceptance floor): parallel scatter-gather buys >= 1.5x
    # aggregate entity-lookup throughput from 1 to 4 hash shards.
    speedup = (
        by[("hash", 4)]["throughput_objs_per_s"]
        / by[("hash", 1)]["throughput_objs_per_s"]
    )
    report.note(f"hash entity-lookup throughput 1->4 shards: {speedup:.2f}x")
    assert speedup >= 1.5, f"scatter speedup {speedup:.2f}x below 1.5x floor"

    # Claim 3: windowed scans prune partitions only under range
    # placement (token intervals); hash placement scans everything.
    for shards in (2, 4):
        assert by[("range", shards)]["scan_partitions_pruned"] > 0
        assert by[("hash", shards)]["scan_partitions_pruned"] == 0
        assert by[("hash", shards)]["scan_partitions_scanned"] == (
            shards * len(SCAN_WINDOWS)
        )

    # Claim 4: every configuration returns the same answer set sizes
    # (physical partitioning never changes the answer).
    sizes = {
        (p["augmented"], p["queries"] > 0, p["scan_rows"]) for p in points
    }
    assert len({(a, r) for a, __, r in sizes}) == 1

    path = write_bench_json("sharding", points)
    report.note(f"sweep written to {path.name}")


def test_sharding_smoke_two_shards(bundle7, report):
    """Fast CI smoke: a 2-shard hash deployment answers exactly like the
    unsharded system and routes entity lookups with fan-out 1."""
    plain = Quepa(
        bundle7.polystore, bundle7.aindex,
        profile=centralized_profile(bundle7.database_names()),
    )
    quepa, polystore = _sharded_quepa(bundle7, 2, "hash")
    workload = QueryWorkload(bundle7)
    query = workload.query("transactions", 100)

    expected = plain.augmented_search(
        query.database, query.query, level=1, config=CONFIG
    )
    answer = quepa.augmented_search(
        query.database, query.query, level=1, config=CONFIG
    )
    assert {str(o.key) for o in answer.originals} == {
        str(o.key) for o in expected.originals
    }
    assert {
        (str(o.key), round(o.probability, 12)) for o in answer.augmented
    } == {
        (str(o.key), round(o.probability, 12)) for o in expected.augmented
    }
    assert _per_lookup_fanout(polystore, bundle7) == 1.0
    # The graph's query is a ``match`` with a LIMIT: the engine merges the
    # shards' matches into the one unsharded answer (not a LIMIT each).
    graph = workload.query("similar", 100)
    graph_answers = [
        system.augmented_search(
            graph.database, graph.query, level=1, config=CONFIG
        )
        for system in (plain, quepa)
    ]
    signatures = {
        (
            tuple(str(o.key) for o in found.originals),
            frozenset(
                (str(o.key), round(o.probability, 12)) for o in found.augmented
            ),
        )
        for found in graph_answers
    }
    assert len(signatures) == 1  # same originals, in order; same augmented
    assert len(graph_answers[1].originals) == 100
    report.row(
        shards=2, placement="hash",
        originals=len(answer.originals), augmented=len(answer.augmented),
    )
    report.note("2-shard smoke: answers identical, per-lookup fan-out 1")
