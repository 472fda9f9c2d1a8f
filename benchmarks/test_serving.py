"""Serving benchmark: throughput and tail latency vs concurrent clients.

Not a paper figure — the paper drives QUEPA one query at a time — but
the roadmap's serving layer needs its own evidence: a closed-loop
client fleet (seeded, deterministic scripts) against one shared Quepa
on the *real* runtime with scaled store latencies (``time_scale=1``:
virtual store roundtrips become real, GIL-releasing sleeps, so
concurrency genuinely overlaps them).

Checked claims (cold: fresh cache per point, real store roundtrips, a
shared hot-query pool, single-flight coalescing on, closed system, 8
workers, a fixed total request count):

* every sweep point serves at least the QPS committed for it while
  ``RealRuntime`` still slept once per CPU charge (``SLEEP_FLOOR_QPS``):
  paying CPU as a debt may only make a point faster;
* throughput scales from 1 to 8 clients by at least
  ``OVERLAP_FRACTION`` of what the interpreter lock allows. The model:
  a request of mean latency ``L`` spends ``S`` inside sleeps, which
  release the lock and overlap across threads, and ``L - S`` running
  Python, which holds it and cannot. ``N`` closed-loop clients
  therefore complete at most ``min(N / L, 1 / (L - S))`` requests a
  second, against ``1 / L`` for one client: a ceiling of
  ``min(N, 1 / (1 - f))`` with ``f = S / L``. ``f`` is measured on the
  1-client point, where nothing overlaps and nothing is shared: ``S`` is
  the modelled seconds the runtime was asked to sleep per request,
  (``cpu_seconds_total`` + the sum over stores of ``store_queries_total``
  x roundtrip) x ``time_scale`` / requests, and ``L`` the load report's
  mean latency. A sleep never returns early and coalesced followers
  skip work a lone client must do, so the measured scaling can exceed
  the ceiling; a serving layer that held a lock across its sleeps
  would scale 1.0x, i.e. ``1 - f`` of it (~0.64 here);
* no request is shed or failed at any client count (ample queue);
* tail latency is reported (p50/p95/p99) and grows no worse than the
  client count would explain;
* the coalescer's ledger rides along: each sweep point reports the
  coalesce hit-rate it measured;
* the virtual-time guard numbers of Fig 9 stay bit-identical — the
  serving layer must not perturb the deterministic cost model.

Outputs ``results/serving_throughput_scales_with_clients.txt`` and
``results/BENCH_serving.json``.
"""

from __future__ import annotations

import re
from pathlib import Path

from repro.core import Quepa
from repro.core.augmentation import AugmentationConfig
from repro.network import RealRuntime, centralized_profile
from repro.serving import LoadGenerator, QuepaServer, ServingConfig
from repro.workloads import QueryWorkload

from .harness import run_cold_warm, write_bench_json

CLIENT_COUNTS = (1, 2, 4, 8)
TOTAL_REQUESTS = 48  # per sweep point, split across the clients
WORKERS = 8
TIME_SCALE = 1.0
SEED = 17
#: Shared hot-query pool: half the planned requests come from a pool of
#: eight, so concurrent clients issue identical queries at the same
#: time — the workload shape single-flight coalescing exists for.
HOT_QUERIES = 8
HOT_FRACTION = 0.5
#: QPS per client count committed in
#: ``results/serving_throughput_scales_with_clients.txt`` while
#: ``RealRuntime.cpu()`` slept once per charge (the timer floor, ~67 us,
#: ~320 times a request). No point may fall back below it.
SLEEP_FLOOR_QPS = {1: 51.67, 2: 92.01, 4: 127.81, 8: 158.95}
#: Share of the interpreter-lock ceiling ``1 / (1 - f)`` the 1 -> 8
#: client scaling must reach (module docstring). The 2.59x this
#: replaces was measured with the sleep floor in place, when most of a
#: request was sleep to overlap; with the floor gone ``f`` is ~0.35, the
#: ceiling ~1.55x, and ten measured sweeps reached 1.05-1.43 of it.
OVERLAP_FRACTION = 0.85


def _make_server(bundle):
    profile = centralized_profile(list(bundle.polystore))
    quepa = Quepa(
        bundle.polystore,
        bundle.aindex,
        profile=profile,
        runtime=RealRuntime(profile, time_scale=TIME_SCALE),
    )
    return QuepaServer(
        quepa,
        ServingConfig(workers=WORKERS, queue_capacity=4 * TOTAL_REQUESTS),
    )


def _sweep_point(bundle, clients: int):
    """One *cold* measured pass at one client count.

    Each point gets a fresh Quepa (own cold cache): requests pay real
    store roundtrips, so concurrency genuinely overlaps them and the
    hot-query pool gives the coalescer identical concurrent fetches to
    share. Returns the load report, the coalescer's stats and the
    seconds the runtime was asked to sleep over the whole point.
    """
    per_client = TOTAL_REQUESTS // clients
    workload = QueryWorkload(bundle)
    with _make_server(bundle) as server:
        generator = LoadGenerator(
            server,
            workload,
            sizes=(8, 12),
            levels=(1,),
            seed=SEED,
            hot_queries=HOT_QUERIES,
            hot_fraction=HOT_FRACTION,
        )
        measured = generator.run(clients, per_client)
        status = server.status()
        quepa = server.quepa
    coalesce = status["accelerator"]["coalesce"]
    metrics = quepa.obs.metrics
    modelled = metrics.counter("cpu_seconds_total").value + sum(
        metrics.counter("store_queries_total", database=database).value
        * quepa.profile.site(database).roundtrip
        for database in bundle.polystore
    )
    return measured, coalesce, modelled * TIME_SCALE


def test_serving_throughput_scales_with_clients(benchmark, bundle4, report):
    results = benchmark.pedantic(
        lambda: {
            clients: _sweep_point(bundle4, clients)
            for clients in CLIENT_COUNTS
        },
        rounds=1,
        iterations=1,
    )

    report.section(
        f"Serving: cold QPS + tail latency vs clients "
        f"({WORKERS} workers, time_scale={TIME_SCALE}, "
        f"{TOTAL_REQUESTS} requests/point, coalesce on, "
        f"hot pool {HOT_QUERIES}@{HOT_FRACTION})"
    )
    for clients, (load, coalesce, slept) in results.items():
        report.row(
            clients=clients,
            qps=load.qps,
            p50_ms=load.latency_p50 * 1000,
            p95_ms=load.latency_p95 * 1000,
            p99_ms=load.latency_p99 * 1000,
            completed=load.completed,
            shed=load.shed,
            failed=load.failed,
            coalesce_hit=coalesce["hit_rate"],
            modelled_sleep_ms=slept / load.completed * 1000,
        )

    # Claim 3: ample queue — nothing shed, nothing failed, no drops.
    for clients, (load, *_) in results.items():
        assert load.completed == TOTAL_REQUESTS, (
            f"{clients} clients: dropped requests"
        )
        assert load.shed == 0 and load.failed == 0

    # Claim 1: no point is slower than it was under per-charge sleeps.
    for clients, (load, *_) in results.items():
        assert load.qps >= SLEEP_FLOOR_QPS[clients], (
            f"{clients} clients: {load.qps:.1f} QPS is below the "
            f"{SLEEP_FLOOR_QPS[clients]} committed with the sleep floor"
        )

    # Claim 2: 1->8 scaling against the interpreter-lock ceiling.
    one, _, slept = results[1]
    sleep_share = slept / one.completed / one.latency_mean
    ceiling = min(8.0, 1.0 / (1.0 - sleep_share))
    scaling = results[8][0].qps / one.qps
    report.note(
        f"throughput scaling 1->8 clients: {scaling:.2f}x "
        f"(sleep share f={sleep_share:.3f}, lock ceiling {ceiling:.2f}x, "
        f"{scaling / ceiling:.2f} of it)"
    )
    assert scaling >= OVERLAP_FRACTION * ceiling, (
        f"expected >= {OVERLAP_FRACTION} of the {ceiling:.2f}x the "
        f"interpreter lock allows at f={sleep_share:.3f}, got "
        f"{scaling:.2f}x ({one.qps:.1f} -> {results[8][0].qps:.1f} QPS)"
    )
    # More clients should not *reduce* throughput anywhere on the curve.
    assert results[8][0].qps >= results[2][0].qps * 0.9

    # Claim 4: per-request tail latency stays bounded — in a closed
    # system with as many workers as clients it must not blow up
    # superlinearly with the client count.
    p95_1 = max(results[1][0].latency_p95, 1e-9)
    assert results[8][0].latency_p95 <= p95_1 * 8 * 2.0

    # Claim 5: the coalescer's ledger holds at every point.
    for clients, (_, coalesce, _) in results.items():
        assert coalesce["leaders"] > 0
        assert coalesce["wait_timeouts"] == 0

    sweeps = [
        {
            "clients": clients,
            "workers": WORKERS,
            "time_scale": TIME_SCALE,
            "requests": load.completed,
            "qps": round(load.qps, 3),
            "p50_ms": round(load.latency_p50 * 1000, 3),
            "p95_ms": round(load.latency_p95 * 1000, 3),
            "p99_ms": round(load.latency_p99 * 1000, 3),
            "mean_ms": round(load.latency_mean * 1000, 3),
            "cold_wall_s": round(load.wall_s, 6),
            "modelled_sleep_ms": round(slept / load.completed * 1000, 3),
            "coalesce_hit_rate": round(coalesce["hit_rate"], 4),
            "coalesce_leaders": coalesce["leaders"],
            "coalesce_followers": coalesce["followers"],
        }
        for clients, (load, coalesce, slept) in results.items()
    ]
    path = write_bench_json("serving", sweeps)
    report.note(f"QPS/latency sweep written to {path.name}")


# -- the virtual-time guard must hold under the serving layer ---------------

GUARD_RESULTS = (
    Path(__file__).resolve().parent / "results"
    / "fig09_batch_size_sweep.txt"
)
GUARD_POINTS = (("batch", 16), ("outer_batch", 256))
_COLD = re.compile(
    r"augmenter=(\w+)\s+batch_size=(\d+)\s+cold_s=([\d.]+)\s+queries=(\d+)"
)


def test_fig09_guard_numbers_bit_identical(bundle10):
    """Re-assert (inside the benchmark suite) that the committed Fig 9
    virtual-time numbers are untouched: the serving layer adds wall
    clocks and locks, never virtual cost."""
    committed = {}
    for line in GUARD_RESULTS.read_text().splitlines():
        if match := _COLD.search(line):
            augmenter, batch_size, cold_s, queries = match.groups()
            committed[(augmenter, int(batch_size))] = (cold_s, int(queries))
    workload = QueryWorkload(bundle10)
    query = workload.query("transactions", 1000)
    for augmenter, batch_size in GUARD_POINTS:
        expected_cold, expected_queries = committed[(augmenter, batch_size)]
        config = AugmentationConfig(
            augmenter=augmenter, batch_size=batch_size,
            threads_size=4, cache_size=200_000,
        )
        times = run_cold_warm(bundle10, query, config, level=0)
        assert f"{times.cold:.6f}" == expected_cold
        assert times.queries_issued == expected_queries
