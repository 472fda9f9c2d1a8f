"""Observability overhead guard: the flight recorder must be ~free.

Three claims, each cheap enough for CI:

* **Wall clock** — serving an identical deterministic workload with the
  flight recorder attached costs less than 5% over running with it
  detached (plus a small absolute slack so sub-second baselines don't
  turn scheduler jitter into failures). Min-of-repeats on both sides —
  the minimum is the noise-free estimate of the code path's cost.
* **Aged server** — the same budget holds on a server that has served
  long enough for the tracer to evict whole traces (the state every
  long-lived process is in), and the last request's digest still
  carries a latency breakdown: what a request pays for telemetry does
  not grow with the server's age, and its spans are still there.
* **Virtual time** — tracing and recorder reads never charge the
  virtual clock: an augmented search observed into a recorder (spans
  folded into a breakdown, digest retained) reports bit-identical
  ``stats.elapsed`` to an undisturbed run. The tier-1 fig09 guard pins
  the same property against the committed seed results; this point
  asserts it with the recorder actually in the loop.

Outputs ``results/observability_overhead.txt``.
"""

from __future__ import annotations

import time

from repro.core import Quepa
from repro.network import RealRuntime, centralized_profile
from repro.obs import FlightRecorder, RequestDigest, latency_breakdown
from repro.serving import QuepaServer, ServingConfig
from repro.workloads import PolystoreScale, QueryWorkload, build_polyphony

from .conftest import RESULTS_DIR

REPEATS = 3
REQUESTS = 96
WORKERS = 4
#: Tolerated recorder cost: 5% of the detached baseline, floored at
#: 50ms so sub-second baselines don't fail on scheduler noise.
RELATIVE_SLACK = 0.05
ABSOLUTE_SLACK = 0.05
#: The aged case's span budget: small enough that a few dozen warm-up
#: requests fill it (the default 10 000 takes ~1 700), large enough to
#: hold the spans of every request the workers have in flight.
AGED_MAX_SPANS = 1_000


def _bundle():
    return build_polyphony(
        stores=4, scale=PolystoreScale(n_albums=120), seed=7
    )


def _script(bundle):
    """A deterministic request mix: 3 databases x 2 levels, repeated."""
    workload = QueryWorkload(bundle)
    queries = [
        ("transactions", workload.query("transactions", 40, variant=1).query),
        ("catalogue", workload.query("catalogue", 40, variant=2).query),
        ("discount", workload.query("discount", 40, variant=0).query),
    ]
    plan = []
    for i in range(REQUESTS):
        database, query = queries[i % len(queries)]
        plan.append((database, query, i % 2))
    return plan

def _serve_script(bundle, flight_recorder: bool, aged: bool = False):
    """Serve the scripted workload once; returns (wall_s, digests).

    ``aged`` first serves the script until the tracer has evicted a
    trace, and retains every completion's digest.
    """
    profile = centralized_profile(list(bundle.polystore))
    quepa = Quepa(
        bundle.polystore,
        bundle.aindex,
        profile=profile,
        runtime=RealRuntime(profile),
    )
    config = ServingConfig(
        workers=WORKERS,
        queue_capacity=REQUESTS,  # open-loop submit: nothing may shed
        flight_recorder=flight_recorder,
    )
    script = _script(bundle)
    with QuepaServer(quepa, config) as server:
        if aged and flight_recorder:
            server.scheduler.recorder = FlightRecorder(slow_threshold=1e-9)
        if aged:
            tracer = quepa.obs.tracer
            tracer.max_spans = AGED_MAX_SPANS
            while tracer.evicted == 0:
                for database, query, level in script[:WORKERS]:
                    server.search("warmup", database, query, level=level)
        started = time.perf_counter()
        tickets = [
            server.submit_search(f"s{i % 4}", database, query, level=level)
            for i, (database, query, level) in enumerate(script)
        ]
        for ticket in tickets:
            ticket.result(60.0)
        elapsed = time.perf_counter() - started
        digests = server.records()
    return elapsed, digests


def _drive(bundle, flight_recorder: bool) -> tuple[float, int]:
    """Serve the scripted workload once; returns (wall_s, digests_kept)."""
    elapsed, digests = _serve_script(bundle, flight_recorder)
    return elapsed, len(digests)


def test_flight_recorder_wall_clock_overhead(capsys):
    bundle = _bundle()
    detached = []
    attached = []
    kept = 0
    for _ in range(REPEATS):
        detached.append(_drive(bundle, flight_recorder=False)[0])
        wall, run_kept = _drive(bundle, flight_recorder=True)
        attached.append(wall)
        kept = max(kept, run_kept)
    base, with_recorder = min(detached), min(attached)
    budget = base * (1.0 + RELATIVE_SLACK) + ABSOLUTE_SLACK

    lines = [
        f"requests={REQUESTS} workers={WORKERS} repeats={REPEATS}",
        f"recorder_detached_s={base:.4f}",
        f"recorder_attached_s={with_recorder:.4f}",
        f"overhead={(with_recorder / base - 1.0) * 100.0:+.2f}%"
        f" (budget {RELATIVE_SLACK * 100.0:.0f}% + {ABSOLUTE_SLACK}s)",
        f"digests_kept={kept}",
    ]
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "observability_overhead.txt").write_text(
        "\n".join(lines) + "\n"
    )
    with capsys.disabled():
        print("\n" + "\n".join(lines))

    # The attached runs must have produced digests — otherwise the guard
    # would be comparing the recorder against itself switched off.
    assert kept > 0
    assert with_recorder <= budget, (
        f"flight recorder overhead {with_recorder - base:.4f}s over a "
        f"{base:.4f}s baseline exceeds the {budget - base:.4f}s budget"
    )


def test_flight_recorder_overhead_on_an_aged_server(capsys):
    bundle = _bundle()
    detached = []
    attached = []
    last = None
    for _ in range(REPEATS):
        detached.append(_serve_script(bundle, False, aged=True)[0])
        wall, digests = _serve_script(bundle, True, aged=True)
        attached.append(wall)
        last = digests[-1]
    base, with_recorder = min(detached), min(attached)
    budget = base * (1.0 + RELATIVE_SLACK) + ABSOLUTE_SLACK
    with capsys.disabled():
        print(
            f"\naged (max_spans={AGED_MAX_SPANS}): "
            f"recorder_detached_s={base:.4f} "
            f"recorder_attached_s={with_recorder:.4f} "
            f"overhead={(with_recorder / base - 1.0) * 100.0:+.2f}%"
        )

    # Past saturation a request still leaves its spans behind.
    assert last["status"] == "completed"
    assert last["breakdown"]["store_calls"] > 0
    assert with_recorder <= budget, (
        f"aged-server recorder overhead {with_recorder - base:.4f}s over "
        f"a {base:.4f}s baseline exceeds the {budget - base:.4f}s budget"
    )


def test_virtual_elapsed_bit_identical_with_recorder_observing():
    bundle = _bundle()
    query = QueryWorkload(bundle).query("transactions", 40, variant=1).query

    plain = Quepa(bundle.polystore, bundle.aindex)
    baseline_cold = plain.augmented_search(
        "transactions", query, level=1
    ).stats.elapsed
    baseline_warm = plain.augmented_search(
        "transactions", query, level=1
    ).stats.elapsed

    observed = Quepa(bundle.polystore, bundle.aindex)
    recorder = FlightRecorder(slow_threshold=1e-12)
    elapsed = []
    for request_id in (1, 2):
        answer = observed.augmented_search("transactions", query, level=1)
        elapsed.append(answer.stats.elapsed)
        retained = recorder.observe(
            RequestDigest(
                trace_id=f"t-{request_id:06d}",
                request_id=request_id,
                session="bench",
                kind="search",
                status="completed",
                latency_s=answer.stats.elapsed,
                breakdown=latency_breakdown(observed.obs.tracer.spans()),
            )
        )
        assert retained
    assert elapsed[0] == baseline_cold
    assert elapsed[1] == baseline_warm
    assert recorder.records()[0].breakdown["store_calls"] > 0
