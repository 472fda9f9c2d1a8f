"""The benchmark spine's one command.

Two ways to call it:

``python3 benchmarks/spine/run.py --workload W --seed N --seconds S --trace 0|1``
    One run of one workload in this process. Prints a human-readable
    report, then as the last line of standard output one JSON object
    ``{"correct", "attempted", "failed", "metrics"}`` holding the
    end-to-end metrics (``--trace 0``) or the per-layer metrics
    (``--trace 1``). This is the form the benchmark driver uses.

``python3 benchmarks/spine/run.py [--workload W]... [--seed N] [--repeats N] [--smoke] [--out FILE]``
    The whole spine: every workload ``--repeats`` times untraced plus
    once traced, each in a fresh child process, medians with min/max
    printed per metric, and a result file ``compare.py`` can read.

Both exit non-zero when an answer differs from the oracle, a workload
shape guard trips or a trace invariant breaks.
"""

from __future__ import annotations

import time

_PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

SPINE = Path(__file__).resolve().parent
ROOT = SPINE.parents[1]
for entry in (str(ROOT / "src"), str(ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from benchmarks.spine import spec  # noqa: E402

#: Scratch space of a run (WAL, snapshots, span files); git-ignored.
OUT = SPINE / "out"
DETAIL_PREFIX = "# detail "


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated quantile of ``values`` (``0 <= q <= 1``)."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def end_to_end(part, setup_s: float, rss_mb: float) -> dict[str, float]:
    """Wall-clock values are stated at reference-host speed."""
    searches = len(part.latencies)
    to_ms = 1000.0 / part.host_factor
    return {
        "setup_s": setup_s,
        "queries_per_s": searches / part.measured * part.host_factor,
        "query_p50_ms": percentile(part.latencies, 0.50) * to_ms,
        "query_p95_ms": percentile(part.latencies, 0.95) * to_ms,
        "virtual_ms_per_query": part.virtual_seconds / searches * 1000.0,
        "peak_rss_mb": rss_mb,
    }


def ingest_metrics(part) -> dict[str, float]:
    """The user-visible ingest numbers (all zero without pumps)."""
    if not part.pumps:
        return dict.fromkeys(spec.INGEST_BOUNDS, 0.0)
    to_ms = 1000.0 / part.host_factor
    return {
        "ingest_events_per_s": (
            part.events / part.ingest_seconds * part.host_factor
        ),
        "freshness_p50_ms": percentile(part.freshness, 0.50) * to_ms,
        "freshness_p95_ms": percentile(part.freshness, 0.95) * to_ms,
    }


def run_one(args: argparse.Namespace) -> int:
    """One workload, one process; returns the exit code."""
    from benchmarks.spine import workloads
    from benchmarks.spine.hostspeed import HostSpeed
    from benchmarks.spine.trace import Tracer

    imports_s = time.perf_counter() - _PROCESS_START
    speed = HostSpeed()
    scale = workloads.SMOKE if args.smoke else workloads.FULL
    workload = workloads.make(args.workload, scale, args.seed, OUT, speed)
    setups = []
    for repeat in range(spec.SETUPS_PER_RUN):
        if repeat:
            workload.close()
        gc.collect()
        speed.burst()
        start = time.perf_counter()
        workload.setup()
        setups.append(time.perf_counter() - start)
    speed.burst()
    setup_factor = speed.factor()
    setup_s = (imports_s + statistics.median(setups)) / setup_factor
    # The stores stand in for external databases: keep the collector from
    # sweeping their heap during the timed interval (a full collection
    # over it costs ~100 ms and lands on whichever op triggers it).
    gc.collect()
    gc.freeze()

    tracer = None
    notes: list[str] = []
    try:
        if args.trace:
            # Half the interval untraced, half traced, on one continuing
            # script: their per-op wall gives the tracing overhead.
            budget = workloads.Budget(args.seconds / 2.0, scale.blocks)
            plain = workload.measure(budget, None)
            tracer = Tracer()
            tracer.install(workload.context_classes())
            traced = workload.measure(budget, tracer)
            plan_hits = (tracer.plan_cache_hits, tracer.plan_calls)
            parts = [plain, traced]
        else:
            budget = workloads.Budget(args.seconds, scale.blocks)
            plain = workload.measure(budget, None)
            parts = [plain]
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        measured_at = time.perf_counter()
        for part in parts:
            workload.guard(part)
        attempted, failed = workload.verify(parts, tracer)
        if tracer is not None:
            tracer.uninstall()
        # Probes and restarts are one thread of Python on every workload.
        extras_mark = speed.mark()
        speed.burst()
        extras = workload.extras(bool(args.trace))
        speed.burst()
        extras = at_reference_speed(extras, speed.factor(extras_mark))
        checked_at = time.perf_counter()
    except workloads.GuardError as error:
        print(f"GUARD FAILED: {error}", file=sys.stderr)
        return 2
    finally:
        if tracer is not None:
            tracer.uninstall()
        workload.close()

    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "digest": workload.input_digest(),
        "searches": len(plain.latencies),
        "measured_s": plain.measured,
        "setup_runs_s": setups,
        "imports_s": imports_s,
        "host_factor": {"setup": setup_factor, "measured": plain.host_factor},
        "check_s": checked_at - measured_at,
        "answers": hashlib.blake2b(
            repr(sorted(plain.answers)).encode("utf-8"), digest_size=8
        ).hexdigest(),
        "counters": plain.counters,
        "ingest": ingest_metrics(plain),
        "freshness_samples": len(plain.freshness),
    }
    if args.trace:
        attribution = tracer.attribute(check_sum=workload.sequential)
        tracer.write_spans(OUT / f"spans-{args.workload}.jsonl")
        notes += attribution.violations[:10]
        if attribution.violations:
            failed += len(attribution.violations)
        metrics = per_layer(
            workload, plain, traced, plan_hits, attribution, extras,
            failed / attempted,
        )
        detail["shares"] = {
            kind: attribution.layer_shares(kind) for kind in attribution.ops
        }
        detail["traced_searches"] = len(traced.latencies)
        detail["spans"] = len(tracer.spans)
        detail["blocking_path_claimed"] = workload.sequential
        declared = spec.PER_LAYER
    else:
        metrics = end_to_end(plain, setup_s, rss_mb)
        declared = spec.END_TO_END
    units = {metric.name: metric.unit for metric in declared}
    if set(metrics) != set(units):
        raise AssertionError(
            f"metrics emitted and declared differ: "
            f"{sorted(set(metrics) ^ set(units))}"
        )

    samples = len(plain.latencies)
    print(f"{args.workload} seed={args.seed} trace={args.trace} "
          f"searches={samples} measured={plain.measured:.3f}s")
    for name, value in metrics.items():
        print(f"  {name:45s} {value:14.6f} {units[name]}")
    for note in notes:
        print(f"  ! {note}")
    print(DETAIL_PREFIX + json.dumps(detail, sort_keys=True))
    correct = failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }))
    return 0 if correct else 1


def per_layer(
    workload, plain, traced, plan_hits, attribution, extras, failed_ratio
) -> dict[str, float]:
    """Every declared per-layer metric; layers a workload never enters
    read zero."""
    values = dict.fromkeys((metric.name for metric in spec.PER_LAYER), 0.0)
    for metric in spec.PER_LAYER:
        if metric.spans:
            values[metric.name] = attribution.self_ms(metric.per, metric.spans)
    values.update(workload.layer_values(traced, attribution))
    values = at_reference_speed(values, traced.host_factor)
    values.update(extras)
    values.update(ingest_metrics(plain))
    values["core.augmentation.plan_cache_hit_ratio"] = (
        plan_hits[0] / plan_hits[1] if plan_hits[1] else 0.0
    )
    per_search = [
        part.measured / len(part.latencies) / part.host_factor
        for part in (plain, traced)
    ]
    values["trace.overhead_ratio"] = per_search[1] / per_search[0] - 1.0
    values["failed_ratio"] = failed_ratio
    return values


_MS_METRICS = frozenset(
    metric.name for metric in spec.PER_LAYER if metric.unit.startswith("ms")
)


def at_reference_speed(values: dict[str, float], factor: float) -> dict[str, float]:
    """``values`` with the per-layer times divided by a host factor."""
    return {
        name: value / factor if name in _MS_METRICS else value
        for name, value in values.items()
    }


# ---------------------------------------------------------------------------
# The whole spine: children, medians, result file
# ---------------------------------------------------------------------------


def child(args: argparse.Namespace, workload: str, trace: int) -> dict:
    """Run one workload in a fresh process; its result plus detail."""
    command = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(trace),
    ]
    if args.smoke:
        command.append("--smoke")
    environment = dict(os.environ, PYTHONHASHSEED="0")
    done = subprocess.run(
        command, capture_output=True, text=True, env=environment, cwd=ROOT
    )
    lines = done.stdout.strip().splitlines()
    if done.returncode not in (0, 1) or len(lines) < 2:
        sys.stderr.write(done.stdout + done.stderr)
        raise SystemExit(
            f"{workload} (trace {trace}) exited with {done.returncode}"
        )
    result = json.loads(lines[-1])
    result["detail"] = json.loads(lines[-2][len(DETAIL_PREFIX):])
    return result


def summarize(values: list[float]) -> dict[str, float]:
    return {
        "median": statistics.median(values),
        "min": min(values),
        "max": max(values),
    }


def environment_record(args: argparse.Namespace) -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True,
            cwd=ROOT,
        ).stdout.strip() or "unknown"
    except OSError:
        commit = "unknown"
    return {
        "commit": commit,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "seed": args.seed,
        "seconds": args.seconds,
        "smoke": args.smoke,
        "repeats": args.repeats,
        "setups_per_run": spec.SETUPS_PER_RUN,
        "clock": "perf_counter",
        "wal_flush": "flush() per batch, no fsync (the program's default)",
        "load_1min_before": os.getloadavg()[0],
    }


def run_all(args: argparse.Namespace) -> int:
    names = args.workload or [workload.name for workload in spec.WORKLOADS]
    environment = environment_record(args)
    environment["noisy"] = environment["load_1min_before"] > (os.cpu_count() or 1)
    results: dict[str, dict] = {}
    ok = True
    for name in names:
        runs = [child(args, name, 0) for __ in range(args.repeats)]
        traced = child(args, name, 1)
        digests = {json.dumps(run["detail"]["digest"], sort_keys=True)
                   for run in runs + [traced]}
        if len(digests) != 1:
            raise SystemExit(f"{name}: runs disagree on their input digest")
        metrics = {
            metric.name: summarize(
                [run["metrics"][metric.name]["value"] for run in runs]
            )
            for metric in spec.END_TO_END
        }
        for ingest_name in spec.INGEST_BOUNDS:
            metrics[ingest_name] = summarize(
                [run["detail"]["ingest"][ingest_name] for run in runs]
            )
        attempted = sum(run["attempted"] for run in runs + [traced])
        failed = sum(run["failed"] for run in runs + [traced])
        metrics["failed_ratio"] = summarize([failed / attempted])
        ok = ok and failed == 0
        results[name] = {
            "digest": runs[0]["detail"]["digest"],
            "answers": runs[0]["detail"]["answers"],
            "searches": [run["detail"]["searches"] for run in runs],
            "freshness_samples": runs[0]["detail"]["freshness_samples"],
            "end_to_end": metrics,
            "per_layer": {
                key: entry["value"] for key, entry in traced["metrics"].items()
            },
            "shares": traced["detail"]["shares"],
            "blocking_path_claimed": traced["detail"]["blocking_path_claimed"],
        }
        report(name, results[name])
    environment["load_1min_after"] = os.getloadavg()[0]
    payload = {"environment": environment, "workloads": results, "claim": None}
    if args.out:
        Path(args.out).write_text(json.dumps(payload, indent=2) + "\n")
        print(f"result written to {args.out}")
    if environment["noisy"]:
        print("NOISY: the 1-minute load average exceeded nproc at the start")
    return 0 if ok else 1


def report(name: str, result: dict) -> None:
    units = {metric.name: metric.unit for metric in spec.END_TO_END}
    units.update(
        {metric.name: metric.unit for metric in spec.PER_LAYER}
    )
    print(f"== {name}  searches per run {result['searches']}")
    for metric, summary in result["end_to_end"].items():
        print(
            f"  {metric:45s} {summary['median']:14.4f} {units[metric]:12s}"
            f" [{summary['min']:.4f} .. {summary['max']:.4f}]"
        )
    print("  -- per layer (traced run)")
    for metric, value in result["per_layer"].items():
        if metric not in result["end_to_end"]:
            print(f"  {metric:45s} {value:14.4f} {units[metric]}")
    for kind, shares in result["shares"].items():
        listed = ", ".join(
            f"{layer} {share:.1%}" for layer, share in shares.items()
            if share >= 0.005
        )
        print(f"  -- share of {kind} wall: {listed}")
    if not result["blocking_path_claimed"]:
        print("  -- spans overlap here: per-layer times are busy time, "
              "not the blocking path")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", action="append",
        choices=[workload.name for workload in spec.WORKLOADS],
    )
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        # The benchmark measures the checkout it sits in, never an
        # installed copy of the program.
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 3
    if args.trace is None:
        return run_all(args)
    if len(args.workload or ()) != 1:
        parser.error("--trace runs exactly one --workload")
    args.workload = args.workload[0]
    if os.environ.get("PYTHONHASHSEED") != "0":
        # Cache stripes and several sets hash strings: pin the hash seed
        # so that eviction counts repeat from process to process.
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable] + sys.argv)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
