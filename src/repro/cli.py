"""Command-line interface: ``python -m repro <command>``.

Commands:

``demo``
    Build the Fig 1 mini polystore and run Lucy's augmented query.
``generate --stores N --albums M --out DIR``
    Generate a Polyphony polystore variant and snapshot it to disk.
``query --snapshot DIR --database DB --query Q [--level L] [--augmenter A]``
    Run one augmented query against a snapshot and print the answer.
``inspect --snapshot DIR``
    Print a snapshot's databases, object counts and index size.
``explore --snapshot DIR --database DB --query Q [--steps N]``
    Run an automatic exploration (always following the strongest link).
``stats --snapshot DIR --database DB --query Q [--level L] ...``
    Run one augmented query and print its observability breakdown:
    per-store latency/query/object counts, cache behaviour, span-kind
    timings (see :mod:`repro.obs`).
``trace --snapshot DIR --database DB --query Q [--level L] ...``
    Run one augmented query and print its span tree on the virtual
    timeline (``--format=chrome`` emits Chrome trace-event JSON that
    opens in Perfetto).
``explain --snapshot DIR --database DB --query Q [--level L] [--analyze]``
    EXPLAIN (or EXPLAIN ANALYZE) an augmented query: store access path,
    A' index traversal, pool/batching decisions, optimizer rule
    firings, estimated vs actual rows and queries.
``plan --snapshot DIR --database DB --query Q [--targets A,B] [--execute]``
    Enumerate the cross-store physical plans of one query (A'-index
    push-down, collect-and-join, ETL cast, multi-model import), print
    each plan's estimated cost and the planner's pick; ``--execute``
    also runs the winner (see :mod:`repro.planner`).
``events --snapshot DIR --database DB --query Q [--slow-ms T] ...``
    Run one augmented query with the event journal armed and print the
    recorded events (slow queries, lazy deletions, run completions).
``faults --snapshot DIR --database DB --query Q --inject SPEC ...``
    Run one augmented query under an injected fault schedule (specs
    look like ``db:kind[:k=v,...]``, kinds: fail/stall/truncate/flap)
    with the resilience layer armed, then print whether the answer
    degraded, the breaker states and the injection/retry counters.
``serve --snapshot DIR [--port P] [--workers N] ...``
    Serve a snapshot over HTTP through the multi-session scheduler
    (:mod:`repro.serving`): bounded admission queue, per-session
    fairness, deadlines. ``GET /serving`` reports live status.
``loadgen --stores N --albums M --clients C --requests R ...``
    Build a Polyphony polystore in memory, start an embedded server,
    and drive it with the seeded closed-loop load generator; prints
    QPS and latency percentiles (``--json`` for machine-readable).
``slo --clients C --requests R [--latency-threshold S] ...``
    Drive the embedded server with seeded load, then report SLO
    compliance: measured availability and latency against their
    objectives, with error-budget burn rates from the live histograms.
``ingest --stores N --albums M --updates U [--batch B] [--workdir DIR]``
    Stream seeded store mutations through the CDC pipeline
    (:mod:`repro.cdc`): bootstrap an incremental collector, pump change
    batches through the WAL into A' index deltas, take an incremental
    snapshot and finish with a warm restart that replays only the delta.
``record --clients C --requests R [--status S] [--session X] ...``
    Drive the embedded server with seeded load, then dump the flight
    recorder: the shed/failed/degraded/slow requests it retained, each
    with trace id, queue wait, latency and critical-path breakdown.

The CLI prints with :class:`~repro.ui.render.TextRenderer` (pass
``--color`` for the ANSI renderer, the terminal face of the paper's
probability colors).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Sequence

from repro.core import Quepa
from repro.core.augmentation import AugmentationConfig
from repro.errors import ReproError
from repro.persistence import load_snapshot, save_snapshot
from repro.stores.querycache import parse_cache_stats
from repro.ui.render import AnsiRenderer, TextRenderer
from repro.workloads import MusicGenerator, PolystoreScale, build_polyphony


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="QUEPA: augmented access to a polystore (ICDE 2018 "
                    "reproduction)",
    )
    parser.add_argument("--color", action="store_true",
                        help="render probabilities with ANSI colors")
    commands = parser.add_subparsers(dest="command", required=True)

    commands.add_parser("demo", help="run the paper's running example")

    generate = commands.add_parser(
        "generate", help="generate a Polyphony polystore snapshot"
    )
    generate.add_argument("--stores", type=int, default=4)
    generate.add_argument("--albums", type=int, default=500)
    generate.add_argument("--seed", type=int, default=42)
    generate.add_argument("--out", required=True)

    query = commands.add_parser("query", help="run one augmented query")
    _add_query_args(query)

    stats = commands.add_parser(
        "stats", help="run one query and print its metrics breakdown"
    )
    _add_query_args(stats)

    trace = commands.add_parser(
        "trace", help="run one query and print its span tree"
    )
    _add_query_args(trace)
    trace.add_argument("--limit", type=int, default=100,
                       help="maximum number of span lines to print")
    trace.add_argument("--format", choices=("tree", "chrome"),
                       default="tree", dest="trace_format",
                       help="tree (default) or Chrome trace-event JSON")
    trace.add_argument("--trace-id", default=None, dest="trace_id",
                       help="serve the query as a request and print only "
                            "the spans of this trace id (the first "
                            "request's is t-000001)")

    explain = commands.add_parser(
        "explain", help="explain how an augmented query would run"
    )
    _add_query_args(explain)
    explain.add_argument("--analyze", action="store_true",
                         help="also execute and report actual rows/time")
    explain.add_argument("--json", action="store_true", dest="as_json",
                         help="print the report as JSON")

    plan = commands.add_parser(
        "plan", help="enumerate and cost cross-store physical plans"
    )
    _add_query_args(plan)
    plan.add_argument("--targets", default=None,
                      help="comma-separated augmentation target databases "
                           "(default: every database)")
    plan.add_argument("--execute", action="store_true",
                      help="also execute the chosen plan and report its run")
    plan.add_argument("--json", action="store_true", dest="as_json",
                      help="print the plan report as JSON")

    events = commands.add_parser(
        "events", help="run one query and print the event journal"
    )
    _add_query_args(events)
    events.add_argument("--slow-ms", type=float, default=None,
                        help="arm the slow-query log at this threshold")
    events.add_argument("--jsonl", default=None,
                        help="also append events to this JSONL file")
    events.add_argument("--min-severity", default=None,
                        choices=("debug", "info", "warning", "error"))
    events.add_argument("--limit", type=int, default=50,
                        help="maximum number of events to print")

    faults = commands.add_parser(
        "faults", help="run one query under an injected fault schedule"
    )
    _add_query_args(faults)
    faults.add_argument(
        "--inject", action="append", default=[], metavar="SPEC",
        help="fault spec 'db:kind[:k=v,...]' (repeatable); kinds: "
             "fail, stall, truncate, flap",
    )
    faults.add_argument("--fault-seed", type=int, default=0,
                        help="seed of the fault schedule RNG")
    faults.add_argument("--retries", type=int, default=3,
                        help="retry attempts per store call")
    faults.add_argument("--breaker-threshold", type=int, default=5,
                        help="consecutive failures that trip a breaker")
    faults.add_argument("--timeout-budget", type=float, default=None,
                        help="per-augmentation budget in virtual seconds")
    faults.add_argument("--json", action="store_true", dest="as_json",
                        help="print the fault report as JSON")

    serve = commands.add_parser(
        "serve", help="serve a snapshot over HTTP via the scheduler"
    )
    serve.add_argument("--snapshot", required=True)
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8080,
                       help="HTTP port (0 picks a free port)")
    _add_serving_args(serve)
    serve.add_argument("--duration", type=float, default=None,
                       help="run for this many seconds then exit "
                            "(default: until interrupted)")

    loadgen = commands.add_parser(
        "loadgen", help="drive an embedded server with seeded load"
    )
    _add_loadgen_args(loadgen)
    loadgen.add_argument("--json", action="store_true", dest="as_json",
                         help="print the load report as JSON")

    slo = commands.add_parser(
        "slo", help="drive seeded load, then report SLO burn rates"
    )
    _add_loadgen_args(slo)
    slo.add_argument("--availability-objective", type=float, default=0.99,
                     dest="availability_objective",
                     help="target completed/finished fraction")
    slo.add_argument("--latency-threshold", type=float, default=1.0,
                     dest="latency_threshold",
                     help="completed requests must finish within this "
                          "many seconds...")
    slo.add_argument("--latency-objective", type=float, default=0.95,
                     dest="latency_objective",
                     help="...for at least this fraction of completions")
    slo.add_argument("--json", action="store_true", dest="as_json",
                     help="print the SLO report as JSON")

    record = commands.add_parser(
        "record", help="drive seeded load, then dump the flight recorder"
    )
    _add_loadgen_args(record)
    record.add_argument("--capacity", type=int, default=256,
                        help="digests the recorder retains")
    record.add_argument("--slow-threshold", type=float, default=None,
                        dest="slow_threshold",
                        help="absolute slow cutoff in seconds "
                             "(default: adaptive rolling p95)")
    record.add_argument("--session", default=None,
                        help="only digests of this session")
    record.add_argument("--status", default=None,
                        choices=("completed", "failed", "shed"),
                        help="only digests with this outcome")
    record.add_argument("--limit", type=int, default=None,
                        help="keep only the newest N digests")
    record.add_argument("--json", action="store_true", dest="as_json",
                        help="print the digests as JSON")

    ingest = commands.add_parser(
        "ingest",
        help="incremental ingestion demo: CDC feeds -> WAL -> A' deltas",
    )
    ingest.add_argument("--stores", type=int, default=4)
    ingest.add_argument("--albums", type=int, default=60)
    ingest.add_argument("--seed", type=int, default=42)
    ingest.add_argument("--updates", type=int, default=30,
                        help="seeded store mutations to stream through CDC")
    ingest.add_argument("--batch", type=int, default=10,
                        help="mutations between hub pumps")
    ingest.add_argument("--workdir", default=None,
                        help="directory for the WAL and the incremental "
                             "snapshot; also demonstrates a warm restart")
    ingest.add_argument("--json", action="store_true", dest="as_json",
                        help="machine-readable ingest report")

    inspect = commands.add_parser("inspect", help="describe a snapshot")
    inspect.add_argument("--snapshot", required=True)

    explore = commands.add_parser(
        "explore", help="walk the strongest links from a query"
    )
    explore.add_argument("--snapshot", required=True)
    explore.add_argument("--database", required=True)
    explore.add_argument("--query", required=True)
    explore.add_argument("--steps", type=int, default=3)
    return parser


def _add_query_args(subparser) -> None:
    subparser.add_argument("--snapshot", required=True)
    subparser.add_argument("--database", required=True)
    subparser.add_argument("--query", required=True)
    subparser.add_argument("--level", type=int, default=0)
    subparser.add_argument("--augmenter", default=None)
    subparser.add_argument("--batch-size", type=int, default=64)
    subparser.add_argument("--threads-size", type=int, default=4)
    subparser.add_argument("--shards", type=int, default=1,
                           help="partition every store and the A' index "
                                "into this many shards (1 = unsharded)")
    subparser.add_argument("--placement", default="hash",
                           choices=("hash", "range"),
                           help="shard placement scheme when --shards > 1")


def _add_loadgen_args(subparser) -> None:
    """Polystore + serving + workload knobs of the embedded-load family
    (``loadgen``, ``slo``, ``record``)."""
    subparser.add_argument("--stores", type=int, default=4)
    subparser.add_argument("--albums", type=int, default=120)
    subparser.add_argument("--seed", type=int, default=42)
    _add_serving_args(subparser)
    subparser.add_argument("--clients", type=int, default=4)
    subparser.add_argument("--requests", type=int, default=10,
                           help="requests per client")
    subparser.add_argument("--size", type=int, default=16,
                           help="workload query result-size knob")
    subparser.add_argument("--level", type=int, default=1,
                           help="augmentation level of generated queries")
    subparser.add_argument("--zipf-s", type=float, default=0.0,
                           dest="zipf_s",
                           help="Zipf exponent for key-window skew "
                                "(0 = legacy uniform variants)")


def _add_serving_args(subparser) -> None:
    subparser.add_argument("--workers", type=int, default=4,
                           help="scheduler worker threads")
    subparser.add_argument("--queue-capacity", type=int, default=64,
                           help="admission queue bound (backpressure)")
    subparser.add_argument("--max-inflight", type=int, default=2,
                           help="per-session concurrent-request cap")
    subparser.add_argument("--deadline", type=float, default=None,
                           help="default per-request deadline, seconds")
    subparser.add_argument("--time-scale", type=float, default=0.0,
                           help="scale factor for simulated store "
                                "latencies on the real runtime "
                                "(0 disables sleeping)")
    subparser.add_argument("--hedge", action="store_true",
                           help="hedge slow store calls with a backup "
                                "after the learned p95 delay")
    subparser.add_argument("--no-coalesce", action="store_false",
                           dest="coalesce",
                           help="disable single-flight coalescing of "
                                "identical concurrent store fetches")


def main(argv: Sequence[str] | None = None, out=None) -> int:
    out = out or sys.stdout
    args = build_parser().parse_args(argv)
    renderer = AnsiRenderer() if args.color else TextRenderer()
    try:
        if args.command == "demo":
            return _demo(renderer, out)
        if args.command == "generate":
            return _generate(args, out)
        if args.command == "query":
            return _query(args, renderer, out)
        if args.command == "stats":
            return _stats(args, out)
        if args.command == "trace":
            return _trace(args, out)
        if args.command == "explain":
            return _explain(args, out)
        if args.command == "plan":
            return _plan(args, out)
        if args.command == "events":
            return _events(args, out)
        if args.command == "faults":
            return _faults(args, out)
        if args.command == "serve":
            return _serve(args, out)
        if args.command == "loadgen":
            return _loadgen(args, out)
        if args.command == "slo":
            return _slo(args, out)
        if args.command == "record":
            return _record(args, out)
        if args.command == "ingest":
            return _ingest(args, out)
        if args.command == "inspect":
            return _inspect(args, out)
        if args.command == "explore":
            return _explore(args, renderer, out)
    except ReproError as exc:
        print(f"error: {exc}", file=out)
        return 1
    return 0  # pragma: no cover - argparse enforces a command


def _demo(renderer: TextRenderer, out) -> int:
    # Imported lazily: examples/ is not part of the installed package.
    from repro.model import GlobalKey, Polystore, PRelation
    from repro.core import AIndex
    from repro.stores import (
        DocumentStore, GraphStore, KeyValueStore, RelationalStore,
    )
    from repro.stores.relational.types import Column, ColumnType, TableSchema

    polystore = Polystore()
    sales = RelationalStore()
    sales.create_table(
        "inventory",
        TableSchema(
            columns=[
                Column("id", ColumnType.TEXT, nullable=False),
                Column("artist", ColumnType.TEXT),
                Column("name", ColumnType.TEXT),
            ],
            primary_key="id",
        ),
    )
    sales.insert_row(
        "inventory", {"id": "a32", "artist": "Cure", "name": "Wish"}
    )
    polystore.attach("transactions", sales)
    catalogue = DocumentStore()
    catalogue.insert(
        "albums",
        {"_id": "d1", "title": "Wish", "artist": "The Cure", "year": 1992},
    )
    polystore.attach("catalogue", catalogue)
    discounts = KeyValueStore(keyspace="drop")
    discounts.set("k1:cure:wish", "40%")
    polystore.attach("discount", discounts)
    graph = GraphStore()
    graph.create_node("Item", {"title": "Wish"}, node_id="i1")
    polystore.attach("similar", graph)

    aindex = AIndex()
    key = GlobalKey.parse
    aindex.add(PRelation.identity(
        key("catalogue.albums.d1"), key("transactions.inventory.a32"), 0.9))
    aindex.add(PRelation.identity(
        key("catalogue.albums.d1"), key("discount.drop.k1:cure:wish"), 0.8))
    aindex.add(PRelation.matching(
        key("catalogue.albums.d1"), key("similar.Item.i1"), 0.7))

    quepa = Quepa(polystore, aindex)
    answer = quepa.augmented_search(
        "transactions", "SELECT * FROM inventory WHERE name LIKE '%wish%'"
    )
    print(renderer.render_answer(answer), file=out)
    return 0


def _generate(args, out) -> int:
    bundle = build_polyphony(
        stores=args.stores,
        scale=PolystoreScale(n_albums=args.albums),
        seed=args.seed,
    )
    path = save_snapshot(args.out, bundle.polystore, bundle.aindex)
    print(
        f"wrote {bundle.store_count} databases, "
        f"{bundle.polystore.total_objects()} objects, "
        f"{bundle.aindex.edge_count()} p-relations to {path}",
        file=out,
    )
    return 0


def _load(args) -> Quepa:
    polystore, aindex = load_snapshot(args.snapshot)
    shards = getattr(args, "shards", 1)
    if shards > 1:
        from repro.sharding import shard_aindex, shard_polystore

        polystore = shard_polystore(
            polystore, shards=shards, placement=args.placement
        )
        aindex = shard_aindex(aindex, shards=shards)
    return Quepa(polystore, aindex)


def _query(args, renderer: TextRenderer, out) -> int:
    quepa = _load(args)
    config = None
    if args.augmenter:
        config = AugmentationConfig(
            augmenter=args.augmenter,
            batch_size=args.batch_size,
            threads_size=args.threads_size,
        )
    answer = quepa.augmented_search(
        args.database, args.query, level=args.level, config=config
    )
    print(renderer.render_answer(answer), file=out)
    print(
        f"[{answer.stats.queries_issued} native queries, "
        f"{answer.stats.elapsed * 1000:.2f} ms virtual]",
        file=out,
    )
    return 0


def _run_instrumented(args):
    """Run one augmented query and return (quepa, answer) for reporting.

    With ``--trace-id`` the query is served through an embedded server,
    so its spans are request-scoped (root ``request`` span, trace id).
    """
    quepa = _load(args)
    config = None
    if args.augmenter:
        config = AugmentationConfig(
            augmenter=args.augmenter,
            batch_size=args.batch_size,
            threads_size=args.threads_size,
        )
    if getattr(args, "trace_id", None) is not None:
        from repro.serving import QuepaServer

        with QuepaServer(quepa) as server:
            answer = server.search(
                "cli", args.database, args.query,
                level=args.level, config=config,
            )
    else:
        answer = quepa.augmented_search(
            args.database, args.query, level=args.level, config=config
        )
    return quepa, answer


def _print_retention_warning(tracer, out) -> None:
    """What the tracer's caps cost the run: spans dropped (a buffer or a
    single trace over ``max_spans``) and whole older traces evicted."""
    stats = tracer.stats()
    evicted = tracer.evicted
    if stats["dropped"] or evicted:
        print(
            f"warning: {stats['dropped']} spans dropped, "
            f"{evicted} traces evicted (cap {stats['max_spans']})",
            file=out,
        )


def _stats(args, out) -> int:
    quepa, answer = _run_instrumented(args)
    stats = answer.stats
    print(
        f"query on {args.database} (level {stats.level}, "
        f"augmenter={stats.augmenter}):",
        file=out,
    )
    print(
        f"  elapsed {stats.elapsed * 1000:.2f} ms | "
        f"{stats.queries_issued} native queries | "
        f"{stats.cache_hits} cache hits | "
        f"{stats.augmented_count} augmented objects",
        file=out,
    )
    meter = quepa.runtime.meter
    metrics = quepa.obs.metrics
    print("per-store breakdown:", file=out)
    header = (
        f"  {'database':16s} {'queries':>8s} {'objects':>8s} "
        f"{'mean_ms':>9s} {'p50_ms':>9s} {'p95_ms':>9s} {'p99_ms':>9s} "
        f"{'max_ms':>9s}"
    )
    print(header, file=out)
    for database in sorted(meter.queries_by_database):
        latency = metrics.histogram(
            "store_call_seconds", database=database
        ).snapshot()
        print(
            f"  {database:16s} "
            f"{meter.queries_by_database[database]:8d} "
            f"{meter.objects_by_database.get(database, 0):8d} "
            f"{latency['mean'] * 1000:9.3f} "
            f"{latency['p50'] * 1000:9.3f} "
            f"{latency['p95'] * 1000:9.3f} "
            f"{latency['p99'] * 1000:9.3f} "
            f"{latency['max'] * 1000:9.3f}",
            file=out,
        )
    shard_lines = _shard_metric_lines(metrics)
    if shard_lines:
        print("shard routing:", file=out)
        for line in shard_lines:
            print(line, file=out)
    print("span kinds:", file=out)
    summary = quepa.obs.tracer.summary()
    for kind in sorted(summary):
        entry = summary[kind]
        print(
            f"  {kind:16s} count={int(entry['count']):<6d} "
            f"total_ms={entry['total_s'] * 1000:.3f}",
            file=out,
        )
    _print_retention_warning(quepa.obs.tracer, out)
    print("cache:", file=out)
    print(
        f"  {'tier':18s} {'size':>7s} {'capacity':>8s} {'hits':>8s} "
        f"{'misses':>8s} {'evictions':>9s} {'hit_rate':>8s}",
        file=out,
    )
    tiers = [
        {"name": "object", **quepa.cache.stats()},
        {"name": "plan", **quepa.augmentation.plan_cache_stats()},
        *parse_cache_stats(),
    ]
    for tier in tiers:
        print(
            f"  {tier['name']:18s} {tier['size']:7d} {tier['capacity']:8d} "
            f"{tier['hits']:8d} {tier['misses']:8d} {tier['evictions']:9d} "
            f"{tier['hit_rate']:8.1%}",
            file=out,
        )
    refreezes = getattr(quepa.aindex, "refreezes", None)
    if refreezes is not None:
        print(
            f"planner: {refreezes} index refreezes "
            f"(generation {quepa.aindex.generation})",
            file=out,
        )
    return 0


def _shard_metric_lines(metrics) -> list[str]:
    """Per-database shard-routing lines, empty when nothing is sharded.

    Scatter fan-out comes from the ``augment_fanout_shards`` histogram,
    pruning from the partition counters — all emitted only by sharded
    routing, so an unsharded run prints no section at all.
    """
    fanout: dict[str, dict] = {}
    scanned: dict[str, float] = {}
    pruned: dict[str, float] = {}
    for entry in metrics.snapshot():
        database = entry["labels"].get("database", "")
        if entry["name"] == "augment_fanout_shards":
            fanout[database] = entry
        elif entry["name"] == "shard_partitions_scanned_total":
            scanned[database] = entry["value"]
        elif entry["name"] == "shard_partitions_pruned_total":
            pruned[database] = entry["value"]
    lines = []
    for database in sorted(set(fanout) | set(scanned) | set(pruned)):
        histogram = fanout.get(database)
        parts = [f"  {database:16s}"]
        if histogram is not None and histogram["count"]:
            parts.append(
                f"fanout mean={histogram['mean']:.2f} "
                f"max={histogram['max']:.0f} "
                f"({histogram['count']} scatters)"
            )
        parts.append(
            f"partitions scanned={scanned.get(database, 0):.0f} "
            f"pruned={pruned.get(database, 0):.0f}"
        )
        lines.append(" ".join(parts))
    return lines


def _trace(args, out) -> int:
    quepa, __ = _run_instrumented(args)
    from repro.obs import to_chrome_trace, tree_lines

    tracer = quepa.obs.tracer
    if args.trace_id is None:
        spans = tracer.spans()
    else:
        spans = tracer.spans_for(args.trace_id)
        if not spans:
            print(
                f"error: no spans retained for trace {args.trace_id!r} "
                f"(unknown, or evicted: {tracer.evicted} traces evicted)",
                file=out,
            )
            return 1
    if args.trace_format == "chrome":
        # Pure JSON on stdout so it pipes straight into a .json file
        # that Perfetto / chrome://tracing can open.
        json.dump(to_chrome_trace(spans), out)
        print(file=out)
        return 0
    lines = tree_lines(spans)
    for line in lines[: args.limit]:
        print(line, file=out)
    if len(lines) > args.limit:
        print(f"... and {len(lines) - args.limit} more spans", file=out)
    if args.trace_id is not None:
        summary = quepa.obs.trace_summary(args.trace_id)
        kinds = ", ".join(
            f"{kind}={int(entry['count'])}"
            for kind, entry in sorted(summary["by_kind"].items())
        )
        print(f"trace {args.trace_id}: {summary['spans']} spans ({kinds})",
              file=out)
    _print_retention_warning(tracer, out)
    return 0


def _parse_query(text: str) -> Any:
    """CLI queries are strings; JSON objects/arrays become the dict and
    tuple query forms of the document/graph/key-value stores."""
    stripped = text.strip()
    if stripped.startswith(("{", "[")):
        try:
            loaded = json.loads(stripped)
        except ValueError:
            return text
        return tuple(loaded) if isinstance(loaded, list) else loaded
    return text


def _print_report(data: dict, out, indent: int = 0) -> None:
    pad = "  " * indent
    for key, value in data.items():
        if isinstance(value, dict):
            print(f"{pad}{key}:", file=out)
            _print_report(value, out, indent + 1)
        elif (
            isinstance(value, list)
            and value
            and all(isinstance(item, dict) for item in value)
        ):
            print(f"{pad}{key}:", file=out)
            for item in value:
                print(f"{pad}  -", file=out)
                _print_report(item, out, indent + 2)
        else:
            print(f"{pad}{key}: {value}", file=out)


def _explain(args, out) -> int:
    quepa = _load(args)
    config = None
    if args.augmenter:
        config = AugmentationConfig(
            augmenter=args.augmenter,
            batch_size=args.batch_size,
            threads_size=args.threads_size,
        )
    report = quepa.explain(
        args.database,
        _parse_query(args.query),
        level=args.level,
        config=config,
        analyze=args.analyze,
    )
    if args.as_json:
        json.dump(report, out, indent=2, default=str)
        print(file=out)
    else:
        _print_report(report, out)
    return 0


def _plan(args, out) -> int:
    from repro.planner import LogicalQuery

    quepa = _load(args)
    targets = None
    if args.targets:
        targets = tuple(
            name.strip() for name in args.targets.split(",") if name.strip()
        )
    logical = LogicalQuery(
        database=args.database,
        query=_parse_query(args.query),
        level=args.level,
        targets=targets,
    )
    engine = quepa.planner_engine()
    report = engine.explain_section(logical)
    if args.execute:
        execution = engine.execute(logical)
        result = execution.result
        report["executed"] = {
            "strategy": execution.chosen,
            "elapsed_s": result.elapsed,
            "queries_issued": result.queries_issued,
            "answer_size": len(result.answer),
            "out_of_memory": result.out_of_memory,
            "degraded": result.degraded,
        }
    if args.as_json:
        json.dump(report, out, indent=2, default=str)
        print(file=out)
    else:
        _print_report(report, out)
    return 0


def _events(args, out) -> int:
    quepa = _load(args)
    if args.slow_ms is not None:
        quepa.obs.slow_query_threshold = args.slow_ms / 1000.0
    if args.jsonl:
        quepa.obs.events.attach_sink(args.jsonl)
    config = None
    if args.augmenter:
        config = AugmentationConfig(
            augmenter=args.augmenter,
            batch_size=args.batch_size,
            threads_size=args.threads_size,
        )
    try:
        quepa.augmented_search(
            args.database,
            _parse_query(args.query),
            level=args.level,
            config=config,
        )
    finally:
        quepa.obs.events.close_sink()
    entries = quepa.obs.events.events(
        min_severity=args.min_severity, limit=args.limit
    )
    for event in entries:
        attrs = " ".join(
            f"{key}={value}" for key, value in sorted(event.attrs.items())
        )
        print(
            f"[{event.severity:7s}] t={event.ts:.6f}s {event.kind}"
            + (f"  {attrs}" if attrs else ""),
            file=out,
        )
    stats = quepa.obs.events.stats()
    print(
        f"({stats['emitted']} events emitted, {stats['dropped']} dropped, "
        f"showing {len(entries)})",
        file=out,
    )
    return 0


def _faults(args, out) -> int:
    from repro.faults import FaultInjector, ResilienceConfig, parse_fault_spec

    polystore, aindex = load_snapshot(args.snapshot)
    injector = FaultInjector(seed=args.fault_seed)
    try:
        for spec_text in args.inject:
            injector.add(parse_fault_spec(spec_text))
    except ValueError as exc:
        print(f"error: {exc}", file=out)
        return 1
    resilience = ResilienceConfig(
        retry_max_attempts=args.retries,
        breaker_failure_threshold=args.breaker_threshold,
    )
    config = AugmentationConfig(
        augmenter=args.augmenter or "sequential",
        batch_size=args.batch_size,
        threads_size=args.threads_size,
        skip_unavailable=True,
        timeout_budget=args.timeout_budget,
    )
    quepa = Quepa(
        polystore, aindex, resilience=resilience, faults=injector
    )
    answer = quepa.augmented_search(
        args.database,
        _parse_query(args.query),
        level=args.level,
        config=config,
    )
    stats = answer.stats
    report = {
        "answer": {
            "original_count": stats.original_count,
            "augmented_count": stats.augmented_count,
            "degraded": stats.degraded,
            "errors": dict(stats.errors),
            "unavailable_databases": list(stats.unavailable_databases),
            "elapsed_s": stats.elapsed,
            "queries_issued": stats.queries_issued,
        },
        **quepa.fault_report(),
    }
    if args.as_json:
        json.dump(report, out, indent=2, default=str)
        print(file=out)
        return 0
    flag = "DEGRADED" if stats.degraded else "complete"
    print(
        f"answer: {flag} — {stats.original_count} originals, "
        f"{stats.augmented_count} augmented, "
        f"{stats.elapsed * 1000:.2f} ms virtual",
        file=out,
    )
    _print_report({k: v for k, v in report.items() if k != "answer"}, out)
    return 0


def _serving_config(args):
    from repro.serving import ServingConfig

    return ServingConfig(
        workers=args.workers,
        queue_capacity=args.queue_capacity,
        max_inflight_per_session=args.max_inflight,
        default_deadline=args.deadline,
        coalesce=args.coalesce,
        hedge=args.hedge,
        recorder_capacity=getattr(args, "capacity", 256),
        recorder_slow_threshold=getattr(args, "slow_threshold", None),
        slo_availability_objective=getattr(
            args, "availability_objective", 0.99
        ),
        slo_latency_threshold=getattr(args, "latency_threshold", 1.0),
        slo_latency_objective=getattr(args, "latency_objective", 0.95),
    )


def _real_quepa(polystore, aindex, time_scale: float) -> Quepa:
    """A QUEPA on the wall-clock runtime, as a served instance runs."""
    from repro.network import RealRuntime, centralized_profile

    profile = centralized_profile(list(polystore))
    runtime = RealRuntime(profile, time_scale=time_scale)
    return Quepa(polystore, aindex, profile=profile, runtime=runtime)


def _serve(args, out) -> int:
    import time as _time

    from repro.serving import QuepaServer
    from repro.ui.server import serve as http_serve

    polystore, aindex = load_snapshot(args.snapshot)
    quepa = _real_quepa(polystore, aindex, args.time_scale)
    with QuepaServer(quepa, _serving_config(args)) as server:
        endpoint = http_serve(
            quepa, host=args.host, port=args.port, server=server
        )
        try:
            print(
                f"serving {args.snapshot} at {endpoint.url} "
                f"({args.workers} workers, queue {args.queue_capacity}); "
                f"POST /query, GET /serving",
                file=out,
            )
            if args.duration is not None:
                _time.sleep(args.duration)
            else:  # pragma: no cover - interactive loop
                try:
                    while True:
                        _time.sleep(3600)
                except KeyboardInterrupt:
                    pass
        finally:
            endpoint.shutdown()
    totals = server.status()["totals"]
    shed = sum(totals["shed"].values())
    print(
        f"served {totals['completed']} requests "
        f"({shed} shed, {totals['failed']} failed)",
        file=out,
    )
    return 0


def _drive_embedded_load(args):
    """The embedded-load harness shared by loadgen/slo/record.

    Builds the seeded polystore, starts an embedded server, runs the
    closed-loop generator; returns ``(report, server, status)`` with
    the server stopped but its flight recorder and SLO monitor still
    readable.
    """
    from repro.serving import LoadGenerator, QuepaServer
    from repro.workloads.queries import QueryWorkload

    bundle = build_polyphony(
        stores=args.stores,
        scale=PolystoreScale(n_albums=args.albums),
        seed=args.seed,
    )
    quepa = _real_quepa(bundle.polystore, bundle.aindex, args.time_scale)
    workload = QueryWorkload(bundle)
    with QuepaServer(quepa, _serving_config(args)) as server:
        generator = LoadGenerator(
            server,
            workload,
            sizes=(args.size,),
            levels=(args.level,),
            seed=args.seed,
            deadline=args.deadline,
            zipf_s=args.zipf_s,
        )
        report = generator.run(args.clients, args.requests)
        status = server.status()
    return report, server, status


def _loadgen(args, out) -> int:
    report, _, status = _drive_embedded_load(args)
    if args.as_json:
        json.dump(
            {"load": report.as_dict(), "serving": status},
            out, indent=2, default=str,
        )
        print(file=out)
        return 0
    print(
        f"loadgen: {report.clients} clients x "
        f"{report.requests_per_client} requests "
        f"(seed {report.seed}) in {report.wall_s:.3f}s",
        file=out,
    )
    print(
        f"  {report.completed} completed, {report.shed} shed, "
        f"{report.failed} failed — {report.qps:.1f} QPS",
        file=out,
    )
    print(
        f"  latency ms: p50={report.latency_p50 * 1000:.2f} "
        f"p95={report.latency_p95 * 1000:.2f} "
        f"p99={report.latency_p99 * 1000:.2f} "
        f"mean={report.latency_mean * 1000:.2f}",
        file=out,
    )
    totals = status["totals"]
    shed = sum(totals["shed"].values())
    print(
        f"  server: admitted={totals['admitted']} "
        f"completed={totals['completed']} "
        f"shed={shed} failed={totals['failed']}",
        file=out,
    )
    accelerator = status.get("accelerator")
    if accelerator:
        coalesce = accelerator.get("coalesce")
        hedge = accelerator.get("hedge")
        if coalesce:
            print(
                f"  coalesce: {coalesce['followers']} shared / "
                f"{coalesce['leaders'] + coalesce['followers']} fetches "
                f"(hit rate {coalesce['hit_rate']:.1%})",
                file=out,
            )
        if hedge:
            print(
                f"  hedge: {hedge['issued']} issued, {hedge['won']} won "
                f"(win rate {hedge['win_rate']:.1%})",
                file=out,
            )
    return 0


def _slo(args, out) -> int:
    report, server, _ = _drive_embedded_load(args)
    slo = server.slo_report()
    if args.as_json:
        json.dump({"slo": slo}, out, indent=2, default=str)
        print(file=out)
        return 0
    print(
        f"slo: {report.completed} completed, {report.shed} shed, "
        f"{report.failed} failed ({report.qps:.1f} QPS)",
        file=out,
    )
    availability = slo["availability"]
    print(
        f"  availability: measured={availability['measured']:.4%} "
        f"objective={availability['objective']:.2%} "
        f"burn={availability['burn_rate']:.2f}x "
        f"{'healthy' if availability['healthy'] else 'BREACHED'}",
        file=out,
    )
    latency = slo["latency"]
    print(
        f"  latency<={latency['threshold_s']:.3f}s: "
        f"measured={latency['measured']:.4%} "
        f"objective={latency['objective']:.2%} "
        f"burn={latency['burn_rate']:.2f}x "
        f"{'healthy' if latency['healthy'] else 'BREACHED'}",
        file=out,
    )
    print(
        f"  overall: {'healthy' if slo['healthy'] else 'BREACHED'}",
        file=out,
    )
    return 0


def _record(args, out) -> int:
    _, server, _ = _drive_embedded_load(args)
    recorder = server.scheduler.recorder
    if recorder is None:  # pragma: no cover - CLI always enables it
        print("flight recorder disabled", file=out)
        return 1
    digests = recorder.as_dicts(
        session=args.session, status=args.status, limit=args.limit
    )
    stats = recorder.stats()
    if args.as_json:
        json.dump(
            {"requests": digests, "recorder": stats},
            out, indent=2, default=str,
        )
        print(file=out)
        return 0
    print(
        f"flight recorder: kept {stats['kept']} of "
        f"{stats['observed']} requests "
        f"(showing {len(digests)}, capacity {stats['capacity']})",
        file=out,
    )
    for digest in digests:
        line = (
            f"  {digest['trace_id']} #{digest['request_id']} "
            f"{digest['session']} {digest['kind']} {digest['status']} "
            f"wait={digest['queue_wait_s'] * 1000:.2f}ms "
            f"lat={digest['latency_s'] * 1000:.2f}ms "
            f"kept={digest['kept_because']}"
        )
        if digest["shed_reason"]:
            line += f" reason={digest['shed_reason']}"
        if digest["error"]:
            line += f" error={digest['error']}"
        print(line, file=out)
    return 0


def _ingest(args, out) -> int:
    """Stream seeded mutations through the CDC pipeline and report.

    Builds a Polyphony polystore, bootstraps an incremental collector
    (batch-equivalent full scan), then applies ``--updates`` seeded
    writes in pump batches. With ``--workdir`` the run also keeps a
    WAL, takes an incremental snapshot halfway, and finishes with a
    warm restart that replays only the delta.
    """
    import random
    import shutil
    import tempfile
    import time
    from pathlib import Path

    from repro.cdc import ChangeHub, IncrementalCollector
    from repro.collector import JaroWinklerComparator, PairwiseMatcher
    from repro.collector.matching import AttributeRule
    from repro.core.aindex import AIndex
    from repro.persistence import WriteAheadLog

    def matcher() -> PairwiseMatcher:
        return PairwiseMatcher(
            [AttributeRule("name", "title", JaroWinklerComparator())],
            identity_threshold=0.9,
            matching_threshold=0.6,
        )

    bundle = build_polyphony(
        args.stores,
        PolystoreScale(n_albums=args.albums),
        seed=args.seed,
        with_aindex=False,
    )
    polystore = bundle.polystore
    workdir = Path(args.workdir) if args.workdir else None
    scratch = None
    if workdir is None:
        scratch = tempfile.mkdtemp(prefix="repro-ingest-")
        workdir = Path(scratch)
    try:
        wal = WriteAheadLog(workdir / "wal.jsonl")
        aindex = AIndex()
        hub = ChangeHub(
            polystore, aindex, IncrementalCollector(matcher()), wal=wal
        )
        started = time.perf_counter()
        boot = hub.bootstrap()
        bootstrap_s = time.perf_counter() - started

        rng = random.Random(args.seed)
        catalogue = polystore.database("catalogue")
        transactions = polystore.database("transactions")
        pumps = 0
        applied = {"added": 0, "removed": 0, "events": 0}
        for step in range(args.updates):
            kind = rng.randrange(3)
            seq = rng.randrange(args.albums)
            doc_key = MusicGenerator.album_doc_key(seq)
            if kind == 0:
                try:
                    catalogue.update_one(
                        "albums", doc_key,
                        {"$set": {"title": f"Edition {step} Reissue"}},
                    )
                except ReproError:
                    pass  # a previous seeded delete removed this album
            elif kind == 1:
                new_id = args.albums + step
                title = f"Bonus Disc {new_id}"
                transactions.table("inventory").insert({
                    "id": MusicGenerator.inventory_key(new_id),
                    "seq": new_id,
                    "name": title,
                    "price": 9.99,
                })
                catalogue.insert(
                    "albums",
                    {"_id": MusicGenerator.album_doc_key(new_id),
                     "title": title},
                )
            else:
                catalogue.delete_one("albums", doc_key)
            if (step + 1) % max(args.batch, 1) == 0:
                report = hub.pump()
                pumps += 1
                applied["added"] += report.relations_added
                applied["removed"] += report.relations_removed
                applied["events"] += report.events
        final = hub.pump()
        pumps += 1
        applied["added"] += final.relations_added
        applied["removed"] += final.relations_removed
        applied["events"] += final.events

        snapdir = workdir / "snapshot"
        hub.snapshot(snapdir)
        # Post-snapshot delta: what the warm restart will replay.
        catalogue.insert(
            "albums",
            {"_id": MusicGenerator.album_doc_key(args.albums + args.updates),
             "title": "After The Snapshot"},
        )
        hub.pump()
        started = time.perf_counter()
        hub2, restart = ChangeHub.warm_restart(snapdir, matcher(), wal=wal)
        restart_s = time.perf_counter() - started

        status = hub.status()
        payload = {
            "bootstrap": {
                "objects_scanned": boot.objects_scanned,
                "candidate_pairs": boot.candidate_pairs,
                "relations": boot.relations_added,
                "seconds": bootstrap_s,
            },
            "ingest": {
                "updates": args.updates,
                "pumps": pumps,
                "events": applied["events"],
                "relations_added": applied["added"],
                "relations_removed": applied["removed"],
                "lag": status["lag"],
            },
            "warm_restart": {
                "replayed_events": restart["replayed_events"],
                "seconds": restart_s,
                "index_edges": hub2.aindex.edge_count(),
            },
        }
        if args.as_json:
            json.dump(payload, out, indent=2)
            print(file=out)
            return 0
        boot_info = payload["bootstrap"]
        print(
            f"bootstrap: {boot_info['objects_scanned']} objects, "
            f"{boot_info['candidate_pairs']} candidate pairs -> "
            f"{boot_info['relations']} base relations "
            f"in {boot_info['seconds']:.3f}s",
            file=out,
        )
        ing = payload["ingest"]
        print(
            f"ingest: {ing['updates']} writes in {ing['pumps']} pumps "
            f"({ing['events']} events) -> +{ing['relations_added']} / "
            f"-{ing['relations_removed']} base relations, lag={ing['lag']}",
            file=out,
        )
        warm = payload["warm_restart"]
        print(
            f"warm restart: replayed {warm['replayed_events']} events "
            f"in {warm['seconds']:.3f}s "
            f"({warm['index_edges']} index edges) — "
            f"vs {boot_info['seconds']:.3f}s cold bootstrap",
            file=out,
        )
        return 0
    finally:
        if scratch is not None:
            shutil.rmtree(scratch, ignore_errors=True)


def _inspect(args, out) -> int:
    polystore, aindex = load_snapshot(args.snapshot)
    print(f"snapshot: {args.snapshot}", file=out)
    for name in sorted(polystore):
        store = polystore.database(name)
        print(
            f"  {name:16s} {store.engine:10s} "
            f"{store.count_objects():8d} objects "
            f"({', '.join(store.collections())})",
            file=out,
        )
    print(
        f"  A' index: {aindex.node_count()} nodes, "
        f"{aindex.edge_count()} p-relations",
        file=out,
    )
    return 0


def _explore(args, renderer: TextRenderer, out) -> int:
    quepa = _load(args)
    with quepa.explore(args.database, args.query) as session:
        if not session.results:
            print("the query returned no results", file=out)
            return 1
        current = session.results[0].key
        print(f"start: {current}", file=out)
        for step_number in range(args.steps):
            step = session.select(current)
            if not step.links:
                print("(no further links)", file=out)
                break
            print(renderer.render_links(step.links), file=out)
            current = step.links[0].key
            print(f"step {step_number + 1}: followed strongest link "
                  f"to {current}", file=out)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
