"""Command-line interface: ``python -m repro <command>``.

Fifteen subcommands in four families (``repro <command> --help`` has
the flags). **Snapshots**: ``demo`` (the paper's Fig 1 example),
``generate`` (a Polyphony polystore to disk), ``inspect``. **One
query** against a snapshot (``--snapshot --database --query [--level]
[--augmenter] [--shards]``; a JSON ``--query`` is the dict/tuple form of
the document, graph and key-value stores): ``query`` prints the answer
and ``explore`` walks its strongest links; ``stats``, ``trace``,
``events`` and ``faults`` run it and print the report of that name;
``explain`` and ``plan`` print theirs without serving it. **Serving**:
``serve`` a snapshot over HTTP; ``loadgen`` and ``record`` drive an
embedded server with seeded closed-loop load and print the ``serving``
and ``requests`` reports. **Ingestion**: ``ingest``
streams seeded mutations through the CDC pipeline.

Every report is built in :mod:`repro.ui.reports` — the function's
docstring is the command's description, and ``--json`` prints the same
payload the HTTP route of that name serves. This module only parses
flags, runs the one query (:func:`_run_query`) or the embedded load
(:func:`_drive_embedded_load`), and renders text with
:class:`~repro.ui.render.TextRenderer` (``--color`` for the ANSI
renderer, the terminal face of the paper's probability colors).
"""

from __future__ import annotations

import argparse
import json
import sys
from inspect import cleandoc
from typing import Any, Sequence

from repro.core import Quepa
from repro.core.augmentation import AugmentationConfig
from repro.errors import ReproError
from repro.persistence import load_snapshot, save_snapshot
from repro.ui import reports
from repro.ui.render import AnsiRenderer, TextRenderer
from repro.ui.reports import REPORTS, Subject
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

    def command(name: str, help: str, report: str | None = None):
        """A subparser; one that reads a report quotes its docstring."""
        description = report and (
            f"{help}. Reads the {report!r} report: "
            + cleandoc(REPORTS[report].__doc__)
        )
        return commands.add_parser(name, help=help, description=description)

    command("demo", "run the paper's running example")

    generate = command("generate", "generate a Polyphony polystore snapshot")
    generate.add_argument("--stores", type=int, default=4)
    generate.add_argument("--albums", type=int, default=500)
    generate.add_argument("--seed", type=int, default=42)
    generate.add_argument("--out", required=True)

    query = command("query", "run one augmented query")
    _add_query_args(query)

    stats = command(
        "stats", "run one query and print its metrics breakdown", "stats",
    )
    _add_query_args(stats)

    trace = command("trace", "run one query and print its span tree", "trace")
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

    explain = command(
        "explain", "explain how an augmented query would run", "explain",
    )
    _add_query_args(explain)
    explain.add_argument("--analyze", action="store_true",
                         help="also execute and report actual rows/time")
    explain.add_argument("--json", action="store_true", dest="as_json",
                         help="print the report as JSON")

    plan = command(
        "plan", "enumerate and cost cross-store physical plans", "plan",
    )
    _add_query_args(plan)
    plan.add_argument("--targets", default=None,
                      help="comma-separated augmentation target databases "
                           "(default: every database)")
    plan.add_argument("--execute", action="store_true",
                      help="also execute the chosen plan and report its run")
    plan.add_argument("--json", action="store_true", dest="as_json",
                      help="print the plan report as JSON")

    events = command(
        "events", "run one query and print the event journal", "events",
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

    faults = command(
        "faults", "run one query under an injected fault schedule", "faults",
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

    serve = command("serve", "serve a snapshot over HTTP via the scheduler")
    serve.add_argument("--snapshot", required=True)
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8080,
                       help="HTTP port (0 picks a free port)")
    _add_serving_args(serve)
    serve.add_argument("--duration", type=float, default=None,
                       help="run for this many seconds then exit "
                            "(default: until interrupted)")

    loadgen = command(
        "loadgen", "drive an embedded server with seeded load", "serving",
    )
    _add_loadgen_args(loadgen)
    loadgen.add_argument("--json", action="store_true", dest="as_json",
                         help="print the load report as JSON")

    record = command(
        "record", "drive seeded load, then dump the flight recorder",
        "requests",
    )
    _add_loadgen_args(record)
    record.add_argument("--session", default=None,
                        help="only digests of this session")
    record.add_argument("--status", default=None,
                        choices=("completed", "failed", "shed"),
                        help="only digests with this outcome")
    record.add_argument("--limit", type=int, default=None,
                        help="keep only the newest N digests")
    record.add_argument("--json", action="store_true", dest="as_json",
                        help="print the digests as JSON")

    ingest = command(
        "ingest", "incremental ingestion demo: CDC feeds -> WAL -> A' deltas",
        "ingest",
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

    inspect = command("inspect", "describe a snapshot")
    inspect.add_argument("--snapshot", required=True)

    explore = command("explore", "walk the strongest links from a query")
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
                           help="partition every store into this many "
                                "shards (1 = unsharded)")
    subparser.add_argument("--placement", default="hash",
                           choices=("hash", "range"),
                           help="shard placement scheme when --shards > 1")


def _add_loadgen_args(subparser) -> None:
    """Polystore + serving + workload knobs of the embedded-load family
    (``loadgen``, ``record``)."""
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
    subparser.add_argument("--deadline", type=float, default=None,
                           help="every generated request's deadline, "
                                "seconds")
    subparser.add_argument("--zipf-s", type=float, default=0.0,
                           dest="zipf_s",
                           help="Zipf exponent for key-window skew "
                                "(0 = legacy uniform variants)")


def _add_serving_args(subparser) -> None:
    subparser.add_argument("--workers", type=int, default=4,
                           help="scheduler worker threads")
    subparser.add_argument("--queue-capacity", type=int, default=64,
                           help="admission queue bound (backpressure)")
    subparser.add_argument("--time-scale", type=float, default=0.0,
                           help="scale factor for simulated store "
                                "latencies on the real runtime "
                                "(0 disables sleeping)")


def main(argv: Sequence[str] | None = None, out=None) -> int:
    out = out or sys.stdout
    args = build_parser().parse_args(argv)
    try:
        return COMMANDS[args.command](args, out)
    except ReproError as exc:  # a refused report (ReportError) included
        print(f"error: {exc}", file=out)
        return 1


def _renderer(args) -> TextRenderer:
    return AnsiRenderer() if args.color else TextRenderer()


def _dump(payload: Any, out) -> int:
    json.dump(payload, out, indent=2, default=str)
    print(file=out)
    return 0


def _demo(args, out) -> int:
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
    print(_renderer(args).render_answer(answer), file=out)
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


def _real_runtime(polystore, time_scale: float) -> dict[str, Any]:
    """``Quepa`` keywords for the wall-clock runtime a served instance
    runs on."""
    from repro.network import RealRuntime, centralized_profile

    profile = centralized_profile(list(polystore))
    return {
        "profile": profile,
        "runtime": RealRuntime(profile, time_scale=time_scale),
    }


def _load(args, **quepa_kwargs) -> Quepa:
    """The one ``Quepa``-from-snapshot builder: ``--shards`` and
    ``--placement`` partition the stores (the A' index stays one), and a
    command with ``--time-scale`` (``serve``) runs on the wall clock."""
    polystore, aindex = load_snapshot(args.snapshot)
    shards = getattr(args, "shards", 1)
    if shards > 1:
        from repro.sharding import shard_polystore

        polystore = shard_polystore(
            polystore, shards=shards, placement=args.placement
        )
    if hasattr(args, "time_scale"):
        quepa_kwargs.update(_real_runtime(polystore, args.time_scale))
    return Quepa(polystore, aindex, **quepa_kwargs)


def _config(args, **extra) -> AugmentationConfig | None:
    """``--augmenter``/``--batch-size``/``--threads-size`` as a config;
    ``None`` (no ``--augmenter``, nothing extra) leaves the choice to the
    system."""
    if not (args.augmenter or extra):
        return None
    return AugmentationConfig(
        augmenter=args.augmenter or "sequential",
        batch_size=args.batch_size,
        threads_size=args.threads_size,
        **extra,
    )


def _run_query(args, quepa: Quepa | None = None, config=None):
    """Run the one query of query/stats/trace/events/faults; returns
    ``(subject, answer)`` for reporting.

    With ``--trace-id`` the query is served through an embedded server,
    so its spans are request-scoped (root ``request`` span, trace id).
    """
    quepa = quepa or _load(args)
    run = {"level": args.level, "config": config or _config(args)}
    query = reports.coerce("query", args.query)
    if getattr(args, "trace_id", None) is not None:
        from repro.serving import QuepaServer

        with QuepaServer(quepa) as server:
            answer = server.search("cli", args.database, query, **run)
    else:
        answer = quepa.augmented_search(args.database, query, **run)
    return Subject(quepa), answer


def _query(args, out) -> int:
    _, answer = _run_query(args)
    print(_renderer(args).render_answer(answer), file=out)
    print(
        f"[{answer.stats.queries_issued} native queries, "
        f"{answer.stats.elapsed * 1000:.2f} ms virtual]",
        file=out,
    )
    return 0


def _print_retention_warning(retention: dict, out) -> None:
    if retention["dropped"] or retention["evicted"]:
        print(
            f"warning: {retention['dropped']} spans dropped, "
            f"{retention['evicted']} traces evicted "
            f"(cap {retention['max_spans']})",
            file=out,
        )


_LATENCY_COLUMNS = ("mean", "p50", "p95", "p99", "max")


def _stats(args, out) -> int:
    subject, answer = _run_query(args)
    report = reports.call("stats", subject)
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
    print("per-store breakdown:", file=out)
    print(
        f"  {'database':16s} {'queries':>8s} {'objects':>8s} {'examined':>9s} "
        + " ".join(f"{name + '_ms':>9s}" for name in _LATENCY_COLUMNS),
        file=out,
    )
    for store in report["stores"]:
        print(
            f"  {store['database']:16s} {store['queries']:8d} "
            f"{store['objects']:8d} {store['rows_examined']:9d} "
            + " ".join(
                f"{store['latency_s'][name] * 1000:9.3f}"
                for name in _LATENCY_COLUMNS
            ),
            file=out,
        )
    if report["shard_routing"]:
        print("shard routing:", file=out)
    for row in report["shard_routing"]:
        parts = [f"  {row['database']:16s}"]
        fanout = row.get("fanout")
        if fanout is not None and fanout["count"]:
            parts.append(
                f"fanout mean={fanout['mean']:.2f} "
                f"max={fanout['max']:.0f} ({fanout['count']} scatters)"
            )
        parts.append(
            f"partitions scanned={row.get('scanned', 0):.0f} "
            f"pruned={row.get('pruned', 0):.0f}"
        )
        print(" ".join(parts), file=out)
    print("span kinds:", file=out)
    for kind, entry in sorted(report["span_kinds"].items()):
        print(
            f"  {kind:16s} count={int(entry['count']):<6d} "
            f"total_ms={entry['total_s'] * 1000:.3f}",
            file=out,
        )
    _print_retention_warning(report["retention"], out)
    print("cache:", file=out)
    print(
        f"  {'tier':18s} {'size':>7s} {'capacity':>8s} {'hits':>8s} "
        f"{'misses':>8s} {'evictions':>9s} {'hit_rate':>8s}",
        file=out,
    )
    for tier in report["cache"]:
        print(
            f"  {tier['name']:18s} {tier['size']:7d} {tier['capacity']:8d} "
            f"{tier['hits']:8d} {tier['misses']:8d} {tier['evictions']:9d} "
            f"{tier['hit_rate']:8.1%}",
            file=out,
        )
    index = report["index"]
    if index["refreezes"] is not None:
        print(
            f"planner: {index['refreezes']} index refreezes, "
            f"{index['compactions']} of them compactions, "
            f"{index['overlay_nodes']} overlay nodes "
            f"(generation {index['generation']})",
            file=out,
        )
    return 0


def _trace(args, out) -> int:
    subject, _ = _run_query(args)
    chrome = args.trace_format == "chrome"
    payload = reports.call("trace", subject, {
        "trace_id": args.trace_id, "format": "chrome" if chrome else "json",
    })
    if chrome:
        # Pure JSON on stdout so it pipes straight into a .json file
        # that Perfetto / chrome://tracing can open.
        json.dump(payload, out)
        print(file=out)
        return 0
    from repro.obs import tree_lines

    lines = tree_lines(payload["trace"]["spans"])
    for line in lines[: args.limit]:
        print(line, file=out)
    if len(lines) > args.limit:
        print(f"... and {len(lines) - args.limit} more spans", file=out)
    if args.trace_id is not None:
        summary = payload["trace"]["summary"]
        kinds = ", ".join(
            f"{kind}={int(entry['count'])}"
            for kind, entry in sorted(summary["by_kind"].items())
        )
        print(f"trace {args.trace_id}: {summary['spans']} spans ({kinds})",
              file=out)
    _print_retention_warning(payload["trace"]["retention"], out)
    return 0


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


def _explain_or_plan(args, out) -> int:
    """``explain`` and ``plan``: the report named like the command,
    printed bare (without its one-key envelope)."""
    payload = reports.call(
        args.command,
        Subject(_load(args)),
        {**vars(args), "config": _config(args)},
    )
    if args.as_json:
        return _dump(payload[args.command], out)
    _print_report(payload[args.command], out)
    return 0


def _events(args, out) -> int:
    quepa = _load(args)
    if args.slow_ms is not None:
        quepa.obs.slow_query_threshold = args.slow_ms / 1000.0
    if args.jsonl:
        quepa.obs.events.attach_sink(args.jsonl)
    try:
        subject, _ = _run_query(args, quepa)
    finally:
        quepa.obs.events.close_sink()
    report = reports.call("events", subject, vars(args))
    for event in report["events"]:
        attrs = " ".join(
            f"{key}={value}" for key, value in sorted(event["attrs"].items())
        )
        print(
            f"[{event['severity']:7s}] t={event['ts']:.6f}s {event['kind']}"
            + (f"  {attrs}" if attrs else ""),
            file=out,
        )
    stats = report["stats"]
    print(
        f"({stats['emitted']} events emitted, {stats['dropped']} dropped, "
        f"showing {len(report['events'])})",
        file=out,
    )
    return 0


def _faults(args, out) -> int:
    from repro.faults import FaultInjector, ResilienceConfig, parse_fault_spec

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
    subject, answer = _run_query(
        args,
        _load(args, resilience=resilience, faults=injector),
        _config(
            args, skip_unavailable=True, timeout_budget=args.timeout_budget
        ),
    )
    state = reports.call("faults", subject)["faults"]
    stats = answer.stats
    if args.as_json:
        return _dump({"answer": reports.answer_stats(stats), **state}, out)
    flag = "DEGRADED" if stats.degraded else "complete"
    print(
        f"answer: {flag} — {stats.original_count} originals, "
        f"{stats.augmented_count} augmented, "
        f"{stats.elapsed * 1000:.2f} ms virtual",
        file=out,
    )
    _print_report(state, out)
    return 0


def _serving_config(args):
    from repro.serving import ServingConfig

    return ServingConfig(
        workers=args.workers, queue_capacity=args.queue_capacity
    )


def _serve(args, out) -> int:
    import time as _time

    from repro.serving import QuepaServer
    from repro.ui.server import serve as http_serve

    quepa = _load(args)
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


def _drive_embedded_load(args, report: str):
    """The embedded-load harness shared by loadgen/record.

    Builds the seeded polystore, starts an embedded server and runs the
    closed-loop generator; returns the load report and the payload of
    ``report`` (``serving`` or ``requests``; its parameters are
    the command's flags), read before the server stops.
    """
    from repro.serving import LoadGenerator, QuepaServer
    from repro.workloads.queries import QueryWorkload

    bundle = build_polyphony(
        stores=args.stores,
        scale=PolystoreScale(n_albums=args.albums),
        seed=args.seed,
    )
    quepa = Quepa(
        bundle.polystore,
        bundle.aindex,
        **_real_runtime(bundle.polystore, args.time_scale),
    )
    with QuepaServer(quepa, _serving_config(args)) as server:
        generator = LoadGenerator(
            server,
            QueryWorkload(bundle),
            sizes=(args.size,),
            levels=(args.level,),
            seed=args.seed,
            deadline=args.deadline,
            zipf_s=args.zipf_s,
        )
        load = generator.run(args.clients, args.requests)
        return load, reports.call(report, Subject(quepa, server), vars(args))


def _loadgen(args, out) -> int:
    report, payload = _drive_embedded_load(args, "serving")
    status = payload["serving"]
    if args.as_json:
        return _dump({"load": report.as_dict(), "serving": status}, out)
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
        coalesce = accelerator["coalesce"]
        print(
            f"  coalesce: {coalesce['followers']} shared / "
            f"{coalesce['leaders'] + coalesce['followers']} fetches "
            f"(hit rate {coalesce['hit_rate']:.1%})",
            file=out,
        )
    return 0


def _record(args, out) -> int:
    _, payload = _drive_embedded_load(args, "requests")
    if not payload["enabled"]:  # pragma: no cover - CLI always enables it
        print("flight recorder disabled", file=out)
        return 1
    if args.as_json:
        return _dump(payload, out)
    digests, stats = payload["requests"], payload["recorder"]
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
        pumped = []
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
                pumped.append(hub.pump())
        pumped.append(hub.pump())

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

        status = reports.call("ingest", Subject(None, hub=hub))["ingest"]
        payload = {
            "bootstrap": {
                "objects_scanned": boot.objects_scanned,
                "candidate_pairs": boot.candidate_pairs,
                "relations": boot.relations_added,
                "seconds": bootstrap_s,
            },
            "ingest": {
                "updates": args.updates,
                "pumps": len(pumped),
                "events": sum(pump.events for pump in pumped),
                "relations_added": sum(p.relations_added for p in pumped),
                "relations_removed": sum(p.relations_removed for p in pumped),
                "lag": status["lag"],
            },
            "warm_restart": {
                "replayed_events": restart["replayed_events"],
                "seconds": restart_s,
                "index_edges": hub2.aindex.edge_count(),
            },
            "status": status,
        }
        if args.as_json:
            return _dump(payload, out)
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


def _explore(args, out) -> int:
    quepa = _load(args)
    renderer = _renderer(args)
    seed_query = reports.coerce("query", args.query)
    with quepa.explore(args.database, seed_query) as session:
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


#: subcommand -> handler ``(args, out) -> exit code``.
COMMANDS = {
    "demo": _demo, "generate": _generate, "inspect": _inspect,
    "query": _query, "explore": _explore, "stats": _stats, "trace": _trace,
    "explain": _explain_or_plan, "plan": _explain_or_plan,
    "events": _events, "faults": _faults, "serve": _serve,
    "loadgen": _loadgen, "record": _record, "ingest": _ingest,
}


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
