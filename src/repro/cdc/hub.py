"""The change hub: feeds -> WAL -> maintainer -> materialized tier.

One :class:`ChangeHub` owns the whole incremental-ingestion loop of a
polystore:

1. :meth:`attach` hangs a :class:`~repro.cdc.feed.ChangeFeed` on every
   store, so engine write paths start emitting CDC events.
2. :meth:`pump` drains each feed in turn: the batch is appended to the
   write-ahead log *before* it is applied (the write-ahead discipline —
   a crash mid-apply replays the batch on restart), pushed through the
   :class:`~repro.cdc.maintainer.IncrementalCollector`, used to
   invalidate the materialized-answer tier, and only then acked back to
   the feed. A batch the delivery seam drops is simply not acked and is
   redelivered on the next pump.
3. :meth:`snapshot` compacts: drain, write an incremental snapshot
   (stores + A' with lineage + collector state + per-store cursors) and
   truncate the WAL.
4. :meth:`warm_restart` is the inverse: load the snapshot, replay only
   the WAL delta into the stores *and* through the maintainer —
   O(changes), not O(world) — then re-attach feeds seeded past the
   replayed cursors.

The ``delivery`` hook exists for fault injection: a callable
``(database, events) -> list[ChangeEvent] | None`` through which every
batch passes on its way to the maintainer. Returning ``None`` models a
dropped batch (not acked, retried); returning a duplicated or reordered
list models a misbehaving transport — both are harmless because the
maintainer recomputes from current store state and acks follow the raw
feed order (see the chaos suite).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

from repro.cdc.feed import ChangeEvent, ChangeFeed
from repro.cdc.maintainer import IncrementalCollector
from repro.cdc.materialize import MaterializedAugmentations
from repro.collector.collector import CollectorSettings
from repro.collector.matching import PairwiseMatcher
from repro.model.polystore import Polystore
from repro.persistence.snapshot import load_snapshot_bundle, save_snapshot
from repro.persistence.wal import WriteAheadLog, replay

DeliveryHook = Callable[[str, list[ChangeEvent]], "list[ChangeEvent] | None"]


@dataclass
class HubReport:
    """What one :meth:`ChangeHub.pump` accomplished."""

    batches: int = 0
    events: int = 0
    dropped_batches: int = 0
    relations_added: int = 0
    relations_removed: int = 0
    #: Materialized answers invalidated by this pump.
    invalidated: int = 0
    #: Events still unacknowledged after the pump (dropped batches).
    lag: int = 0
    #: Per-database count of events applied.
    per_database: dict[str, int] = field(default_factory=dict)


class ChangeHub:
    """Drives incremental maintenance for one polystore + A' index."""

    def __init__(
        self,
        polystore: Polystore,
        aindex: Any,
        maintainer: IncrementalCollector,
        obs: Any = None,
        wal: WriteAheadLog | None = None,
        materialized: MaterializedAugmentations | None = None,
        delivery: DeliveryHook | None = None,
    ) -> None:
        self.polystore = polystore
        self.aindex = aindex
        self.maintainer = maintainer
        self.obs = obs
        self.wal = wal
        self.materialized = materialized
        self.delivery = delivery
        self.feeds: dict[str, ChangeFeed] = {}
        #: Highest WAL-logged sequence number per database. Tracked
        #: separately from acks so a delivery fault (batch logged, then
        #: dropped) does not double-log the batch on redelivery.
        self._logged_seq: dict[str, int] = {}

    # -- lifecycle -------------------------------------------------------------

    def attach(self, seeds: dict[str, int] | None = None) -> None:
        """Create and attach a change feed to every store.

        ``seeds`` pre-positions each feed's sequence counter (warm
        restart: everything at or below the seed is already applied).
        """
        journal = self.obs.events if self.obs is not None else None
        for database in sorted(self.polystore):
            feed = ChangeFeed(database, journal=journal)
            seed = (seeds or {}).get(database, 0)
            if seed:
                feed.seed(seed)
            self.feeds[database] = feed
            self.polystore.database(database).changes = feed
            self._logged_seq.setdefault(database, seed)

    def detach(self) -> None:
        """Stop capturing changes (feeds keep their unacked events)."""
        for database in self.feeds:
            self.polystore.database(database).changes = None

    def bootstrap(self) -> Any:
        """Cold start: full batch-equivalent scan, then attach feeds.

        Ordering matters — the scan happens before feeds exist, so no
        write is both scanned and re-delivered as an event.
        """
        report = self.maintainer.bootstrap(self.polystore, self.aindex)
        self.attach()
        return report

    # -- the pump --------------------------------------------------------------

    def pump(self) -> HubReport:
        """Drain every feed once; returns what happened."""
        report = HubReport()
        for database in sorted(self.feeds):
            feed = self.feeds[database]
            raw = feed.read_since()
            if not raw:
                continue
            if self.wal is not None:
                logged = self._logged_seq.get(database, 0)
                to_log = [e for e in raw if e.seq > logged]
                if to_log:
                    self.wal.append(database, to_log)
                    self._logged_seq[database] = to_log[-1].seq
            delivered: list[ChangeEvent] | None = list(raw)
            if self.delivery is not None:
                delivered = self.delivery(database, list(raw))
            if delivered is None:
                # Dropped in transit: leave unacked, redeliver next pump.
                report.dropped_batches += 1
                self._count("cdc_batches_dropped_total")
                continue
            ingest = self.maintainer.apply(
                self.polystore, self.aindex, delivered
            )
            if self.materialized is not None:
                report.invalidated += self.materialized.invalidate(
                    ingest.invalidation_keys, (database,)
                )
            feed.ack(raw[-1].seq)
            report.batches += 1
            report.events += len(raw)
            report.relations_added += ingest.relations_added
            report.relations_removed += ingest.relations_removed
            report.per_database[database] = len(raw)
            if self.obs is not None:
                for event in raw:
                    self.obs.metrics.counter(
                        "cdc_events_total", op=event.op
                    ).inc()
                self._count("cdc_batches_applied_total")
                self.obs.events.emit(
                    "cdc_batch_applied",
                    database=database,
                    events=len(raw),
                    relations_added=ingest.relations_added,
                    relations_removed=ingest.relations_removed,
                    affected_nodes=ingest.affected_nodes,
                    pairs_rescored=ingest.pairs_rescored,
                    pairs_unscorable=ingest.pairs_unscorable,
                    values_fetched=ingest.values_fetched,
                    dedup_rechecked=ingest.dedup_rechecked,
                )
        report.lag = self.lag()
        if self.obs is not None:
            self.obs.metrics.gauge("cdc_lag_events").set(report.lag)
        return report

    def lag(self) -> int:
        """Recorded-but-unapplied events across all feeds — the bound
        on how stale a served (or materialized) answer can be."""
        return sum(feed.pending() for feed in self.feeds.values())

    def status(self) -> dict[str, Any]:
        return {
            "databases": {
                database: {
                    "last_seq": feed.last_seq,
                    "acked_seq": feed.acked_seq,
                    "pending": feed.pending(),
                }
                for database, feed in sorted(self.feeds.items())
            },
            "lag": self.lag(),
            "wal_bytes": self.wal.size_bytes() if self.wal else 0,
            "maintainer": self.maintainer.state(),
            "materialized": (
                self.materialized.status() if self.materialized else None
            ),
        }

    # -- snapshot / restart ----------------------------------------------------

    def snapshot(self, directory: str | Path) -> Path:
        """Compact: drain pending events, snapshot, truncate the WAL.

        Writers racing the snapshot should be quiesced (or their events
        accepted as the first entries of the next WAL generation); the
        drained state itself is crash-consistent because replay is
        idempotent.
        """
        while self.pump().batches:
            pass
        applied = {
            database: feed.acked_seq
            for database, feed in self.feeds.items()
        }
        path = save_snapshot(
            directory,
            self.polystore,
            self.aindex,
            applied_seqs=applied,
            cdc_state=self.maintainer.dump_state(),
        )
        if self.wal is not None:
            self.wal.truncate()
            self._logged_seq = dict(applied)
        if self.obs is not None:
            self.obs.events.emit(
                "cdc_snapshot", directory=str(path), applied=applied
            )
        return path

    @classmethod
    def warm_restart(
        cls,
        directory: str | Path,
        matcher: PairwiseMatcher,
        settings: CollectorSettings | None = None,
        wal: WriteAheadLog | None = None,
        obs: Any = None,
        materialized: MaterializedAugmentations | None = None,
        delivery: DeliveryHook | None = None,
    ) -> tuple["ChangeHub", dict[str, Any]]:
        """Restore a hub from an incremental snapshot + WAL delta.

        O(changes): the snapshot provides the world as of its cursors;
        only WAL events past them are re-applied to the stores and fed
        through the maintainer. Order is load-bearing — the collector
        state is restored *before* replay touches the stores, so the
        token index reflects snapshot-time state and the replayed batch
        is processed exactly like a live one.
        """
        bundle = load_snapshot_bundle(directory)
        aindex = bundle.aindex
        # Snapshots load with enforcement off (the edge set is already
        # closed); incremental deltas need propagation back on.
        aindex.enforce_consistency = True
        maintainer = IncrementalCollector(matcher, settings)
        maintainer.load_state(bundle.cdc_state or {}, bundle.polystore)
        applied = dict(bundle.applied_seqs)
        replayed: list[ChangeEvent] = []
        if wal is not None:
            applied, replayed = replay(bundle.polystore, wal, applied)
        hub = cls(
            bundle.polystore,
            aindex,
            maintainer,
            obs=obs,
            wal=wal,
            materialized=materialized,
            delivery=delivery,
        )
        if replayed:
            maintainer.apply(bundle.polystore, aindex, replayed)
        hub.attach(seeds=applied)
        if obs is not None:
            obs.events.emit(
                "cdc_warm_restart",
                directory=str(directory),
                replayed=len(replayed),
            )
        return hub, {"replayed_events": len(replayed), "applied_seqs": applied}

    # -- internals -------------------------------------------------------------

    def _count(self, name: str) -> None:
        if self.obs is not None:
            self.obs.metrics.counter(name).inc()
