"""WAL + incremental snapshot suite: crash anywhere, recover to truth.

The recovery invariant, swept across kill points: whatever prefix of
the write-ahead log survives a crash, a warm restart from the last
incremental snapshot plus that prefix yields a polystore whose
incrementally restored A' index equals a from-scratch batch rebuild
over that same recovered polystore. Plus: torn-tail tolerance, replay
idempotence, the version-2 snapshot round-trip (lineage now persisted —
cascade deletion survives restarts) and version-1 back-compat.
"""

from __future__ import annotations

import json

import pytest

from repro.cdc import ChangeHub, IncrementalCollector
from repro.core.aindex import AIndex
from repro.model.objects import GlobalKey
from repro.model.prelations import PRelation
from repro.persistence import (
    WriteAheadLog,
    load_snapshot,
    load_snapshot_bundle,
    replay,
    save_snapshot,
)
from repro.persistence.snapshot import SnapshotError

from tests.test_cdc_props import (
    Driver,
    batch_signature,
    build_polystore,
    index_signature,
    make_matcher,
)

import random


def make_hub(polystore, wal=None):
    hub = ChangeHub(
        polystore, AIndex(), IncrementalCollector(make_matcher()), wal=wal
    )
    hub.bootstrap()
    return hub


def run_scenario(tmp_path, writes=25, seed=11):
    """Bootstrap, snapshot, then stream ``writes`` logged mutations."""
    polystore = build_polystore()
    wal = WriteAheadLog(tmp_path / "wal.jsonl")
    hub = make_hub(polystore, wal=wal)
    snapdir = tmp_path / "snap"
    hub.snapshot(snapdir)
    driver = Driver(polystore, random.Random(seed))
    for step in range(writes):
        driver.step()
        if (step + 1) % 5 == 0:
            hub.pump()
    hub.pump()
    return polystore, wal, snapdir, hub


class TestWalFormat:
    def test_torn_tail_tolerated(self, tmp_path):
        __, wal, __, __ = run_scenario(tmp_path)
        complete = list(wal.records())
        assert complete
        # Crash artifact: the last record only half made it to disk.
        text = wal.path.read_text()
        wal.path.write_text(text[: len(text) - 17])
        recovered = list(wal.records())
        assert recovered == complete[:-1]

    def test_a_streamed_log_ends_at_its_torn_tail(self, tmp_path):
        """Records are read a line at a time: the intact ones come out
        in append order, one per ``next``, and the torn tail ends the
        iteration (nothing past it is trusted, even an intact record)."""
        __, wal, __, __ = run_scenario(tmp_path)
        complete = list(wal.records())
        intact = wal.path.read_text()
        last = intact.splitlines(keepends=True)[-1]
        wal.path.write_text(intact + last[: len(last) // 2] + "\n" + last)
        streamed = wal.records()
        for record in complete:
            assert next(streamed) == record
        with pytest.raises(StopIteration):
            next(streamed)

    def test_checksum_detects_corruption(self, tmp_path):
        __, wal, __, __ = run_scenario(tmp_path)
        complete = list(wal.records())
        lines = wal.path.read_text().splitlines(keepends=True)
        corrupted = lines[-1].replace('"op"', '"0p"', 1)
        wal.path.write_text("".join(lines[:-1]) + corrupted)
        recovered = list(wal.records())
        assert recovered == complete[:-1]

    def test_empty_and_missing_wal(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "missing.jsonl")
        assert list(wal.records()) == []
        assert wal.last_seqs() == {}
        assert wal.size_bytes() == 0


class TestReplay:
    def test_replay_is_idempotent(self, tmp_path):
        live, wal, snapdir, __ = run_scenario(tmp_path)
        bundle = load_snapshot_bundle(snapdir)
        applied, events = replay(bundle.polystore, wal, bundle.applied_seqs)
        assert events
        once = {
            name: sorted(
                str(obj.key)
                for obj in bundle.polystore.database(name).scan_objects()
            )
            for name in bundle.polystore
        }
        # Replaying the very same WAL again must change nothing: the
        # cursor skips everything...
        applied_again, second = replay(bundle.polystore, wal, applied)
        assert second == []
        assert applied_again == applied
        # ...and even a cursor-less re-replay lands on the same state
        # (upsert semantics), which is what makes a crash between
        # apply and snapshot harmless.
        replay(bundle.polystore, wal, None)
        again = {
            name: sorted(
                str(obj.key)
                for obj in bundle.polystore.database(name).scan_objects()
            )
            for name in bundle.polystore
        }
        assert again == once

    def test_kill_point_sweep(self, tmp_path):
        """Crash after any prefix of WAL records: warm restart is
        always self-consistent (incremental index == batch rebuild of
        the recovered polystore)."""
        __, wal, snapdir, __ = run_scenario(tmp_path, writes=15)
        lines = wal.path.read_text().splitlines(keepends=True)
        assert len(lines) >= 3
        for kill_point in range(len(lines) + 1):
            partial = WriteAheadLog(tmp_path / f"wal_{kill_point}.jsonl")
            partial.path.write_text("".join(lines[:kill_point]))
            hub, stats = ChangeHub.warm_restart(
                snapdir, make_matcher(), wal=partial
            )
            assert index_signature(hub.aindex) == batch_signature(
                hub.polystore
            ), f"diverged at kill point {kill_point}/{len(lines)}"

    def test_snapshot_plus_delta_equals_full_state(self, tmp_path):
        live, wal, snapdir, hub = run_scenario(tmp_path)
        restarted, stats = ChangeHub.warm_restart(
            snapdir, make_matcher(), wal=wal
        )
        assert stats["replayed_events"] > 0
        assert index_signature(restarted.aindex) == index_signature(
            hub.aindex
        )
        for name in live:
            assert sorted(
                str(obj.key)
                for obj in restarted.polystore.database(name).scan_objects()
            ) == sorted(
                str(obj.key) for obj in live.database(name).scan_objects()
            )
        # The restarted hub keeps maintaining incrementally.
        restarted.polystore.database("catalogue").insert(
            "albums", {"_id": "d_new", "title": "Silver Sessions"}
        )
        restarted.pump()
        assert index_signature(restarted.aindex) == batch_signature(
            restarted.polystore
        )

    def test_restart_does_not_reemit_replayed_events(self, tmp_path):
        """Feeds attach after replay, seeded past it: the WAL delta is
        not captured again (no echo loop)."""
        __, wal, snapdir, __ = run_scenario(tmp_path)
        restarted, stats = ChangeHub.warm_restart(
            snapdir, make_matcher(), wal=wal
        )
        for database, feed in restarted.feeds.items():
            assert feed.pending() == 0
            assert feed.acked_seq == stats["applied_seqs"].get(database, 0)


class TestReplayIntoShards:
    """``apply_change`` / ``replay`` on a ``shard_polystore`` polystore:
    the routed write leaves each key on exactly one shard."""

    @staticmethod
    def sharded_catalogue(placement):
        from repro.model import Polystore
        from repro.sharding import shard_polystore
        from repro.stores import DocumentStore

        catalogue = DocumentStore()
        for seq in range(0, 60, 5):
            catalogue.insert("albums", {"_id": f"d{seq}", "seq": seq})
        polystore = Polystore()
        polystore.attach("catalogue", catalogue)
        return shard_polystore(polystore, shards=3, placement=placement)

    @staticmethod
    def holders(polystore, key):
        return [
            index
            for index, shard in enumerate(
                polystore.database("catalogue").shards
            )
            if key in set(shard.collection_keys("albums"))
        ]

    @pytest.mark.parametrize("placement", ["hash", "range"])
    def test_append_move_delete_leave_one_holder_then_none(
        self, tmp_path, placement
    ):
        from repro.cdc.feed import ChangeEvent
        from repro.persistence import apply_change

        def event(seq, op, value=None):
            return ChangeEvent(seq, "catalogue", op, "albums", "new", value)

        events = [
            event(1, "append", {"_id": "new", "seq": 2, "title": "Low"}),
            # The token moves: under range placement, so does the object.
            event(2, "update", {"_id": "new", "seq": 57}),
            event(3, "delete"),
        ]
        polystore = self.sharded_catalogue(placement)
        store = polystore.database("catalogue")
        apply_change(polystore, events[0])
        first = self.holders(polystore, "new")
        assert len(first) == 1
        apply_change(polystore, events[1])
        second = self.holders(polystore, "new")
        assert len(second) == 1
        assert (second != first) == (placement == "range")
        # Replace, not merge: the dropped field is gone.
        assert store.get_value("albums", "new") == {"_id": "new", "seq": 57}
        apply_change(polystore, events[2])
        assert self.holders(polystore, "new") == []
        apply_change(polystore, events[2])  # idempotent

        # The same through a log, twice over (an already-applied suffix).
        wal = WriteAheadLog(tmp_path / "wal.jsonl")
        wal.append("catalogue", events[:2])
        replayed = self.sharded_catalogue(placement)
        applied, done = replay(replayed, wal)
        assert applied == {"catalogue": 2} and len(done) == 2
        replay(replayed, wal)
        assert self.holders(replayed, "new") == second
        assert replayed.database("catalogue").count_objects() == 13


    def test_a_sharded_deployment_snapshots_crashes_and_restarts(
        self, tmp_path
    ):
        """docs/INGESTION.md, "Over sharded stores": the snapshot is an
        ordinary one, the restart replays the delta into plain stores,
        and re-partitioning plus a seeded hub resumes capture."""
        from repro.sharding import shard_polystore

        polystore = shard_polystore(build_polystore(), shards=3)
        wal = WriteAheadLog(tmp_path / "wal.jsonl")
        hub = make_hub(polystore, wal=wal)
        snapdir = hub.snapshot(tmp_path / "snap")
        catalogue = polystore.database("catalogue")
        catalogue.apply_change(
            "append", "albums", "d9", {"title": "Silver Sessions Live"}
        )
        catalogue.apply_change("delete", "albums", "d0")
        assert hub.pump().events == 2
        live = {obj.key: obj.value for obj in catalogue.scan_objects()}

        restarted, info = ChangeHub.warm_restart(
            snapdir, make_matcher(), wal=wal
        )
        assert info["replayed_events"] == 2
        plain = restarted.polystore.database("catalogue")
        assert not hasattr(plain, "shards")
        assert {obj.key: obj.value for obj in plain.scan_objects()} == live
        assert index_signature(restarted.aindex) == index_signature(
            hub.aindex
        )

        resharded = shard_polystore(restarted.polystore, shards=3)
        resumed = ChangeHub(
            resharded, restarted.aindex, restarted.maintainer, wal=wal
        )
        resumed.attach(seeds=info["applied_seqs"])
        resharded.database("catalogue").apply_change(
            "append", "albums", "d10", {"title": "Silver Harbors Deluxe"}
        )
        report = resumed.pump()
        assert report.events == 1
        assert resumed.feeds["catalogue"].last_seq == (
            info["applied_seqs"]["catalogue"] + 1
        )
        assert index_signature(resumed.aindex) == batch_signature(resharded)


class TestSnapshotV2:
    def test_lineage_round_trip_preserves_cascade(self, tmp_path):
        """The PR's persistence fix: inferred-edge lineage is part of
        the snapshot, so cascade deletion works after a reload exactly
        as it does on a never-restarted index."""
        a = GlobalKey.parse("transactions.inventory.a0")
        b = GlobalKey.parse("catalogue.albums.d0")
        c = GlobalKey.parse("similar.Item.i0")
        index = AIndex()
        index.add(PRelation.identity(a, b, 0.95))
        index.add(PRelation.identity(b, c, 0.9))  # infers a -- c
        assert index.is_inferred(a, c)

        polystore = build_polystore()
        save_snapshot(tmp_path / "snap", polystore, index)
        __, reloaded = load_snapshot(tmp_path / "snap")
        assert reloaded.is_inferred(a, c)

        expected = index.remove_relation(a, b, cascade=True)
        removed = reloaded.remove_relation(a, b, cascade=True)
        assert removed == expected > 1
        assert reloaded.relation(a, c) is None

    def test_bundle_round_trip(self, tmp_path):
        polystore = build_polystore()
        hub = make_hub(polystore)
        hub.snapshot(tmp_path / "snap")
        bundle = load_snapshot_bundle(tmp_path / "snap")
        assert bundle.version == 2
        assert bundle.applied_seqs == {
            name: hub.feeds[name].acked_seq for name in polystore
        }
        assert bundle.cdc_state is not None
        assert bundle.cdc_state["scored"]
        assert index_signature(bundle.aindex) == index_signature(hub.aindex)

    def test_version_1_still_loads(self, tmp_path):
        polystore = build_polystore()
        index = AIndex()
        index.add(
            PRelation.identity(
                GlobalKey.parse("transactions.inventory.a0"),
                GlobalKey.parse("catalogue.albums.d0"),
                0.95,
            )
        )
        path = save_snapshot(tmp_path / "snap", polystore, index)
        # Rewrite the directory as a version-1 snapshot (no lineage,
        # no cursors) — the layout older releases produced.
        manifest = json.loads((path / "manifest.json").read_text())
        manifest["version"] = 1
        manifest.pop("applied_seqs", None)
        (path / "manifest.json").write_text(json.dumps(manifest))
        aindex_payload = json.loads((path / "aindex.json").read_text())
        aindex_payload.pop("lineage", None)
        (path / "aindex.json").write_text(json.dumps(aindex_payload))

        bundle = load_snapshot_bundle(path)
        assert bundle.version == 1
        assert bundle.applied_seqs == {}
        assert bundle.cdc_state is None
        assert index_signature(bundle.aindex) == index_signature(index)

    def test_unsupported_version_rejected(self, tmp_path):
        polystore = build_polystore()
        path = save_snapshot(tmp_path / "snap", polystore)
        manifest = json.loads((path / "manifest.json").read_text())
        manifest["version"] = 99
        (path / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(SnapshotError):
            load_snapshot_bundle(path)
