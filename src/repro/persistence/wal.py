"""Write-ahead log of CDC batches, for O(delta) warm restarts.

The hub appends every CDC batch to the WAL *before* applying it, so a
server that crashes mid-apply replays only the events past its last
incremental snapshot — O(changes), not O(world).

Format: one JSONL record per batch, each line ``<crc32 hex8> <json>``.
The checksum covers the JSON payload, so a torn tail write (the classic
crash artifact) is detected and tolerated: replay stops at the first
record that fails to parse or verify, exactly like a database WAL
recovering to its last complete record. Replay is idempotent —
re-application uses upsert semantics and skips events at or below a
given applied sequence number — so crashing *between* applying a batch
and snapshotting is safe: the next restart just replays it again.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import TYPE_CHECKING, Iterator
from zlib import crc32

from repro.errors import ReproError
from repro.model.polystore import Polystore

if TYPE_CHECKING:  # avoids the repro.cdc <-> repro.persistence cycle
    from repro.cdc.feed import ChangeEvent


class WalError(ReproError):
    """The WAL file is unreadable (not merely torn at the tail)."""


class WriteAheadLog:
    """An append-only, checksummed JSONL log of CDC batches."""

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)

    def append(self, database: str, events: list[ChangeEvent]) -> int:
        """Durably append one batch; returns the record's byte length."""
        if not events:
            return 0
        record = {
            "database": database,
            "events": [event.to_json() for event in events],
        }
        payload = json.dumps(record, sort_keys=True, separators=(",", ":"))
        line = f"{crc32(payload.encode('utf-8')):08x} {payload}\n"
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with open(self.path, "a", encoding="utf-8") as handle:
            handle.write(line)
            handle.flush()
        return len(line)

    def records(self) -> Iterator[tuple[str, list[ChangeEvent]]]:
        """Iterate ``(database, events)`` batches, in append order.

        Stops at the first torn or checksum-failing record — everything
        before it is intact (each record carries its own CRC), and
        everything after it is untrusted by definition of an
        append-only log. The file is read a line at a time, so a
        replay holds one record, not the log.
        """
        if not self.path.exists():
            return
        try:
            with open(self.path, encoding="utf-8") as handle:
                for line in handle:
                    parsed = self._parse(line)
                    if parsed is None:
                        return
                    yield parsed
        except OSError as exc:
            raise WalError(f"cannot read WAL {self.path}: {exc}") from exc

    @staticmethod
    def _parse(line: str) -> tuple[str, list[ChangeEvent]] | None:
        from repro.cdc.feed import ChangeEvent

        line = line.rstrip("\n")
        if len(line) < 10 or line[8] != " ":
            return None
        checksum, payload = line[:8], line[9:]
        if f"{crc32(payload.encode('utf-8')):08x}" != checksum:
            return None
        try:
            record = json.loads(payload)
            events = [
                ChangeEvent.from_json(spec) for spec in record["events"]
            ]
            return record["database"], events
        except (json.JSONDecodeError, KeyError, TypeError):
            return None

    def last_seqs(self) -> dict[str, int]:
        """Highest logged sequence number per database."""
        seqs: dict[str, int] = {}
        for database, events in self.records():
            for event in events:
                if event.seq > seqs.get(database, 0):
                    seqs[database] = event.seq
        return seqs

    def truncate(self) -> None:
        """Discard the log (call only after a snapshot has captured it)."""
        if self.path.exists():
            self.path.unlink()

    def size_bytes(self) -> int:
        return self.path.stat().st_size if self.path.exists() else 0


# ---------------------------------------------------------------------------
# Replay: re-apply CDC events to store engines
# ---------------------------------------------------------------------------


def apply_change(polystore: Polystore, event: ChangeEvent) -> None:
    """Re-apply one CDC event to its store, idempotently.

    Semantics are *upsert/replace*: CDC payloads are post-state, so an
    append of an existing key or an update of a missing one both land
    on the recorded state, and a delete of a missing key is a no-op.
    That is what makes replaying an already-applied suffix of the WAL
    harmless.
    """
    store = polystore.database(event.database)
    try:
        with store.lock:
            store.apply_change(
                event.op, event.collection, event.key, event.value
            )
    except NotImplementedError as exc:
        raise WalError(
            f"cannot replay into engine {store.engine!r}"
        ) from exc


def replay(
    polystore: Polystore,
    wal: WriteAheadLog,
    applied_seqs: dict[str, int] | None = None,
) -> tuple[dict[str, int], list[ChangeEvent]]:
    """Replay the WAL delta into ``polystore``.

    Skips events at or below ``applied_seqs`` (per database — typically
    the sequence numbers a snapshot captured). Returns the new per-
    database applied sequence numbers and the list of replayed events,
    in log order, for the caller to feed through the incremental
    maintainer. Stores should not have CDC feeds attached yet: replay
    must not re-emit the events it is consuming.
    """
    applied = dict(applied_seqs or {})
    replayed: list[ChangeEvent] = []
    for database, events in wal.records():
        for event in events:
            if event.seq <= applied.get(database, 0):
                continue
            apply_change(polystore, event)
            applied[database] = event.seq
            replayed.append(event)
    return applied, replayed
