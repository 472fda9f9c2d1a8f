"""JSON serialization of stores, polystores and A' indexes.

Layout of a version-2 snapshot directory::

    manifest.json        {"version": 2, "databases": [{"name", "engine"}],
                          "applied_seqs": {db: seq}}
    db_<name>.json       engine-specific payload (the store's own
                          :meth:`~repro.stores.base.Store.dump_state`)
    aindex.json          {"relations": [{"left", "right", "type", "p"}],
                          "lineage": [{"left", "right", "supports"}]}
    cdc_state.json       incremental-collector state (optional; see
                          :meth:`repro.cdc.maintainer.IncrementalCollector.dump_state`)

Round-trips preserve: every data object (keys and payloads), schemas
and secondary indexes of relational tables, document-store indexes,
graph labels/edges/properties, every p-relation with its type and
probability, and — since version 2 — the inferred-edge lineage, so
cascade deletion (:meth:`AIndex.remove_relation` with ``cascade=True``)
behaves identically on a reloaded index and a never-restarted one.
Version-1 directories still load (without lineage or CDC cursors).

``applied_seqs`` records the per-store CDC sequence number the snapshot
captured; a warm restart replays only WAL events past it — O(changes),
not O(world) (see :mod:`repro.persistence.wal`).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

from repro.core.aindex import AIndex
from repro.errors import ReproError
from repro.model.objects import GLOBAL_KEY_SEPARATOR, GlobalKey
from repro.model.polystore import Polystore
from repro.model.prelations import PRelation, RelationType
from repro.stores import ENGINES

SNAPSHOT_VERSION = 2
#: Versions :func:`load_snapshot` understands.
SUPPORTED_VERSIONS = (1, 2)


class SnapshotError(ReproError):
    """A snapshot directory is missing, malformed, or incompatible."""


@dataclass
class SnapshotBundle:
    """Everything a version-2 snapshot directory holds."""

    polystore: Polystore
    aindex: AIndex
    version: int = SNAPSHOT_VERSION
    #: Per-database CDC sequence number captured by the snapshot
    #: (empty for version-1 snapshots and CDC-less systems).
    applied_seqs: dict[str, int] = field(default_factory=dict)
    #: Incremental-collector state, if the snapshot carried one.
    cdc_state: dict[str, Any] | None = None


def save_snapshot(
    directory: str | Path,
    polystore: Polystore,
    aindex: AIndex | None = None,
    applied_seqs: dict[str, int] | None = None,
    cdc_state: dict[str, Any] | None = None,
) -> Path:
    """Write ``polystore`` (and optionally ``aindex``) to ``directory``.

    ``applied_seqs`` and ``cdc_state`` make the snapshot *incremental*:
    a warm restart loads it, replays only WAL events past the recorded
    sequence numbers, and resumes incremental maintenance from the
    persisted collector state.
    """
    path = Path(directory)
    path.mkdir(parents=True, exist_ok=True)
    manifest: dict[str, Any] = {
        "version": SNAPSHOT_VERSION,
        "databases": [],
        "applied_seqs": dict(applied_seqs or {}),
    }
    for name in sorted(polystore):
        store = polystore.database(name)
        manifest["databases"].append({"name": name, "engine": store.engine})
        try:
            with store.lock:
                _write_json(path / f"db_{name}.json", store.dump_state())
        except NotImplementedError as exc:
            raise SnapshotError(
                f"cannot snapshot engine {store.engine!r} of {name!r}"
            ) from exc
    if aindex is not None:
        relations = []
        seen: set[tuple[str, str]] = set()
        for node in aindex.nodes():
            for neighbor in aindex.neighbors(node):
                pair = tuple(sorted((str(node), str(neighbor.key))))
                if pair in seen:
                    continue
                seen.add(pair)  # type: ignore[arg-type]
                relations.append(
                    {
                        "left": pair[0],
                        "right": pair[1],
                        "type": neighbor.type.value,
                        "p": neighbor.probability,
                    }
                )
        relations.sort(key=lambda r: (r["left"], r["right"]))
        lineage = [
            {
                "left": str(pair[0]),
                "right": str(pair[1]),
                "supports": sorted(
                    [str(s[0]), str(s[1])] for s in supports
                ),
            }
            for pair, supports in aindex._lineage.items()
        ]
        lineage.sort(key=lambda entry: (entry["left"], entry["right"]))
        _write_json(
            path / "aindex.json",
            {"relations": relations, "lineage": lineage},
        )
    if cdc_state is not None:
        _write_json(path / "cdc_state.json", cdc_state)
    _write_json(path / "manifest.json", manifest)
    return path


def load_snapshot(directory: str | Path) -> tuple[Polystore, AIndex]:
    """Load a snapshot; returns the polystore and its A' index.

    Thin compatibility wrapper over :func:`load_snapshot_bundle`.
    """
    bundle = load_snapshot_bundle(directory)
    return bundle.polystore, bundle.aindex


def load_snapshot_bundle(directory: str | Path) -> SnapshotBundle:
    """Load a snapshot directory (version 1 or 2) in full.

    The returned index has consistency enforcement disabled so the
    persisted edge set is restored verbatim (it was already closed when
    saved, if it was built that way); version-2 snapshots also restore
    the inferred-edge lineage, so post-reload cascade deletion matches
    a never-restarted instance.
    """
    path = Path(directory)
    manifest_path = path / "manifest.json"
    if not manifest_path.exists():
        raise SnapshotError(f"no snapshot manifest in {path}")
    manifest = _read_json(manifest_path)
    version = manifest.get("version")
    if version not in SUPPORTED_VERSIONS:
        raise SnapshotError(f"unsupported snapshot version {version!r}")
    polystore = Polystore()
    for entry in manifest["databases"]:
        engine = ENGINES.get(entry["engine"])
        if engine is None:
            raise SnapshotError(f"unknown engine {entry['engine']!r}")
        payload = _read_json(path / f"db_{entry['name']}.json")
        polystore.attach(entry["name"], engine.load_state(payload))
    aindex = AIndex(enforce_consistency=False)
    aindex_path = path / "aindex.json"
    if aindex_path.exists():
        payload = _read_json(aindex_path)
        read_key = key_reader(polystore)
        for relation in payload["relations"]:
            aindex.add(
                PRelation(
                    read_key(relation["left"]),
                    read_key(relation["right"]),
                    RelationType(relation["type"]),
                    relation["p"],
                )
            )
        aindex.restore_lineage({
            (read_key(entry["left"]), read_key(entry["right"])): {
                (read_key(a), read_key(b)) for a, b in entry["supports"]
            }
            for entry in payload.get("lineage", ())
        })
    cdc_path = path / "cdc_state.json"
    return SnapshotBundle(
        polystore=polystore,
        aindex=aindex,
        version=version,
        applied_seqs={
            name: int(seq)
            for name, seq in (manifest.get("applied_seqs") or {}).items()
        },
        cdc_state=_read_json(cdc_path) if cdc_path.exists() else None,
    )


def key_reader(polystore: Polystore) -> Callable[[str], GlobalKey]:
    """A ``text -> GlobalKey`` reader for one load of persisted keys.

    Each distinct text is parsed once. A key of an attached database is
    the one its store hands out (:meth:`~repro.stores.base.Store.global_key`),
    so the restored index, the collector state and later query answers
    share one key object per object; any other text is
    :meth:`GlobalKey.parse`'s, which refuses a malformed one.
    """
    keys: dict[str, GlobalKey] = {}

    def read(text: str) -> GlobalKey:
        key = keys.get(text)
        if key is None:
            parts = text.split(GLOBAL_KEY_SEPARATOR, 2)
            if len(parts) == 3 and parts[0] in polystore:
                key = polystore.database(parts[0]).global_key(*parts)
            else:
                key = GlobalKey.parse(text)
            keys[text] = key
        return key

    return read


def _write_json(path: Path, payload: dict[str, Any]) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=1, sort_keys=True)


def _read_json(path: Path) -> dict[str, Any]:
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise SnapshotError(f"cannot read {path}: {exc}") from exc
