"""A Redis-like key-value store.

Supports the commands the Polyphony discounts database needs — GET,
SET, DEL, MGET, EXISTS, KEYS with glob patterns, and cursor-based SCAN —
plus the generic :class:`~repro.stores.base.Store` contract. All entries
live in a single logical collection (Redis has one keyspace per
database); its name defaults to ``"main"``.
"""

from __future__ import annotations

import fnmatch
from typing import Any, Iterator

from repro.errors import KeyNotFoundError, QueryError
from repro.model.objects import DataObject, GlobalKey
from repro.stores.base import Store


class KeyValueStore(Store):
    """An in-memory keyspace with glob-pattern queries."""

    engine = "keyvalue"

    def __init__(self, keyspace: str = "main") -> None:
        super().__init__()
        self.keyspace = keyspace
        self._data: dict[str, Any] = {}

    # -- native commands -----------------------------------------------------

    def set(self, key: str, value: Any) -> None:
        self.stats.writes += 1
        op = "update" if key in self._data else "append"
        self._data[key] = value
        self._emit_change(op, self.keyspace, key, value)

    def get_command(self, key: str) -> Any:
        """GET: the value at ``key`` or ``None`` (Redis semantics)."""
        return self._data.get(key)

    def delete(self, key: str) -> bool:
        self.stats.writes += 1
        removed = self._data.pop(key, _MISSING) is not _MISSING
        if removed:
            self._emit_change("delete", self.keyspace, key)
        return removed

    def mget(self, keys: list[str]) -> list[Any]:
        """MGET: values in order, ``None`` for missing keys."""
        return [self._data.get(key) for key in keys]

    def keys(self, pattern: str = "*") -> list[str]:
        """KEYS: all keys matching a glob pattern."""
        return [key for key in self._data if fnmatch.fnmatchcase(key, pattern)]

    def scan(
        self, cursor: int = 0, pattern: str = "*", count: int = 10
    ) -> tuple[int, list[str]]:
        """SCAN: cursor iteration over the keyspace.

        Returns ``(next_cursor, page)``; a next cursor of 0 means the
        iteration is complete. Like Redis, the guarantee is that every
        key present for the whole scan is returned at least once.
        """
        all_keys = sorted(self._data)
        page: list[str] = []
        index = cursor
        while index < len(all_keys) and len(page) < count:
            key = all_keys[index]
            if fnmatch.fnmatchcase(key, pattern):
                page.append(key)
            index += 1
        next_cursor = 0 if index >= len(all_keys) else index
        return next_cursor, page

    def __len__(self) -> int:
        return len(self._data)

    # -- Store contract -------------------------------------------------------

    def execute(self, query: Any) -> list[DataObject]:
        """Native query: a Redis-style command string or a glob pattern.

        Strings starting with a known command verb (``GET``, ``MGET``,
        ``KEYS``, ...) run through the command parser; the read verbs
        produce data objects. A bare glob pattern is shorthand for
        ``KEYS pattern``. Also accepts ``("mget", [keys])`` for the
        connector's explicit batch fetch.
        """
        self.stats.queries += 1
        if isinstance(query, str):
            objects = self._execute_text(query)
        elif (
            isinstance(query, tuple)
            and len(query) == 2
            and query[0] == "mget"
        ):
            keys = list(query[1])
            self.stats.rows_examined += len(keys)
            objects = [self._object(key) for key in keys if key in self._data]
        else:
            raise QueryError(f"unsupported key-value query: {query!r}")
        self.stats.objects_returned += len(objects)
        return objects

    def _execute_text(self, query: str) -> list[DataObject]:
        from repro.stores.keyvalue.commands import (
            READ_VERBS,
            execute_command,
            parse_command,
        )

        verb = parse_command(query)[0].upper()
        from repro.stores.keyvalue.commands import _HANDLERS

        if verb not in _HANDLERS:
            # Bare glob pattern: shorthand for KEYS <pattern>.
            self.stats.rows_examined += len(self._data)
            pattern = query.strip() or "*"
            return [self._object(key) for key in sorted(self.keys(pattern))]
        if verb not in READ_VERBS:
            raise QueryError(
                f"{verb} is a command, not a query; use "
                f"KeyValueStore.command() for writes"
            )
        parts = parse_command(query)
        if verb == "KEYS":
            self.stats.rows_examined += len(self._data)
            keys = execute_command(self, query)
            return [self._object(key) for key in keys]
        self.stats.rows_examined += len(parts) - 1  # GET / MGET probe keys
        if verb == "GET":
            value = execute_command(self, query)
            return [self._object(parts[1])] if value is not None else []
        # MGET
        return [
            self._object(key) for key in parts[1:] if key in self._data
        ]

    def _explain_plan(self, query: Any) -> dict[str, Any]:
        """Access path for a key-value query: direct key probes for
        GET/MGET (and the connector's ``("mget", keys)`` form), full
        keyspace scan for KEYS / bare glob patterns."""
        data = self._data
        if (
            isinstance(query, tuple)
            and len(query) == 2
            and query[0] == "mget"
        ):
            keys = list(query[1])
            return {
                "access_path": "key_probe",
                "index": "keyspace_hash",
                "estimated_rows": len(keys),
                "estimated_cost": float(len(keys)),
            }
        if not isinstance(query, str):
            raise QueryError(f"unsupported key-value query: {query!r}")
        from repro.stores.keyvalue.commands import _HANDLERS, parse_command

        parts = parse_command(query)
        verb = parts[0].upper()
        if verb == "GET":
            return {
                "access_path": "key_probe",
                "index": "keyspace_hash",
                "estimated_rows": 1 if len(parts) > 1 and parts[1] in data else 0,
                "estimated_cost": 1.0,
            }
        if verb == "MGET":
            probes = len(parts) - 1
            return {
                "access_path": "key_probe",
                "index": "keyspace_hash",
                "estimated_rows": probes,
                "estimated_cost": float(probes),
            }
        # KEYS, SCAN, unknown verbs (bare glob patterns) — all walk the
        # whole keyspace and filter.
        return {
            "access_path": "keyspace_scan",
            "index": None,
            "pattern": parts[1] if verb in _HANDLERS and len(parts) > 1
            else query.strip() or "*",
            "estimated_rows": len(data),
            "estimated_cost": float(len(data)),
        }

    def scatter(self, query: Any, scheme: Any) -> tuple[list, Any]:
        """An ``("mget", keys)`` asks each key's owner, when placement
        derives it, for its keys; anything else asks every shard (which
        refuses a write or a SCAN cursor)."""
        targets, __ = super().scatter(query, scheme)
        if isinstance(query, tuple) and len(query) == 2 and query[0] == "mget":
            owners: dict[Any, list[str]] = {}
            for key in query[1]:
                owners.setdefault(scheme.shard_of_key(key), []).append(key)
            if None not in owners:
                targets = [(shard, ("mget", keys)) for shard, keys in sorted(owners.items())]
        return targets, "rerun"

    def merge(self, query: Any, results: list[list[DataObject]]) -> list[DataObject]:
        """GET / MGET / KEYS re-run over the shards' keys: their order."""
        return self._rerun(query, results)

    def command(self, text: str) -> Any:
        """Run any Redis-style command string (including writes)."""
        from repro.stores.keyvalue.commands import execute_command

        return execute_command(self, text)

    def get_value(self, collection: str, key: str) -> Any:
        if collection != self.keyspace or key not in self._data:
            raise KeyNotFoundError(f"{collection}.{key}")
        return self._data[key]

    def multi_get(self, keys) -> list[DataObject]:  # type: ignore[override]
        """Batch fetch via one MGET over the keyspace.

        Duplicates fetch once and missing keys are dropped (MGET
        returns nil for them), matching the store contract.
        """
        self.stats.multi_gets += 1
        unique_keys = [
            key for key in dict.fromkeys(keys)
            if key.collection == self.keyspace and key.key in self._data
        ]
        found = [
            DataObject(key, value)
            for key, value in zip(
                unique_keys, self.mget([key.key for key in unique_keys])
            )
        ]
        self.stats.objects_returned += len(found)
        return found

    def collections(self) -> list[str]:
        return [self.keyspace]

    def collection_keys(self, collection: str) -> Iterator[str]:
        if collection != self.keyspace:
            return iter(())
        return iter(list(self._data))

    # -- state contract -----------------------------------------------------

    def dump_state(self) -> dict[str, Any]:
        return {
            "keyspace": self.keyspace,
            "entries": {key: self._data[key] for key in sorted(self._data)},
        }

    @classmethod
    def load_state(cls, payload: dict[str, Any]) -> "KeyValueStore":
        store = cls(keyspace=payload["keyspace"])
        for key, value in payload["entries"].items():
            store.set(key, value)
        return store

    def empty_like(self) -> "KeyValueStore":
        return KeyValueStore(keyspace=self.keyspace)

    def apply_change(
        self, op: str, collection: str, key: str, value: Any = None
    ) -> None:
        if op == "delete":
            self.delete(key)
        else:
            self.set(key, value)

    def _object(self, key: str) -> DataObject:
        return DataObject(
            GlobalKey(self.database_name or "kv", self.keyspace, key),
            self._data[key],
        )


class _Missing:
    pass


_MISSING = _Missing()
