"""A MongoDB-like document store.

Collections hold schemaless documents keyed by ``_id``. The native
query interface is :meth:`DocumentStore.find` — filter document,
optional projection, sort, skip, limit — plus ``insert/update/delete``
and equality indexes that ``find`` uses automatically for top-level
equality predicates.
"""

from __future__ import annotations

import itertools
from typing import Any, Iterator, Mapping

from repro.errors import DuplicateKeyError, KeyNotFoundError, QueryError
from repro.model.objects import DataObject, GlobalKey
from repro.stores.base import Store, token_window
from repro.stores.document.query import (
    compile_filter,
    project,
    resolve_path,
    token_bounds,
)


class DocumentStore(Store):
    """An in-memory document database."""

    engine = "document"

    def __init__(self) -> None:
        super().__init__()
        self._collections: dict[str, dict[str, dict[str, Any]]] = {}
        # collection -> field -> value -> set of _ids
        self._indexes: dict[str, dict[str, dict[Any, set[str]]]] = {}
        self._id_counter = itertools.count(1)

    # -- collection management -------------------------------------------------

    def create_collection(self, name: str) -> None:
        self._collections.setdefault(name, {})

    def drop_collection(self, name: str) -> None:
        self._collections.pop(name, None)
        self._indexes.pop(name, None)

    def create_index(self, collection: str, field: str) -> None:
        """Build an equality index on a top-level ``field``."""
        documents = self._require(collection)
        index: dict[Any, set[str]] = {}
        for doc_id, document in documents.items():
            for value in _index_values(document, field):
                index.setdefault(value, set()).add(doc_id)
        self._indexes.setdefault(collection, {})[field] = index

    # -- writes -----------------------------------------------------------------

    def insert(self, collection: str, document: Mapping[str, Any]) -> str:
        """Insert a document, assigning ``_id`` when absent."""
        documents = self._collections.setdefault(collection, {})
        doc = dict(document)
        doc_id = str(doc.get("_id") or f"doc{next(self._id_counter)}")
        if doc_id in documents:
            raise DuplicateKeyError(f"{collection}._id={doc_id}")
        doc["_id"] = doc_id
        documents[doc_id] = doc
        self._index_add(collection, doc_id, doc)
        self.stats.writes += 1
        self._emit_change("append", collection, doc_id, doc)
        return doc_id

    def insert_many(
        self, collection: str, docs: list[Mapping[str, Any]]
    ) -> list[str]:
        return [self.insert(collection, doc) for doc in docs]

    def update_one(
        self, collection: str, doc_id: str, changes: Mapping[str, Any]
    ) -> None:
        """Update one document.

        ``changes`` is either a plain field map (merged into the
        document, as before) or a Mongo-style update document using the
        operators ``$set``, ``$unset``, ``$inc``, ``$push``, ``$pull``
        and ``$rename``.
        """
        documents = self._require(collection)
        if doc_id not in documents:
            raise KeyNotFoundError(f"{collection}._id={doc_id}")
        self._index_remove(collection, doc_id, documents[doc_id])
        _apply_update(documents[doc_id], changes)
        documents[doc_id]["_id"] = doc_id
        self._index_add(collection, doc_id, documents[doc_id])
        self.stats.writes += 1
        self._emit_change("update", collection, doc_id, documents[doc_id])

    def update_many(
        self,
        collection: str,
        query: Mapping[str, Any],
        changes: Mapping[str, Any],
    ) -> int:
        """Update every document matching ``query``; returns the count."""
        documents = self._require(collection)
        matcher = compile_filter(query)
        targets = [
            doc_id for doc_id, doc in documents.items() if matcher(doc)
        ]
        for doc_id in targets:
            self.update_one(collection, doc_id, changes)
        return len(targets)

    def delete_many(
        self, collection: str, query: Mapping[str, Any]
    ) -> int:
        """Delete every document matching ``query``; returns the count."""
        documents = self._require(collection)
        matcher = compile_filter(query)
        targets = [
            doc_id for doc_id, doc in documents.items() if matcher(doc)
        ]
        for doc_id in targets:
            self.delete_one(collection, doc_id)
        return len(targets)

    def delete_one(self, collection: str, doc_id: str) -> bool:
        documents = self._require(collection)
        document = documents.pop(doc_id, None)
        if document is None:
            return False
        self._index_remove(collection, doc_id, document)
        self.stats.writes += 1
        self._emit_change("delete", collection, doc_id)
        return True

    # -- reads ------------------------------------------------------------------

    def find(
        self,
        collection: str,
        query: Mapping[str, Any] | None = None,
        projection: Mapping[str, int] | None = None,
        sort: list[tuple[str, int]] | None = None,
        skip: int = 0,
        limit: int | None = None,
    ) -> list[dict[str, Any]]:
        """Mongo-style find; uses equality indexes when possible."""
        self.stats.queries += 1
        documents = self._require(collection)
        query = query or {}
        matcher = compile_filter(query)  # refuses a bad filter first
        candidates = self._candidates(collection, documents, query)
        self.stats.rows_examined += len(candidates)
        matched = [doc for doc in candidates if matcher(doc)]
        if sort:
            for field, direction in reversed(sort):
                matched.sort(
                    key=lambda doc: _sort_key(resolve_path(doc, field)),
                    reverse=direction < 0,
                )
        if skip:
            matched = matched[skip:]
        if limit is not None:
            matched = matched[:limit]
        results = [project(doc, projection) for doc in matched]
        self.stats.objects_returned += len(results)
        return results

    def find_one(
        self, collection: str, query: Mapping[str, Any] | None = None
    ) -> dict[str, Any] | None:
        results = self.find(collection, query, limit=1)
        return results[0] if results else None

    def count(self, collection: str, query: Mapping[str, Any] | None = None) -> int:
        documents = self._require(collection)
        if not query:
            return len(documents)
        matcher = compile_filter(query)
        return sum(1 for doc in documents.values() if matcher(doc))

    # -- Store contract -----------------------------------------------------------

    def execute(self, query: Any) -> list[DataObject]:
        """Native query: ``(collection, filter)`` or a dict with keys
        ``collection``, ``filter`` and optionally ``projection``,
        ``sort``, ``skip``, ``limit``."""
        collection, filter_doc, options = _find_args(query)
        return [
            DataObject(
                GlobalKey(self.database_name or "doc", collection, doc["_id"]),
                doc,
            )
            for doc in self.find(collection, filter_doc, **options)
        ]

    def scatter(self, query: Any, scheme: Any) -> tuple[list, Any]:
        """Shards the filter's token window reaches. A sorted, skipped or
        limited find runs there unprojected and cut to ``skip + limit``
        documents, for :meth:`merge` to re-run over whole documents."""
        __, filter_doc, options = _find_args(query)
        window = token_window(token_bounds(filter_doc, scheme.token_field))
        merge: Any = "union"
        if options.keys() & _WINDOW:
            sort, skip, limit = (options.get(key) for key in ("sort", "skip", "limit"))
            merge = {"order": sort or [], "skip": skip or 0, "limit": limit}
            query = {
                **{key: value for key, value in query.items() if key != "projection"},
                "skip": 0, "limit": limit and (skip or 0) + limit,
            }
        return [(shard, query) for shard in scheme.scan_candidates(window)], merge

    def merge(self, query: Any, results: list[list[DataObject]]) -> list[DataObject]:
        if _find_args(query)[2].keys() & _WINDOW:
            return self._rerun(query, results)
        return super().merge(query, results)

    def _explain_plan(self, query: Any) -> dict[str, Any]:
        """Access path for a find: equality index probe when the filter
        has a top-level ``field: literal`` / ``field: {"$in": [...]}``
        predicate on an indexed field (the :meth:`_candidates` rule),
        collection scan otherwise."""
        collection, filter_doc, __ = _find_args(query)
        documents = self._require(collection)
        indexes = self._indexes.get(collection, {})
        for field, condition in (filter_doc or {}).items():
            if field.startswith("$") or field not in indexes:
                continue
            index = indexes[field]
            if isinstance(condition, Mapping):
                if set(condition) == {"$in"} and isinstance(
                    condition["$in"], (list, tuple)
                ):
                    ids: set[str] = set()
                    for value in condition["$in"]:
                        ids |= index.get(_hashable(value), set())
                    examined = len(ids)
                else:
                    continue
            else:
                examined = len(index.get(_hashable(condition), set()))
            return {
                "access_path": "index_probe",
                "index": f"{collection}.{field}",
                "collection": collection,
                "estimated_rows": examined,
                "estimated_cost": float(examined),
            }
        return {
            "access_path": "collection_scan",
            "index": None,
            "collection": collection,
            "estimated_rows": len(documents),
            "estimated_cost": float(len(documents)),
        }

    def get_value(self, collection: str, key: str) -> Any:
        documents = self._collections.get(collection)
        if documents is None or key not in documents:
            raise KeyNotFoundError(f"{collection}._id={key}")
        return dict(documents[key])

    def multi_get(self, keys) -> list[DataObject]:  # type: ignore[override]
        """Batch fetch via one ``{"_id": {"$in": [...]}}`` per collection.

        Keys are probed directly through each collection's ``_id`` map
        (the ``$in`` fast path); duplicates fetch once and missing keys
        are dropped. Results keep first-occurrence input order.
        """
        self.stats.multi_gets += 1
        found: list[DataObject] = []
        collections = self._collections
        for key in dict.fromkeys(keys):
            documents = collections.get(key.collection)
            if documents is None:
                continue
            document = documents.get(key.key)
            if document is not None:
                found.append(DataObject(key, dict(document)))
        self.stats.objects_returned += len(found)
        return found

    def collections(self) -> list[str]:
        return list(self._collections)

    def collection_keys(self, collection: str) -> Iterator[str]:
        return iter(list(self._collections.get(collection, {})))

    # -- state contract -------------------------------------------------------------

    def dump_state(self) -> dict[str, Any]:
        return {
            "collections": {
                name: {
                    "indexes": sorted(self._indexes.get(name, {})),
                    "documents": [
                        self.get_value(name, key)
                        for key in sorted(self.collection_keys(name))
                    ],
                }
                for name in self.collections()
            }
        }

    @classmethod
    def load_state(cls, payload: dict[str, Any]) -> "DocumentStore":
        store = cls()
        for name, spec in payload["collections"].items():
            store.create_collection(name)
            for document in spec["documents"]:
                store.insert(name, document)
            for field in spec["indexes"]:
                store.create_index(name, field)
        return store

    def empty_like(self) -> "DocumentStore":
        clone = DocumentStore()
        for name in self._collections:
            clone.create_collection(name)
            for field in self._indexes.get(name, {}):
                clone.create_index(name, field)
        return clone

    def apply_change(
        self, op: str, collection: str, key: str, value: Any = None
    ) -> None:
        self.create_collection(collection)
        # Replace: CDC captured the full post-state document, and a plain
        # merge could not drop fields removed by $unset/$rename.
        self.delete_one(collection, key)
        if op != "delete":
            document = dict(value or {})
            document["_id"] = key
            self.insert(collection, document)

    # -- internals ------------------------------------------------------------------

    def _require(self, collection: str) -> dict[str, dict[str, Any]]:
        if collection not in self._collections:
            raise KeyNotFoundError(f"no collection {collection!r}")
        return self._collections[collection]

    def _candidates(
        self,
        collection: str,
        documents: dict[str, dict[str, Any]],
        query: Mapping[str, Any],
    ) -> list[dict[str, Any]]:
        """Use an equality index for a top-level ``field: literal`` or
        ``field: {"$in": [...]}`` predicate when one exists."""
        indexes = self._indexes.get(collection, {})
        for field, condition in query.items():
            if field.startswith("$") or field not in indexes:
                continue
            index = indexes[field]
            if isinstance(condition, Mapping):
                if set(condition) == {"$in"} and isinstance(
                    condition["$in"], (list, tuple)
                ):
                    ids: set[str] = set()
                    for value in condition["$in"]:
                        ids |= index.get(_hashable(value), set())
                    return [documents[i] for i in ids if i in documents]
                continue
            ids = index.get(_hashable(condition), set())
            return [documents[i] for i in ids if i in documents]
        return list(documents.values())

    def _index_add(
        self, collection: str, doc_id: str, document: Mapping[str, Any]
    ) -> None:
        for field, index in self._indexes.get(collection, {}).items():
            for value in _index_values(document, field):
                index.setdefault(value, set()).add(doc_id)

    def _index_remove(
        self, collection: str, doc_id: str, document: Mapping[str, Any]
    ) -> None:
        for field, index in self._indexes.get(collection, {}).items():
            for value in _index_values(document, field):
                bucket = index.get(value)
                if bucket:
                    bucket.discard(doc_id)


_UPDATE_OPERATORS = {"$set", "$unset", "$inc", "$push", "$pull", "$rename"}


def _apply_update(document: dict[str, Any], changes: Mapping[str, Any]) -> None:
    """Apply a plain merge or a Mongo-style operator update in place."""
    is_operator_update = any(key.startswith("$") for key in changes)
    plain_keys = [k for k in changes if not k.startswith("$")]
    if is_operator_update and plain_keys:
        raise QueryError(
            "cannot mix update operators with plain fields in one update"
        )
    if not is_operator_update:
        document.update(changes)
        return
    for operator, spec in changes.items():
        if operator not in _UPDATE_OPERATORS:
            raise QueryError(f"unknown update operator {operator!r}")
        if not isinstance(spec, Mapping):
            raise QueryError(f"{operator} expects a field map")
        for field, value in spec.items():
            if field == "_id":
                raise QueryError("_id is immutable")
            if operator == "$set":
                document[field] = value
            elif operator == "$unset":
                document.pop(field, None)
            elif operator == "$inc":
                current = document.get(field, 0)
                if not isinstance(current, (int, float)) or isinstance(
                    current, bool
                ):
                    raise QueryError(
                        f"$inc target {field!r} is not numeric"
                    )
                document[field] = current + value
            elif operator == "$push":
                current = document.setdefault(field, [])
                if not isinstance(current, list):
                    raise QueryError(f"$push target {field!r} is not a list")
                current.append(value)
            elif operator == "$pull":
                current = document.get(field)
                if isinstance(current, list):
                    document[field] = [
                        item for item in current if item != value
                    ]
            elif operator == "$rename":
                if field in document:
                    document[str(value)] = document.pop(field)


def _index_values(document: Mapping[str, Any], field: str) -> list[Any]:
    value = document.get(field)
    if isinstance(value, list):
        return [_hashable(item) for item in value]
    if value is None and field not in document:
        return []
    return [_hashable(value)]


def _hashable(value: Any) -> Any:
    if isinstance(value, (list, tuple)):
        return tuple(_hashable(item) for item in value)
    if isinstance(value, dict):
        return tuple(sorted((k, _hashable(v)) for k, v in value.items()))
    return value


def _find_args(query: Any) -> tuple[str, Any, dict[str, Any]]:
    """``(collection, filter, find options)`` of a native query."""
    if isinstance(query, tuple) and len(query) == 2:
        return query[0], query[1], {}
    if not isinstance(query, Mapping) or "collection" not in query:
        raise QueryError(f"unsupported document query: {query!r}")
    options = {key: query[key] for key in _FIND_OPTIONS if key in query}
    return query["collection"], query.get("filter", {}), options


_FIND_OPTIONS = ("projection", "sort", "skip", "limit")
#: The options that window a find's answer: a sharded find re-runs them.
_WINDOW = frozenset(_FIND_OPTIONS[1:])


def _sort_key(values: list[Any]) -> tuple[int, Any]:
    """Missing fields sort first; mixed types sort by type name."""
    if not values:
        return (0, "")
    value = values[0]
    if isinstance(value, bool):
        return (1, int(value))
    if isinstance(value, (int, float)):
        return (1, value)
    return (2, str(value))
