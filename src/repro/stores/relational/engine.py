"""The relational store: tables, indexes, and SQL execution.

``RelationalStore`` is the MySQL stand-in of the polystore. Tables are
created programmatically with a :class:`TableSchema` (single-column
primary key, per the paper's object-granularity requirement), rows are
validated on every write, and equality indexes accelerate point and IN
lookups. The native language is the SQL subset of
:mod:`repro.stores.relational.parser`.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, Iterable, Iterator, Mapping

from repro.errors import (
    DuplicateKeyError,
    KeyNotFoundError,
    QueryError,
    SchemaError,
)
from repro.model.objects import DataObject, GlobalKey
from repro.stores.base import Store, token_window
from repro.stores.relational.ast import (
    CreateIndex,
    CreateTable,
    Delete,
    DropTable,
    Insert,
    Select,
    SelectItem,
    Star,
    Update,
    order_sql,
    sql_to_string,
)
from repro.stores.relational.executor import (
    ResultRow,
    WritePlan,
    base_order,
    bind,
    index_probe,
    run_select,
    token_bounds,
)
from repro.stores.relational.parser import prepare_sql
from repro.stores.relational.types import Column, ColumnType, TableSchema


class Table:
    """One table: schema, rows keyed by primary key, equality indexes."""

    def __init__(self, name: str, schema: TableSchema) -> None:
        self.name = name
        self.schema = schema
        self._rows: dict[str, dict[str, Any]] = {}
        self._indexes: dict[str, dict[Any, set[str]]] = {}
        #: Change listener ``(op, table, pk, row)`` installed by the
        #: owning store; ``None`` for standalone tables. Rows reported
        #: are the post-write validated state (``None`` for deletes).
        self.listener: Any = None

    # -- writes ----------------------------------------------------------------

    def insert(self, row: Mapping[str, Any]) -> str:
        validated = self.schema.validate_row(dict(row))
        pk = str(validated[self.schema.primary_key])
        if pk in self._rows:
            raise DuplicateKeyError(f"{self.name}.{pk}")
        self._rows[pk] = validated
        self._index_add(pk, validated)
        if self.listener is not None:
            self.listener("append", self.name, pk, validated)
        return pk

    def update(self, pk: str, changes: Mapping[str, Any]) -> None:
        if pk not in self._rows:
            raise KeyNotFoundError(f"{self.name}.{pk}")
        current = dict(self._rows[pk])
        current.update(changes)
        if str(current[self.schema.primary_key]) != pk:
            raise SchemaError("updating the primary key is not supported")
        validated = self.schema.validate_row(current)
        self._index_remove(pk, self._rows[pk])
        self._rows[pk] = validated
        self._index_add(pk, validated)
        if self.listener is not None:
            self.listener("update", self.name, pk, validated)

    def delete(self, pk: str) -> bool:
        row = self._rows.pop(pk, None)
        if row is None:
            return False
        self._index_remove(pk, row)
        if self.listener is not None:
            self.listener("delete", self.name, pk, None)
        return True

    # -- reads -----------------------------------------------------------------

    def row(self, pk: str) -> dict[str, Any]:
        try:
            return self._rows[pk]
        except KeyError:
            raise KeyNotFoundError(f"{self.name}.{pk}") from None

    def rows(self) -> Iterator[tuple[str, dict[str, Any]]]:
        return iter(self._rows.items())

    def __len__(self) -> int:
        return len(self._rows)

    # -- indexes ----------------------------------------------------------------

    def create_index(self, column: str) -> None:
        self.schema.column(column)  # validates existence
        if column == self.schema.primary_key or column in self._indexes:
            # Idempotent: the column is already covered (by the primary
            # key or an existing index, which writes keep current), so
            # re-creating must not rebuild from scratch.
            return
        index: dict[Any, set[str]] = {}
        for pk, row in self._rows.items():
            index.setdefault(row.get(column), set()).add(pk)
        self._indexes[column] = index

    def get_rows(self, pks: Iterable[str]) -> list[tuple[str, dict[str, Any]]]:
        """Point-probe several primary keys at once (``WHERE pk IN``);
        missing keys are skipped."""
        rows = self._rows
        return [(pk, rows[pk]) for pk in pks if pk in rows]

    def has_index(self, column: str) -> bool:
        return column == self.schema.primary_key or column in self._indexes

    def index_lookup(self, column: str, value: Any) -> list[str]:
        if column == self.schema.primary_key:
            pk = str(value) if value is not None else None
            return [pk] if pk in self._rows else []
        index = self._indexes.get(column)
        if index is None:
            raise QueryError(f"no index on {self.name}.{column}")
        return sorted(index.get(value, ()))

    def _index_add(self, pk: str, row: Mapping[str, Any]) -> None:
        for column, index in self._indexes.items():
            index.setdefault(row.get(column), set()).add(pk)

    def _index_remove(self, pk: str, row: Mapping[str, Any]) -> None:
        for column, index in self._indexes.items():
            bucket = index.get(row.get(column))
            if bucket:
                bucket.discard(pk)


class RelationalStore(Store):
    """An in-memory relational database speaking the SQL subset."""

    engine = "relational"

    def __init__(self) -> None:
        super().__init__()
        self._tables: dict[str, Table] = {}

    # -- DDL -------------------------------------------------------------------

    def create_table(self, name: str, schema: TableSchema) -> Table:
        if name in self._tables:
            raise SchemaError(f"table {name!r} already exists")
        table = Table(name, schema)
        table.listener = self._table_change
        self._tables[name] = table
        return table

    def _table_change(
        self, op: str, table: str, pk: str, row: Any
    ) -> None:
        """Every table write lands here: count it, then forward it to
        the CDC outbox, if attached."""
        self.stats.writes += 1
        self._emit_change(op, table, pk, row)

    def drop_table(self, name: str) -> None:
        self._tables.pop(name, None)

    def table(self, name: str) -> Table:
        try:
            return self._tables[name]
        except KeyError:
            raise QueryError(f"unknown table {name!r}") from None

    def tables(self) -> list[str]:
        return sorted(self._tables)

    # -- SQL entry points ---------------------------------------------------------

    def sql(self, statement: str) -> list[dict[str, Any]]:
        """Run any SQL statement; SELECTs return plain value dicts."""
        return [row.values for row in self.sql_rows(statement)]

    def sql_rows(self, statement: str) -> list[ResultRow]:
        """Run SQL and return rows with provenance (QUEPA's entry point)."""
        parsed, plan = prepare_sql(statement)
        if isinstance(parsed, Select):
            self.stats.queries += 1
            rows = run_select(self, plan)
            self.stats.objects_returned += len(rows)
            return rows
        if isinstance(parsed, Insert):
            self._run_insert(parsed, plan)
            return []
        if isinstance(parsed, Update):
            table = self.table(parsed.table)
            for pk in self._matching(table, plan):
                row = table.row(pk)
                table.update(
                    pk, {column: value(row) for column, value in plan.assignments}
                )
            return []
        if isinstance(parsed, Delete):
            table = self.table(parsed.table)
            for pk in self._matching(table, plan):
                table.delete(pk)
            return []
        if isinstance(parsed, CreateTable):
            self._run_create_table(parsed)
            return []
        if isinstance(parsed, CreateIndex):
            self.table(parsed.table).create_index(parsed.column)
            return []
        if isinstance(parsed, DropTable):
            if parsed.table not in self._tables and not parsed.if_exists:
                raise QueryError(f"unknown table {parsed.table!r}")
            self.drop_table(parsed.table)
            return []
        raise QueryError(f"unsupported statement: {statement!r}")

    def _run_create_table(self, create: CreateTable) -> None:
        if create.table in self._tables:
            if create.if_not_exists:
                return
            raise SchemaError(f"table {create.table!r} already exists")
        schema = TableSchema(
            columns=[
                Column(c.name, ColumnType(c.type_name), c.nullable)
                for c in create.columns
            ],
            primary_key=create.primary_key,
        )
        self.create_table(create.table, schema)

    def _run_insert(self, insert: Insert, plan: WritePlan) -> None:
        table = self.table(insert.table)
        columns = list(insert.columns) or table.schema.column_names
        bind(plan.refs, {})  # VALUES see no row: any column is unknown
        for values in plan.rows:
            if len(values) != len(columns):
                raise QueryError(
                    f"INSERT has {len(values)} values for "
                    f"{len(columns)} columns"
                )
            table.insert(
                {column: value(None) for column, value in zip(columns, values)}
            )

    def _matching(self, table: Table, plan: WritePlan) -> list[str]:
        """Primary keys of the rows an UPDATE / DELETE targets, collected
        before the first write (the scan must not see its own writes)."""
        bind(plan.refs, {table.name: table.schema})
        self.stats.rows_examined += len(table)
        where = plan.where
        return [
            pk for pk, row in table.rows()
            if where is None or where(row) is True
        ]

    # -- Store contract --------------------------------------------------------------

    def execute(self, query: Any) -> list[DataObject]:
        """Native query: a SQL string. Rows with provenance become data
        objects keyed by their base-table primary key; derived rows
        (joins, expressions over multiple tables) get synthetic keys in
        the pseudo-collection ``_result`` and are never augmentable."""
        rows = self.sql_rows(query)
        database = self.database_name or "sql"
        objects: list[DataObject] = []
        for position, row in enumerate(rows):
            if row.pk is not None and row.table is not None:
                key = GlobalKey(database, row.table, row.pk)
            else:
                key = GlobalKey(database, "_result", f"row{position}")
            objects.append(DataObject(key, dict(row.values)))
        return objects

    def scatter(self, query: Any, scheme: Any) -> tuple[list, Any]:
        """Shards the WHERE's token window reaches. A windowed SELECT runs
        there as ``SELECT *`` cut to ``OFFSET + LIMIT`` rows, for
        :meth:`merge` to re-run over whole rows."""
        select, windowed = self._sharded_select(query)
        window = token_window(token_bounds(select.where, scheme.token_field))
        merge: Any = "union"
        if windowed:
            merge = {"order": [order_sql(key) for key in select.order_by],
                     "skip": select.offset, "limit": select.limit}
            query = sql_to_string(replace(
                select, items=(SelectItem(Star()),), order_by=base_order(select),
                offset=0, limit=select.limit and select.offset + select.limit,
            ))
        return [(shard, query) for shard in scheme.scan_candidates(window)], merge

    def merge(self, query: Any, results: list[list[DataObject]]) -> list[DataObject]:
        if self._sharded_select(query)[1]:
            return self._rerun(query, results)
        return super().merge(query, results)

    def _sharded_select(self, query: Any) -> tuple[Select, bool]:
        """A SELECT whose rows each come from one shard, and whether
        ORDER BY / OFFSET / LIMIT window it; anything else QueryError."""
        select, __ = prepare_sql(query)
        if not isinstance(select, Select) or select.joins or (
            select.distinct or select.is_aggregate()
        ):
            raise QueryError(
                "across shards only a single-table SELECT without DISTINCT, "
                "GROUP BY or aggregates merges; writes go through apply_change()"
            )
        windowed = select.order_by or select.offset or select.limit is not None
        return select, bool(windowed)

    def _explain_plan(self, query: Any) -> dict[str, Any]:
        """Access path for a SQL SELECT: index probe when the WHERE has
        a usable equality/IN conjunct on an indexed column (the same
        test :func:`run_select` applies), full table scan
        otherwise. Joins report their strategy (hash vs. nested loop)."""
        parsed, compiled = prepare_sql(query)
        if not isinstance(parsed, Select):
            return {
                "access_path": "statement",
                "index": None,
                "statement": type(parsed).__name__,
                "estimated_rows": 0,
                "estimated_cost": 0.0,
            }
        table = self.table(parsed.table.name)
        lookup = index_probe(compiled, table)
        if lookup is not None:
            column, values = lookup
            examined = sum(
                len(table.index_lookup(column, value)) for value in values
            )
            plan: dict[str, Any] = {
                "access_path": "index_probe",
                "index": f"{parsed.table.name}.{column}",
                "estimated_rows": examined,
                "estimated_cost": float(examined),
            }
        else:
            examined = len(table)
            plan = {
                "access_path": "full_scan",
                "index": None,
                "estimated_rows": examined,
                "estimated_cost": float(examined),
            }
        plan["table"] = parsed.table.name
        if parsed.joins:
            joins = []
            cost = plan["estimated_cost"]
            for join_plan in compiled.joins:
                join = join_plan.join
                right = self.table(join.table.name)
                hashed = join_plan.hashed is not None
                joins.append(
                    {
                        "table": join.table.name,
                        "strategy": "hash_join" if hashed else "nested_loop",
                        "rows": len(right),
                    }
                )
                # A hash join builds once and probes per row; a nested
                # loop re-scans the right side for every left row.
                if hashed:
                    cost += len(right) + plan["estimated_rows"]
                else:
                    cost += plan["estimated_rows"] * len(right)
            plan["joins"] = joins
            plan["estimated_cost"] = float(cost)
        return plan

    def get_value(self, collection: str, key: str) -> Any:
        table = self._tables.get(collection)
        if table is None:
            raise KeyNotFoundError(f"no table {collection!r}")
        return dict(table.row(key))

    def multi_get(self, keys) -> list[DataObject]:  # type: ignore[override]
        """Batch fetch via one logical ``WHERE pk IN (...)`` per table.

        Keys are grouped per table and probed through the primary-key
        map in one pass each; duplicates fetch once and missing keys
        are dropped. Results keep first-occurrence input order.
        """
        self.stats.multi_gets += 1
        unique_keys = list(dict.fromkeys(keys))
        by_table: dict[str, list[GlobalKey]] = {}
        for key in unique_keys:
            by_table.setdefault(key.collection, []).append(key)
        fetched: dict[GlobalKey, DataObject] = {}
        for collection, table_keys in by_table.items():
            table = self._tables.get(collection)
            if table is None:
                continue
            rows = dict(table.get_rows(key.key for key in table_keys))
            for key in table_keys:
                row = rows.get(key.key)
                if row is not None:
                    fetched[key] = DataObject(key, dict(row))
        found = [fetched[key] for key in unique_keys if key in fetched]
        self.stats.objects_returned += len(found)
        return found

    def collections(self) -> list[str]:
        return self.tables()

    def collection_keys(self, collection: str) -> Iterator[str]:
        table = self._tables.get(collection)
        if table is None:
            return iter(())
        return iter([pk for pk, __ in table.rows()])

    def primary_key(self, collection: str) -> str:
        """The primary-key column of a table (the validator's one
        schema question)."""
        return self.table(collection).schema.primary_key

    # -- state contract --------------------------------------------------------------

    def dump_state(self) -> dict[str, Any]:
        tables = {}
        for name in self.tables():
            table = self.table(name)
            tables[name] = {
                "schema": {
                    "primary_key": table.schema.primary_key,
                    "columns": [
                        {
                            "name": column.name,
                            "type": column.type.value,
                            "nullable": column.nullable,
                        }
                        for column in table.schema.columns
                    ],
                },
                "indexes": sorted(table._indexes),
                "rows": [row for __, row in sorted(table.rows())],
            }
        return {"tables": tables}

    @classmethod
    def load_state(cls, payload: dict[str, Any]) -> "RelationalStore":
        store = cls()
        for name, spec in payload["tables"].items():
            schema = TableSchema(
                columns=[
                    Column(c["name"], ColumnType(c["type"]), c["nullable"])
                    for c in spec["schema"]["columns"]
                ],
                primary_key=spec["schema"]["primary_key"],
            )
            table = store.create_table(name, schema)
            for row in spec["rows"]:
                table.insert(row)
            for column in spec["indexes"]:
                table.create_index(column)
        return store

    def empty_like(self) -> "RelationalStore":
        clone = RelationalStore()
        for name, table in self._tables.items():
            clone_table = clone.create_table(name, table.schema)
            for column in table._indexes:
                clone_table.create_index(column)
        return clone

    def apply_change(
        self, op: str, collection: str, key: str, value: Any = None
    ) -> None:
        table = self.table(collection)
        if op == "delete":
            table.delete(key)
        elif key in table._rows:
            table.update(key, value or {})
        else:
            table.insert(value or {})

    # -- convenience -------------------------------------------------------------------

    def insert_row(self, table: str, row: Mapping[str, Any]) -> str:
        """Programmatic insert (used by the workload generator)."""
        return self.table(table).insert(row)
