"""Query validation and rewriting for augmented execution (Section III-A).

The validator decides whether a native query can be augmented and, when
needed, rewrites it so that every returned object carries its
identifier:

* relational — aggregate queries (GROUP BY / HAVING / aggregate
  functions) cannot be augmented; a projection that drops the primary
  key is rewritten to include it;
* document — a projection that excludes ``_id`` is rewritten to keep it;
* graph and key-value — results always carry their identifiers, so
  queries pass through unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping

from repro.errors import NotAugmentableError, SqlSyntaxError
from repro.stores.base import Store
from repro.stores.relational.ast import (
    ColumnRef,
    Select,
    SelectItem,
    Star,
    sql_to_string,
)
from repro.stores.relational.parser import parse_sql


@dataclass
class ValidationResult:
    """Outcome of validating one native query."""

    query: Any
    rewritten: bool = False
    notes: str = ""


class Validator:
    """Checks augmentability and injects identifiers where needed."""

    def validate(self, store: Store, query: Any) -> ValidationResult:
        """Validate ``query`` for augmented execution on ``store``.

        Raises :class:`NotAugmentableError` for queries whose results
        cannot be mapped back to stored data objects.
        """
        if store.engine == "relational":
            return self._validate_sql(store, query)
        # Document / graph / key-value results always carry their keys;
        # only document projections can drop them.
        if store.engine == "document":
            return self._validate_document(query)
        return ValidationResult(query)

    # -- relational ---------------------------------------------------------

    def _validate_sql(self, store: Store, query: Any) -> ValidationResult:
        if not isinstance(query, str):
            raise NotAugmentableError(
                f"relational queries must be SQL strings, got {type(query).__name__}"
            )
        try:
            statement = parse_sql(query)
        except SqlSyntaxError as exc:
            raise NotAugmentableError(f"query does not parse: {exc}") from exc
        if not isinstance(statement, Select):
            raise NotAugmentableError("only SELECT statements can be augmented")
        if statement.is_aggregate():
            raise NotAugmentableError(
                "queries containing aggregate functions cannot be augmented"
            )
        if statement.distinct:
            raise NotAugmentableError(
                "DISTINCT queries collapse rows and cannot be augmented"
            )
        if statement.joins:
            raise NotAugmentableError(
                "join results are derived rows and cannot be augmented"
            )
        pk = store.primary_key(statement.table.name)
        if self._selects_pk(statement, pk):
            return ValidationResult(query)
        rewritten = self._add_pk(statement, pk)
        return ValidationResult(
            sql_to_string(rewritten),
            rewritten=True,
            notes=f"added primary key {pk!r} to the select list",
        )

    @staticmethod
    def _selects_pk(statement: Select, pk: str) -> bool:
        for item in statement.items:
            if isinstance(item.expr, Star):
                return True
            if isinstance(item.expr, ColumnRef) and item.expr.name == pk:
                return True
        return False

    @staticmethod
    def _add_pk(statement: Select, pk: str) -> Select:
        items = statement.items + (SelectItem(ColumnRef(pk)),)
        return Select(
            items=items,
            table=statement.table,
            joins=statement.joins,
            where=statement.where,
            group_by=statement.group_by,
            having=statement.having,
            order_by=statement.order_by,
            limit=statement.limit,
            offset=statement.offset,
            distinct=statement.distinct,
        )

    # -- document ------------------------------------------------------------

    def _validate_document(self, query: Any) -> ValidationResult:
        if isinstance(query, Mapping) and "collection" in query:
            projection = query.get("projection")
            if projection and projection.get("_id", 1) == 0:
                fixed = dict(query)
                fixed_projection = {
                    k: v for k, v in projection.items() if k != "_id"
                }
                if fixed_projection:
                    fixed["projection"] = fixed_projection
                else:
                    fixed.pop("projection")
                return ValidationResult(
                    fixed, rewritten=True, notes="restored _id to the projection"
                )
        return ValidationResult(query)
