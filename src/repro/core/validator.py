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
    BetweenOp,
    BinaryOp,
    ColumnRef,
    Expr,
    FuncCall,
    InOp,
    IsNullOp,
    LikeOp,
    Literal,
    OrderItem,
    Select,
    SelectItem,
    Star,
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


# ---------------------------------------------------------------------------
# SQL printing (for rewritten queries)
# ---------------------------------------------------------------------------


def sql_to_string(statement: Select) -> str:
    """Render a SELECT AST back to SQL text."""
    parts = ["SELECT"]
    if statement.distinct:
        parts.append("DISTINCT")
    parts.append(", ".join(_item_sql(item) for item in statement.items))
    parts.append("FROM")
    parts.append(_table_sql(statement.table))
    for join in statement.joins:
        keyword = "LEFT JOIN" if join.kind == "LEFT" else "JOIN"
        parts.append(f"{keyword} {_table_sql(join.table)} ON {expr_to_string(join.on)}")
    if statement.where is not None:
        parts.append(f"WHERE {expr_to_string(statement.where)}")
    if statement.group_by:
        parts.append(
            "GROUP BY " + ", ".join(expr_to_string(e) for e in statement.group_by)
        )
    if statement.having is not None:
        parts.append(f"HAVING {expr_to_string(statement.having)}")
    if statement.order_by:
        parts.append("ORDER BY " + ", ".join(_order_sql(o) for o in statement.order_by))
    if statement.limit is not None:
        parts.append(f"LIMIT {statement.limit}")
        if statement.offset:
            parts.append(f"OFFSET {statement.offset}")
    return " ".join(parts)


def _item_sql(item: SelectItem) -> str:
    text = expr_to_string(item.expr)
    if item.alias:
        return f"{text} AS {item.alias}"
    return text


def _table_sql(table) -> str:
    if table.alias:
        return f"{table.name} {table.alias}"
    return table.name


def _order_sql(order: OrderItem) -> str:
    suffix = "" if order.ascending else " DESC"
    return expr_to_string(order.expr) + suffix


def expr_to_string(expr: Expr) -> str:
    """Render an expression AST back to SQL text."""
    if isinstance(expr, Literal):
        return _literal_sql(expr.value)
    if isinstance(expr, ColumnRef):
        return str(expr)
    if isinstance(expr, Star):
        return f"{expr.table}.*" if expr.table else "*"
    if isinstance(expr, BinaryOp):
        return f"({expr_to_string(expr.left)} {expr.op} {expr_to_string(expr.right)})"
    if isinstance(expr, LikeOp):
        keyword = "NOT LIKE" if expr.negated else "LIKE"
        return f"{expr_to_string(expr.expr)} {keyword} {expr_to_string(expr.pattern)}"
    if isinstance(expr, InOp):
        keyword = "NOT IN" if expr.negated else "IN"
        items = ", ".join(expr_to_string(item) for item in expr.items)
        return f"{expr_to_string(expr.expr)} {keyword} ({items})"
    if isinstance(expr, BetweenOp):
        keyword = "NOT BETWEEN" if expr.negated else "BETWEEN"
        return (
            f"{expr_to_string(expr.expr)} {keyword} "
            f"{expr_to_string(expr.low)} AND {expr_to_string(expr.high)}"
        )
    if isinstance(expr, IsNullOp):
        keyword = "IS NOT NULL" if expr.negated else "IS NULL"
        return f"{expr_to_string(expr.expr)} {keyword}"
    if isinstance(expr, FuncCall):
        inner = ", ".join(expr_to_string(arg) for arg in expr.args)
        if expr.distinct:
            inner = f"DISTINCT {inner}"
        return f"{expr.name}({inner})"
    from repro.stores.relational.ast import UnaryOp

    if isinstance(expr, UnaryOp):
        if expr.op == "NOT":
            return f"NOT ({expr_to_string(expr.operand)})"
        return f"-{expr_to_string(expr.operand)}"
    raise ValueError(f"cannot render expression {expr!r}")


def _literal_sql(value: Any) -> str:
    if value is None:
        return "NULL"
    if isinstance(value, bool):
        return "TRUE" if value else "FALSE"
    if isinstance(value, str):
        escaped = value.replace("'", "''")
        return f"'{escaped}'"
    return repr(value)
