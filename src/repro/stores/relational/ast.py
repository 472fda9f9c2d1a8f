"""Abstract syntax tree for the SQL subset.

Expression nodes evaluate against a row environment (see
:mod:`repro.stores.relational.executor`); statement nodes are plain
dataclasses produced by the parser.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


class Expr:
    """Marker base class for expression nodes."""


@dataclass(frozen=True)
class Literal(Expr):
    value: Any


@dataclass(frozen=True)
class ColumnRef(Expr):
    """A possibly table-qualified column reference."""

    name: str
    table: Optional[str] = None

    def __str__(self) -> str:
        return f"{self.table}.{self.name}" if self.table else self.name


@dataclass(frozen=True)
class Star(Expr):
    """``*`` or ``alias.*`` in a select list / COUNT(*)."""

    table: Optional[str] = None


@dataclass(frozen=True)
class BinaryOp(Expr):
    op: str  # one of = != < <= > >= + - * / AND OR
    left: Expr
    right: Expr


@dataclass(frozen=True)
class UnaryOp(Expr):
    op: str  # NOT or - (negation)
    operand: Expr


@dataclass(frozen=True)
class LikeOp(Expr):
    expr: Expr
    pattern: Expr
    negated: bool = False


@dataclass(frozen=True)
class InOp(Expr):
    expr: Expr
    items: tuple[Expr, ...]
    negated: bool = False


@dataclass(frozen=True)
class BetweenOp(Expr):
    expr: Expr
    low: Expr
    high: Expr
    negated: bool = False


@dataclass(frozen=True)
class IsNullOp(Expr):
    expr: Expr
    negated: bool = False


@dataclass(frozen=True)
class FuncCall(Expr):
    """Aggregate (COUNT/SUM/AVG/MIN/MAX) or scalar (UPPER/LOWER/LENGTH/ABS)."""

    name: str
    args: tuple[Expr, ...]
    distinct: bool = False


AGGREGATE_FUNCTIONS = frozenset({"COUNT", "SUM", "AVG", "MIN", "MAX"})
SCALAR_FUNCTIONS = frozenset({"UPPER", "LOWER", "LENGTH", "ABS", "ROUND", "COALESCE"})


def contains_aggregate(expr: Expr) -> bool:
    """True if ``expr`` contains any aggregate function call."""
    if isinstance(expr, FuncCall):
        if expr.name in AGGREGATE_FUNCTIONS:
            return True
        return any(contains_aggregate(arg) for arg in expr.args)
    if isinstance(expr, BinaryOp):
        return contains_aggregate(expr.left) or contains_aggregate(expr.right)
    if isinstance(expr, UnaryOp):
        return contains_aggregate(expr.operand)
    if isinstance(expr, LikeOp):
        return contains_aggregate(expr.expr) or contains_aggregate(expr.pattern)
    if isinstance(expr, InOp):
        return contains_aggregate(expr.expr) or any(
            contains_aggregate(item) for item in expr.items
        )
    if isinstance(expr, BetweenOp):
        return any(
            contains_aggregate(part) for part in (expr.expr, expr.low, expr.high)
        )
    if isinstance(expr, IsNullOp):
        return contains_aggregate(expr.expr)
    return False


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SelectItem:
    expr: Expr
    alias: Optional[str] = None


@dataclass(frozen=True)
class TableRef:
    name: str
    alias: Optional[str] = None

    @property
    def binding(self) -> str:
        return self.alias or self.name


@dataclass(frozen=True)
class Join:
    table: TableRef
    on: Expr
    kind: str = "INNER"  # INNER or LEFT


@dataclass(frozen=True)
class OrderItem:
    expr: Expr
    ascending: bool = True


@dataclass(frozen=True)
class Select:
    items: tuple[SelectItem, ...]
    table: TableRef
    joins: tuple[Join, ...] = ()
    where: Optional[Expr] = None
    group_by: tuple[Expr, ...] = ()
    having: Optional[Expr] = None
    order_by: tuple[OrderItem, ...] = ()
    limit: Optional[int] = None
    offset: int = 0
    distinct: bool = False

    def is_aggregate(self) -> bool:
        """True if the query groups or aggregates (not augmentable)."""
        if self.group_by or self.having is not None:
            return True
        return any(contains_aggregate(item.expr) for item in self.items)


@dataclass(frozen=True)
class Insert:
    table: str
    columns: tuple[str, ...]
    rows: tuple[tuple[Expr, ...], ...]


@dataclass(frozen=True)
class Assignment:
    column: str
    value: Expr


@dataclass(frozen=True)
class Update:
    table: str
    assignments: tuple[Assignment, ...]
    where: Optional[Expr] = None


@dataclass(frozen=True)
class Delete:
    table: str
    where: Optional[Expr] = None


@dataclass(frozen=True)
class ColumnDef:
    name: str
    type_name: str  # INTEGER | FLOAT | TEXT | BOOLEAN
    nullable: bool = True


@dataclass(frozen=True)
class CreateTable:
    table: str
    columns: tuple[ColumnDef, ...]
    primary_key: str
    if_not_exists: bool = False


@dataclass(frozen=True)
class CreateIndex:
    table: str
    column: str


@dataclass(frozen=True)
class DropTable:
    table: str
    if_exists: bool = False


Statement = (
    Select | Insert | Update | Delete | CreateTable | CreateIndex | DropTable
)


# ---------------------------------------------------------------------------
# SQL printing (rewritten statements: the validator's, and the per-shard
# statements of a partitioned table)
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
        parts.append("ORDER BY " + ", ".join(order_sql(o) for o in statement.order_by))
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


def order_sql(order: OrderItem) -> str:
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
