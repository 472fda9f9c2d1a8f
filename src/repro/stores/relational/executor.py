"""Compilation and execution of parsed SQL statements against in-memory tables.

A statement is *compiled*, not interpreted: :func:`compile_statement`
turns every expression of a parsed statement into a closure once, when
the text first enters the parse cache
(:func:`repro.stores.relational.parser.prepare_sql`), and every
evaluation — WHERE, select items, ORDER BY keys, join ``ON``, GROUP BY
and aggregate arguments, HAVING, and the UPDATE / DELETE / INSERT paths
of the engine — calls those closures. Literals and ``LIKE`` patterns
are evaluated at compile time, ``IN`` lists are pre-split, operators
pre-dispatched. The compiled plan is a function of the query text
alone, so it is stateless and shared by every thread and every store.

What depends on the store is decided once per execution, before any row
is read: :func:`bind` checks each column reference against the schemas
of the tables in scope (so an unknown or ambiguous column is refused on
an empty table exactly as on a full one). ``TableSchema.validate_row``
guarantees every stored row carries every column, so after the bind a
reference is ``row[name]``. A single-table statement evaluates over the
stored row itself, its primary key carried beside it; joins evaluate
over an environment ``{binding: row}`` that also holds, under
:data:`_OWNERS`, which binding owns each unqualified column.

The logic is SQL's three-valued one (comparisons with NULL yield NULL;
WHERE keeps rows whose predicate is TRUE), with MySQL-style
case-insensitive LIKE, nested-loop joins with an equality fast path,
grouping and the five standard aggregates, ORDER BY with NULLs first,
and LIMIT/OFFSET.

Result rows carry *provenance*: for single-table non-aggregate queries
each output row remembers the primary key of the base row it came from,
which is what lets QUEPA map results back to data objects.
"""

from __future__ import annotations

import operator
import re
from dataclasses import replace
from functools import lru_cache
from typing import TYPE_CHECKING, Any, Callable, Mapping, NamedTuple, Optional

from repro.errors import QueryError, UnsupportedQueryError
from repro.stores.relational.ast import (
    AGGREGATE_FUNCTIONS,
    BetweenOp,
    BinaryOp,
    ColumnRef,
    Delete,
    Expr,
    FuncCall,
    InOp,
    Insert,
    IsNullOp,
    Join,
    LikeOp,
    Literal,
    OrderItem,
    Select,
    SelectItem,
    Star,
    UnaryOp,
    Update,
)
from repro.stores.relational.types import TableSchema

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.stores.relational.engine import RelationalStore, Table

#: A compiled expression: subject in, SQL value out. The subject is the
#: stored row (single-table statements) or a join environment.
Closure = Callable[[Any], Any]

#: Key of a join environment under which ``{column: owner binding}`` for
#: the unqualified columns of the scope lives (no binding is ``None``).
_OWNERS = None


class ResultRow:
    """One output row plus the provenance of its base-table row."""

    __slots__ = ("values", "pk", "table")

    def __init__(self, values: dict[str, Any], pk: Optional[str], table: Optional[str]):
        self.values = values
        self.pk = pk
        self.table = table

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ResultRow({self.values!r}, pk={self.pk!r})"


@lru_cache(maxsize=1024)
def _like_regex(pattern: str) -> re.Pattern[str]:
    """Translate a SQL LIKE pattern to a compiled regex.

    ``%`` matches any sequence, ``_`` any single character; everything
    else is literal. Matching is case-insensitive, as in MySQL's default
    collation.
    """
    out: list[str] = []
    for char in pattern:
        if char == "%":
            out.append(".*")
        elif char == "_":
            out.append(".")
        else:
            out.append(re.escape(char))
    return re.compile("^" + "".join(out) + "$", re.IGNORECASE | re.DOTALL)


def _truthy(value: Any) -> bool:
    if isinstance(value, bool):
        return value
    if isinstance(value, (int, float)):
        return value != 0
    return bool(value)


def _type_error(op: str, exc: Exception) -> QueryError:
    """The one translation of an operator's ``TypeError`` (a property of
    the data the statement met) into the error a caller can act on."""
    return QueryError(f"type error in {op}: {exc}")


# -- expression compiler -------------------------------------------------------


def _divide(left: Any, right: Any) -> Any:
    if right == 0:
        return None  # MySQL semantics: division by zero is NULL
    return left / right


_OPERATORS: dict[str, Callable[[Any, Any], Any]] = {
    "=": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "/": _divide,
}


def _round(value: Any, digits: Any = None, *__: Any) -> Any:
    return round(value, int(digits) if digits is not None else 0)


#: Scalar functions over their (already evaluated, first one non-NULL)
#: arguments; COALESCE, the one that accepts NULLs, is compiled apart.
_SCALARS: dict[str, Callable[..., Any]] = {
    "UPPER": lambda value, *__: str(value).upper(),
    "LOWER": lambda value, *__: str(value).lower(),
    "LENGTH": lambda value, *__: len(str(value)),
    "ABS": lambda value, *__: abs(value),
    "ROUND": _round,
}


def compile_expr(expr: Expr, refs: list[ColumnRef], joined: bool = False) -> Closure:
    """Compile ``expr`` into a closure over one subject.

    ``joined`` says what the subject will be: a join environment, or
    (the default) the stored row itself. Every column reference met is
    appended to ``refs``; the caller :func:`bind`\\ s them against the
    schemas in scope before it calls the closure.
    """
    if isinstance(expr, Literal):
        value = expr.value
        return lambda __: value
    if isinstance(expr, ColumnRef):
        refs.append(expr)
        name, table = expr.name, expr.table
        if not joined:
            return operator.itemgetter(name)
        if table is not None:
            return lambda env: env[table][name]
        return lambda env: env[env[_OWNERS][name]][name]
    if isinstance(expr, BinaryOp):
        constant = expr.right.value if isinstance(expr.right, Literal) else None
        return _binary(
            expr.op,
            compile_expr(expr.left, refs, joined),
            compile_expr(expr.right, refs, joined),
            constant,
        )
    if isinstance(expr, UnaryOp):
        return _unary(expr.op, compile_expr(expr.operand, refs, joined))
    if isinstance(expr, LikeOp):
        return _like(
            compile_expr(expr.expr, refs, joined),
            compile_expr(expr.pattern, refs, joined),
            expr.pattern.value if isinstance(expr.pattern, Literal) else None,
            expr.negated,
        )
    if isinstance(expr, InOp):
        candidate = compile_expr(expr.expr, refs, joined)
        if all(isinstance(item, Literal) for item in expr.items):
            values = [item.value for item in expr.items]  # type: ignore[union-attr]
            return _in_constants(
                candidate,
                frozenset(value for value in values if value is not None),
                None in values,
                expr.negated,
            )
        items = [compile_expr(item, refs, joined) for item in expr.items]
        return _in(candidate, items, expr.negated)
    if isinstance(expr, BetweenOp):
        return _between(
            compile_expr(expr.expr, refs, joined),
            compile_expr(expr.low, refs, joined),
            compile_expr(expr.high, refs, joined),
            expr.negated,
        )
    if isinstance(expr, IsNullOp):
        inner, negated = compile_expr(expr.expr, refs, joined), expr.negated
        return lambda subject: (inner(subject) is None) != negated
    if isinstance(expr, FuncCall):
        if expr.name in AGGREGATE_FUNCTIONS:
            raise QueryError(
                f"aggregate {expr.name} used outside aggregation context"
            )
        return _scalar(
            expr.name, [compile_expr(arg, refs, joined) for arg in expr.args]
        )
    if isinstance(expr, Star):
        raise QueryError("'*' is only valid in a select list or COUNT(*)")
    raise QueryError(f"cannot evaluate expression {expr!r}")


def _binary(op: str, left: Closure, right: Closure, constant: Any = None) -> Closure:
    """``left op right``; ``constant`` is the right operand's value when
    it is a non-NULL literal (it is then not called per row)."""
    if op == "AND":
        def and_(subject: Any) -> Any:
            a = left(subject)
            if a is False or not (a is None or a is True or _truthy(a)):
                return False
            b = right(subject)
            if b is False or not (b is None or b is True or _truthy(b)):
                return False
            return None if a is None or b is None else True

        return and_
    if op == "OR":
        def or_(subject: Any) -> Any:
            a = left(subject)
            if a is True or (a is not None and a is not False and _truthy(a)):
                return True
            b = right(subject)
            if b is True or (b is not None and b is not False and _truthy(b)):
                return True
            return None if a is None or b is None else False

        return or_
    fn = _OPERATORS.get(op)
    if fn is None:
        raise QueryError(f"unknown binary operator {op!r}")
    if constant is not None:
        def apply_constant(subject: Any) -> Any:
            a = left(subject)
            if a is None:
                return None
            try:
                return fn(a, constant)
            except TypeError as exc:
                raise _type_error(op, exc) from None

        return apply_constant

    def apply(subject: Any) -> Any:
        a = left(subject)
        b = right(subject)
        if a is None or b is None:
            return None
        try:
            return fn(a, b)
        except TypeError as exc:
            raise _type_error(op, exc) from None

    return apply


def _unary(op: str, operand: Closure) -> Closure:
    if op == "NOT":
        def not_(subject: Any) -> Any:
            value = operand(subject)
            return None if value is None else not _truthy(value)

        return not_
    if op == "-":
        def negate(subject: Any) -> Any:
            value = operand(subject)
            try:
                return None if value is None else -value
            except TypeError as exc:
                raise _type_error("unary -", exc) from None

        return negate
    raise QueryError(f"unknown unary operator {op!r}")


def _like(text: Closure, pattern: Closure, constant: Any, negated: bool) -> Closure:
    if constant is not None:  # the usual case: the pattern is a literal
        match = _like_regex(str(constant)).match

        def like_constant(subject: Any) -> Any:
            value = text(subject)
            if value is None:
                return None
            return (match(str(value)) is not None) != negated

        return like_constant

    def like(subject: Any) -> Any:
        value, wanted = text(subject), pattern(subject)
        if value is None or wanted is None:
            return None
        return (_like_regex(str(wanted)).match(str(value)) is not None) != negated

    return like


def _in_constants(
    candidate: Closure, members: frozenset, has_null: bool, negated: bool
) -> Closure:
    """``IN`` over literals, pre-split into its non-NULL members and
    whether a NULL was listed (a miss is then unknown, not false)."""
    miss = None if has_null else negated

    def in_(subject: Any) -> Any:
        value = candidate(subject)
        if value is None:
            return None
        return (not negated) if value in members else miss

    return in_


def _in(candidate: Closure, items: list[Closure], negated: bool) -> Closure:
    def in_(subject: Any) -> Any:
        value = candidate(subject)
        if value is None:
            return None
        values = [item(subject) for item in items]
        if value in [v for v in values if v is not None]:
            return not negated
        return None if None in values else negated

    return in_


def _between(candidate: Closure, low: Closure, high: Closure, negated: bool) -> Closure:
    def between(subject: Any) -> Any:
        value, lower, upper = candidate(subject), low(subject), high(subject)
        if value is None or lower is None or upper is None:
            return None
        try:
            return (lower <= value <= upper) != negated
        except TypeError as exc:
            raise _type_error("BETWEEN", exc) from None

    return between


def _scalar(name: str, args: list[Closure]) -> Closure:
    if name == "COALESCE":
        def coalesce(subject: Any) -> Any:
            # Every argument is evaluated (one may raise), then the
            # first non-NULL wins.
            values = [arg(subject) for arg in args]
            return next((v for v in values if v is not None), None)

        return coalesce
    fn = _SCALARS.get(name)
    if fn is None:
        raise QueryError(f"unknown scalar function {name!r}")

    def call(subject: Any) -> Any:
        values = [arg(subject) for arg in args]
        if not values or values[0] is None:
            return None
        try:
            return fn(*values)
        except (TypeError, ValueError) as exc:
            raise _type_error(name, exc) from None

    return call


def bind(refs: tuple[ColumnRef, ...], schemas: Mapping[str, TableSchema]) -> None:
    """Check compiled column references against the tables in scope.

    Runs once per execution and before any row is read, so whether a
    statement is refused never depends on the data: an unknown table
    alias, an unknown column or an ambiguous unqualified one raises
    :class:`QueryError` here, in reference order.
    """
    for ref in refs:
        if ref.table is not None:
            schema = schemas.get(ref.table)
            if schema is None:
                raise QueryError(f"unknown table alias {ref.table!r}")
            if not schema.has_column(ref.name):
                raise QueryError(f"unknown column {ref}")
            continue
        hits = [b for b, schema in schemas.items() if schema.has_column(ref.name)]
        if not hits:
            raise QueryError(f"unknown column {ref.name!r}")
        if len(hits) > 1:
            raise QueryError(f"ambiguous column {ref.name!r} (in {sorted(hits)})")


def _owners(schemas: Mapping[str, TableSchema]) -> dict[str, str]:
    """``{column: binding}`` for every column exactly one table in scope
    has — what an unqualified reference reads in a join environment."""
    owners: dict[str, str] = {}
    shared: set[str] = set()
    for binding, schema in schemas.items():
        for name in schema.column_names:
            if name in owners:
                shared.add(name)
            owners[name] = binding
    for name in shared:
        del owners[name]
    return owners


# -- statement compiler --------------------------------------------------------


class JoinPlan(NamedTuple):
    join: Join
    on: Closure
    #: References of ``ON``, bound in the scope up to this join.
    refs: tuple[ColumnRef, ...]
    #: Equality fast path ``(left, its refs, right column)``: ``left`` is
    #: evaluated over the environment *before* the join and probes a hash
    #: of the joined table on ``right column``. ``None``: nested loop.
    hashed: Optional[tuple[Closure, tuple[ColumnRef, ...], str]]


class GroupPlan(NamedTuple):
    """Closures of an aggregate query; the last two take the *group*
    (the list of subjects that share a key), not one subject."""

    keys: tuple[Closure, ...]
    having: Optional[Closure]
    items: tuple[tuple[str, Closure], ...]


class OrderKey(NamedTuple):
    #: The referenced name when the key is a bare column: an output
    #: column of that name wins over the expression (select aliases).
    name: Optional[str]
    #: ``None`` after DISTINCT or aggregation, where only output columns
    #: can order (row alignment with the scanned subjects is lost).
    value: Optional[Closure]
    refs: tuple[ColumnRef, ...]
    ascending: bool


class SelectPlan(NamedTuple):
    select: Select
    where: Optional[Closure]
    #: References of everything evaluated in the statement's full scope.
    refs: tuple[ColumnRef, ...]
    #: ``(column, literals)`` of each top-level ``column = literal`` /
    #: ``column IN (literals)`` conjunct on the base table, in order:
    #: the first whose column is indexed answers the scan.
    probes: tuple[tuple[str, tuple[Any, ...]], ...]
    joins: tuple[JoinPlan, ...]
    #: Subject in, output value dict out; ``None`` for aggregates.
    project: Optional[Closure]
    groups: Optional[GroupPlan]
    order: tuple[OrderKey, ...]


class WritePlan(NamedTuple):
    """UPDATE / DELETE / INSERT: closures over the target table's row
    (INSERT values see no row at all)."""

    where: Optional[Closure]
    assignments: tuple[tuple[str, Closure], ...]
    rows: tuple[tuple[Closure, ...], ...]
    refs: tuple[ColumnRef, ...]


def compile_statement(statement: Any) -> Optional[SelectPlan | WritePlan]:
    """The compiled plan of a parsed statement (``None`` for DDL)."""
    if isinstance(statement, Select):
        return _compile_select(statement)
    refs: list[ColumnRef] = []
    if isinstance(statement, (Update, Delete)):
        where = statement.where and compile_expr(statement.where, refs)
        assignments = tuple(
            (assignment.column, compile_expr(assignment.value, refs))
            for assignment in (
                statement.assignments if isinstance(statement, Update) else ()
            )
        )
        return WritePlan(where, assignments, (), tuple(refs))
    if isinstance(statement, Insert):
        rows = tuple(
            tuple(compile_expr(expr, refs) for expr in values)
            for values in statement.rows
        )
        return WritePlan(None, (), rows, tuple(refs))
    return None


def _compile_select(select: Select) -> SelectPlan:
    joined = bool(select.joins)
    scope = [select.table.binding]
    joins = []
    for join in select.joins:
        on_refs: list[ColumnRef] = []
        on = compile_expr(join.on, on_refs, True)
        hashed = None
        equality = _join_equality(join.on, join.table.binding)
        if equality is not None:
            left_refs: list[ColumnRef] = []
            left = compile_expr(equality[0], left_refs, True)
            hashed = (left, tuple(left_refs), equality[1])
        joins.append(JoinPlan(join, on, tuple(on_refs), hashed))
        scope.append(join.table.binding)
    refs: list[ColumnRef] = []
    where = select.where and compile_expr(select.where, refs, joined)
    aggregate = select.is_aggregate()
    groups = project = None
    if aggregate:
        groups = GroupPlan(
            tuple(compile_expr(expr, refs, joined) for expr in select.group_by),
            select.having and _compile_group_expr(select.having, refs, joined),
            tuple(
                (_item_name(item), _compile_group_expr(item.expr, refs, joined))
                for item in select.items
                if not isinstance(item.expr, Star)
            ),
        )
    else:
        project = _compile_projection(select.items, scope, refs, joined)
    order = []
    for item in select.order_by:
        key_refs: list[ColumnRef] = []
        name = item.expr.name if isinstance(item.expr, ColumnRef) else None
        value = None
        if not (aggregate or select.distinct):
            value = compile_expr(item.expr, key_refs, joined)
        order.append(OrderKey(name, value, tuple(key_refs), item.ascending))
    return SelectPlan(
        select, where, tuple(refs), _probes(select.where, scope[0]),
        tuple(joins), project, groups, tuple(order),
    )


def _compile_projection(
    items: tuple[SelectItem, ...], scope: list[str], refs: list[ColumnRef],
    joined: bool,
) -> Closure:
    """The select list as one closure. A ``*`` contributes the columns of
    the rows it covers that no earlier item has named."""
    if not joined and len(items) == 1 and isinstance(items[0].expr, Star) and (
        items[0].expr.table in (None, scope[0])
    ):
        return dict  # SELECT * FROM one_table: a copy of the stored row
    steps: list[tuple[Optional[str], Closure]] = []
    for item in items:
        if not isinstance(item.expr, Star):
            steps.append(
                (_item_name(item), compile_expr(item.expr, refs, joined))
            )
            continue
        covered = [b for b in scope if item.expr.table in (None, b)]
        if joined:
            steps.append(
                (None, lambda env, covered=covered: [env[b] for b in covered])
            )
        elif covered:  # ``other.*`` over a single table names nothing
            steps.append((None, lambda row: (row,)))

    def project(subject: Any) -> dict[str, Any]:
        values: dict[str, Any] = {}
        for name, step in steps:
            if name is not None:
                values[name] = step(subject)
                continue
            for row in step(subject):
                for column, value in row.items():
                    values.setdefault(column, value)
        return values

    return project


_PAIR = (operator.itemgetter(0), operator.itemgetter(1))


def _compile_group_expr(expr: Expr, refs: list[ColumnRef], joined: bool) -> Closure:
    """Compile a select item / HAVING of an aggregate query into a
    closure over a *group*. Operators apply to both operands' values
    (each evaluated, whatever the other yields); a plain expression is
    that of the group's first member, NULL for the empty group."""
    if isinstance(expr, FuncCall) and expr.name in AGGREGATE_FUNCTIONS:
        return _compile_aggregate(expr, refs, joined)
    if isinstance(expr, BinaryOp):
        left = _compile_group_expr(expr.left, refs, joined)
        right = _compile_group_expr(expr.right, refs, joined)
        combine = _binary(expr.op, *_PAIR)
        return lambda group: combine((left(group), right(group)))
    if isinstance(expr, UnaryOp):
        inner = _compile_group_expr(expr.operand, refs, joined)
        apply = _unary(expr.op, _PAIR[0])
        return lambda group: apply((inner(group),))
    value = compile_expr(expr, refs, joined)
    return lambda group: value(group[0]) if group else None


_REDUCERS: dict[str, Callable[[list], Any]] = {
    "COUNT": len,
    "SUM": sum,
    "AVG": lambda values: sum(values) / len(values),
    "MIN": min,
    "MAX": max,
}


def _compile_aggregate(call: FuncCall, refs: list[ColumnRef], joined: bool) -> Closure:
    name = call.name
    if name == "COUNT" and (not call.args or isinstance(call.args[0], Star)):
        return len
    if not call.args:
        raise QueryError(f"{name} requires an argument")
    argument = compile_expr(call.args[0], refs, joined)
    reduce, distinct = _REDUCERS[name], call.distinct

    def aggregate(group: list) -> Any:
        values = [v for v in map(argument, group) if v is not None]
        if distinct:
            values = list(dict.fromkeys(values))
        if not values and name != "COUNT":
            return None
        try:
            return reduce(values)
        except TypeError as exc:
            raise _type_error(name, exc) from None

    return aggregate


def _probes(
    where: Optional[Expr], binding: str
) -> tuple[tuple[str, tuple[Any, ...]], ...]:
    found: list[tuple[str, tuple[Any, ...]]] = []
    for conjunct in _conjuncts(where) if where is not None else ():
        if isinstance(conjunct, BinaryOp) and conjunct.op == "=":
            sides = [conjunct.left, conjunct.right]
            for expr, other in (sides, sides[::-1]):
                if (
                    isinstance(expr, ColumnRef)
                    and expr.table in (None, binding)
                    and isinstance(other, Literal)
                ):
                    found.append((expr.name, (other.value,)))
        elif (
            isinstance(conjunct, InOp)
            and not conjunct.negated
            and isinstance(conjunct.expr, ColumnRef)
            and conjunct.expr.table in (None, binding)
            and all(isinstance(item, Literal) for item in conjunct.items)
        ):
            found.append((
                conjunct.expr.name,
                tuple(item.value for item in conjunct.items),  # type: ignore[union-attr]
            ))
    return tuple(found)


def _conjuncts(expr: Expr) -> list[Expr]:
    if isinstance(expr, BinaryOp) and expr.op == "AND":
        return _conjuncts(expr.left) + _conjuncts(expr.right)
    return [expr]


def _join_equality(on: Expr, right_binding: str) -> Optional[tuple[Expr, str]]:
    """If ``on`` is ``left_expr = right.column``, return them for hashing."""
    if not (isinstance(on, BinaryOp) and on.op == "="):
        return None
    left, right = on.left, on.right
    if isinstance(right, ColumnRef) and right.table == right_binding:
        if not _references_binding(left, right_binding):
            return left, right.name
    if isinstance(left, ColumnRef) and left.table == right_binding:
        if not _references_binding(right, right_binding):
            return right, left.name
    return None


def _references_binding(expr: Expr, binding: str) -> bool:
    if isinstance(expr, ColumnRef):
        return expr.table == binding
    if isinstance(expr, BinaryOp):
        return _references_binding(expr.left, binding) or _references_binding(
            expr.right, binding
        )
    if isinstance(expr, UnaryOp):
        return _references_binding(expr.operand, binding)
    return False


def _item_name(item: SelectItem) -> str:
    if item.alias:
        return item.alias
    if isinstance(item.expr, ColumnRef):
        return item.expr.name
    if isinstance(item.expr, FuncCall):
        return item.expr.name.lower()
    return "expr"


# -- execution -----------------------------------------------------------------


def index_probe(plan: SelectPlan, table: "Table") -> Optional[tuple[str, tuple]]:
    """The ``(column, values)`` an index of ``table`` answers the base
    scan with, or ``None`` for a full scan (also what EXPLAIN reports)."""
    for column, values in plan.probes:
        if table.has_index(column):
            return column, values
    return None


def run_select(store: "RelationalStore", plan: SelectPlan) -> list[ResultRow]:
    """Execute a compiled SELECT: bind, then scan → join → filter →
    group or project → DISTINCT → ORDER BY → OFFSET / LIMIT."""
    select = plan.select
    base = store.table(select.table.name)
    schemas = {select.table.binding: base.schema}
    base_owners = _owners(schemas) if plan.joins else {}
    stages = []
    for join in plan.joins:
        right = store.table(join.join.table.name)
        if join.hashed is not None:
            bind(join.hashed[1], schemas)
        schemas[join.join.table.binding] = right.schema
        bind(join.refs, schemas)
        stages.append((join, right, _owners(schemas)))
    bind(plan.refs, schemas)
    order = _bind_order(plan, schemas)

    pairs = _base_rows(base, plan)
    examined = len(pairs)
    where = plan.where
    if stages:
        subjects: list[Any] = [
            {select.table.binding: row, _OWNERS: base_owners}
            for __, row in pairs
        ]
        for join, right, owners in stages:
            subjects, tested = _join(subjects, join, right, owners)
            examined += tested
        if where is not None:
            subjects = [env for env in subjects if where(env) is True]
    elif where is not None:
        pairs = [pair for pair in pairs if where(pair[1]) is True]
    store.stats.rows_examined += examined

    if not stages and (plan.groups is not None or order):
        subjects = [row for __, row in pairs]
    if plan.groups is not None:
        rows = _aggregate(plan.groups, subjects)
    elif stages:
        project = plan.project
        rows = [ResultRow(project(env), None, None) for env in subjects]
    else:
        project, name = plan.project, select.table.name
        rows = [ResultRow(project(row), pk, name) for pk, row in pairs]
    if select.distinct:
        rows = _distinct(rows)
    if order:
        rows = _order(order, rows, subjects)
    if select.offset:
        rows = rows[select.offset:]
    if select.limit is not None:
        rows = rows[: select.limit]
    return rows


def _base_rows(table: "Table", plan: SelectPlan) -> list[tuple[str, dict[str, Any]]]:
    """Scan the base table, through an index when the WHERE clause has a
    top-level equality/IN conjunct on an indexed column."""
    probe = index_probe(plan, table)
    if probe is None:
        return list(table.rows())
    column, values = probe
    pks = dict.fromkeys(
        pk for value in values for pk in table.index_lookup(column, value)
    )
    return [(pk, table.row(pk)) for pk in sorted(pks)]


def _join(
    envs: list[dict], plan: JoinPlan, right_table: "Table", owners: dict[str, str]
) -> tuple[list[dict], int]:
    """Extend each environment with the matching rows of ``right_table``
    (a NULL row for an unmatched LEFT join); also returns how many
    candidate rows ``ON`` was evaluated over."""
    binding, on = plan.join.table.binding, plan.on
    right_rows = [row for __, row in right_table.rows()]
    hash_index: dict[Any, list[dict[str, Any]]] | None = None
    if plan.hashed is not None:
        left, __, right_column = plan.hashed
        hash_index = {}
        for row in right_rows:
            hash_index.setdefault(row[right_column], []).append(row)
    null_row = dict.fromkeys(right_table.schema.column_names)
    joined: list[dict] = []
    tested = 0
    for env in envs:
        candidates = right_rows
        if hash_index is not None:
            candidates = hash_index.get(left(env), ())
        tested += len(candidates)
        matched = False
        for row in candidates:
            extended = {**env, binding: row, _OWNERS: owners}
            if on(extended) is True:
                joined.append(extended)
                matched = True
        if not matched and plan.join.kind == "LEFT":
            joined.append({**env, binding: null_row, _OWNERS: owners})
    return joined, tested


def _aggregate(groups: GroupPlan, subjects: list) -> list[ResultRow]:
    grouped: dict[tuple, list] = {}
    if groups.keys:
        for subject in subjects:
            key = tuple(_group_key(value(subject)) for value in groups.keys)
            grouped.setdefault(key, []).append(subject)
    else:
        grouped[()] = subjects  # one group, and one row even when empty
    rows: list[ResultRow] = []
    for key in sorted(grouped):
        group = grouped[key]
        if groups.having is not None and groups.having(group) is not True:
            continue
        values = {name: value(group) for name, value in groups.items}
        rows.append(ResultRow(values, None, None))
    return rows


def _bind_order(
    plan: SelectPlan, schemas: Mapping[str, TableSchema]
) -> list[tuple[Optional[str], Optional[Closure], bool]]:
    """Decide, per ORDER BY key, between the output column of that name
    and the compiled expression, binding the expressions that are used."""
    if not plan.order:
        return []
    outputs: set[str] = set()
    for item in plan.select.items:
        if not isinstance(item.expr, Star):
            outputs.add(_item_name(item))
        elif plan.groups is None:
            for binding, schema in schemas.items():
                if item.expr.table in (None, binding):
                    outputs.update(schema.column_names)
    keys = []
    for key in plan.order:
        if key.name in outputs:
            keys.append((key.name, None, key.ascending))
        elif key.value is None:
            raise UnsupportedQueryError(
                "ORDER BY expression must appear in the select list "
                "of an aggregate query"
            )
        else:
            bind(key.refs, schemas)
            keys.append((None, key.value, key.ascending))
    return keys


def base_order(select: Select) -> tuple[OrderItem, ...]:
    """ORDER BY read over base rows: a key naming a select item is that
    item's expression (the name :func:`_bind_order` resolves first)."""
    named = {
        _item_name(item): item.expr
        for item in select.items if not isinstance(item.expr, Star)
    }
    return tuple(
        replace(key, expr=named.get(key.expr.name, key.expr))
        if isinstance(key.expr, ColumnRef) else key
        for key in select.order_by
    )


def token_bounds(where: Optional[Expr], field: Optional[str]):
    """``(op, value)`` of each top-level ``AND`` conjunct comparing the
    bare column ``field`` with a literal, read from the column's side."""
    for term in _conjuncts(where) if where is not None and field else ():
        if isinstance(term, BinaryOp) and isinstance(term.left, Literal):
            term = BinaryOp(_MIRROR.get(term.op, ""), term.right, term.left)
        if isinstance(term, BinaryOp) and term.op in _MIRROR and isinstance(
            term.left, ColumnRef
        ) and term.left.name == field and isinstance(term.right, Literal):
            yield term.op, term.right.value


_MIRROR = {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "=": "="}


def _order(
    order: list[tuple[Optional[str], Optional[Closure], bool]],
    rows: list[ResultRow],
    subjects: list,
) -> list[ResultRow]:
    """Stable sort of ``rows``; ``subjects[i]`` is what ``rows[i]`` was
    projected from (only read by keys that are expressions)."""
    keys = [
        tuple(
            _null_first(
                row.values[name] if value is None else value(subjects[index]),
                ascending,
            )
            for name, value, ascending in order
        )
        for index, row in enumerate(rows)
    ]
    return [rows[index] for index in sorted(range(len(rows)), key=keys.__getitem__)]


def _null_first(value: Any, ascending: bool):
    """Sort helper: NULLs first ascending, last descending (MySQL)."""
    if ascending:
        return (value is not None, _Comparable(value, False))
    return (value is None, _Comparable(value, True))


class _Comparable:
    """Wraps a value so mixed types do not raise during sorting.

    ``__eq__`` is required: multi-key ORDER BY builds tuples of these,
    and tuple comparison only moves to the next key when the current
    elements compare equal.
    """

    __slots__ = ("value", "reverse")

    def __init__(self, value: Any, reverse: bool):
        self.value = value
        self.reverse = reverse

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, _Comparable):
            return NotImplemented
        return self.value == other.value

    def __hash__(self) -> int:  # pragma: no cover - not used as a key
        return hash((self.value, self.reverse))

    def __lt__(self, other: "_Comparable") -> bool:
        a, b = self.value, other.value
        if a is None:
            return False
        if b is None:
            return True
        try:
            result = a < b
        except TypeError:
            result = str(a) < str(b)
        return result != self.reverse


def _group_key(value: Any):
    return (value is None, str(type(value).__name__), value if value is not None else 0)


def _distinct(rows: list[ResultRow]) -> list[ResultRow]:
    seen: set[tuple] = set()
    unique: list[ResultRow] = []
    for row in rows:
        signature = tuple(sorted((k, repr(v)) for k, v in row.values.items()))
        if signature not in seen:
            seen.add(signature)
            unique.append(row)
    return unique
