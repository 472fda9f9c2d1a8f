"""The interpreters the compilers replaced, kept as test references.

Until ISSUE 22 ``repro.stores.relational.executor`` walked the
expression tree per row (``Evaluator.value`` / ``_binary`` / ``_column``)
and ``repro.stores.document.query`` re-interpreted the condition per
document (``_match_condition`` / ``_match_operand``). Both now compile
to closures; the tree walkers live on here, verbatim, as the oracle the
compiled forms are differentially tested against
(``tests/test_compiled_queries.py``).

Verbatim except for the three bugs the issue fixed in the same change,
marked ``# FIX`` below:

* an operator's ``TypeError`` / ``ValueError`` is a :class:`QueryError`
  everywhere (``BETWEEN``, unary minus, ``ABS`` / ``ROUND``, the
  aggregates), not only in the six comparisons and ``+ - * /``;
* ``$ne`` / ``$nin`` / ``$not`` hold of a field that is absent;
* (whether a query is refused must not depend on the data is a property
  of *when* names are checked, which an interpreter cannot have — the
  generators only produce valid names and operators.)

Sort / group / DISTINCT helpers are not interpreters and are imported
from ``src``.

The answer ranking lives here too: :func:`reference_rank` is the
dedup-and-sort over built answer entries that ``assemble_answer`` did
before it ranked columns and plans (``tests/test_probe_run.py``,
``tests/test_plan_rank.py``).
"""

from __future__ import annotations

import re
from typing import Any, Iterable, Mapping, Optional

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
    IsNullOp,
    LikeOp,
    Literal,
    OrderItem,
    Select,
    Star,
    UnaryOp,
    Update,
)
from repro.stores.operators import null_first, unique
from repro.stores.relational.executor import (
    ResultRow,
    _group_key,
    _item_name,
    _join_equality,
    _like_regex,
    _signature,
    _truthy,
)

#: A row environment: binding name -> column dict.
Env = dict[str, dict[str, Any]]


# ---------------------------------------------------------------------------
# SQL: the per-row tree walker
# ---------------------------------------------------------------------------


class Evaluator:
    """Expression evaluation against a row environment."""

    def __init__(self, default_binding: Optional[str] = None):
        self.default_binding = default_binding

    def value(self, expr: Expr, env: Env) -> Any:
        if isinstance(expr, Literal):
            return expr.value
        if isinstance(expr, ColumnRef):
            return self._column(expr, env)
        if isinstance(expr, BinaryOp):
            return self._binary(expr, env)
        if isinstance(expr, UnaryOp):
            operand = self.value(expr.operand, env)
            if expr.op == "NOT":
                return None if operand is None else not _truthy(operand)
            if expr.op == "-":
                try:
                    return None if operand is None else -operand
                except TypeError as exc:  # FIX: was a raw TypeError
                    raise QueryError(f"type error in unary -: {exc}") from None
            raise QueryError(f"unknown unary operator {expr.op!r}")
        if isinstance(expr, LikeOp):
            text = self.value(expr.expr, env)
            pattern = self.value(expr.pattern, env)
            if text is None or pattern is None:
                return None
            matched = _like_regex(str(pattern)).match(str(text)) is not None
            return matched != expr.negated
        if isinstance(expr, InOp):
            candidate = self.value(expr.expr, env)
            if candidate is None:
                return None
            values = [self.value(item, env) for item in expr.items]
            found = candidate in [v for v in values if v is not None]
            if not found and None in values:
                return None
            return found != expr.negated
        if isinstance(expr, BetweenOp):
            candidate = self.value(expr.expr, env)
            low = self.value(expr.low, env)
            high = self.value(expr.high, env)
            if candidate is None or low is None or high is None:
                return None
            try:
                return (low <= candidate <= high) != expr.negated
            except TypeError as exc:  # FIX: was a raw TypeError
                raise QueryError(f"type error in BETWEEN: {exc}") from None
        if isinstance(expr, IsNullOp):
            is_null = self.value(expr.expr, env) is None
            return is_null != expr.negated
        if isinstance(expr, FuncCall):
            if expr.name in AGGREGATE_FUNCTIONS:
                raise QueryError(
                    f"aggregate {expr.name} used outside aggregation context"
                )
            return self._scalar_function(expr, env)
        if isinstance(expr, Star):
            raise QueryError("'*' is only valid in a select list or COUNT(*)")
        raise QueryError(f"cannot evaluate expression {expr!r}")

    def _column(self, ref: ColumnRef, env: Env) -> Any:
        if ref.table is not None:
            if ref.table not in env:
                raise QueryError(f"unknown table alias {ref.table!r}")
            row = env[ref.table]
            if ref.name not in row:
                raise QueryError(f"unknown column {ref}")
            return row[ref.name]
        hits = [
            binding
            for binding, row in env.items()
            if not binding.startswith("__") and ref.name in row
        ]
        if not hits:
            raise QueryError(f"unknown column {ref.name!r}")
        if len(hits) > 1:
            raise QueryError(f"ambiguous column {ref.name!r} (in {sorted(hits)})")
        return env[hits[0]][ref.name]

    def _binary(self, expr: BinaryOp, env: Env) -> Any:
        op = expr.op
        if op == "AND":
            left = self.value(expr.left, env)
            if left is not None and not _truthy(left):
                return False
            right = self.value(expr.right, env)
            if right is not None and not _truthy(right):
                return False
            if left is None or right is None:
                return None
            return True
        if op == "OR":
            left = self.value(expr.left, env)
            if left is not None and _truthy(left):
                return True
            right = self.value(expr.right, env)
            if right is not None and _truthy(right):
                return True
            if left is None or right is None:
                return None
            return False
        left = self.value(expr.left, env)
        right = self.value(expr.right, env)
        if left is None or right is None:
            return None
        try:
            if op == "=":
                return left == right
            if op == "!=":
                return left != right
            if op == "<":
                return left < right
            if op == "<=":
                return left <= right
            if op == ">":
                return left > right
            if op == ">=":
                return left >= right
            if op == "+":
                return left + right
            if op == "-":
                return left - right
            if op == "*":
                return left * right
            if op == "/":
                if right == 0:
                    return None  # MySQL semantics: division by zero is NULL
                return left / right
        except TypeError as exc:
            raise QueryError(f"type error in {op}: {exc}") from None
        raise QueryError(f"unknown binary operator {op!r}")

    def _scalar_function(self, expr: FuncCall, env: Env) -> Any:
        args = [self.value(arg, env) for arg in expr.args]
        name = expr.name
        if name == "COALESCE":
            for arg in args:
                if arg is not None:
                    return arg
            return None
        if not args or args[0] is None:
            return None
        if name == "UPPER":
            return str(args[0]).upper()
        if name == "LOWER":
            return str(args[0]).lower()
        if name == "LENGTH":
            return len(str(args[0]))
        try:  # FIX: was a raw TypeError / ValueError
            if name == "ABS":
                return abs(args[0])
            if name == "ROUND":
                digits = (
                    int(args[1]) if len(args) > 1 and args[1] is not None else 0
                )
                return round(args[0], digits)
        except (TypeError, ValueError) as exc:
            raise QueryError(f"type error in {name}: {exc}") from None
        raise QueryError(f"unknown scalar function {name!r}")


class SelectExecutor:
    """Executes a parsed SELECT against a relational store."""

    def __init__(self, store: "RelationalStore") -> None:
        self.store = store
        self.evaluator = Evaluator()

    def run(self, select: Select) -> list[ResultRow]:
        envs = self._scan(select)
        if select.where is not None:
            envs = [
                env for env in envs
                if self.evaluator.value(select.where, env) is True
            ]
        if select.is_aggregate():
            rows = self._aggregate(select, envs)
        else:
            rows = [self._project(select, env) for env in envs]
        if select.distinct:
            rows = unique(rows, _signature)
        if select.order_by:
            # After DISTINCT or aggregation, ORDER BY may only reference
            # the select list (row alignment with scan envs is lost).
            aligned = envs if not (select.is_aggregate() or select.distinct) else None
            rows = self._order(select.order_by, rows, aligned)
        if select.offset:
            rows = rows[select.offset:]
        if select.limit is not None:
            rows = rows[: select.limit]
        return rows

    # -- scan & join ------------------------------------------------------------

    def _scan(self, select: Select) -> list[Env]:
        base_table = self.store.table(select.table.name)
        binding = select.table.binding
        base_rows = self._base_rows(base_table, binding, select)
        envs: list[Env] = [
            {binding: row, "__pk__": {"pk": pk, "table": select.table.name}}
            for pk, row in base_rows
        ]
        for join in select.joins:
            envs = self._join(envs, join)
        return envs

    def _base_rows(
        self, table: "Table", binding: str, select: Select
    ) -> list[tuple[str, dict[str, Any]]]:
        """Scan the base table, using an index when the WHERE clause has a
        top-level equality/IN conjunct on an indexed column."""
        lookup = _index_lookup(select.where, binding, table)
        if lookup is not None:
            column, values = lookup
            pks: list[str] = []
            seen: set[str] = set()
            for value in values:
                for pk in table.index_lookup(column, value):
                    if pk not in seen:
                        seen.add(pk)
                        pks.append(pk)
            return [(pk, table.row(pk)) for pk in sorted(pks)]
        return list(table.rows())

    def _join(self, envs: list[Env], join: "Join") -> list[Env]:  # type: ignore[name-defined]
        right_table = self.store.table(join.table.name)
        right_binding = join.table.binding
        joined: list[Env] = []
        # Equality fast path: ON a.x = b.y with one side bound to the new table.
        eq = _join_equality(join.on, right_binding)
        right_rows = list(right_table.rows())
        hash_index: dict[Any, list[dict[str, Any]]] | None = None
        if eq is not None:
            right_column = eq[1]
            hash_index = {}
            for __, row in right_rows:
                hash_index.setdefault(row.get(right_column), []).append(row)
        for env in envs:
            matches: list[dict[str, Any]] = []
            if hash_index is not None and eq is not None:
                left_value = self.evaluator.value(eq[0], env)
                candidates = hash_index.get(left_value, [])
            else:
                candidates = [row for __, row in right_rows]
            for row in candidates:
                extended = dict(env)
                extended[right_binding] = row
                if self.evaluator.value(join.on, extended) is True:
                    matches.append(row)
            if matches:
                for row in matches:
                    extended = dict(env)
                    extended[right_binding] = row
                    joined.append(extended)
            elif join.kind == "LEFT":
                extended = dict(env)
                extended[right_binding] = {
                    name: None for name in right_table.schema.column_names
                }
                joined.append(extended)
        return joined

    # -- projection ---------------------------------------------------------------

    def _project(self, select: Select, env: Env) -> ResultRow:
        values: dict[str, Any] = {}
        for item in select.items:
            if isinstance(item.expr, Star):
                for binding, row in env.items():
                    if binding == "__pk__":
                        continue
                    if item.expr.table is not None and binding != item.expr.table:
                        continue
                    for name, value in row.items():
                        values.setdefault(name, value)
            else:
                values[_item_name(item)] = self.evaluator.value(item.expr, env)
        provenance = env.get("__pk__", {})
        multi_table = len([b for b in env if b != "__pk__"]) > 1
        if multi_table:
            return ResultRow(values, None, None)
        return ResultRow(values, provenance.get("pk"), provenance.get("table"))

    # -- aggregation ---------------------------------------------------------------

    def _aggregate(self, select: Select, envs: list[Env]) -> list[ResultRow]:
        groups: dict[tuple, list[Env]] = {}
        if select.group_by:
            for env in envs:
                key = tuple(
                    _group_key(self.evaluator.value(expr, env))
                    for expr in select.group_by
                )
                groups.setdefault(key, []).append(env)
        else:
            groups[()] = envs
        rows: list[ResultRow] = []
        for __, group_envs in sorted(groups.items(), key=lambda kv: kv[0]):
            if select.having is not None:
                if self._agg_value(select.having, group_envs) is not True:
                    continue
            if not group_envs and not select.group_by:
                group_envs = []
            values = {
                _item_name(item): self._agg_value(item.expr, group_envs)
                for item in select.items
                if not isinstance(item.expr, Star)
            }
            rows.append(ResultRow(values, None, None))
        if not select.group_by and not rows and select.having is None:
            # Aggregates over an empty input still return one row.
            values = {
                _item_name(item): self._agg_value(item.expr, [])
                for item in select.items
                if not isinstance(item.expr, Star)
            }
            rows.append(ResultRow(values, None, None))
        return rows

    def _agg_value(self, expr: Expr, group: list[Env]) -> Any:
        if isinstance(expr, FuncCall) and expr.name in AGGREGATE_FUNCTIONS:
            return self._compute_aggregate(expr, group)
        if isinstance(expr, BinaryOp):
            left = self._agg_value(expr.left, group)
            right = self._agg_value(expr.right, group)
            return self.evaluator._binary(
                BinaryOp(expr.op, Literal(left), Literal(right)), {}
            )
        if isinstance(expr, UnaryOp):
            inner = self._agg_value(expr.operand, group)
            return self.evaluator.value(
                UnaryOp(expr.op, Literal(inner)), {}
            )
        if not group:
            return None
        return self.evaluator.value(expr, group[0])

    def _compute_aggregate(self, call: FuncCall, group: list[Env]) -> Any:
        if call.name == "COUNT" and (
            not call.args or isinstance(call.args[0], Star)
        ):
            return len(group)
        if not call.args:
            raise QueryError(f"{call.name} requires an argument")
        values = [self.evaluator.value(call.args[0], env) for env in group]
        values = [value for value in values if value is not None]
        if call.distinct:
            values = list(dict.fromkeys(values))
        if call.name == "COUNT":
            return len(values)
        if not values:
            return None
        try:  # FIX: was a raw TypeError
            if call.name == "SUM":
                return sum(values)
            if call.name == "AVG":
                return sum(values) / len(values)
            if call.name == "MIN":
                return min(values)
            if call.name == "MAX":
                return max(values)
        except TypeError as exc:
            raise QueryError(f"type error in {call.name}: {exc}") from None
        raise QueryError(f"unknown aggregate {call.name!r}")

    # -- ordering -------------------------------------------------------------------

    def _order(
        self,
        order_by: tuple[OrderItem, ...],
        rows: list[ResultRow],
        envs: Optional[list[Env]],
    ) -> list[ResultRow]:
        def sort_key(indexed: tuple[int, ResultRow]):
            index, row = indexed
            key = []
            for item in order_by:
                if isinstance(item.expr, ColumnRef) and item.expr.name in row.values:
                    value = row.values[item.expr.name]
                elif envs is not None:
                    value = self.evaluator.value(item.expr, envs[index])
                else:
                    raise UnsupportedQueryError(
                        "ORDER BY expression must appear in the select list "
                        "of an aggregate query"
                    )
                key.append(null_first(value, item.ascending))
            return tuple(key)

        indexed = sorted(enumerate(rows), key=sort_key)
        return [row for __, row in indexed]


def _index_lookup(
    where: Optional[Expr], binding: str, table: "Table"
) -> Optional[tuple[str, list[Any]]]:
    """Find a usable ``column = literal`` / ``column IN (literals)``
    conjunct over an indexed column of the base table."""
    if where is None:
        return None
    for conjunct in _conjuncts(where):
        if isinstance(conjunct, BinaryOp) and conjunct.op == "=":
            sides = [conjunct.left, conjunct.right]
            for expr, other in (sides, sides[::-1]):
                if (
                    isinstance(expr, ColumnRef)
                    and (expr.table in (None, binding))
                    and isinstance(other, Literal)
                    and table.has_index(expr.name)
                ):
                    return expr.name, [other.value]
        if (
            isinstance(conjunct, InOp)
            and not conjunct.negated
            and isinstance(conjunct.expr, ColumnRef)
            and conjunct.expr.table in (None, binding)
            and all(isinstance(item, Literal) for item in conjunct.items)
            and table.has_index(conjunct.expr.name)
        ):
            return conjunct.expr.name, [
                item.value for item in conjunct.items  # type: ignore[union-attr]
            ]
    return None


def _conjuncts(expr: Expr) -> list[Expr]:
    if isinstance(expr, BinaryOp) and expr.op == "AND":
        return _conjuncts(expr.left) + _conjuncts(expr.right)
    return [expr]


def run_update(store, update: Update) -> None:
    """``RelationalStore._run_update`` as it was."""
    table = store.table(update.table)
    evaluator = Evaluator()
    targets = []
    for pk, row in table.rows():
        env = {update.table: row}
        if update.where is None or evaluator.value(update.where, env) is True:
            targets.append(pk)
    for pk in targets:
        env = {update.table: table.row(pk)}
        changes = {
            assignment.column: evaluator.value(assignment.value, env)
            for assignment in update.assignments
        }
        table.update(pk, changes)


def run_delete(store, delete: Delete) -> None:
    """``RelationalStore._run_delete`` as it was."""
    table = store.table(delete.table)
    evaluator = Evaluator()
    targets = []
    for pk, row in table.rows():
        env = {delete.table: row}
        if delete.where is None or evaluator.value(delete.where, env) is True:
            targets.append(pk)
    for pk in targets:
        table.delete(pk)


# ---------------------------------------------------------------------------
# Mongo filters: the per-document interpreter
# ---------------------------------------------------------------------------

_COMPARATORS = {"$eq", "$ne", "$gt", "$gte", "$lt", "$lte"}
_TYPE_NAMES = {
    "double": float,
    "string": str,
    "object": dict,
    "array": list,
    "bool": bool,
    "int": int,
    "null": type(None),
}


def resolve_path(document: Any, path: str) -> list[Any]:
    """All values at a dotted ``path``, descending through arrays.

    Returns an empty list when the path does not exist. A document
    ``{"a": [{"b": 1}, {"b": 2}]}`` resolves ``"a.b"`` to ``[1, 2]``.
    """
    return _resolve_parts(document, path.split("."))


def _resolve_parts(document: Any, parts: list[str]) -> list[Any]:
    """``resolve_path`` over a pre-split path (the compiled-filter form)."""
    values = [document]
    for part in parts:
        next_values: list[Any] = []
        for value in values:
            if isinstance(value, Mapping):
                if part in value:
                    next_values.append(value[part])
            elif isinstance(value, list):
                if part.isdigit() and int(part) < len(value):
                    next_values.append(value[int(part)])
                else:
                    for element in value:
                        if isinstance(element, Mapping) and part in element:
                            next_values.append(element[part])
        values = next_values
        if not values:
            break
    return values


def _compare(op: str, candidate: Any, operand: Any) -> bool:
    try:
        if op == "$eq":
            return candidate == operand
        if op == "$ne":
            return candidate != operand
        if op == "$gt":
            return candidate > operand
        if op == "$gte":
            return candidate >= operand
        if op == "$lt":
            return candidate < operand
        if op == "$lte":
            return candidate <= operand
    except TypeError:
        return False
    raise QueryError(f"unknown comparison operator {op!r}")


def _match_operand(candidate: Any, operator: str, operand: Any) -> bool:
    if operator in _COMPARATORS:
        return _compare(operator, candidate, operand)
    if operator == "$in":
        return candidate in operand
    if operator == "$nin":
        return candidate not in operand
    if operator == "$regex":
        if not isinstance(candidate, str):
            return False
        return re.search(operand, candidate) is not None
    if operator == "$type":
        expected = _TYPE_NAMES.get(operand)
        if expected is None:
            raise QueryError(f"unknown $type name {operand!r}")
        if expected is int and isinstance(candidate, bool):
            return False
        return isinstance(candidate, expected)
    if operator == "$size":
        return isinstance(candidate, list) and len(candidate) == operand
    if operator == "$all":
        return isinstance(candidate, list) and all(
            item in candidate for item in operand
        )
    if operator == "$elemMatch":
        return isinstance(candidate, list) and any(
            isinstance(element, Mapping) and reference_matches(element, operand)
            for element in candidate
        )
    if operator == "$not":
        return not _match_condition([candidate], operand)
    raise QueryError(f"unknown query operator {operator!r}")


def _is_operator_doc(value: Any) -> bool:
    return isinstance(value, Mapping) and value and all(
        isinstance(key, str) and key.startswith("$") for key in value
    )


def _match_condition(candidates: Iterable[Any], condition: Any) -> bool:
    """True if any value at the path satisfies ``condition``."""
    candidates = list(candidates)
    if _is_operator_doc(condition):
        if "$exists" in condition:
            exists = bool(condition["$exists"])
            if bool(candidates) != exists:
                return False
            rest = {k: v for k, v in condition.items() if k != "$exists"}
            if not rest:
                return True
            condition = rest
        for operator, operand in condition.items():
            if not candidates and operator in ("$ne", "$nin", "$not"):
                continue  # FIX: a negation holds of an absent field
            if not any(
                _match_operand(value, operator, operand) for value in candidates
            ) and not (
                # Array fields also match when the array itself satisfies
                # the operator (e.g. {$eq: [1, 2]}), like MongoDB.
                operator == "$eq"
                and any(value == operand for value in candidates)
            ):
                return False
        return True
    # Literal equality: value equals, or an array member equals.
    for value in candidates:
        if value == condition:
            return True
        if isinstance(value, list) and condition in value:
            return True
    return False


def reference_matches(document: Mapping[str, Any], query: Mapping[str, Any]) -> bool:
    """``matches_filter`` as the old ``_compile`` dispatched it, without
    compiling: the logical operators recurse, a field goes through
    ``_match_condition`` over the values at its path."""
    for key, condition in query.items():
        if key == "$and":
            if not all(reference_matches(document, sub) for sub in condition):
                return False
        elif key == "$or":
            if not any(reference_matches(document, sub) for sub in condition):
                return False
        elif key == "$nor":
            if any(reference_matches(document, sub) for sub in condition):
                return False
        elif key.startswith("$"):
            raise QueryError(f"unknown top-level operator {key!r}")
        elif not _match_condition(
            _resolve_parts(document, key.split(".")), condition
        ):
            return False
    return True


# ---------------------------------------------------------------------------
# Answer assembly: the ranking over built entries
# ---------------------------------------------------------------------------


def reference_rank(entries):
    """The ranking as it was, over objects built for every row."""
    best = {}
    for entry in entries:
        if entry.source == entry.key:
            continue
        current = best.get(entry.key)
        if current is None or entry.probability > current.probability:
            best[entry.key] = entry
    return sorted(
        best.values(), key=lambda entry: (-entry.probability, str(entry.key))
    )
