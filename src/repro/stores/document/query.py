"""Mongo-style filter-document evaluation and projection.

Implements the query operators the catalogue workload (and a good deal
more) needs: comparison (``$eq $ne $gt $gte $lt $lte``), membership
(``$in $nin``), logical (``$and $or $nor $not``), element (``$exists
$type``), array (``$all $size $elemMatch``) and ``$regex``. Field paths
use dot notation and descend into nested documents and arrays, matching
MongoDB semantics: a filter on an array field matches if *any* element
matches.
"""

from __future__ import annotations

import operator
import re
from typing import Any, Callable, Mapping

from repro.errors import QueryError
from repro.stores.querycache import QueryCache

_TYPE_NAMES = {
    "double": float,
    "string": str,
    "object": dict,
    "array": list,
    "bool": bool,
    "int": int,
    "null": type(None),
}


def _is_document(value: Any) -> bool:
    """True for a nested document. Stored documents are plain dicts,
    which the first test settles without ``typing.Mapping``'s slow
    ``__instancecheck__``."""
    return isinstance(value, dict) or isinstance(value, Mapping)


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
            if isinstance(value, list):
                if part.isdigit() and int(part) < len(value):
                    next_values.append(value[int(part)])
                else:
                    for element in value:
                        if _is_document(element) and part in element:
                            next_values.append(element[part])
            elif _is_document(value) and part in value:
                next_values.append(value[part])
        values = next_values
        if not values:
            break
    return values


# -- filter compiler -----------------------------------------------------------
#
# A filter document compiles once (cached by content) into a matcher
# closure: paths pre-split, operators pre-dispatched, operands checked
# and pre-processed. Malformed filters — an unknown operator, a ``$in``
# that is not a list, a ``$regex`` that does not compile — are refused
# here, before any document is read, so the answer to a bad filter does
# not depend on what the collection holds.

#: Matcher signature: document in, verdict out.
FilterMatcher = Callable[[Mapping[str, Any]], bool]

#: One value in, verdict out: what a field condition is made of.
_Test = Callable[[Any], bool]


def _comparison(compare: Callable[[Any, Any], bool]) -> Callable[[Any], _Test]:
    def build(operand: Any) -> _Test:
        def test(value: Any) -> bool:
            try:
                return compare(value, operand)
            except TypeError:
                return False  # incomparable types do not match

        return test

    return build


def _listed(name: str, operand: Any) -> Any:
    if not isinstance(operand, (list, tuple)):
        raise QueryError(f"{name} needs a list, got {operand!r}")
    return operand


def _regex(operand: Any) -> _Test:
    try:
        search = re.compile(operand).search
    except (re.error, TypeError) as exc:
        raise QueryError(f"invalid $regex {operand!r}: {exc}") from None
    return lambda value: isinstance(value, str) and search(value) is not None


def _type(operand: Any) -> _Test:
    expected = _TYPE_NAMES.get(operand) if isinstance(operand, str) else None
    if expected is None:
        raise QueryError(f"unknown $type name {operand!r}")
    if expected is int:
        return lambda value: isinstance(value, int) and not isinstance(value, bool)
    return lambda value: isinstance(value, expected)


def _size(operand: Any) -> _Test:
    if isinstance(operand, bool) or not isinstance(operand, int):
        raise QueryError(f"$size needs an integer, got {operand!r}")
    return lambda value: isinstance(value, list) and len(value) == operand


def _all(operand: Any) -> _Test:
    wanted = _listed("$all", operand)
    return lambda value: isinstance(value, list) and all(
        item in value for item in wanted
    )


def _elem_match(operand: Any) -> _Test:
    if not _is_document(operand):
        raise QueryError(f"$elemMatch needs a filter document, got {operand!r}")
    matcher = _compile(operand)
    return lambda value: isinstance(value, list) and any(
        _is_document(element) and matcher(element) for element in value
    )


def _in(operand: Any) -> _Test:
    members = _listed("$in", operand)
    return lambda value: value in members


def _nin(operand: Any) -> _Test:
    members = _listed("$nin", operand)
    return lambda value: value not in members


def _not(operand: Any) -> _Test:
    inner = _compile_condition(operand)[0]
    return lambda value: not inner(value)


#: Operator -> builder of its per-value test from the operand.
_OPERATORS: dict[str, Callable[[Any], _Test]] = {
    "$eq": _comparison(operator.eq),
    "$ne": _comparison(operator.ne),
    "$gt": _comparison(operator.gt),
    "$gte": _comparison(operator.ge),
    "$lt": _comparison(operator.lt),
    "$lte": _comparison(operator.le),
    "$in": _in,
    "$nin": _nin,
    "$regex": _regex,
    "$type": _type,
    "$size": _size,
    "$all": _all,
    "$elemMatch": _elem_match,
    "$not": _not,
}

#: Negations hold of a field that is absent (MongoDB's rule): there is
#: no value for the negated test to be true of, and none is needed.
_NEGATIONS = frozenset({"$ne", "$nin", "$not"})


def _is_operator_doc(value: Any) -> bool:
    return _is_document(value) and bool(value) and all(
        isinstance(key, str) and key.startswith("$") for key in value
    )


def _compile_condition(condition: Any) -> tuple[_Test, Callable[[list], bool]]:
    """Compile one field condition into ``(one, many)``: the verdict
    over a single value at the path, and over the list of all values
    there (none when the field is absent). Each operator must hold of
    *some* value; a negation also holds of no value at all."""
    if not _is_operator_doc(condition):
        # Literal equality: the value equals, or an array member equals.
        tests: list[_Test] = [
            lambda value: value == condition
            or (isinstance(value, list) and condition in value)
        ]
        exists, if_absent = None, False
    else:
        tests = []
        exists, if_absent = None, True
        for name, operand in condition.items():
            if name == "$exists":
                exists = bool(operand)
                continue
            build = _OPERATORS.get(name)
            if build is None:
                raise QueryError(f"unknown query operator {name!r}")
            tests.append(build(operand))
            if name not in _NEGATIONS:
                if_absent = False
        if exists is not None:
            if_absent = if_absent and not exists

    if exists is False:
        def one(value: Any) -> bool:
            return False
    elif len(tests) == 1:
        one = tests[0]
    else:
        def one(value: Any) -> bool:
            for test in tests:
                if not test(value):
                    return False
            return True

    def many(values: list) -> bool:
        if not values:
            return if_absent
        if exists is False:
            return False
        for test in tests:
            for value in values:
                if test(value):
                    break
            else:
                return False
        return True

    return one, many


def _compile_field(path: str, condition: Any) -> FilterMatcher:
    one, many = _compile_condition(condition)
    parts = path.split(".")
    if len(parts) > 1:
        return lambda doc: many(_resolve_parts(doc, parts))
    if_absent = many([])

    def field(document: Any) -> bool:
        if type(document) is dict:  # a key probe, no candidate list
            try:
                value = document[path]
            except KeyError:
                return if_absent
            return one(value)
        return many(_resolve_parts(document, parts))

    return field


def _compile(query: Mapping[str, Any]) -> FilterMatcher:
    """Translate a filter document into a matcher closure."""
    clauses: list[FilterMatcher] = []
    for key, condition in query.items():
        if not isinstance(key, str):
            raise QueryError(f"filter keys are strings, got {key!r}")
        if key in ("$and", "$or", "$nor"):
            if not isinstance(condition, (list, tuple)) or not all(
                _is_document(sub) for sub in condition
            ):
                raise QueryError(f"{key} needs a list of filter documents")
            subs = [_compile(sub) for sub in condition]
            if key == "$and":
                clauses.append(
                    lambda doc, subs=subs: all(sub(doc) for sub in subs)
                )
            elif key == "$or":
                clauses.append(
                    lambda doc, subs=subs: any(sub(doc) for sub in subs)
                )
            else:
                clauses.append(
                    lambda doc, subs=subs: not any(sub(doc) for sub in subs)
                )
        elif key.startswith("$"):
            raise QueryError(f"unknown top-level operator {key!r}")
        else:
            clauses.append(_compile_field(key, condition))
    if len(clauses) == 1:
        return clauses[0]

    def matcher(document: Mapping[str, Any]) -> bool:
        for clause in clauses:
            if not clause(document):
                return False
        return True

    return matcher


#: Compiled-filter cache: filter content -> matcher closure. A matcher
#: is a function of the filter alone (stateless, shared by every thread
#: and store), so nothing ever invalidates an entry.
_FILTER_CACHE = QueryCache("document_filters")


def _filter_key(value: Any) -> Any:
    """A hashable mirror of a filter document (raises TypeError if the
    filter contains values that cannot be hashed even via conversion)."""
    if _is_document(value):
        return tuple(sorted((k, _filter_key(v)) for k, v in value.items()))
    if isinstance(value, list):
        return tuple(_filter_key(item) for item in value)
    hash(value)
    return value


def compile_filter(query: Mapping[str, Any]) -> FilterMatcher:
    """The compiled matcher for ``query``, cached by its content.

    Filters with unhashable atoms (rare: custom objects as operands)
    are compiled fresh on every call rather than cached.
    """
    try:
        key = _filter_key(query)
    except TypeError:
        return _compile(query)
    return _FILTER_CACHE.get_or_compute(key, lambda: _compile(query))


def matches_filter(document: Mapping[str, Any], query: Mapping[str, Any]) -> bool:
    """True if ``document`` satisfies the Mongo-style ``query``."""
    return compile_filter(query)(document)


def project(
    document: Mapping[str, Any], projection: Mapping[str, int] | None
) -> dict[str, Any]:
    """Apply a Mongo-style projection (inclusion or exclusion form)."""
    if not projection:
        return dict(document)
    include_id = projection.get("_id", 1)
    fields = {key: flag for key, flag in projection.items() if key != "_id"}
    if fields and len(set(fields.values())) > 1:
        raise QueryError("cannot mix inclusion and exclusion in a projection")
    inclusive = not fields or next(iter(fields.values())) == 1
    if inclusive:
        result: dict[str, Any] = {}
        for key in fields:
            values = resolve_path(document, key)
            if values:
                top = key.split(".", 1)[0]
                result[top] = document[top]
        if include_id and "_id" in document:
            result["_id"] = document["_id"]
        return result
    result = {key: value for key, value in document.items() if key not in fields}
    if not include_id:
        result.pop("_id", None)
    return result


def token_bounds(query: Any, field: str | None) -> list[tuple[str, Any]]:
    """``(op, value)`` of the filter's comparisons at top-level ``field``."""
    condition = query.get(field) if field and _is_document(query) else None
    condition = condition if _is_operator_doc(condition) else {"$eq": condition}
    return [(_SYMBOLS[op], v) for op, v in condition.items() if op in _SYMBOLS]


_SYMBOLS = {"$gt": ">", "$gte": ">=", "$lt": "<", "$lte": "<=", "$eq": "="}


def range_comparisons(query: Any):
    """``(field, op, value)`` of each top-level ``field: {"$gte" | "$gt" |
    "$lte" | "$lt": value, ...}`` of a filter: what an ordered path may
    answer. A dotted path, any other operator beside them, or ``$and`` /
    ``$or`` yields nothing, and that predicate scans."""
    for field, condition in query.items() if _is_document(query) else ():
        if "." in field or field.startswith("$") or not (
            _is_operator_doc(condition)
            and all(op in _SYMBOLS and op != "$eq" for op in condition)
        ):
            continue
        for op, value in condition.items():
            yield field, _SYMBOLS[op], value
