"""Row operators shared by the native languages.

Every query stays in its store's own language; what the languages have
in common is the operators they compile to. Each one lives here once,
and an engine calls it with its own semantics as arguments: the sort
key it orders by, the signature two rows are the same under.
"""

from __future__ import annotations

from typing import Any, Callable, Hashable, Optional


class _NullFirst:
    """:func:`null_first`'s key. ``__eq__`` is what lets a tuple of
    keys order by more than one: tuple comparison moves to the next
    element only past elements that compare equal."""

    __slots__ = ("value", "reverse")

    def __init__(self, value: Any, reverse: bool):
        self.value = value
        self.reverse = reverse

    def __eq__(self, other: Any) -> bool:
        return self.value == other.value

    def __lt__(self, other: "_NullFirst") -> bool:
        a, b = self.value, other.value
        if a is None:
            return not self.reverse and b is not None
        if b is None:
            return self.reverse
        try:
            result = a < b
        except TypeError:
            result = str(a) < str(b)
        return result != self.reverse


def null_first(value: Any, ascending: bool) -> _NullFirst:
    """The MySQL order (SQL and Cypher ORDER BY): NULL first ascending
    and last descending; values of types that do not compare compare by
    their text."""
    return _NullFirst(value, not ascending)


def type_rank(values: list, ascending: bool) -> Any:
    """The document order of the values a sort path resolves to, read
    by the first: missing and null first, then numbers and booleans
    together by value (``True`` is 1), then every other value by its
    text. One key per sort field, so a find sorts once; a descending
    key is :func:`null_first`'s, which reverses a key that is never
    null and keeps ties tied, in scan order."""
    value = values[0] if values else None
    if value is None:
        key: tuple = (0, "")
    elif isinstance(value, (int, float)):
        key = (1, value)
    else:
        key = (2, str(value))
    return key if ascending else null_first(key, False)


def unique(rows: list, signature: Callable[[Any], Hashable]) -> list:
    """DISTINCT: the first row of each signature, in order."""
    first: dict = {}
    for row in rows:
        first.setdefault(signature(row), row)
    return list(first.values())


def window(rows: list, skip: Optional[int], limit: Optional[int]) -> list:
    """OFFSET / skip, then LIMIT."""
    if skip:
        rows = rows[skip:]
    return rows if limit is None else rows[:limit]
