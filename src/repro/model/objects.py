"""Data objects and global keys (PDM, Section II-A of the paper).

A data object ``o = (k, v)`` is a key plus an atomic piece of data; a
tuple, a JSON document, a graph node and a key-value entry are all data
objects of their respective stores. Inside a polystore an object is
uniquely addressed by its *global key* ``database.collection.key``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterator, Mapping

from repro.errors import InvalidGlobalKeyError

#: Separator used in the textual form of a global key.
GLOBAL_KEY_SEPARATOR = "."


class GlobalKey(str):
    """Unique address of a data object inside a polystore.

    A key *is* its text ``database.collection.key``: a ``str`` whose
    three read-only fields are set once, when the key is built. Hashing,
    equality and ordering are ``str``'s, in C, so a key equals, hashes
    and sorts as its own text, and ``str(key)`` is that text as a plain
    ``str`` (a copy). Database and collection names must not contain
    the separator; the local key may (e.g. Redis keys such as
    ``drop.k1:cure:wish``), which is why parsing splits on the first
    two separators only. Stores hand out one key per live object
    (:meth:`repro.stores.base.Store.global_key`).
    """

    __slots__ = ("database", "collection", "key")

    database: str
    collection: str
    key: str

    def __new__(cls, database: str, collection: str, key: str) -> "GlobalKey":
        if not database or GLOBAL_KEY_SEPARATOR in database:
            raise InvalidGlobalKeyError(
                f"invalid database name in global key: {database!r}"
            )
        if not collection or GLOBAL_KEY_SEPARATOR in collection:
            raise InvalidGlobalKeyError(
                f"invalid collection name in global key: {collection!r}"
            )
        if not key:
            raise InvalidGlobalKeyError("empty local key in global key")
        self = str.__new__(
            cls, GLOBAL_KEY_SEPARATOR.join((database, collection, key))
        )
        for name, value in zip(cls.__slots__, (database, collection, key)):
            object.__setattr__(self, name, value)
        return self

    @classmethod
    def parse(cls, text: str) -> "GlobalKey":
        """Parse ``db.collection.key`` (key may itself contain dots)."""
        parts = text.split(GLOBAL_KEY_SEPARATOR, 2)
        if len(parts) != 3:
            raise InvalidGlobalKeyError(
                f"global key must have three dot-separated parts: {text!r}"
            )
        return cls(parts[0], parts[1], parts[2])

    def __repr__(self) -> str:
        return (
            f"GlobalKey(database={self.database!r}, "
            f"collection={self.collection!r}, key={self.key!r})"
        )

    def __reduce__(self) -> tuple:
        return GlobalKey, (self.database, self.collection, self.key)

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


@dataclass(frozen=True, slots=True)
class DataObject:
    """A data object of the polystore: a global key plus its value.

    ``value`` is the store-native payload: a column/value mapping for a
    relational tuple, a (possibly nested) document for a document store,
    a property map for a graph node, or a scalar for a key-value entry.
    Values are stored as-is; equality and hashing are by global key, which
    is what the augmentation operator deduplicates on.
    """

    key: GlobalKey
    value: Any = None
    #: Probability attached by augmentation (1.0 for original results).
    probability: float = 1.0

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DataObject):
            return NotImplemented
        return self.key == other.key

    def __hash__(self) -> int:
        return hash(self.key)

    def with_probability(self, probability: float) -> "DataObject":
        """This object carrying ``probability``: itself when it already
        does (objects are immutable), a copy otherwise."""
        if probability == self.probability:
            return self
        return DataObject(self.key, self.value, probability)

    def fields(self) -> Iterator[tuple[str, Any]]:
        """Iterate ``(name, value)`` pairs when the payload is a mapping.

        Scalar payloads yield a single ``("value", payload)`` pair so all
        objects can be compared uniformly by the collector.
        """
        if isinstance(self.value, Mapping):
            yield from self.value.items()
        else:
            yield ("value", self.value)


@dataclass(slots=True)
class AugmentedObject:
    """One element of an augmented answer: an object plus its provenance.

    ``stored`` is the object as stored and cached (p = 1.0), uncopied;
    ``probability`` is this entry's. ``source`` is the result object the
    augmentation started from (None for the original results themselves)
    and ``path`` the chain of global keys that led here, useful for
    explanation and for the exploration UI.
    """

    stored: DataObject
    source: GlobalKey | None = None
    path: tuple[GlobalKey, ...] = field(default_factory=tuple)
    probability: float = 1.0

    @property
    def object(self) -> DataObject:
        """``stored`` at this entry's probability, copied on each read."""
        return self.stored.with_probability(self.probability)

    @property
    def key(self) -> GlobalKey:
        return self.stored.key
