"""Test doubles for fault-injection: flaky and unavailable stores.

The polystore philosophy is loose coupling: individual stores can be
slow, flaky, or down while the rest of the polystore keeps working.
These wrappers let tests (and users' tests) exercise those paths:

* :class:`FlakyStore` — fails every Nth operation with
  :class:`~repro.errors.StoreUnavailableError`;
* :class:`DownStore` — fails everything (a store that is offline);
* both delegate everything else to the wrapped store unchanged.
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator

from repro.errors import StoreUnavailableError
from repro.model.objects import DataObject, GlobalKey
from repro.stores.base import Store


class FlakyStore(Store):
    """Delegates to ``inner``, failing every ``fail_every``-th call.

    The counter spans reads issued through the Store contract
    (``execute``, ``get``, ``multi_get``), which is what connectors
    use — so an augmentation over a flaky store sees realistic
    mid-stream failures.
    """

    def __init__(self, inner: Store, fail_every: int = 3) -> None:
        super().__init__()
        if fail_every < 1:
            raise ValueError("fail_every must be >= 1")
        self.inner = inner
        #: One set of counters: the wrapped engine's, which does the work.
        self.stats = inner.stats
        self.fail_every = fail_every
        self.calls = 0
        self.failures = 0

    @property
    def engine(self) -> str:  # type: ignore[override]
        return self.inner.engine

    def _tick(self) -> None:
        self.calls += 1
        if self.calls % self.fail_every == 0:
            self.failures += 1
            raise StoreUnavailableError(
                f"{self.database_name or 'store'}: injected failure "
                f"(call {self.calls})",
                self.database_name,
            )

    # -- Store contract, with injection ------------------------------------

    def execute(self, query: Any) -> list[DataObject]:
        self._tick()
        return self._rekey(self.inner.execute(query))

    def get(self, key: GlobalKey) -> DataObject:
        self._tick()
        return self.inner.get(key)

    def multi_get(self, keys: Iterable[GlobalKey]) -> list[DataObject]:
        self._tick()
        return self.inner.multi_get(keys)

    def get_value(self, collection: str, key: str) -> Any:
        return self.inner.get_value(collection, key)

    def collections(self) -> list[str]:
        return self.inner.collections()

    def collection_keys(self, collection: str) -> Iterator[str]:
        return self.inner.collection_keys(collection)

    def primary_key(self, collection: str) -> str:
        return self.inner.primary_key(collection)

    # -- state contract, by delegation (writes are never failed) -----------

    @property
    def changes(self) -> Any:
        return self.inner.changes

    @changes.setter
    def changes(self, feed: Any) -> None:
        self.inner.changes = feed

    def dump_state(self) -> dict[str, Any]:
        return self.inner.dump_state()

    def load_state(self, payload: dict[str, Any]) -> "FlakyStore":
        return FlakyStore(self.inner.load_state(payload), self.fail_every)

    def empty_like(self) -> "FlakyStore":
        return FlakyStore(self.inner.empty_like(), self.fail_every)

    def records(self) -> Iterator[tuple[str, str, Any]]:
        return self.inner.records()

    def apply_change(
        self, op: str, collection: str, key: str, value: Any = None
    ) -> None:
        self.inner.apply_change(op, collection, key, value)

    def _rekey(self, objects: list[DataObject]) -> list[DataObject]:
        # The inner store stamps its own database_name; queries through
        # the wrapper must carry the wrapper's attachment name.
        if not self.database_name:
            return objects
        return [
            DataObject(
                GlobalKey(self.database_name, obj.key.collection, obj.key.key),
                obj.value,
                obj.probability,
            )
            for obj in objects
        ]


class DownStore(FlakyStore):
    """A store that is completely unavailable."""

    def __init__(self, inner: Store) -> None:
        super().__init__(inner, fail_every=1)
