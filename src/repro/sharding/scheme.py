"""Partition schemes: how a store's objects map onto shards.

The polystore literature (BigDAWG's islands, Polybase's partitioned
external tables) exposes one core placement trade-off that QUEPA's
augmentation workload makes vivid:

* **hash-by-entity-key** — every local key deterministically owns one
  shard, so point lookups and ``multi_get`` (the augmentation hot path)
  route to exactly the owning shards and all other partitions are
  *provably* prunable. Scans, lacking key knowledge, fan out.
* **range-by-key** — objects are placed by a numeric token (the
  workload's ``seq`` attribute), so windowed scans touch only the
  partitions whose token interval overlaps the query window. Point
  lookups cannot derive the token from an opaque key and must probe
  every shard.

Both schemes answer two questions: *where does this object live*
(placement, decided once when the store is split) and *which shards can
possibly answer this request* (pruning, decided per request). Pruning
is exact for hash placement (key arithmetic) and interval-based for
range placement (shard boundary overlap).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Any, Mapping, Sequence
from zlib import crc32

from repro.errors import ConfigurationError
from repro.model.objects import GlobalKey


def hash_shard(local_key: str, shards: int) -> int:
    """The canonical key→shard map: CRC-32 of the local key.

    CRC-32 rather than ``hash()``: Python string hashing is salted per
    process (PYTHONHASHSEED), and placement must be stable across
    processes, snapshots and reruns.
    """
    return crc32(local_key.encode("utf-8")) % shards


@dataclass
class KeyRouting:
    """Where a batch of keys must be fetched from.

    ``groups`` lists ``(shard, keys)`` pairs for every partition that
    must be probed; ``scanned``/``pruned`` are the partition ids probed
    and provably skipped. ``fanout`` is the number of per-shard calls
    one scatter-gather fetch issues.
    """

    placement: str
    shards: int
    groups: list[tuple[int, list[GlobalKey]]] = field(default_factory=list)
    scanned: list[int] = field(default_factory=list)
    pruned: list[int] = field(default_factory=list)

    @property
    def fanout(self) -> int:
        return len(self.groups)

    @property
    def per_key_fanout(self) -> float:
        """Mean number of shards probed per requested key (1.0 when
        every key routes to exactly its owning shard)."""
        keys = len({key for __, group in self.groups for key in group})
        if not keys:
            return 0.0
        probes = sum(len(group) for __, group in self.groups)
        return probes / keys


class PartitionScheme(ABC):
    """Placement + pruning policy for one sharded store."""

    placement: str = "abstract"
    #: The numeric attribute placement reads, when it reads one: an
    #: engine prunes a scan to the shards its window of it can reach.
    token_field: str | None = None

    def __init__(self, shards: int) -> None:
        if shards < 1:
            raise ConfigurationError(
                f"a partition scheme needs at least one shard, got {shards}"
            )
        self.shards = shards

    @abstractmethod
    def shard_of_key(self, local_key: str) -> int | None:
        """The owning shard derivable from the key alone, or ``None``
        when placement cannot be inferred from an opaque key (range
        placement) and every shard must be probed."""

    @abstractmethod
    def shard_of_object(
        self, collection: str, local_key: str, value: Any
    ) -> int:
        """The placement decision for one object (split time)."""

    def prepare(self, store) -> None:
        """Hook called before splitting ``store`` (e.g. to fit range
        boundaries from the observed token distribution)."""

    def scan_candidates(
        self, interval: tuple[float, float] | None
    ) -> list[int]:
        """Shards that can possibly answer a scan over ``interval``
        (a half-open ``[lo, hi)`` token window, or ``None`` when the
        query's token window is unknown)."""
        return list(range(self.shards))

    def describe(self) -> dict[str, Any]:
        return {"placement": self.placement, "shards": self.shards}


class HashScheme(PartitionScheme):
    """Entity-keyed placement: ``crc32(local_key) % shards``."""

    placement = "hash"

    def shard_of_key(self, local_key: str) -> int | None:
        return hash_shard(local_key, self.shards)

    def shard_of_object(
        self, collection: str, local_key: str, value: Any
    ) -> int:
        return hash_shard(local_key, self.shards)


class RangeScheme(PartitionScheme):
    """Range placement over a numeric token carried by the object.

    ``boundaries`` holds ``shards - 1`` ascending cut points; shard
    ``i`` owns tokens in ``[boundaries[i-1], boundaries[i])`` with
    implicit ±infinity at the ends. Objects without the token field
    fall back to shard 0 (and disable pruning shard 0 away).
    """

    placement = "range"

    def __init__(
        self,
        shards: int,
        token_field: str = "seq",
        boundaries: Sequence[float] | None = None,
    ) -> None:
        super().__init__(shards)
        self.token_field = token_field
        self.boundaries: list[float] | None = (
            sorted(boundaries) if boundaries is not None else None
        )
        if self.boundaries is not None and len(self.boundaries) != shards - 1:
            raise ConfigurationError(
                f"range placement over {shards} shards needs "
                f"{shards - 1} boundaries, got {len(self.boundaries)}"
            )
        #: Observed token range per shard, for EXPLAIN output.
        self.observed: dict[int, tuple[float, float]] = {}
        #: True once an object without the token was placed on shard 0.
        self.has_untokened = False

    def fit(self, tokens: Sequence[float]) -> None:
        """Choose boundaries as equal-count quantiles of ``tokens``."""
        ordered = sorted(tokens)
        if not ordered:
            self.boundaries = [0.0] * (self.shards - 1)
            return
        self.boundaries = [
            ordered[min(len(ordered) - 1, (i * len(ordered)) // self.shards)]
            for i in range(1, self.shards)
        ]

    def prepare(self, store) -> None:
        if self.boundaries is not None:
            return
        tokens = (self._token(value) for __, __, value in store.records())
        self.fit([token for token in tokens if token is not None])

    def _token(self, value: Any) -> float | None:
        if isinstance(value, Mapping):
            token = value.get(self.token_field)
            if isinstance(token, (int, float)) and not isinstance(token, bool):
                return float(token)
        return None

    def shard_of_token(self, token: float) -> int:
        assert self.boundaries is not None, "fit boundaries before placing"
        low = 0
        for cut in self.boundaries:
            if token < cut:
                break
            low += 1
        return low

    def shard_of_key(self, local_key: str) -> int | None:
        # The token is not derivable from an opaque key: point lookups
        # must probe every shard. This is the cost side of the
        # range-placement trade-off, and it is deliberate.
        return None

    def shard_of_object(
        self, collection: str, local_key: str, value: Any
    ) -> int:
        token = self._token(value)
        if token is None:
            self.has_untokened = True
            return 0
        if self.boundaries is None:
            raise ConfigurationError(
                "range scheme has no boundaries; call fit()/prepare() first"
            )
        shard = self.shard_of_token(token)
        lo, hi = self.observed.get(shard, (token, token))
        self.observed[shard] = (min(lo, token), max(hi, token))
        return shard

    def shard_interval(self, shard: int) -> tuple[float, float]:
        """The half-open token interval shard ``shard`` owns."""
        assert self.boundaries is not None
        lo = float("-inf") if shard == 0 else self.boundaries[shard - 1]
        hi = (
            float("inf")
            if shard == self.shards - 1
            else self.boundaries[shard]
        )
        return lo, hi

    def scan_candidates(
        self, interval: tuple[float, float] | None
    ) -> list[int]:
        if interval is None or self.boundaries is None:
            return list(range(self.shards))
        lo, hi = interval
        candidates = []
        for shard in range(self.shards):
            shard_lo, shard_hi = self.shard_interval(shard)
            if shard_lo < hi and shard_hi > lo:
                candidates.append(shard)
        if self.has_untokened and 0 not in candidates:
            candidates.insert(0, 0)
        return candidates

    def describe(self) -> dict[str, Any]:
        report = super().describe()
        report["token_field"] = self.token_field
        report["boundaries"] = list(self.boundaries or [])
        if self.observed:
            report["observed"] = {
                shard: list(bounds)
                for shard, bounds in sorted(self.observed.items())
            }
        return report


def make_scheme(
    placement: str, shards: int, token_field: str = "seq"
) -> PartitionScheme:
    """Factory used by the CLI and the benchmark sweeps."""
    if placement == "hash":
        return HashScheme(shards)
    if placement == "range":
        return RangeScheme(shards, token_field=token_field)
    raise ConfigurationError(
        f"unknown placement {placement!r}; expected 'hash' or 'range'"
    )
