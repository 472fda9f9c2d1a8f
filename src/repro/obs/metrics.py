"""A thread-safe metrics registry: counters, gauges, histograms.

The registry is the aggregate face of observability (the tracer is the
per-run face): instruments are identified by name plus a frozen label
set and accumulate across runs, exactly like a Prometheus scrape target.
Augmenters and runtimes update them from worker threads under
:class:`~repro.network.executor.RealRuntime`, so every mutation takes
the instrument's lock.

Histograms use *fixed* buckets chosen at creation (cumulative counts are
derived in :meth:`Histogram.snapshot`), which keeps ``observe`` O(log
buckets) via bisection and snapshots deterministic.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from typing import Any

#: Default latency buckets, in seconds: sub-ms store calls through
#: multi-second distributed sweeps.
DEFAULT_BUCKETS: tuple[float, ...] = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
    0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

Labels = tuple[tuple[str, str], ...]


class Counter:
    """A monotonically increasing value."""

    kind = "counter"

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counters only go up, got {amount}")
        with self._lock:
            self._value += amount

    def inc_repeat(self, amount: float, count: int) -> None:
        """``count`` calls of ``inc(amount)`` under one lock acquisition:
        the same float additions in the same order, so the value is bit
        for bit what the calls would have left (``count * amount`` added
        once is not)."""
        if amount < 0:
            raise ValueError(f"counters only go up, got {amount}")
        with self._lock:
            value = self._value
            for __ in range(count):
                value += amount
            self._value = value

    @property
    def value(self) -> float:
        with self._lock:
            return self._value

    def snapshot(self) -> dict[str, Any]:
        return {"value": self.value}


class Gauge:
    """A value that can go up and down (e.g. cache size, pool width)."""

    kind = "gauge"

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.inc(-amount)

    @property
    def value(self) -> float:
        with self._lock:
            return self._value

    def snapshot(self) -> dict[str, Any]:
        return {"value": self.value}


class Histogram:
    """Fixed-bucket histogram of observed values (latencies, sizes)."""

    kind = "histogram"

    def __init__(self, buckets: tuple[float, ...] = DEFAULT_BUCKETS) -> None:
        if not buckets:
            raise ValueError("histogram needs at least one bucket bound")
        bounds = tuple(sorted(buckets))
        if any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise ValueError(f"bucket bounds must be distinct: {buckets}")
        self.bounds = bounds
        self._lock = threading.Lock()
        #: counts[i] observations in (bounds[i-1], bounds[i]]; the last
        #: slot is the +Inf overflow bucket.
        self._counts = [0] * (len(bounds) + 1)
        self._sum = 0.0
        self._count = 0
        self._max = 0.0

    def observe(self, value: float) -> None:
        index = bisect_left(self.bounds, value)
        with self._lock:
            self._counts[index] += 1
            self._sum += value
            self._count += 1
            if value > self._max:
                self._max = value

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum

    def mean(self) -> float:
        with self._lock:
            return self._sum / self._count if self._count else 0.0

    def percentile(self, q: float) -> float:
        """Bucket-interpolated quantile estimate.

        Documented edge cases (each unit-tested):

        * empty histogram — ``0.0``, whatever ``q``;
        * ``q <= 0`` — ``0.0`` (the distribution's lower edge, not a
          negative extrapolation);
        * ``q >= 1`` — the observed maximum;
        * all mass in the overflow (+Inf) bucket — the observed maximum
          (there is no finite upper bound to interpolate toward).
        """
        with self._lock:
            counts = list(self._counts)
            total, biggest = self._count, self._max
        return _bucket_quantile(self.bounds, counts, total, biggest, q)

    def snapshot(self) -> dict[str, Any]:
        with self._lock:
            counts = list(self._counts)
            total, summed, biggest = self._count, self._sum, self._max
        cumulative: dict[str, int] = {}
        running = 0
        for bound, count in zip(self.bounds, counts):
            running += count
            cumulative[format(bound, "g")] = running
        cumulative["+Inf"] = running + counts[-1]
        return {
            "count": total,
            "sum": summed,
            "max": biggest,
            "mean": summed / total if total else 0.0,
            "p50": _bucket_quantile(self.bounds, counts, total, biggest, 0.50),
            "p95": _bucket_quantile(self.bounds, counts, total, biggest, 0.95),
            "p99": _bucket_quantile(self.bounds, counts, total, biggest, 0.99),
            "buckets": cumulative,
        }


def _bucket_quantile(
    bounds: tuple[float, ...],
    counts: list[int],
    total: int,
    biggest: float,
    q: float,
) -> float:
    """Estimate the q-quantile by linear interpolation within the bucket
    holding rank ``q * total`` (Prometheus ``histogram_quantile`` style).
    Observations above the last bound are pinned to the observed max.
    Edge cases: empty -> 0.0, q <= 0 -> 0.0, q >= 1 -> observed max
    (see :meth:`Histogram.percentile`)."""
    if total <= 0:
        return 0.0
    if q <= 0.0:
        return 0.0
    if q >= 1.0:
        return biggest
    rank = q * total
    cumulative = 0
    for index, count in enumerate(counts[:-1]):
        previous = cumulative
        cumulative += count
        if cumulative >= rank:
            lower = bounds[index - 1] if index > 0 else 0.0
            upper = bounds[index]
            fraction = (rank - previous) / count if count else 0.0
            return lower + (upper - lower) * fraction
    return biggest


class MetricsRegistry:
    """Get-or-create instrument store keyed by (name, labels)."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._instruments: dict[tuple[str, Labels], Any] = {}

    # -- instrument accessors -------------------------------------------------

    def counter(self, name: str, **labels: str) -> Counter:
        return self._get(name, labels, Counter, ())

    def gauge(self, name: str, **labels: str) -> Gauge:
        return self._get(name, labels, Gauge, ())

    def histogram(
        self,
        name: str,
        buckets: tuple[float, ...] = DEFAULT_BUCKETS,
        **labels: str,
    ) -> Histogram:
        return self._get(name, labels, Histogram, (buckets,))

    def _get(self, name, labels, cls, args):
        key = (name, _freeze(labels))
        with self._lock:
            instrument = self._instruments.get(key)
            if instrument is None:
                instrument = cls(*args)
                self._instruments[key] = instrument
            elif not isinstance(instrument, cls):
                raise TypeError(
                    f"metric {name!r} already registered as "
                    f"{instrument.kind}, requested {cls.kind}"
                )
        return instrument

    # -- introspection --------------------------------------------------------

    def __len__(self) -> int:
        with self._lock:
            return len(self._instruments)

    def reset(self) -> None:
        """Forget every instrument (tests and long-lived servers)."""
        with self._lock:
            self._instruments.clear()

    def snapshot(self) -> list[dict[str, Any]]:
        """A JSON-ready, deterministically ordered dump of every
        instrument: name, type, labels and current values.

        Sorted on an explicit ``(str(name), labels)`` key: sorting the
        raw dict items would compare instrument objects (or differing
        key shapes) and raise ``TypeError`` as soon as two names tie or
        a non-string name sneaks in.
        """
        with self._lock:
            items = sorted(
                self._instruments.items(),
                key=lambda item: (str(item[0][0]), item[0][1]),
            )
        out = []
        for (name, labels), instrument in items:
            entry = {
                "name": name,
                "type": instrument.kind,
                "labels": dict(labels),
            }
            entry.update(instrument.snapshot())
            out.append(entry)
        return out


def _freeze(labels: dict[str, str]) -> Labels:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))
