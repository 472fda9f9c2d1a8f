"""How fast the host is right now, from a fixed kernel of the spine's own.

The sandbox is a shared 2-core VM whose speed drifts: over fifteen-second
windows of one process the kernel below moved by 15-20 % (interquartile
range over median) and by a third from its fastest window to its
slowest, and every workload's throughput moved with it (README,
"Noise"). A wall-clock number taken ten minutes after another therefore
says more about the neighbours than about the program.

``HostSpeed`` times one fixed kernel between the ops of a timed
interval. The kernel has three phases that stand for what the program
does — dictionary probes with tuple keys plus a sort, character loops
and splits over title strings, a JSON round-trip of small records —
because one tight loop follows the host less well than a mix does (a
mix has a code and data footprint of its own to lose to a neighbour).
The *factor* of an interval is its median kernel time over
``NOMINAL_S``; the workloads divide their wall-clock values by it,
which states them at the speed of a host that runs the kernel in
``NOMINAL_S``. The kernel is code of the benchmark, not of
the program: no change under ``src/`` can move it.
"""

from __future__ import annotations

import json
import random
import statistics
from time import perf_counter, thread_time

#: Kernel time on the reference host. It only fixes the scale of the
#: calibrated values, so it must never change once results exist.
NOMINAL_S = 0.008
#: Least seconds between two kernel samples inside a timed interval.
SAMPLE_EVERY_S = 0.1


class HostSpeed:
    """Samples the kernel; every sample is kept."""

    def __init__(self) -> None:
        rng = random.Random(7)
        entries = 50_000
        self._table = {
            (f"db{i % 4}", "coll", f"k{i}"): [i, float(i), f"v{i}"]
            for i in range(entries)
        }
        keys = list(self._table)
        self._probes = [keys[rng.randrange(entries)] for __ in range(3000)]
        words = [
            "".join(rng.choice("abcdefghijklmnopqrstuvwxyz") for __ in range(7))
            for __ in range(200)
        ]
        self._titles = [
            " ".join(rng.choice(words) for __ in range(4))
            + f" x{rng.randrange(1 << 20):05x}"
            for __ in range(400)
        ]
        self._records = [
            {
                "_id": f"d{i}",
                "title": self._titles[i],
                "tags": [i, i + 1, i + 2],
                "nested": {"a": i * 0.5, "b": str(i)},
            }
            for i in range(300)
        ]
        self.samples: list[float] = []
        self._last = 0.0

    def sample(self) -> float:
        """Run the kernel once; its time is CPU time of the calling
        thread, so that waiting for the interpreter lock beside client
        threads does not read as a slow host (on the single-threaded
        workloads the two clocks agree)."""
        start = thread_time()
        table = self._table
        picked = []
        for key in self._probes:
            value = table[key]
            picked.append((-value[1], key[2], value))
        picked.sort()
        by_name = {}
        for entry in picked:
            by_name[entry[1]] = entry[2]
        titles = self._titles
        total = 0.0
        for index in range(len(titles) - 1):
            left, right = titles[index], titles[index + 1]
            same = 0
            for a, b in zip(left, right):
                if a == b:
                    same += 1
            total += same / max(len(left), len(right))
            total += len("-".join(left.split(" ")[:2]).upper())
        json.loads(json.dumps(self._records, sort_keys=True))
        elapsed = thread_time() - start
        self._last = perf_counter()
        self.samples.append(elapsed)
        return elapsed

    def burst(self, count: int = 8) -> None:
        """Back-to-back samples around work that cannot be interleaved."""
        for __ in range(count):
            self.sample()

    def sample_if_due(self) -> None:
        """Called between ops: keeps the kernel's share of a run small."""
        if perf_counter() - self._last >= SAMPLE_EVERY_S:
            self.sample()

    def mark(self) -> int:
        """Position to pass to ``factor`` for "samples since now"."""
        return len(self.samples)

    def factor(self, since: int = 0) -> float:
        """Median kernel time since ``since``, over the nominal time."""
        return statistics.median(self.samples[since:]) / NOMINAL_S
