"""Per-layer attribution from outside the program.

``Tracer.install`` replaces public callables of the ``repro`` layers
with timing wrappers (nothing under ``src/`` changes) and records spans
in memory: ``(op, span, parent, layer, name, thread, start, end)``. A
span's *self time* is its duration minus the part covered by its child
spans, so the self times of one op add up to the op's wall time as long
as its spans do not overlap in time.

Two kinds of wrapper keep the cost of tracing bounded:

* **span** wrappers record one span per call (layer boundaries that are
  crossed a few hundred times per op at most);
* **leaf** wrappers (``LruCache.get``/``put``, ``PairwiseMatcher.decide``,
  ``AIndex.add``, sleeps) are crossed thousands of times per op, so they
  only add their elapsed time and a call count to the enclosing span.

Parentage comes from a per-thread stack. A span that starts on a thread
with an empty stack (a serving worker, a real pool thread) is attributed
to its op through the request's trace id, or through the single active
op when the workload has one client; it then counts as a child of the
op's root span, whose self time is what the client waited for beyond
the spans that ran on its behalf (queue wait, hand-off, scheduler
bookkeeping). Where such spans run in parallel (``serve_closed``) the
per-layer numbers are busy time and do not add up to the op's wall.
"""

from __future__ import annotations

import itertools
import json
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Iterator

Key = tuple[str, str]  # (layer, span name)


class _Frame:
    """An open span on one thread's stack."""

    __slots__ = (
        "span_id", "op", "layer", "name", "start", "child_time", "leaves",
        "in_leaf",
    )

    def __init__(self, span_id: int, op: Any, layer: str, name: str) -> None:
        self.span_id = span_id
        self.op = op
        self.layer = layer
        self.name = name
        self.child_time = 0.0
        self.leaves: dict[Key, list] | None = None
        self.in_leaf = False
        self.start = perf_counter()


@dataclass(slots=True)
class Span:
    op: Any  # op id; a serving trace id until attribute() resolves it
    span_id: int
    parent_id: int | None
    layer: str
    name: str
    thread: str
    start: float
    end: float
    #: Seconds covered by same-thread children (spans and leaves).
    child_time: float
    #: (layer, name) -> [seconds, calls] of leaf calls made directly here.
    leaves: dict[Key, list] | None
    #: Op kind ("query", "pump", "bootstrap") on root spans, else None.
    kind: str | None


@dataclass
class Attribution:
    """Self time per op kind and (layer, span name), from one traced run."""

    #: kind -> (layer, name) -> [self seconds, calls]
    totals: dict[str, dict[Key, list]]
    #: kind -> number of ops
    ops: dict[str, int]
    #: kind -> summed wall seconds of the ops' root spans
    wall: dict[str, float]
    #: Human-readable invariant violations (empty = all held).
    violations: list[str]

    def self_ms(self, kind: str, spans: tuple[Key, ...]) -> float:
        """Summed self time of ``spans``, in ms per op of ``kind``."""
        ops = self.ops.get(kind, 0)
        if not ops:
            return 0.0
        totals = self.totals.get(kind, {})
        seconds = sum(totals.get(key, (0.0, 0))[0] for key in spans)
        return seconds * 1000.0 / ops

    def calls(self, kind: str, span: Key) -> int:
        return self.totals.get(kind, {}).get(span, (0.0, 0))[1]

    def layer_shares(self, kind: str) -> dict[str, float]:
        """Share of the ops' wall time spent in each layer's own code."""
        wall = self.wall.get(kind, 0.0)
        seconds: dict[str, float] = {}
        for (layer, __), (self_time, __) in self.totals.get(kind, {}).items():
            seconds[layer] = seconds.get(layer, 0.0) + self_time
        return {
            layer: value / wall if wall else 0.0
            for layer, value in sorted(seconds.items())
        }


class Tracer:
    """Installs the wrappers, holds the spans, computes attribution."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._patches: list[tuple[Any, str, Any]] = []
        #: Serving trace id -> op id, bound by the client after submit.
        self.trace_ops: dict[str, int] = {}
        #: The op an unattributed thread-root span belongs to: set while
        #: an exclusive op runs, ``None`` while several are in flight.
        self.active_op: int | None = None
        self.plan_calls = 0
        self.plan_cache_hits = 0

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list[_Frame]:
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    def _close(self, stack: list[_Frame], kind: str | None = None) -> None:
        end = perf_counter()
        frame = stack.pop()
        parent = stack[-1] if stack else None
        if parent is not None:
            parent.child_time += end - frame.start
        self.spans.append(
            Span(
                frame.op,
                frame.span_id,
                parent.span_id if parent is not None else None,
                frame.layer,
                frame.name,
                threading.current_thread().name,
                frame.start,
                end,
                frame.child_time,
                frame.leaves,
                kind,
            )
        )

    @contextmanager
    def op(
        self, op_id: int, kind: str, layer: str, exclusive: bool = True
    ) -> Iterator[None]:
        """The root span of one benchmark op, on the calling thread.

        ``exclusive`` ops are the only op in flight, so spans that start
        on other threads meanwhile belong to them.
        """
        stack = self._stack()
        stack.append(_Frame(next(self._ids), op_id, layer, kind))
        if exclusive:
            self.active_op = op_id
        try:
            yield
        finally:
            if exclusive:
                self.active_op = None
            self._close(stack, kind)

    def _span_wrapper(self, layer: str, name: str, fn: Callable) -> Callable:
        def wrapper(*args, **kwargs):
            stack = self._stack()
            if stack:
                op = stack[-1].op
            elif self.active_op is not None:
                op = self.active_op
            else:
                op = _request_trace(args, kwargs)
            stack.append(_Frame(next(self._ids), op, layer, name))
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(stack)

        return wrapper

    def _leaf_wrapper(self, layer: str, name: str, fn: Callable) -> Callable:
        key = (layer, name)

        def wrapper(*args, **kwargs):
            stack = self._stack()
            if not stack or stack[-1].in_leaf:
                return fn(*args, **kwargs)
            frame = stack[-1]
            frame.in_leaf = True
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                frame.in_leaf = False
                frame.child_time += elapsed
                if frame.leaves is None:
                    frame.leaves = {}
                entry = frame.leaves.get(key)
                if entry is None:
                    frame.leaves[key] = [elapsed, 1]
                else:
                    entry[0] += elapsed
                    entry[1] += 1

        return wrapper

    def _timed_generator(self, layer: str, name: str, fn: Callable) -> Callable:
        """Wrap a generator function: the time spent producing each item
        is leaf time of the span that consumes it."""

        def wrapper(*args, **kwargs):
            iterator = iter(fn(*args, **kwargs))
            return _Stepper(self._leaf_wrapper(layer, name, iterator.__next__))

        return wrapper

    # -- installation -------------------------------------------------------

    def _patch(self, owner: Any, attr: str, replacement: Any) -> None:
        self._patches.append((owner, attr, owner.__dict__.get(attr, _MISSING)))
        setattr(owner, attr, replacement)

    def _span(self, owner: Any, attr: str, layer: str) -> None:
        self._patch(
            owner, attr, self._span_wrapper(layer, attr, getattr(owner, attr))
        )

    def _leaf(self, owner: Any, attr: str, layer: str) -> None:
        self._patch(
            owner, attr, self._leaf_wrapper(layer, attr, getattr(owner, attr))
        )

    def install(self, context_classes: tuple[type, ...]) -> None:
        """Wrap the layers' public callables.

        ``context_classes`` are the ``ExecContext`` classes of the
        runtimes in use (``type(runtime.root())``), whose ``store_call``
        is the network layer's boundary.
        """
        import repro.core.search as search_module
        import repro.core.system as system_module
        import repro.network.executor as executor_module
        from repro.cdc.hub import ChangeHub
        from repro.cdc.maintainer import IncrementalCollector
        from repro.cdc.materialize import MaterializedAugmentations
        from repro.collector.blocking import TokenBlocker
        from repro.collector.matching import PairwiseMatcher
        from repro.core.aindex import AIndex
        from repro.core.augmentation import Augmentation
        from repro.core.augmenters.base import Augmenter
        from repro.core.cache import LruCache
        from repro.core.connectors import Connector, ConnectorRegistry
        from repro.core.system import Quepa
        from repro.core.validator import Validator
        from repro.persistence.wal import WriteAheadLog
        from repro.serving.coalesce import SingleFlight
        from repro.stores import (
            DocumentStore,
            GraphStore,
            KeyValueStore,
            RelationalStore,
        )

        self._span(Quepa, "augmented_search", "core.system")
        self._span(Quepa, "serve_search", "core.system")
        self._span(Validator, "validate", "core.validator")
        traced_plan = self._span_wrapper(
            "core.augmentation", "plan", Augmentation.plan
        )
        expand = Augmentation._expand
        local = self._local

        def counted_expand(*args, **kwargs):
            local.expansions = getattr(local, "expansions", 0) + 1
            return expand(*args, **kwargs)

        def plan(planner, seeds, *args, **kwargs):
            """A plan of an op that expanded no seed came from the
            program's plan cache."""
            before = getattr(local, "expansions", 0)
            result = traced_plan(planner, seeds, *args, **kwargs)
            stack = self._stack()
            if seeds and stack and stack[-1].op is not None:
                self.plan_calls += 1
                if getattr(local, "expansions", 0) == before:
                    self.plan_cache_hits += 1
            return result

        self._patch(Augmentation, "_expand", counted_expand)
        self._patch(Augmentation, "plan", plan)
        for attr in ("frozen", "add_all", "excise", "remove_object"):
            self._span(AIndex, attr, "core.aindex")
        self._leaf(AIndex, "add", "core.aindex")
        # _fetch_group/_fetch_single run on real pool threads, where the
        # execute span of the submitting thread is not on the stack.
        for attr in ("execute", "_fetch_group", "_fetch_single"):
            self._span(Augmenter, attr, "core.augmenters")
        for attr in ("get", "put"):
            self._leaf(LruCache, attr, "core.cache")
        for attr in ("get_many", "put_many"):
            self._span(LruCache, attr, "core.cache")
        for attr in ("fetch_one", "fetch_many"):
            self._span(Connector, attr, "core.connectors")
        self._span(ConnectorRegistry, "fetch_grouped", "core.connectors")
        assemble = self._span_wrapper(
            "core.search", "assemble_answer", search_module.assemble_answer
        )
        self._patch(search_module, "assemble_answer", assemble)
        self._patch(system_module, "assemble_answer", assemble)
        for store_class, layer in (
            (RelationalStore, "stores.relational"),
            (DocumentStore, "stores.document"),
            (GraphStore, "stores.graph"),
            (KeyValueStore, "stores.keyvalue"),
        ):
            self._span(store_class, "execute", layer)
            self._span(store_class, "multi_get", layer)
            self._leaf(store_class, "get", layer)
        for context_class in context_classes:
            self._span(context_class, "store_call", "network.executor")
        self._patch(
            executor_module, "time", _SleepTimer(self, executor_module.time)
        )
        self._span(ChangeHub, "pump", "cdc.hub")
        self._span(IncrementalCollector, "apply", "cdc.maintainer")
        self._span(IncrementalCollector, "bootstrap", "cdc.maintainer")
        self._leaf(PairwiseMatcher, "decide", "collector.matching")
        self._patch(
            TokenBlocker, "candidate_pairs",
            self._timed_generator(
                "collector.blocking", "candidate_pairs",
                TokenBlocker.candidate_pairs,
            ),
        )
        for attr in ("lookup", "observe", "invalidate"):
            self._span(MaterializedAugmentations, attr, "cdc.materialize")
        self._span(WriteAheadLog, "append", "persistence.wal")
        self._span(SingleFlight, "fetch", "serving")

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    # -- attribution --------------------------------------------------------

    def attribute(self, check_sum: bool) -> Attribution:
        """Fold the recorded spans into per-kind, per-layer self times.

        With ``check_sum`` the self times of every op must add up to the
        op's wall within 1 % (workloads whose ops never run two spans at
        once); a self time below zero is always a violation.
        """
        roots: dict[int, Span] = {
            span.op: span for span in self.spans if span.kind is not None
        }
        by_op: dict[int, list[Span]] = {op: [] for op in roots}
        adopted: dict[int, list[tuple[float, float]]] = {op: [] for op in roots}
        for span in self.spans:
            op = self.trace_ops.get(span.op, span.op)
            if op not in roots:
                continue  # set-up or background work outside any op
            span.op = op
            by_op[op].append(span)
            if span.parent_id is None and span.kind is None:
                span.parent_id = roots[op].span_id
                adopted[op].append((span.start, span.end))
        totals: dict[str, dict[Key, list]] = {}
        ops: dict[str, int] = {}
        wall: dict[str, float] = {}
        violations: list[str] = []
        for op, spans in by_op.items():
            root = roots[op]
            bucket = totals.setdefault(root.kind, {})
            ops[root.kind] = ops.get(root.kind, 0) + 1
            duration = root.end - root.start
            wall[root.kind] = wall.get(root.kind, 0.0) + duration
            accounted = 0.0
            for span in spans:
                self_time = span.end - span.start - span.child_time
                if span is root:
                    self_time -= _covered(adopted[op], root.start, root.end)
                if self_time < -1e-6:
                    violations.append(
                        f"op {op}: self time {self_time:.6f}s in "
                        f"{span.layer}.{span.name}"
                    )
                _add(bucket, (span.layer, span.name), self_time, 1)
                accounted += self_time
                for key, (seconds, calls) in (span.leaves or {}).items():
                    _add(bucket, key, seconds, calls)
                    accounted += seconds
            if check_sum and abs(accounted - duration) > 0.01 * duration:
                violations.append(
                    f"op {op} ({root.kind}): self times sum to "
                    f"{accounted:.6f}s, wall is {duration:.6f}s"
                )
        return Attribution(totals, ops, wall, violations)

    def write_spans(self, path: Path) -> None:
        """One JSON object per span; leaf calls ride on their parent."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                record = {
                    "op": span.op,
                    "span": span.span_id,
                    "parent": span.parent_id,
                    "layer": span.layer,
                    "name": span.name,
                    "thread": span.thread,
                    "start": span.start,
                    "end": span.end,
                }
                if span.kind is not None:
                    record["kind"] = span.kind
                if span.leaves:
                    record["leaves"] = {
                        f"{layer}.{name}": {"s": seconds, "calls": calls}
                        for (layer, name), (seconds, calls) in span.leaves.items()
                    }
                handle.write(json.dumps(record) + "\n")


_MISSING = object()


def _request_trace(args: tuple, kwargs: dict) -> str | None:
    """The serving trace id a call carries: ``trace_id=`` itself, or the
    ``ExecContext`` among its first two positional arguments."""
    trace = kwargs.get("trace_id")
    if trace is None:
        for arg in args[:2]:
            trace = getattr(arg, "_trace_id", None)
            if trace is not None:
                break
    return trace


class _Stepper:
    """An iterator whose every step goes through a (leaf-timed) callable."""

    def __init__(self, step: Callable[[], Any]) -> None:
        self._step = step

    def __iter__(self) -> "_Stepper":
        return self

    def __next__(self) -> Any:
        return self._step()


class _SleepTimer:
    """Stands in for the ``time`` module inside ``repro.network.executor``
    so that the real runtime's scaled sleeps are leaf time of the
    network layer; every other attribute passes through."""

    def __init__(self, tracer: Tracer, module: Any) -> None:
        self._module = module
        self.sleep = tracer._leaf_wrapper(
            "network.executor", "sleep", module.sleep
        )

    def __getattr__(self, name: str) -> Any:
        return getattr(self._module, name)


def _add(bucket: dict, key: Key, seconds: float, calls: int) -> None:
    entry = bucket.get(key)
    if entry is None:
        bucket[key] = [seconds, calls]
    else:
        entry[0] += seconds
        entry[1] += calls


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    covered = 0.0
    cursor = lo
    for start, end in sorted(intervals):
        start = max(start, cursor)
        end = min(end, hi)
        if end > start:
            covered += end - start
            cursor = end
    return covered
