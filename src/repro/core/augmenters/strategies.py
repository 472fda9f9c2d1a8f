"""The six augmenter strategies of Section IV.

All strategies materialize the same :class:`AugmentationPlan`; they
differ in how planned fetches are grouped into native queries and how
those queries are spread over worker threads. Figure 6 of the paper is
the picture to keep in mind: the sequential augmenter issues 11 queries
for 11 objects, BATCH with ``BATCH_SIZE=4`` issues 5.
"""

from __future__ import annotations

from repro.core.augmentation import AugmentationConfig, AugmentationPlan
from repro.core.augmenters.base import (
    AugmentationOutcome,
    Augmenter,
    Task,
    register_augmenter,
)
from repro.network.executor import ExecContext


@register_augmenter("sequential")
class SequentialAugmenter(Augmenter):
    """One direct-access query per planned object, in seed order.

    The baseline of Fig 6(a); the other strategies are measured against
    it. It is also the winner for tiny queries on small polystores,
    where thread spawn overhead dominates (Section VII-B.b).
    """

    def _run(
        self,
        ctx: ExecContext,
        plan: AugmentationPlan,
        config: AugmentationConfig,
    ) -> AugmentationOutcome:
        # Each miss is fetched where it was met: always in plan order.
        outcome = AugmentationOutcome(in_plan_order=True)
        for row in self._misses(ctx, 0, plan.total_fetches(), outcome):
            self._fetch_single(ctx, row, outcome)
        return outcome


@register_augmenter("batch")
class BatchAugmenter(Augmenter):
    """Group global keys by target database; flush groups of
    ``BATCH_SIZE`` keys as one native query each (Section IV-A)."""

    def _run(
        self,
        ctx: ExecContext,
        plan: AugmentationPlan,
        config: AugmentationConfig,
    ) -> AugmentationOutcome:
        outcome = AugmentationOutcome()
        self._fill_groups(
            ctx,
            plan,
            config.batch_size,
            outcome,
            lambda database, group: self._fetch_group(
                ctx, database, group, outcome
            ),
        )
        return outcome


@register_augmenter("inner")
class InnerAugmenter(Augmenter):
    """Parallelize *within* each result's augmentation (Section IV-B.a).

    The main process walks the original answer sequentially; the fetches
    of each result are spread over ``THREADS_SIZE`` workers. Best suited
    to augmented exploration, where a single object is augmented at a
    time; worst for big answers, since parallelism is bounded by each
    result's (usually small) augmentation.
    """

    def _run(
        self,
        ctx: ExecContext,
        plan: AugmentationPlan,
        config: AugmentationConfig,
    ) -> AugmentationOutcome:
        # In plan order until a fetch lands after the hits that follow it.
        outcome = AugmentationOutcome(in_plan_order=True)
        bounds = plan.bounds
        for start, stop in zip(bounds, bounds[1:]):
            # The pool is created lazily on the first cache miss: a seed
            # whose fetches all hit cache pays neither pool setup nor an
            # empty join.
            pool = None
            for row in self._misses(ctx, start, stop, outcome):
                if pool is None:
                    pool = ctx.pool(config.threads_size)
                pool.submit(self._single_worker(row))
            if pool is not None:
                outcome.in_plan_order = False
                for part in pool.join():
                    outcome.absorb(part)
        return outcome


@register_augmenter("outer")
class OuterAugmenter(Augmenter):
    """One worker per result of the original answer (Section IV-B.b).

    The main process launches a task per seed without waiting; each task
    retrieves that seed's objects sequentially.
    """

    def _run(
        self,
        ctx: ExecContext,
        plan: AugmentationPlan,
        config: AugmentationConfig,
    ) -> AugmentationOutcome:
        return self._pool_seeds(
            ctx, plan, config.threads_size, self._seed_worker
        )

    def _seed_worker(self, start: int, stop: int) -> Task:
        def task(child: ExecContext) -> AugmentationOutcome:
            part = AugmentationOutcome(in_plan_order=True)
            for row in self._misses(child, start, stop, part):
                self._fetch_single(child, row, part)
            return part

        return task


@register_augmenter("outer_batch")
class OuterBatchAugmenter(Augmenter):
    """Batching plus multi-threading (Section IV-B.c).

    The main process keeps filling per-database groups of ``BATCH_SIZE``
    keys; each full group is handed to a worker, so group filling and
    query execution overlap. The paper's overall winner.
    """

    def _run(
        self,
        ctx: ExecContext,
        plan: AugmentationPlan,
        config: AugmentationConfig,
    ) -> AugmentationOutcome:
        outcome = AugmentationOutcome()
        pool = ctx.pool(config.threads_size)
        self._fill_groups(
            ctx,
            plan,
            config.batch_size,
            outcome,
            lambda database, group: pool.submit(
                self._group_worker(database, group)
            ),
        )
        for part in pool.join():
            outcome.absorb(part)
        return outcome

    def _group_worker(self, database: str, group: list[int]) -> Task:
        def task(child: ExecContext) -> AugmentationOutcome:
            part = AugmentationOutcome()
            self._fetch_group(child, database, group, part)
            return part

        return task


@register_augmenter("outer_inner")
class OuterInnerAugmenter(Augmenter):
    """Both levels of parallelism (Section IV-B.d).

    ``THREADS_SIZE / 2`` workers iterate the original answer; each runs
    an inner pool of ``THREADS_SIZE / 2`` workers for its fetches. Tends
    to create many threads, which is exactly the behaviour the paper
    reports.
    """

    def _run(
        self,
        ctx: ExecContext,
        plan: AugmentationPlan,
        config: AugmentationConfig,
    ) -> AugmentationOutcome:
        half = max(1, config.threads_size // 2)
        return self._pool_seeds(
            ctx,
            plan,
            half,
            lambda start, stop: self._seed_worker(start, stop, half),
        )

    def _seed_worker(self, start: int, stop: int, inner_threads: int) -> Task:
        def task(child: ExecContext) -> AugmentationOutcome:
            part = AugmentationOutcome()
            inner_pool = child.pool(inner_threads)
            for row in self._misses(child, start, stop, part):
                inner_pool.submit(self._single_worker(row))
            fetched = inner_pool.join()
            for single in fetched:
                part.absorb(single)
            part.in_plan_order = not fetched
            return part

        return task

