"""ADAPTIVE: the rule-based optimizer of Section V.

Phase 2 (training): T1 — a C4.5 decision tree choosing the augmenter;
T2, T3, T4 — RepTree regressors for BATCH_SIZE, THREADS_SIZE and
CACHE_SIZE. Phase 3 (prediction): T1 first, then T2/T3 as the chosen
augmenter requires, then T4 — applied not directly but through the
paper's smoothing formula::

    new_cache = current + (predicted - current) / 10

because cache benefits are spread over future queries, so only gentle
variations of CACHE_SIZE make sense.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.augmentation import AugmentationConfig
from repro.core.augmenters import BATCHING, POOLED
from repro.core.runlog import QueryFeatures
from repro.errors import NotTrainedError, TrainingError
from repro.ml import C45Tree, RepTree
from repro.obs.metrics import MetricsRegistry
from repro.optimizer.logs import RunLogRepository


def _rule(tree: str, role: str, fired: bool, outcome, detail: str) -> dict:
    return {
        "tree": tree,
        "role": role,
        "fired": fired,
        "outcome": outcome,
        "detail": detail,
    }


@dataclass
class TrainingReport:
    """Sizes and quality of the four trained models."""

    runs: int = 0
    signatures: int = 0
    t1_examples: int = 0
    t2_examples: int = 0
    t3_examples: int = 0
    t4_examples: int = 0
    t1_accuracy: float = 0.0


class AdaptiveOptimizer:
    """Trains T1-T4 from run logs and predicts configurations.

    Implements the ``Optimizer`` protocol of :mod:`repro.core.system`,
    so an instance can be handed straight to ``Quepa(optimizer=...)``.
    ``retrain_every`` mirrors the paper's periodic retraining: when that
    many new records accumulate, the next prediction retrains first.
    """

    def __init__(
        self,
        logs: RunLogRepository | None = None,
        retrain_every: int | None = None,
        fallback: AugmentationConfig | None = None,
    ) -> None:
        self.logs = logs or RunLogRepository()
        self.retrain_every = retrain_every
        self.fallback = fallback or AugmentationConfig()
        self.t1: C45Tree | None = None
        self.t2: RepTree | None = None
        self.t3: RepTree | None = None
        self.t4: RepTree | None = None
        self._trained_at = 0
        self.report = TrainingReport()
        #: Observability hook; ``Quepa`` binds its own registry here so
        #: the choose/record path shows up in the system's metrics.
        self.metrics: MetricsRegistry | None = None

    def bind_metrics(self, metrics: MetricsRegistry) -> None:
        """Report optimizer activity into ``metrics`` (the Quepa hook)."""
        self.metrics = metrics

    def _count(self, name: str, **labels: str) -> None:
        if self.metrics is not None:
            self.metrics.counter(name, **labels).inc()

    # -- Phase 2: training -------------------------------------------------------

    def train(self) -> TrainingReport:
        """Fit T1-T4 from the current run logs."""
        t1_examples = self.logs.augmenter_examples()
        if len(t1_examples) < 2:
            raise TrainingError(
                "need at least two distinct query signatures to train"
            )
        self.t1 = C45Tree(min_leaf=2).fit(t1_examples)
        t2_examples = self.logs.batch_size_examples()
        t3_examples = self.logs.threads_size_examples()
        t4_examples = self.logs.cache_size_examples()
        self.t2 = RepTree().fit(t2_examples) if len(t2_examples) >= 4 else None
        self.t3 = RepTree().fit(t3_examples) if len(t3_examples) >= 4 else None
        self.t4 = RepTree().fit(t4_examples) if len(t4_examples) >= 4 else None
        self._trained_at = len(self.logs)
        self._count("optimizer_trainings_total")
        self.report = TrainingReport(
            runs=len(self.logs),
            signatures=len(self.logs.best_runs()),
            t1_examples=len(t1_examples),
            t2_examples=len(t2_examples),
            t3_examples=len(t3_examples),
            t4_examples=len(t4_examples),
            t1_accuracy=self.t1.accuracy(t1_examples),
        )
        return self.report

    @property
    def is_trained(self) -> bool:
        return self.t1 is not None

    def _maybe_retrain(self) -> None:
        if self.retrain_every is None:
            return
        if len(self.logs) - self._trained_at >= self.retrain_every:
            try:
                self.train()
            except TrainingError:
                pass  # keep the previous models until enough logs exist

    # -- Phase 3: prediction --------------------------------------------------------

    def configure(
        self, features: QueryFeatures, current_cache_size: int
    ) -> AugmentationConfig:
        """Predict the configuration for one query (the Quepa hook):
        retrain if due, walk T1->T4 as :meth:`explain_choice` reports,
        and count the prediction."""
        self._maybe_retrain()
        config = self.explain_choice(features, current_cache_size)["config"]
        if self.t1 is None:
            self._count("optimizer_fallbacks_total")
        else:
            self._count("optimizer_predictions_total", augmenter=config.augmenter)
        return config

    @staticmethod
    def smooth_cache_size(current: int, predicted: float) -> int:
        """The paper's formula: current + (predicted - current) / 10."""
        return max(0, round(current + (predicted - current) / 10.0))

    def explain_choice(
        self, features: QueryFeatures, current_cache_size: int
    ) -> dict:
        """The T1->T4 walk: the configuration :meth:`configure` picks,
        plus which rules fired and why.

        Side-effect free: no retraining is triggered and no metrics are
        bumped, so EXPLAIN never perturbs what it observes.
        """
        if self.t1 is None:
            rule = _rule("T1", "augmenter", False, self.fallback.augmenter,
                         "not trained; fallback config used")
            return {"config": self.fallback, "rules": [rule]}
        row = features.as_dict()
        augmenter = self.t1.predict(row)
        rules = [_rule("T1", "augmenter", True, augmenter,
                       " / ".join(self.t1.decision_path(row)))]
        batch_size = self.fallback.batch_size
        if augmenter in BATCHING and self.t2 is not None:
            predicted = self.t2.predict(row)
            batch_size = max(1, round(predicted))
            rules.append(_rule("T2", "batch_size", True, batch_size,
                               f"{augmenter} batches, regressor predicted "
                               f"{predicted:g}"))
        else:
            rules.append(_rule("T2", "batch_size", False, batch_size,
                               "not trained" if augmenter in BATCHING
                               else f"{augmenter} does not batch"))
        threads_size = self.fallback.threads_size
        if augmenter in POOLED and self.t3 is not None:
            predicted = self.t3.predict(row)
            threads_size = max(1, round(predicted))
            rules.append(_rule("T3", "threads_size", True, threads_size,
                               f"{augmenter} is concurrent, regressor "
                               f"predicted {predicted:g}"))
        else:
            rules.append(_rule("T3", "threads_size", False, threads_size,
                               "not trained" if augmenter in POOLED
                               else f"{augmenter} is sequential"))
        cache_size = current_cache_size
        if self.t4 is not None:
            predicted = max(0.0, self.t4.predict(row))
            cache_size = self.smooth_cache_size(current_cache_size, predicted)
            rules.append(_rule("T4", "cache_size", True, cache_size,
                               f"smoothed {current_cache_size} toward "
                               f"predicted {predicted:g}: current + "
                               f"(predicted - current) / 10"))
        else:
            rules.append(_rule("T4", "cache_size", False, cache_size,
                               "not trained; cache size unchanged"))
        config = AugmentationConfig(
            augmenter=augmenter,
            batch_size=batch_size,
            threads_size=threads_size,
            cache_size=cache_size,
        )
        return {"config": config, "rules": rules}

    # -- inspection -----------------------------------------------------------------

    def describe(self) -> str:
        """T1 rendered as text (the shape of the paper's Fig 8)."""
        if self.t1 is None:
            raise NotTrainedError("optimizer is not trained")
        return self.t1.to_text()
