"""Golden guard for ADAPTIVE: trained trees and their choices stay pinned.

A seeded synthetic run log (48 query signatures, every augmenter tried
with grid parameters, elapsed times from a small cost formula with
noise) trains T1-T4. tests/fixtures/adaptive/golden.json records what
the trained optimizer says: ``describe()``, the text of T2-T4,
``configure()`` and ``explain_choice()`` over a grid of query features,
and T1 decision paths for a row missing every feature and a row with
unseen categories. It also pins ``C45Tree`` and ``RepTree`` fitted
directly on noisy data with absent features, pruned and not, and
their predictions on rows with missing features and unseen categories.
Training is deterministic, so any drift is a real change of the
learners or of the T1->T4 walk. After an *intentional*
change, regenerate with ``PYTHONPATH=src python
tests/test_adaptive_golden.py`` and review the diff.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import asdict
from pathlib import Path

from repro.core.runlog import QueryFeatures, RunRecord
from repro.ml import C45Tree, Example, RepTree
from repro.optimizer import AdaptiveOptimizer, RunLogRepository
from repro.optimizer.baselines import BATCH_SIZES, CACHE_SIZES, THREADS_SIZES

FIXTURE = Path(__file__).parent / "fixtures" / "adaptive" / "golden.json"

AUGMENTERS = (
    "sequential", "batch", "inner", "outer", "outer_batch", "outer_inner",
)
ENGINES = (
    ("relational", "transactions"),
    ("document", "catalogue"),
    ("graph", "similar"),
    ("keyvalue", "discounts"),
)
CONFIG_FIELDS = ("augmenter", "batch_size", "threads_size", "cache_size")


def _elapsed(f: QueryFeatures, augmenter, batch, threads, cache) -> float:
    """A toy cost: per-call latency, batching, pooling, a cache bonus."""
    latency = 0.01 if f.deployment == "distributed" else 0.001
    n = max(1, f.planned_fetches)
    seeds = max(1, f.original_count)
    stores = max(1, f.store_count - 1)
    calls = stores * math.ceil(n / stores / batch)
    pooled = min(threads, 8)
    cost = {
        "sequential": n * latency,
        "batch": calls * latency + n * 1e-4,
        "inner": 0.002 * seeds + n * latency / min(pooled, n / seeds + 1),
        "outer": 0.002 + n * latency / pooled,
        "outer_batch": 0.002 + calls * latency / pooled + n * 1e-4,
        "outer_inner": 0.004 * seeds + n * latency / max(1, pooled // 2),
    }[augmenter]
    return cost * (1.0 - 0.3 * min(cache, n) / n) + threads * 1e-4


def synthetic_logs(seed: int = 45, signatures: int = 48) -> RunLogRepository:
    rng = random.Random(seed)
    repo = RunLogRepository()
    seen: set[tuple] = set()
    while len(seen) < signatures:
        engine, database = rng.choice(ENGINES)
        level = rng.randint(0, 3)
        original = rng.choice((1, 3, 10, 40, 100, 400, 1000))
        f = QueryFeatures(
            engine=engine,
            database=database,
            level=level,
            original_count=original,
            planned_fetches=original * rng.randint(1, 6) * (level + 1),
            store_count=rng.randint(2, 7),
            deployment=rng.choice(("centralized", "distributed")),
        )
        for augmenter in AUGMENTERS:
            for __ in range(2):
                batch = rng.choice(BATCH_SIZES)
                threads = rng.choice(THREADS_SIZES)
                cache = rng.choice(CACHE_SIZES)
                elapsed = _elapsed(f, augmenter, batch, threads, cache)
                repo.add(
                    RunRecord(
                        features=f,
                        augmenter=augmenter,
                        batch_size=batch,
                        threads_size=threads,
                        cache_size=cache,
                        elapsed=elapsed * rng.uniform(0.8, 1.25),
                    )
                )
        seen.add(repo.records[-1].query_signature())
    return repo


def feature_grid() -> list[QueryFeatures]:
    return [
        QueryFeatures(
            engine=engine,
            database=database,
            level=level,
            original_count=original,
            planned_fetches=original * (level + 1) * 3,
            store_count=stores,
            deployment=deployment,
        )
        for engine, database in ENGINES
        for level in (0, 2)
        for original in (1, 2, 60, 900)
        for stores in (4, 7)
        for deployment in ("centralized", "distributed")
    ]


def learner_fits(seed: int = 7) -> dict:
    """Both learners on one noisy sample (each feature absent from ~10 %
    of rows), at two leaf sizes, pruned and not, plus a regression
    target a thousand times smaller, where splits gain < 1e-3."""
    rng = random.Random(seed)
    rows = []
    for __ in range(80):
        row = {}
        if rng.random() > 0.1:
            row["x"] = rng.randint(0, 20)
        if rng.random() > 0.1:
            row["y"] = round(rng.uniform(0, 1), 3)
        if rng.random() > 0.1:
            row["kind"] = rng.choice("abc")
        signal = row.get("x", 10) / 20 + row.get("y", 0.5)
        signal += 0.5 * (row.get("kind") == "a")
        rows.append((row, signal + rng.gauss(0, 0.3)))
    queries = [row for row, __ in rows[:8]] + [
        {}, {"x": 4}, {"x": 15, "y": 0.2, "kind": "z"}, {"y": 0.9, "kind": "a"},
    ]
    samples = {
        "c45": (C45Tree, [Example(r, "hi" if t > 1.2 else "lo") for r, t in rows]),
        "rep": (RepTree, [Example(r, t) for r, t in rows]),
        "rep_small": (RepTree, [Example(r, t * 1e-3) for r, t in rows]),
    }
    fits = {}
    for name, (learner, examples) in samples.items():
        for min_leaf in (1, 3):
            for prune in (True, False):
                tree = learner(min_leaf=min_leaf, max_depth=6, prune=prune)
                tree.fit(examples)
                fits[f"{name} min_leaf={min_leaf} prune={prune}"] = {
                    "text": tree.to_text(),
                    "predictions": [tree.predict(q) for q in queries],
                }
    return fits


def _config(config) -> dict:
    return {name: getattr(config, name) for name in CONFIG_FIELDS}


def snapshot() -> dict:
    optimizer = AdaptiveOptimizer(synthetic_logs())
    report = optimizer.train()
    choices = []
    for f in feature_grid():
        choice = optimizer.explain_choice(f, 1024)
        choices.append(
            {
                "features": asdict(f),
                "configure": _config(optimizer.configure(f, 1024)),
                "explain": {
                    "config": _config(choice["config"]),
                    "rules": choice["rules"],
                },
            }
        )
    unseen = {
        "engine": "lunar",
        "database": "lunar",
        "level": 1,
        "original_count": 2,
        "planned_fetches": 6,
        "store_count": 4,
        "deployment": "lunar",
    }
    return {
        "report": asdict(report),
        "describe": optimizer.describe(),
        "t2": optimizer.t2.to_text(),
        "t3": optimizer.t3.to_text(),
        "t4": optimizer.t4.to_text(),
        "path_missing_feature": optimizer.t1.decision_path({}),
        "path_unseen_category": optimizer.t1.decision_path(unseen),
        "learners": learner_fits(),
        "choices": choices,
    }


def test_adaptive_matches_the_golden_fixture():
    assert snapshot() == json.loads(FIXTURE.read_text())


def test_the_synthetic_logs_train_every_tree():
    golden = json.loads(FIXTURE.read_text())
    report = golden["report"]
    assert report["signatures"] >= 40
    assert min(report["t2_examples"], report["t3_examples"]) >= 4
    winners = {rule["outcome"] for c in golden["choices"]
               for rule in c["explain"]["rules"] if rule["tree"] == "T1"}
    assert len(winners) >= 2
    assert all(
        rule["fired"] for c in golden["choices"]
        for rule in c["explain"]["rules"] if rule["tree"] == "T4"
    )


if __name__ == "__main__":
    golden = snapshot()
    choices = golden.pop("choices")  # one line per choice keeps diffs legible
    head = json.dumps(golden, indent=1, sort_keys=True)[: -len("\n}")]
    rows = ",\n  ".join(json.dumps(c, sort_keys=True) for c in choices)
    FIXTURE.parent.mkdir(parents=True, exist_ok=True)
    FIXTURE.write_text(f'{head},\n "choices": [\n  {rows}\n ]\n}}\n')
    print(f"wrote {FIXTURE}")
