"""Tests for the C4.5-style classifier."""

import random

import pytest

from repro.errors import NotTrainedError, TrainingError
from repro.ml import C45Tree, Example


def and_examples() -> list[Example]:
    """Label 'yes' iff a AND b — needs a two-level tree.

    (XOR is deliberately not used: its single-feature information gain
    is exactly zero, so greedy C4.5 — ours and Weka's — cannot split it.)
    """
    data = []
    for a in (0, 1):
        for b in (0, 1):
            for __ in range(6):
                data.append(
                    Example({"a": a, "b": b}, "yes" if a and b else "no")
                )
    return data


def categorical_examples() -> list[Example]:
    data = []
    for deployment in ("centralized", "distributed"):
        for size in (10, 100, 1000, 10000):
            label = "batch" if deployment == "distributed" else (
                "sequential" if size <= 100 else "outer"
            )
            for __ in range(3):
                data.append(
                    Example({"deployment": deployment, "size": size}, label)
                )
    return data


class TestTraining:
    def test_learns_conjunction(self):
        tree = C45Tree(min_leaf=1).fit(and_examples())
        assert tree.predict({"a": 1, "b": 1}) == "yes"
        assert tree.predict({"a": 0, "b": 1}) == "no"
        assert tree.accuracy(and_examples()) == 1.0

    def test_learns_mixed_categorical_numeric(self):
        tree = C45Tree(min_leaf=1).fit(categorical_examples())
        assert tree.predict({"deployment": "distributed", "size": 500}) == "batch"
        assert tree.predict({"deployment": "centralized", "size": 50}) == "sequential"
        assert tree.predict({"deployment": "centralized", "size": 5000}) == "outer"

    def test_pure_training_set_is_single_leaf(self):
        examples = [Example({"x": i}, "same") for i in range(10)]
        tree = C45Tree().fit(examples)
        assert tree.depth() == 0
        assert tree.predict({"x": 99}) == "same"

    def test_max_depth_respected(self):
        rng = random.Random(0)
        examples = [
            Example({"x": rng.random(), "y": rng.random()},
                    rng.choice(["a", "b"]))
            for __ in range(200)
        ]
        tree = C45Tree(max_depth=2, prune=False).fit(examples)
        assert tree.depth() <= 2

    def test_non_string_targets_rejected(self):
        with pytest.raises(TrainingError):
            C45Tree().fit([Example({"x": 1}, 42)])

    def test_empty_training_set_rejected(self):
        with pytest.raises(TrainingError):
            C45Tree().fit([])


class TestPrediction:
    def test_predict_before_fit_raises(self):
        with pytest.raises(NotTrainedError):
            C45Tree().predict({"x": 1})

    def test_unseen_category_falls_to_majority(self):
        tree = C45Tree(min_leaf=1).fit(categorical_examples())
        prediction = tree.predict({"deployment": "lunar", "size": 10})
        assert prediction in {"batch", "sequential", "outer"}

    def test_missing_feature_falls_to_majority(self):
        tree = C45Tree(min_leaf=1).fit(and_examples())
        assert tree.predict({}) in {"yes", "no"}

    def test_predict_many(self):
        tree = C45Tree(min_leaf=1).fit(and_examples())
        rows = [{"a": 0, "b": 0}, {"a": 1, "b": 1}]
        assert tree.predict_many(rows) == ["no", "yes"]


class TestPruning:
    def test_pruning_shrinks_noise_fit(self):
        """Pure-noise labels should prune toward a trivial tree."""
        rng = random.Random(7)
        examples = [
            Example({"x": rng.random()}, rng.choice(["a", "b"]))
            for __ in range(100)
        ]
        unpruned = C45Tree(prune=False, min_leaf=1).fit(examples)
        pruned = C45Tree(prune=True, min_leaf=1).fit(examples)
        assert pruned.depth() <= unpruned.depth()

    def test_a_subtree_within_the_margin_of_its_leaf_is_collapsed(self):
        """Subtree replacement keeps a split only when it beats the leaf's
        pessimistic error by more than 0.1. On this seeded noisy sample
        the ``x <= 5.5`` branch grows a four-leaf subtree that beats its
        leaf by less than that, so it collapses: without the margin the
        subtree stays."""
        rng = random.Random(14)
        examples = []
        for __ in range(30):
            x, y = rng.randrange(10), rng.randrange(4)
            label = "hi" if x >= 5 else "lo"
            if rng.random() < 0.2:
                label = rng.choice(["hi", "lo"])
            examples.append(Example({"x": x, "y": y}, label))
        tree = C45Tree().fit(examples)
        assert tree.to_text() == "root [x?]\n  <= 5.5 -> lo\n  >  5.5 -> hi"

    def test_pruning_preserves_real_signal(self):
        tree = C45Tree(prune=True, min_leaf=1).fit(and_examples())
        assert tree.accuracy(and_examples()) == 1.0


class TestInspection:
    def test_to_text_renders_splits(self):
        tree = C45Tree(min_leaf=1).fit(categorical_examples())
        text = tree.to_text()
        assert "deployment" in text or "size" in text
        assert "->" in text

    def test_to_text_before_fit_raises(self):
        with pytest.raises(NotTrainedError):
            C45Tree().to_text()

    def test_accuracy_empty_is_zero(self):
        tree = C45Tree(min_leaf=1).fit(and_examples())
        assert tree.accuracy([]) == 0.0
