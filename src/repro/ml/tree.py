"""One CART-style tree learner behind the Weka stand-ins of Section V.

:class:`_Tree` grows, walks and renders the tree: binary splits at the
midpoints of a numeric feature (``<=`` goes left), multiway splits on
the values of a categorical one, stopping on purity, ``min_leaf`` or
``max_depth``. A missing feature or an unseen category stops the walk
at the node's default. The two learners supply only what differs:

* :class:`C45Tree` (J48, T1): majority-class leaves, gain-ratio splits,
  pessimistic-error subtree replacement (z = 0.69 ~ C4.5's CF = 25 %).
* :class:`RepTree` (T2-T4): mean leaves, SSE-reduction splits,
  reduced-error pruning on a seeded 25 % holdout — RepTree's name.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Optional

from repro.errors import NotTrainedError, TrainingError
from repro.ml.dataset import Dataset, Example, FeatureValue


@dataclass
class _Node:
    #: Leaf prediction; ``None`` on a split node.
    value: Any = None
    feature: Optional[str] = None
    threshold: Optional[float] = None  # numeric split: <= threshold goes left
    children: dict[object, "_Node"] = field(default_factory=dict)
    #: What the node predicts as a leaf (majority class or mean).
    default: Any = None
    size: int = 0
    #: Training error if this node were a leaf (misclassified count or SSE).
    errors: float = 0

    @property
    def is_leaf(self) -> bool:
        return self.value is not None

    def collapse(self) -> None:
        self.value = self.default
        self.children.clear()
        self.feature = None
        self.threshold = None


class _Tree:
    """Grow, walk and render; subclasses define the statistic and score."""

    def __init__(self, min_leaf: int, max_depth: int, prune: bool) -> None:
        self.min_leaf = min_leaf
        self.max_depth = max_depth
        self.prune = prune
        self._root: Optional[_Node] = None
        self._features: list[tuple[str, bool]] = []

    # -- the five things a learner supplies ---------------------------------------

    def _check_target(self, target: Any) -> None:
        raise NotImplementedError

    def _statistic(self, targets: list) -> tuple[Any, float]:
        """(the leaf prediction, its training error) over ``targets``."""
        raise NotImplementedError

    def _scorer(
        self, targets: list
    ) -> Callable[[list[list[Example]]], Optional[float]]:
        """Scores a split of the node holding ``targets`` into parts
        (``None``: no gain)."""
        raise NotImplementedError

    def _leaf_text(self, value: Any) -> str:
        raise NotImplementedError

    def _fit(self, dataset: Dataset) -> None:
        """Grow (on all or part of ``dataset``) and prune."""
        raise NotImplementedError

    # -- training -------------------------------------------------------------------

    def fit(self, examples: list[Example]) -> "_Tree":
        for example in examples:
            self._check_target(example.target)
        self._fit(Dataset(examples))
        return self

    def _grow(self, dataset: Dataset) -> None:
        self._features = [
            (name, dataset.is_numeric(name)) for name in dataset.feature_names
        ]
        self._root = self._build(dataset.examples, depth=0)

    def _build(self, examples: list[Example], depth: int) -> _Node:
        targets = [ex.target for ex in examples]
        default, errors = self._statistic(targets)
        node = _Node(default=default, size=len(examples), errors=errors)
        split = None
        if (
            errors > 1e-12  # not pure: more than one class, or spread targets
            and len(examples) >= 2 * self.min_leaf
            and depth < self.max_depth
        ):
            split = self._best_split(examples, targets)
        if split is None:
            node.value = default
            return node
        node.feature, node.threshold, partitions = split
        for key, part in partitions.items():
            node.children[key] = self._build(part, depth + 1)
        return node

    def _best_split(self, examples: list[Example], targets: list):
        scorer = self._scorer(targets)
        best_score = 1e-9
        best = None
        for feature, numeric in self._features:
            for score, split in self._splits(examples, feature, numeric, scorer):
                # Strictly better only: of equal scores the first wins.
                if score > best_score:
                    best_score, best = score, split
        return best

    def _splits(self, examples, feature, numeric, scorer):
        """The scored candidate splits on ``feature``, in order: every
        admissible midpoint of a numeric one, or the one multiway split
        of a categorical one."""
        if not numeric:
            partitions: dict[object, list[Example]] = {}
            for ex in examples:
                if feature in ex.features:
                    partitions.setdefault(ex.features[feature], []).append(ex)
            if len(partitions) < 2 or any(
                len(part) < self.min_leaf for part in partitions.values()
            ):
                return
            score = scorer(list(partitions.values()))
            if score is not None:
                yield score, (feature, None, partitions)
            return
        rows = sorted(
            (
                (float(ex.features[feature]), ex)
                for ex in examples
                if feature in ex.features
            ),
            key=lambda pair: pair[0],
        )
        if len(rows) < 2 * self.min_leaf:
            return
        values = [v for v, __ in rows]
        ordered = [ex for __, ex in rows]
        previous = values[0]
        for value in values[1:]:
            if value == previous:
                continue
            threshold = (previous + value) / 2.0
            previous = value
            cut = bisect_right(values, threshold)
            if cut < self.min_leaf or len(rows) - cut < self.min_leaf:
                continue
            left, right = ordered[:cut], ordered[cut:]
            score = scorer([left, right])
            if score is not None:
                yield score, (feature, threshold, {"le": left, "gt": right})

    # -- prediction -------------------------------------------------------------------

    def _root_or_raise(self) -> _Node:
        if self._root is None:
            raise NotTrainedError("call fit() before predict()")
        return self._root

    @staticmethod
    def _key(node: _Node, features: Mapping[str, FeatureValue]):
        """The child key ``features`` takes at the split ``node``: the
        category, ``"le"`` / ``"gt"``, or ``None`` if it is missing."""
        value = features.get(node.feature)
        if node.threshold is None or value is None:
            return value
        return "le" if float(value) <= node.threshold else "gt"

    def predict(self, features: Mapping[str, FeatureValue]) -> Any:
        node = self._root_or_raise()
        while not node.is_leaf:
            child = node.children.get(self._key(node, features))
            if child is None:
                return node.default
            node = child
        return node.value

    def decision_path(self, features: Mapping[str, FeatureValue]) -> list[str]:
        """The tests taken by :meth:`predict` on ``features``, as human-
        readable rule strings ending in the prediction."""
        path: list[str] = []
        node = self._root_or_raise()
        while not node.is_leaf:
            value = features.get(node.feature)
            key = self._key(node, features)
            if node.threshold is None:
                path.append(f"{node.feature} = {value!r}")
            elif value is None:
                path.append(f"{node.feature} missing -> {node.default!r}")
                return path
            else:
                op = "<=" if key == "le" else ">"
                path.append(f"{node.feature} = {value} {op} {node.threshold:g}")
            child = node.children.get(key)
            if child is None:
                path.append(f"no branch -> {node.default!r}")
                return path
            node = child
        path.append(f"-> {node.value!r}")
        return path

    def predict_many(self, rows: list[Mapping[str, FeatureValue]]) -> list:
        return [self.predict(row) for row in rows]

    # -- inspection -------------------------------------------------------------------

    def depth(self) -> int:
        def walk(node: _Node) -> int:
            if node.is_leaf:
                return 0
            return 1 + max(walk(child) for child in node.children.values())

        return 0 if self._root is None else walk(self._root)

    def to_text(self) -> str:
        """Render the tree like the paper's Fig 8."""
        if self._root is None:
            raise NotTrainedError("call fit() before to_text()")
        lines: list[str] = []

        def walk(node: _Node, prefix: str, label: str) -> None:
            if node.is_leaf:
                lines.append(f"{prefix}{label} -> {self._leaf_text(node.value)}")
                return
            lines.append(f"{prefix}{label} [{node.feature}?]")
            if node.threshold is not None:
                walk(node.children["le"], prefix + "  ",
                     f"<= {node.threshold:.3g}")
                walk(node.children["gt"], prefix + "  ",
                     f">  {node.threshold:.3g}")
            else:
                for value, child in sorted(
                    node.children.items(), key=lambda kv: str(kv[0])
                ):
                    walk(child, prefix + "  ", f"= {value}")

        walk(self._root, "", "root")
        return "\n".join(lines)


def _entropy(labels: list[str]) -> float:
    total = len(labels)
    entropy = 0.0
    for count in Counter(labels).values():
        p = count / total
        entropy -= p * math.log2(p)
    return entropy


def _pessimistic_errors(errors: float, size: int, z: float = 0.69) -> float:
    """C4.5's upper confidence bound on the error count of a leaf."""
    if size == 0:
        return 0.0
    f = errors / size
    numerator = (
        f
        + z * z / (2 * size)
        + z * math.sqrt(f / size - f * f / size + z * z / (4 * size * size))
    )
    return size * numerator / (1 + z * z / size)


class C45Tree(_Tree):
    """Classifier: majority leaves, gain-ratio splits, pessimistic pruning."""

    def __init__(
        self, min_leaf: int = 2, max_depth: int = 12, prune: bool = True
    ) -> None:
        super().__init__(min_leaf, max_depth, prune)

    def _check_target(self, target: Any) -> None:
        if not isinstance(target, str):
            raise TrainingError(
                f"classification targets must be strings, got {target!r}"
            )

    def _statistic(self, targets: list) -> tuple[Any, float]:
        majority, count = Counter(targets).most_common(1)[0]
        return majority, len(targets) - count

    def _scorer(self, targets: list):
        """Gain ratio: information gain over split info."""
        base, total = _entropy(targets), len(targets)

        def gain_ratio(parts: list[list[Example]]) -> Optional[float]:
            weighted = 0.0
            split_info = 0.0
            for part in parts:
                weight = len(part) / total
                weighted += weight * _entropy([ex.target for ex in part])
                split_info -= weight * math.log2(weight)
            gain = base - weighted
            if gain <= 1e-12 or split_info <= 1e-12:
                return None
            return gain / split_info

        return gain_ratio

    def _leaf_text(self, value: Any) -> str:
        return str(value)

    def _fit(self, dataset: Dataset) -> None:
        self._grow(dataset)
        if self.prune:
            self._pessimistic_prune(self._root)

    def _pessimistic_prune(self, node: _Node) -> float:
        """Bottom-up subtree replacement; returns the node's pessimistic
        error count after pruning."""
        if node.is_leaf:
            return _pessimistic_errors(node.errors, node.size)
        subtree_errors = sum(
            self._pessimistic_prune(child) for child in node.children.values()
        )
        leaf_errors = _pessimistic_errors(node.errors, node.size)
        if leaf_errors <= subtree_errors + 0.1:
            node.collapse()
            return leaf_errors
        return subtree_errors

    def accuracy(self, examples: list[Example]) -> float:
        if not examples:
            return 0.0
        correct = sum(
            1 for ex in examples if self.predict(ex.features) == ex.target
        )
        return correct / len(examples)


def _sse(values: list[float]) -> float:
    """Sum of squared errors around the mean."""
    if not values:
        return 0.0
    mean = sum(values) / len(values)
    return sum((v - mean) ** 2 for v in values)


class RepTree(_Tree):
    """Regressor: mean leaves, SSE-reduction splits, reduced-error pruning."""

    #: Share of the training set held out for pruning, and its shuffle seed.
    HOLDOUT_FRACTION = 0.25
    SEED = 13

    def __init__(
        self, min_leaf: int = 3, max_depth: int = 10, prune: bool = True
    ) -> None:
        super().__init__(min_leaf, max_depth, prune)

    def _check_target(self, target: Any) -> None:
        if isinstance(target, bool) or not isinstance(target, (int, float)):
            raise TrainingError(
                f"regression targets must be numeric, got {target!r}"
            )

    def _statistic(self, targets: list) -> tuple[Any, float]:
        values = [float(t) for t in targets]
        return sum(values) / len(values), _sse(values)

    def _scorer(self, targets: list):
        """SSE reduction."""
        base = _sse([float(t) for t in targets])

        def reduction(parts: list[list[Example]]) -> Optional[float]:
            gain = base - sum(
                _sse([float(ex.target) for ex in part]) for part in parts
            )
            return gain if gain > 1e-12 else None

        return reduction

    def _leaf_text(self, value: Any) -> str:
        return f"{value:.4g}"

    def _fit(self, dataset: Dataset) -> None:
        if not (self.prune and len(dataset) >= 8):
            self._grow(dataset)
            return
        train, holdout = dataset.split_holdout(self.HOLDOUT_FRACTION, self.SEED)
        self._grow(train)
        self._reduced_error_prune(self._root, holdout.examples)

    def _reduced_error_prune(self, node: _Node, holdout: list[Example]) -> float:
        """Prune bottom-up wherever the leaf beats the subtree on the
        holdout; returns the node's holdout SSE after pruning."""
        leaf_sse = sum((float(ex.target) - node.default) ** 2 for ex in holdout)
        if node.is_leaf:
            return leaf_sse
        routed: dict[object, list[Example]] = {key: [] for key in node.children}
        unrouted: list[Example] = []
        for ex in holdout:
            routed.get(self._key(node, ex.features), unrouted).append(ex)
        subtree_sse = 0.0
        for key, child in node.children.items():
            subtree_sse += self._reduced_error_prune(child, routed[key])
        # Holdout rows that reach no child (missing feature, unseen
        # category) are scored against this node's mean either way.
        for ex in unrouted:
            subtree_sse += (float(ex.target) - node.default) ** 2
        if leaf_sse <= subtree_sse + 1e-12:
            node.collapse()
            return leaf_sse
        return subtree_sse

    def mse(self, examples: list[Example]) -> float:
        if not examples:
            return 0.0
        return sum(
            (self.predict(ex.features) - float(ex.target)) ** 2
            for ex in examples
        ) / len(examples)
