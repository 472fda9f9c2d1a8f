"""From-scratch tree learners (the Weka stand-ins of Section V).

One learner, :mod:`repro.ml.tree`, grows binary numeric-threshold and
multiway categorical splits, walks and renders the tree; two split
criteria sit on it:

* :class:`~repro.ml.tree.C45Tree` — C4.5-style classifier (gain ratio,
  pessimistic-error pruning), used for T1 (augmenter choice).
* :class:`~repro.ml.tree.RepTree` — RepTree-style regressor (variance
  reduction, reduced-error pruning on a holdout), used for T2-T4
  (BATCH_SIZE / THREADS_SIZE / CACHE_SIZE).

Both consume examples as plain ``dict`` feature maps with numeric or
categorical (string) values, and can render themselves as text — the
shape of the paper's Fig 8.
"""

from repro.ml.dataset import Dataset, Example
from repro.ml.tree import C45Tree, RepTree

__all__ = ["C45Tree", "Dataset", "Example", "RepTree"]
