"""QUEPA core: the augmentation operator and everything around it.

* :mod:`repro.core.aindex` — the A' index graph of p-relations.
* :mod:`repro.core.augmentation` — the augmentation operator (Def. 2).
* :mod:`repro.core.augmenters` — SEQUENTIAL/BATCH/INNER/OUTER/
  OUTER-BATCH/OUTER-INNER execution strategies (Section IV).
* :mod:`repro.core.search` / :mod:`repro.core.exploration` — augmented
  search (Def. 3) and augmented exploration (Def. 4).
* :mod:`repro.core.validator` — query augmentability checks/rewrites.
* :mod:`repro.core.connectors` — native key access per engine.
* :mod:`repro.core.cache` — the one LRU core and, on it, the object
  cache (Section IV-C).
* :mod:`repro.core.promotion` — p-relation promotion from user paths.
* :mod:`repro.core.system` — the :class:`~repro.core.system.Quepa`
  facade tying it all together.
"""

from repro.core.aindex import AIndex
from repro.core.augmentation import AugmentationConfig, Augmentation
from repro.core.cache import LruCache
from repro.core.search import AugmentedAnswer
from repro.core.system import Quepa

__all__ = [
    "AIndex",
    "Augmentation",
    "AugmentationConfig",
    "AugmentedAnswer",
    "LruCache",
    "Quepa",
]
