"""Class entropy and per-feature information gain, the weights of the
overlap distance that `ib.nearest_set` computes.

Gains are computed Quinlan-style with log base 2 on raw frequencies: no
gain-ratio correction, no smoothing. The log base only scales all weights
uniformly, so it can never change a feature ordering or a nearest-neighbor
decision.
"""

from __future__ import annotations

from math import log2
from typing import Sequence

from .casebase import CaseBase
from .errors import StructureError

FeatureWeights = tuple[float, ...]


def _entropy(counts: Sequence[int], total: int) -> float:
    h = 0.0
    for n in counts:
        p = n / total
        h -= p * log2(p)
    return h


def class_entropy(base: CaseBase) -> float:
    """Entropy in bits of the target-class distribution over all cases."""
    if base.total_cases == 0:
        raise StructureError("entropy of an empty case base")
    return _entropy(list(base.class_counts().values()), base.total_cases)


def information_gains(base: CaseBase) -> FeatureWeights:
    """Per-feature gains G(f_i), each the expected reduction of class
    entropy from knowing that feature's value, in one pass over the base."""
    if base.total_cases == 0:
        raise StructureError("gains of an empty case base")
    total = base.total_cases
    h_class = class_entropy(base)
    arity = base.arity
    # Per feature: value -> class -> count, weighted by duplicate counts.
    tables: list[dict[int, dict[int, int]]] = [{} for _ in range(arity)]
    for vec, dist in base.patterns.items():
        for i in range(arity):
            by_class = tables[i].setdefault(vec[i], {})
            for cls, n in dist.items():
                by_class[cls] = by_class.get(cls, 0) + n
    gains = []
    for table in tables:
        remainder = 0.0
        for by_class in table.values():
            counts = list(by_class.values())
            n_value = sum(counts)
            remainder += (n_value / total) * _entropy(counts, n_value)
        gains.append(h_class - remainder)
    return tuple(gains)
