"""Deduplicated store of fixed-arity symbolic cases.

A case base is built once, from all its cases, and does not change after.
Identical feature vectors are collapsed into one pattern that keeps a count
per target class, so a pattern seen with several classes stays ambiguous
instead of being overwritten. Pattern iteration order is the order of first
occurrence, which keeps everything built on top (gains, trees)
deterministic.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable, Iterator, Mapping

from .errors import StructureError
from .interning import Interner

Vector = tuple[int, ...]
ClassDistribution = dict[int, int]


def majority_class(counts: Mapping[int, int], interner: Interner) -> int:
    """Most frequent class; ties go to the lexicographically smaller text.

    This single tie rule is used by every component that picks a "most
    frequent" anything, so results are reproducible across runs.
    """
    if not counts:
        raise StructureError("majority_class of an empty distribution")
    text = interner.text
    return min(counts, key=lambda c: (-counts[c], text(c)))


def pool(dists: Iterable[ClassDistribution]) -> ClassDistribution:
    """The class counts of `dists` added up: IB1-IG's vote and IGTree's
    root default pool here, and each lower IGTree node adds its cases'
    counts the same way, as their equivalence on training needs."""
    totals: ClassDistribution = {}
    for dist in dists:
        for cls, n in dist.items():
            totals[cls] = totals.get(cls, 0) + n
    return totals


class CaseBase:
    """Pattern -> class-count store for one case layout (fixed arity),
    filled from `cases` in one pass. Equal cases are counted, then stored
    once each in order of first occurrence: the order that storing them one
    by one gives."""

    __slots__ = ("arity", "patterns", "total_cases", "interner")

    def __init__(self, arity: int, interner: Interner,
                 cases: Iterable[tuple[Vector, int]] = ()):
        if arity < 1:
            raise StructureError(f"arity must be >= 1, got {arity}")
        self.arity = arity
        self.interner = interner
        patterns: dict[Vector, ClassDistribution] = {}
        counts = Counter(cases)
        for (features, target), n in counts.items():
            dist = patterns.get(features)
            if dist is None:
                if len(features) != arity:
                    raise StructureError(f"case arity {len(features)} != "
                                         f"base arity {arity}")
                patterns[features] = {target: n}
            else:
                dist[target] = dist.get(target, 0) + n
        self.patterns = patterns
        self.total_cases = counts.total()

    def class_counts(self) -> ClassDistribution:
        """Aggregate class distribution over all stored cases."""
        return pool(self.patterns.values())

    def items(self) -> Iterator[tuple[Vector, ClassDistribution]]:
        return iter(self.patterns.items())

    def __len__(self) -> int:
        return len(self.patterns)
