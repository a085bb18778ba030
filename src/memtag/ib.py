"""Reference nearest-neighbor classifiers over a case base.

classify_ib1 uses the plain overlap distance, classify_ib1ig the
gain-weighted one. By default both scan every stored pattern on every query:
nearest_set is the definition, O(patterns * arity) per query, and the tree
classifier is checked against it. A case base is built once from all its
cases, so an OverlapIndex built over it stays exact: an accelerator for the
same search, tested against the scan. Passed as `index=`, it gives the same
nearest set, so the same class, without the scan.

Everything at the minimal distance forms the nearest set; its class
distributions are pooled before the majority vote, so an ambiguous stored
pattern contributes all of its counts, not just its own winner.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import Callable, Sequence

from .casebase import CaseBase, ClassDistribution, Vector, majority_class, pool
from .errors import StructureError
from .metrics import FeatureWeights


@dataclass
class NearestSet:
    distance: float
    members: list[tuple[Vector, ClassDistribution]]


def _checked_weights(base: CaseBase, query: Vector,
                     weights: FeatureWeights | None) -> FeatureWeights:
    """Weights to search with (1.0 each if None), checked against base."""
    if not base.patterns:
        raise StructureError("nearest_set over an empty case base")
    if len(query) != base.arity:
        raise StructureError(
            f"query arity {len(query)} != base arity {base.arity}")
    if weights is None:
        weights = (1.0,) * base.arity
    elif len(weights) != base.arity:
        raise StructureError(
            f"{len(weights)} weights for base arity {base.arity}")
    return weights


def nearest_set(base: CaseBase, query: Vector,
                weights: FeatureWeights | None = None) -> NearestSet:
    """All stored patterns at minimal (weighted) overlap distance from query."""
    weights = _checked_weights(base, query, weights)
    best = float("inf")
    members: list[tuple[Vector, ClassDistribution]] = []
    for vec, dist in base.patterns.items():
        d = 0.0
        for a, b, w in zip(vec, query, weights):
            if a != b:
                d += w
                if d > best:
                    break
        else:
            if d < best:
                best = d
                members = [(vec, dist)]
            elif d == best:
                members.append((vec, dist))
    return NearestSet(best, members)


class OverlapIndex:
    """Exact nearest-set search over one case base, for any weights.

    A pattern's weighted overlap distance from a query depends only on
    which features match. For a subset of kept features the index buckets
    the patterns by their projection on it; each subset's buckets are built
    on first use and hold references to the stored patterns. Per weights
    tuple, the subsets are grouped by the distance of the features they
    drop, summed in feature order from 0.0 as nearest_set sums, so equal
    distances are equal floats. A query walks those distances upwards; the
    first non-empty union of its buckets is nearest_set's member set, at the
    same distance. Buckets do not depend on the weights, so IB1 and IB1-IG
    share one index.

    That walk relies on a distance never falling as mismatches are added,
    so weights with a negative or NaN entry fall back to the scan.
    """

    def __init__(self, base: CaseBase):
        self.base = base
        self._buckets: dict[tuple[int, ...],
                            tuple[Callable, dict[object, list[Vector]]]] = {}
        self._levels: dict[FeatureWeights,
                           list[tuple[float, list[tuple[int, ...]]]]] = {}

    def _levels_for(self, weights: FeatureWeights):
        """(distance, kept-feature subsets at it), by ascending distance."""
        levels = self._levels.get(weights)
        if levels is None:
            arity = self.base.arity
            by_distance: dict[float, list[tuple[int, ...]]] = {}
            for mask in range(2 ** arity):
                d = 0.0
                for i, w in enumerate(weights):
                    if not mask >> i & 1:
                        d += w
                kept = tuple(i for i in range(arity) if mask >> i & 1)
                by_distance.setdefault(d, []).append(kept)
            levels = self._levels[weights] = sorted(by_distance.items())
        return levels

    def _matches(self, kept: tuple[int, ...],
                 query: Vector) -> Sequence[Vector]:
        """Stored patterns equal to query on every feature in kept."""
        patterns = self.base.patterns
        if len(kept) == self.base.arity:
            return (query,) if query in patterns else ()
        entry = self._buckets.get(kept)
        if entry is None:
            key = itemgetter(*kept) if kept else (lambda vec: ())
            buckets: dict[object, list[Vector]] = {}
            for vec in patterns:
                buckets.setdefault(key(vec), []).append(vec)
            entry = self._buckets[kept] = (key, buckets)
        key, buckets = entry
        return buckets.get(key(query), ())

    def nearest_set(self, query: Vector,
                    weights: FeatureWeights | None = None) -> NearestSet:
        """nearest_set(self.base, query, weights), found through the index;
        the members are the same, possibly in another order."""
        base = self.base
        weights = _checked_weights(base, query, weights)
        if not all(w >= 0.0 for w in weights):
            return nearest_set(base, query, weights)
        patterns = base.patterns
        for distance, subsets in self._levels_for(tuple(weights)):
            found = [vec for kept in subsets
                     for vec in self._matches(kept, query)]
            if found:
                if len(subsets) > 1:
                    found = list(dict.fromkeys(found))
                return NearestSet(distance,
                                  [(vec, patterns[vec]) for vec in found])
        raise AssertionError("the empty subset matches every pattern")


def _nearest(base: CaseBase, query: Vector, weights: FeatureWeights | None,
             index: OverlapIndex | None) -> NearestSet:
    if index is None:
        return nearest_set(base, query, weights)
    if index.base is not base:
        raise StructureError("index was built over another case base")
    return index.nearest_set(query, weights)


def classify_ib1(base: CaseBase, query: Vector,
                 index: OverlapIndex | None = None) -> int:
    """Majority class of the pooled nearest set under unweighted overlap;
    an index over base gives the same class faster."""
    members = _nearest(base, query, None, index).members
    return majority_class(pool(map(itemgetter(1), members)), base.interner)


def classify_ib1ig(base: CaseBase, weights: FeatureWeights, query: Vector,
                   index: OverlapIndex | None = None) -> int:
    """Majority class of the pooled nearest set under gain-weighted overlap;
    an index over base gives the same class faster."""
    members = _nearest(base, query, weights, index).members
    return majority_class(pool(map(itemgetter(1), members)), base.interner)
