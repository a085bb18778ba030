"""Oblivious decision trie over a case base, ordered by information gain.

All nodes at one depth test the same feature (the next one in descending-gain
order), so a path is a gain-ranked prefix of a case. Construction stops a
path as soon as the remaining cases agree on a class; the lower-gain feature
values of those cases are never stored. Every node keeps the majority class
of the cases under it as its default, which is the answer whenever traversal
falls off the tree; a leaf is a node without arcs. Retrieval therefore
costs at most arity+1 node visits no matter how many cases were stored.
"""

from __future__ import annotations

from dataclasses import dataclass

from .casebase import CaseBase, ClassDistribution, Vector, majority_class
from .errors import StructureError
from .interning import Interner
from .metrics import FeatureWeights


class IGTreeNode:
    """One trie node: default class plus value-labeled arcs (empty = leaf)."""

    __slots__ = ("default", "arcs")

    def __init__(self, default: int, arcs: dict[int, "IGTreeNode"]):
        self.default = default
        self.arcs = arcs


class IGTree:
    __slots__ = ("root", "feature_order", "arity", "case_count")

    def __init__(self, root: IGTreeNode, feature_order: tuple[int, ...],
                 case_count: int):
        self.root = root
        self.feature_order = feature_order
        self.arity = len(feature_order)
        self.case_count = case_count

    def classify(self, query: Vector) -> int:
        """Walk arcs in gain order; answer the last default on a miss."""
        node = self.root
        for i in self.feature_order:
            child = node.arcs.get(query[i])
            if child is None:
                return node.default
            node = child
        return node.default

    def trace(self, query: Vector) -> tuple[int, list[tuple[int, int, bool, int]]]:
        """classify plus the visited path.

        Returns (prediction, steps); each step is (feature_index, query_value,
        matched, default_at_node) for one internal node tested. A leaf hit or
        an arc miss ends the path.
        """
        steps: list[tuple[int, int, bool, int]] = []
        node = self.root
        for i in self.feature_order:
            if not node.arcs:
                break
            child = node.arcs.get(query[i])
            steps.append((i, query[i], child is not None, node.default))
            if child is None:
                return node.default, steps
            node = child
        return node.default, steps


def feature_order(weights: FeatureWeights) -> tuple[int, ...]:
    """Feature indices by descending gain; equal gains by ascending index."""
    return tuple(sorted(range(len(weights)), key=lambda i: (-weights[i], i)))


def build(base: CaseBase, weights: FeatureWeights) -> IGTree:
    """Recursive construction: leaf on an unambiguous subset or exhausted
    features, otherwise an internal node with one arc per occurring value."""
    if not base.patterns:
        raise StructureError("cannot build a tree from an empty case base")
    if len(weights) != base.arity:
        raise StructureError(
            f"{len(weights)} weights for base arity {base.arity}")
    order = feature_order(weights)
    items = list(base.patterns.items())
    root = _build(items, base.class_counts(), order, 0, base.interner)
    return IGTree(root, order, base.total_cases)


def _build(items: list[tuple[Vector, ClassDistribution]],
           totals: ClassDistribution, order: tuple[int, ...], depth: int,
           interner: Interner) -> IGTreeNode:
    """The node over `items`, whose class counts add up to `totals`."""
    default = majority_class(totals, interner)
    # Ambiguity counts distinct classes, so two identical vectors with
    # different targets keep a subset ambiguous.
    if len(totals) == 1 or depth == len(order):
        return IGTreeNode(default, {})
    feat = order[depth]
    # One pass groups the items by the next feature's value and adds up
    # each group's class counts, which its child node then starts from.
    groups: dict[int, tuple[list, ClassDistribution]] = {}
    for item in items:
        vector, dist = item
        value = vector[feat]
        group = groups.get(value)
        if group is None:
            groups[value] = ([item], dict(dist))
        else:
            members, counts = group
            members.append(item)
            for cls, n in dist.items():
                counts[cls] = counts.get(cls, 0) + n
    arcs = {value: _build(group, counts, order, depth + 1, interner)
            for value, (group, counts) in groups.items()}
    return IGTreeNode(default, arcs)


def prune(tree: IGTree) -> IGTree:
    """Drop leaf children that agree with their parent's default class.

    Works bottom-up, so a node whose children all disappear becomes a leaf
    and may be dropped by its own parent in turn. The classification function
    is unchanged: a query that used to reach a dropped leaf now misses the
    arc and gets the parent default, which is the same class. Returns a new
    tree; the input is untouched.
    """
    return IGTree(_prune(tree.root), tree.feature_order, tree.case_count)


def _prune(node: IGTreeNode) -> IGTreeNode:
    arcs: dict[int, IGTreeNode] = {}
    for value, child in node.arcs.items():
        pruned = _prune(child)
        if pruned.arcs or pruned.default != node.default:
            arcs[value] = pruned
    return IGTreeNode(node.default, arcs)


@dataclass
class TreeStats:
    nodes: int
    leaves: int
    arcs: int
    max_depth: int
    depth_histogram: dict[int, int]
    serialized_bytes: int
    expanded_bytes: int

    @property
    def compression_ratio(self) -> float:
        return self.serialized_bytes / self.expanded_bytes


def stats(tree: IGTree) -> TreeStats:
    """Size report. `serialized_bytes` is the tree's section in the model
    file: case count, then per node its default and arc count, and per arc
    its value, one u32 each. The expanded baseline is the flat store of all
    trained cases at one u32 per feature-or-target slot."""
    histogram: dict[int, int] = {}  # depth -> nodes, one level at a time
    leaves = 0
    level = [tree.root]
    while level:
        histogram[len(histogram)] = len(level)
        leaves += sum(not node.arcs for node in level)
        level = [child for node in level for child in node.arcs.values()]
    nodes = sum(histogram.values())
    arcs = nodes - 1  # every node but the root hangs from one arc
    serialized = 4 + 8 * nodes + 4 * arcs
    expanded = tree.case_count * (tree.arity + 1) * 4
    return TreeStats(nodes, leaves, arcs, len(histogram) - 1, histogram,
                     serialized, expanded)
