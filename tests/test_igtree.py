import random

import pytest

from conftest import fingerprint, majority
from memtag.casebase import CaseBase, majority_class
from memtag.errors import StructureError
from memtag.ib import classify_ib1ig
from memtag.igtree import build, feature_order, prune, stats
from memtag.interning import Interner
from memtag.metrics import information_gains
from memtag.taggen import (Lexicon, TaggerConfig, TaggerModel, build_lexicon,
                           extract_known_cases, train)


def make_base(rows, arity):
    interner = Interner()
    return CaseBase(arity, interner, [
        (tuple(interner.intern(v) for v in vec), interner.intern(cls))
        for vec, cls in rows])


def random_base(seed, arity=4, n_values=4, n_classes=3, n_cases=300,
                noise=0.2, interner=None):
    rng = random.Random(seed)
    interner = Interner() if interner is None else interner
    classes = [interner.intern(f"C{i}") for i in range(n_classes)]
    values = [[interner.intern(f"v{f}_{v}") for v in range(n_values)]
              for f in range(arity)]
    coef = [rng.randint(1, 7) for _ in range(arity)]
    cases = []
    for _ in range(n_cases):
        vec = tuple(values[f][rng.randrange(n_values)] for f in range(arity))
        if rng.random() < noise:
            cls = rng.choice(classes)
        else:
            cls = classes[sum(c * v for c, v in zip(coef, vec)) % n_classes]
        cases.append((vec, cls))
    return CaseBase(arity, interner, cases)


# -- reference reimplementation used as the structural oracle -------------

def oracle_build(base, weights):
    """Plain dict-based reconstruction of the same construction rule."""
    order = sorted(range(base.arity), key=lambda i: (-weights[i], i))
    items = list(base.patterns.items())
    return _oracle_node(items, order, 0, base.interner)


def _oracle_node(items, order, depth, interner):
    totals = {}
    for _, dist in items:
        for cls, n in dist.items():
            totals[cls] = totals.get(cls, 0) + n
    default = majority_class(totals, interner)
    if len(totals) == 1 or depth == len(order):
        return {"default": default, "arcs": None}
    groups = {}
    for vec, dist in items:
        groups.setdefault(vec[order[depth]], []).append((vec, dist))
    return {"default": default,
            "arcs": {v: _oracle_node(g, order, depth + 1, interner)
                     for v, g in groups.items()}}


def same_structure(node, oracle):
    # The oracle's leaves have arcs None, its other nodes at least one arc.
    arcs = oracle["arcs"] or {}
    return (node.default == oracle["default"] and set(node.arcs) == set(arcs)
            and all(same_structure(node.arcs[v], arcs[v]) for v in node.arcs))


def test_build_matches_oracle_on_f1(f1):
    interner = Interner()
    lexicon = build_lexicon(f1, interner)
    base = extract_known_cases(f1, lexicon, interner)
    weights = information_gains(base)
    tree = build(base, weights)
    assert same_structure(tree.root, oracle_build(base, weights))


def test_build_matches_oracle_random():
    for seed in range(5):
        base = random_base(seed)
        weights = information_gains(base)
        tree = build(base, weights)
        assert same_structure(tree.root, oracle_build(base, weights))


def test_deterministic_feature_decides_depth_one():
    rows = [(("a", "p"), "X"), (("b", "q"), "Y"), (("a", "q"), "X"),
            (("b", "p"), "Y")]
    base = make_base(rows, 2)
    tree = build(base, information_gains(base))
    assert tree.feature_order[0] == 0
    assert tree.root.arcs
    assert all(child.arcs == {} for child in tree.root.arcs.values())


def test_single_pattern_is_single_node():
    base = make_base([(("a", "b"), "X")], 2)
    tree = prune(build(base, (1.0, 1.0)))
    st = stats(tree)
    assert st.nodes == 1
    assert tree.root.arcs == {}
    assert base.interner.text(tree.root.default) == "X"


def test_empty_base_build_error():
    with pytest.raises(StructureError, match="from an empty case base"):
        build(CaseBase(2, Interner()), (1.0, 1.0))
    base = make_base([(("a", "b"), "X")], 2)
    with pytest.raises(StructureError, match="3 weights for base arity 2"):
        build(base, (1.0, 1.0, 1.0))


def test_prune_removes_agreeing_leaves():
    rows = [(("a",), "X"), (("a",), "X"), (("b",), "X"), (("c",), "Y")]
    base = make_base(rows, 1)
    tree = build(base, (1.0,))
    assert len(tree.root.arcs) == 3
    pruned = prune(tree)
    # X is the root default; the two X leaves disappear, leaving only Y
    assert base.interner.text(pruned.root.default) == "X"
    assert len(pruned.root.arcs) == 1
    (leaf,) = pruned.root.arcs.values()
    assert base.interner.text(leaf.default) == "Y"


def test_prune_idempotent():
    base = random_base(3)
    once = prune(build(base, information_gains(base)))
    twice = prune(once)
    assert fingerprint(once) == fingerprint(twice)


def test_prune_never_changes_classification():
    base = random_base(9, n_cases=1000, arity=4, n_values=5)
    weights = information_gains(base)
    tree = build(base, weights)
    pruned = prune(tree)
    rng = random.Random(1)
    n_symbols = len(base.interner)
    for _ in range(10_000):
        q = tuple(rng.randrange(n_symbols + 3) for _ in range(4))
        assert tree.classify(q) == pruned.classify(q)


def test_unseen_root_value_backs_off_to_global_majority():
    base = random_base(4)
    tree = prune(build(base, information_gains(base)))
    query = (10_000, 10_001, 10_002, 10_003)
    assert tree.classify(query) == majority(base)


def test_training_patterns_match_ib1ig(f1):
    interner = Interner()
    lexicon = build_lexicon(f1, interner)
    base = extract_known_cases(f1, lexicon, interner)
    weights = information_gains(base)
    tree = prune(build(base, weights))
    for vec in base.patterns:
        assert tree.classify(vec) == classify_ib1ig(base, weights, vec)


def test_depth_bound_and_obliviousness():
    base = random_base(7, arity=5, n_values=3, noise=0.6)
    tree = prune(build(base, information_gains(base)))
    st = stats(tree)
    assert st.max_depth <= base.arity
    # all nodes at one depth carry arcs for the same feature: the arc values
    # at depth d must be values that occur at feature order[d]
    per_level_values = {}
    stack = [(tree.root, 0)]
    while stack:
        node, depth = stack.pop()
        if not node.arcs:
            continue
        per_level_values.setdefault(depth, set()).update(node.arcs)
        for child in node.arcs.values():
            stack.append((child, depth + 1))
    for depth, values in per_level_values.items():
        feat = tree.feature_order[depth]
        occurring = {vec[feat] for vec in base.patterns}
        assert values <= occurring


def test_query_cost_bounded_by_arity():
    base = random_base(2, arity=6, n_values=3, n_cases=800, noise=0.5)
    tree = prune(build(base, information_gains(base)))
    rng = random.Random(0)
    n_symbols = len(base.interner)
    for _ in range(200):
        q = tuple(rng.randrange(n_symbols) for _ in range(6))
        pred, steps = tree.trace(q)
        assert len(steps) <= base.arity
        assert pred == tree.classify(q)


def test_oracle_equivalence_large_base():
    """Tree answers equal the weighted brute-force answers for every
    training pattern, up to a 10^4-case base."""
    base = random_base(13, arity=5, n_values=4, n_classes=4,
                       n_cases=10_000, noise=0.3)
    weights = information_gains(base)
    assert min(weights) > 0
    tree = prune(build(base, weights))
    for vec in base.patterns:
        assert tree.classify(vec) == classify_ib1ig(base, weights, vec)


def test_build_deterministic():
    a = random_base(5)
    b = random_base(5)
    wa, wb = information_gains(a), information_gains(b)
    assert wa == wb
    assert fingerprint(prune(build(a, wa))) == fingerprint(prune(build(b, wb)))


def test_feature_order_ties_by_index():
    assert feature_order((0.5, 0.5, 0.9)) == (2, 0, 1)
    assert feature_order((0.0, 0.0)) == (0, 1)


def test_stats_bounds():
    base = random_base(11, n_cases=500)
    tree = prune(build(base, information_gains(base)))
    st = stats(tree)
    assert st.arcs == st.nodes - 1
    assert st.leaves <= st.nodes
    assert st.nodes <= base.total_cases * (base.arity + 1)
    assert st.expanded_bytes == base.total_cases * (base.arity + 1) * 4
    assert sum(st.depth_histogram.values()) == st.nodes


def test_tree_bytes_round_trip():
    """Both trees survive the model file: same nodes, same feature order,
    same answers."""
    interner = Interner()
    gains, trees = [], []
    for arity, seed in ((4, 6), (6, 8)):
        base = random_base(seed, arity=arity, interner=interner)
        gains.append(information_gains(base))
        trees.append(prune(build(base, gains[-1])))
    model = TaggerModel(interner, Lexicon({}, [], [], [], {}),
                        TaggerConfig(), *gains, *trees, 0)
    data = model.to_bytes()
    loaded = TaggerModel.from_bytes(data)
    assert loaded.to_bytes() == data
    rng = random.Random(2)
    for tree, got in zip(trees, (loaded.known_tree, loaded.unknown_tree)):
        assert got.feature_order == tree.feature_order
        assert fingerprint(got) == fingerprint(tree)
        for _ in range(300):
            q = tuple(rng.randrange(len(interner) + 3)
                      for _ in range(tree.arity))
            assert got.classify(q) == tree.classify(q)


@pytest.mark.parametrize("corpus", ["f1", "synth_small"])
def test_every_node_has_an_arc_dict(corpus, request):
    """A leaf is a node whose arcs are an empty dict, in a trained tree and
    in the same tree read back from the model file."""
    model = train(request.getfixturevalue(corpus))
    loaded = TaggerModel.from_bytes(model.to_bytes())
    for tree in (model.known_tree, model.unknown_tree,
                 loaded.known_tree, loaded.unknown_tree):
        stack = [tree.root]
        while stack:
            node = stack.pop()
            assert type(node.arcs) is dict
            stack += node.arcs.values()
