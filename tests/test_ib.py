import itertools

import pytest
from hypothesis import given, settings, strategies as st

from conftest import distance_overlap, random_case_base
from memtag.casebase import CaseBase, majority_class
from memtag.errors import StructureError
from memtag.ib import OverlapIndex, classify_ib1, classify_ib1ig, nearest_set
from memtag.interning import Interner
from memtag.metrics import information_gains
from memtag.taggen import build_lexicon, extract_known_cases


def make_base(rows, arity):
    interner = Interner()
    return CaseBase(arity, interner, [
        (tuple(interner.intern(v) for v in vec), interner.intern(cls))
        for vec, cls in rows])


def ids(base, *texts):
    return tuple(base.interner.id_of(t) for t in texts)


def test_exact_match_uses_pattern_majority():
    base = make_base([(("a", "b"), "X")] * 3 + [(("a", "b"), "Y")], 2)
    assert base.interner.text(classify_ib1(base, ids(base, "a", "b"))) == "X"


def test_tie_pools_distributions():
    base = make_base([(("a", "b"), "X"), (("c", "d"), "Y")], 2)
    # query (a,d): both patterns at distance 1, pooled {X:1, Y:1}; the
    # lexicographically smaller class text wins.
    assert base.interner.text(classify_ib1(base, ids(base, "a", "d"))) == "X"


def test_f1_saw_sentence3(f1):
    interner = Interner()
    lexicon = build_lexicon(f1, interner)
    base = extract_known_cases(f1, lexicon, interner)
    query = tuple(interner.id_of(t) for t in ("=", "DT", "NN-VBD", "VBZ"))
    assert interner.text(classify_ib1(base, query)) == "NN"

    # independent exhaustive scan over the stored patterns
    best = min(distance_overlap(v, query) for v in base.patterns)
    pool = {}
    for vec, dist in base.items():
        if distance_overlap(vec, query) == best:
            for cls, n in dist.items():
                pool[cls] = pool.get(cls, 0) + n
    assert classify_ib1(base, query) == majority_class(pool, interner)


def test_exact_match_ignores_weights():
    base = make_base([(("a", "b"), "X"), (("a", "b"), "X"),
                      (("a", "b"), "Y"), (("c", "d"), "Y")], 2)
    q = ids(base, "a", "b")
    for w in [(1.0, 1.0), (0.001, 5.0), (9.0, 0.2)]:
        assert base.interner.text(classify_ib1ig(base, w, q)) == "X"


def test_low_gain_mismatch_wins():
    # Two candidates at overlap distance 1; the one mismatching the
    # low-gain feature is nearer under the weighted metric.
    base = make_base([(("a", "b"), "X"), (("c", "d"), "Y")], 2)
    q = ids(base, "a", "d")  # mismatches feature 1 of X, feature 0 of Y
    assert base.interner.text(classify_ib1ig(base, (0.9, 0.1), q)) == "X"
    assert base.interner.text(classify_ib1ig(base, (0.1, 0.9), q)) == "Y"


def test_empty_base_and_arity_errors():
    interner = Interner()
    base = CaseBase(2, interner)
    index = OverlapIndex(base)
    for idx in (None, index):
        with pytest.raises(StructureError):
            classify_ib1(base, (0, 0), index=idx)
    base = CaseBase(2, interner, [((0, 0), 0)])
    index = OverlapIndex(base)
    for idx in (None, index):
        with pytest.raises(StructureError):
            classify_ib1(base, (0, 0, 0), index=idx)
        with pytest.raises(StructureError):
            classify_ib1ig(base, (1.0,), (0, 0), index=idx)
    with pytest.raises(StructureError):
        classify_ib1(base, (0, 0), index=OverlapIndex(CaseBase(2, interner)))


def test_nearest_set_invariants():
    base = make_base([(("a", "b"), "X"), (("a", "c"), "Y"),
                      (("z", "z"), "Z")], 2)
    ns = nearest_set(base, ids(base, "a", "q"))
    assert ns.distance == 1
    assert len(ns.members) == 2
    all_d = [distance_overlap(v, ids(base, "a", "q")) for v in base.patterns]
    assert ns.distance == min(all_d)


rows_strategy = st.lists(
    st.tuples(st.tuples(st.sampled_from("abcd"), st.sampled_from("pqr"),
                        st.sampled_from("uv")),
              st.sampled_from("XYZ")),
    min_size=1, max_size=30)


@given(rows_strategy)
@settings(max_examples=40)
def test_training_set_consistency(rows):
    """For every stored pattern, the weighted classifier returns that
    pattern's own majority class whenever all gains are positive."""
    base = make_base(rows, 3)
    weights = information_gains(base)
    if min(weights) <= 1e-12:
        return  # zero-gain features make distance-0 sets non-singleton
    for vec, dist in base.items():
        assert classify_ib1ig(base, weights, vec) == majority_class(
            dist, base.interner)


@given(rows_strategy, st.floats(0.1, 10.0),
       st.sampled_from([0.25, 0.5, 2.0, 8.0]))
@settings(max_examples=25)
def test_equal_weights_match_ib1_and_scaling_invariance(rows, scale, pow2):
    """Exhaustive over the whole query space of the base's symbols plus one
    unseen symbol per position."""
    base = make_base(rows, 3)
    interner = base.interner
    weights = information_gains(base)
    # Power-of-two scaling keeps every accumulated distance bitwise exact,
    # so even coincidental distance ties are preserved.
    scaled = tuple(w * pow2 for w in weights)
    unseen = len(interner) + 7
    per_position = [sorted({vec[i] for vec in base.patterns}) + [unseen]
                    for i in range(3)]
    for q in itertools.product(*per_position):
        assert classify_ib1ig(base, (1.0, 1.0, 1.0), q) == classify_ib1(base, q)
        assert classify_ib1ig(base, (scale,) * 3, q) == classify_ib1(base, q)
        if min(weights) > 0:
            assert (classify_ib1ig(base, scaled, q)
                    == classify_ib1ig(base, weights, q))


# -- the index against the scan ----------------------------------------

def assert_index_matches_scan(base, index, query, weights):
    """Same nearest set (members and bit-equal distance) and same classes
    through the index as through the brute-force scan."""
    want = nearest_set(base, query, weights)
    got = index.nearest_set(query, weights)
    vecs = [vec for vec, _ in got.members]
    assert got.distance == want.distance
    assert len(vecs) == len(set(vecs))
    assert set(vecs) == {vec for vec, _ in want.members}
    assert all(dist is base.patterns[vec] for vec, dist in got.members)
    if weights is None:
        assert (classify_ib1(base, query, index=index)
                == classify_ib1(base, query))
    else:
        assert (classify_ib1ig(base, weights, query, index=index)
                == classify_ib1ig(base, weights, query))


def weight_variants(base):
    """Gain weights, unit weights (IB1), gains with one weight set to 0.0,
    power-of-two-scaled gains (every distance, and so every coincidental
    tie, stays exact), and a negative weight (answered by the scan)."""
    gains = information_gains(base)
    zeroed = list(gains)
    zeroed[len(gains) // 2] = 0.0
    negative = list(gains)
    negative[0] = -0.5
    return [gains, None, tuple(zeroed), tuple(w * 4.0 for w in gains),
            tuple(w * 0.5 for w in gains), tuple(negative)]


def test_index_matches_scan_on_random_bases():
    """The criterion-1 randomized bases: stored patterns, their one- and
    two-feature mutations, and random queries with unseen symbols."""
    for seed in range(12):
        base, rng = random_case_base(seed)
        index = OverlapIndex(base)  # one index serves every weighting
        patterns = list(base.patterns)
        n_symbols = len(base.interner)
        queries = rng.sample(patterns, min(30, len(patterns)))
        for vec in rng.sample(patterns, min(30, len(patterns))):
            q = list(vec)
            for i in rng.sample(range(base.arity), rng.choice([1, 2])):
                q[i] = rng.randrange(n_symbols + 2)
            queries.append(tuple(q))
        queries += [tuple(rng.randrange(n_symbols + 2)
                          for _ in range(base.arity)) for _ in range(30)]
        for weights in weight_variants(base):
            for q in queries:
                assert_index_matches_scan(base, index, q, weights)


@given(rows_strategy)
@settings(max_examples=30)
def test_index_matches_scan_exhaustive(rows):
    """The whole query space of the base's symbols plus one unseen symbol
    per position, as in the scaling test above."""
    base = make_base(rows, 3)
    index = OverlapIndex(base)
    unseen = len(base.interner) + 7
    per_position = [sorted({vec[i] for vec in base.patterns}) + [unseen]
                    for i in range(3)]
    for weights in weight_variants(base):
        for q in itertools.product(*per_position):
            assert_index_matches_scan(base, index, q, weights)


def test_index_distances_are_the_scans_floats():
    # 0.1 + 0.2 + 0.3 is 0.6000000000000001 summed in feature order and 0.6
    # the other way round; 0.1 + 0.2 > 0.3. The index must sum as the scan.
    weights = (0.1, 0.2, 0.3, 1.0)
    base = make_base([(("x", "y", "z", "d"), "P"),
                      (("a", "b", "c", "w"), "Q")], 4)
    index = OverlapIndex(base)
    q = ids(base, "a", "b", "c", "d")
    assert index.nearest_set(q, weights).distance == 0.1 + 0.2 + 0.3
    assert_index_matches_scan(base, index, q, weights)
    base = make_base([(("x", "y", "c", "d"), "P"),
                      (("a", "b", "z", "d"), "Q")], 4)
    index = OverlapIndex(base)
    q = ids(base, "a", "b", "c", "d")
    ns = index.nearest_set(q, weights)
    assert (ns.distance, len(ns.members)) == (0.3, 1)
    assert base.interner.text(
        classify_ib1ig(base, weights, q, index=index)) == "Q"
    assert_index_matches_scan(base, index, q, weights)
