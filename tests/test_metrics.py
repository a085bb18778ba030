import math
import random

import pytest
from hypothesis import given, strategies as st

from conftest import distance_overlap, distance_weighted, one_pattern_distance
from memtag.casebase import CaseBase
from memtag.errors import StructureError
from memtag.interning import Interner
from memtag.metrics import class_entropy, information_gains
from memtag.taggen import build_lexicon, extract_known_cases


def make_base(rows, arity):
    """rows: list of (feature texts tuple, class text)."""
    interner = Interner()
    return CaseBase(arity, interner, [
        (tuple(interner.intern(v) for v in vec), interner.intern(cls))
        for vec, cls in rows])


def f1_known_base(f1):
    interner = Interner()
    lexicon = build_lexicon(f1, interner)
    return extract_known_cases(f1, lexicon, interner)


def test_entropy_degenerate():
    base = make_base([(("a",), "X"), (("b",), "X"), (("c",), "X")], 1)
    assert class_entropy(base) == 0.0


def test_entropy_uniform_two_classes():
    base = make_base([(("a",), "X"), (("b",), "Y")], 1)
    assert class_entropy(base) == 1.0


def test_entropy_f1(f1):
    # Independent oracle: hand-enumerated target counts over the 18 known
    # cases are DT:6 NN:6 VBD:2 VBZ:1 .:3.
    counts = {"DT": 6, "NN": 6, "VBD": 2, "VBZ": 1, ".": 3}
    assert sum(counts.values()) == 18
    expected = -sum((n / 18) * math.log2(n / 18) for n in counts.values())
    base = f1_known_base(f1)
    assert class_entropy(base) == pytest.approx(expected, rel=1e-12)
    assert class_entropy(base) == pytest.approx(2.0713451397302376, rel=1e-12)


def test_entropy_empty_base():
    interner = Interner()
    with pytest.raises(StructureError, match="entropy of an empty case base"):
        class_entropy(CaseBase(1, interner))
    with pytest.raises(StructureError, match="gains of an empty case base"):
        information_gains(CaseBase(1, interner))


def test_gain_constant_feature():
    base = make_base([(("k", "a"), "X"), (("k", "b"), "Y"), (("k", "c"), "X")], 2)
    assert information_gains(base)[0] == 0.0


def test_gain_perfect_predictor():
    base = make_base(
        [(("a", "q"), "X"), (("b", "q"), "Y"), (("a", "r"), "X"),
         (("c", "q"), "Z")], 2)
    assert information_gains(base)[0] == pytest.approx(class_entropy(base),
                                                       abs=1e-12)


def test_gain_focus_dominates_on_f1(f1):
    # Mirrors the printed gain pattern for the known-word layout, where the
    # focus feature towers over the context features: checked as an
    # ordering, not as exact values.
    gains = information_gains(f1_known_base(f1))
    assert max(range(4), key=lambda i: gains[i]) == 2


def test_distance_overlap_examples():
    assert one_pattern_distance((1, 2, 3), (1, 2, 3)) == 0
    assert one_pattern_distance((1, 2, 3, 4), (5, 6, 7, 8)) == 4
    with pytest.raises(StructureError, match="query arity 3 != base arity 2"):
        one_pattern_distance((1, 2), (1, 2, 3))


def test_distance_overlap_table_rows():
    # Adjacent rows of the known-word sample: (np,np,",",cd) vs
    # (np,",",cd,nns) disagree at three positions.
    interner = Interner(["np", ",", "cd", "nns"])
    x = tuple(interner.id_of(t) for t in ("np", "np", ",", "cd"))
    y = tuple(interner.id_of(t) for t in ("np", ",", "cd", "nns"))
    assert one_pattern_distance(x, y) == 3
    assert one_pattern_distance(y, x) == 3


def test_distance_weighted_examples():
    w = (0.5, 0.25, 2.0)
    assert one_pattern_distance((1, 2, 3), (1, 2, 3), w) == 0.0
    assert one_pattern_distance((9, 2, 3), (1, 2, 3), w) == 0.5
    assert one_pattern_distance((9, 2, 7), (1, 2, 3), w) == 2.5
    with pytest.raises(StructureError, match="1 weights for base arity 2"):
        one_pattern_distance((1, 2), (1, 2), (1.0,))


def test_distance_weighted_f1_gains(f1):
    base = f1_known_base(f1)
    gains = information_gains(base)
    vecs = list(base.patterns)
    x = vecs[0]
    y = (x[0] + 1000, x[1], x[2] + 1000, x[3])  # differ at features 0 and 2
    assert one_pattern_distance(x, y, gains) == pytest.approx(
        gains[0] + gains[2], rel=1e-12)
    assert one_pattern_distance(x, y, gains) == distance_weighted(x, y, gains)


@given(st.integers(1, 6), st.data())
def test_unit_weights_reduce_to_overlap(arity, data):
    x = tuple(data.draw(st.lists(st.integers(0, 4), min_size=arity,
                                 max_size=arity)))
    y = tuple(data.draw(st.lists(st.integers(0, 4), min_size=arity,
                                 max_size=arity)))
    overlap = distance_overlap(x, y)
    assert one_pattern_distance(x, y, (1.0,) * arity) == overlap
    assert one_pattern_distance(x, y) == overlap


@given(st.integers(1, 5), st.data())
def test_overlap_triangle_inequality(arity, data):
    draw_vec = st.lists(st.integers(0, 3), min_size=arity, max_size=arity)
    x = tuple(data.draw(draw_vec))
    y = tuple(data.draw(draw_vec))
    z = tuple(data.draw(draw_vec))
    d = one_pattern_distance
    assert d(x, z) <= d(x, y) + d(y, z)


rows_strategy = st.lists(
    st.tuples(st.tuples(st.sampled_from("abc"), st.sampled_from("pqrs")),
              st.sampled_from("XY")),
    min_size=2, max_size=25)


@given(rows_strategy)
def test_gain_invariant_under_value_relabeling(rows):
    base = make_base(rows, 2)
    relabeled = make_base([((v0 + "!", v1), c) for (v0, v1), c in rows], 2)
    g1 = information_gains(base)
    g2 = information_gains(relabeled)
    assert g1 == pytest.approx(g2, abs=1e-12)


@given(rows_strategy, st.integers(2, 5))
def test_gain_invariant_under_duplication(rows, k):
    base = make_base(rows, 2)
    duplicated = make_base(rows * k, 2)
    assert information_gains(duplicated) == pytest.approx(
        information_gains(base), abs=1e-12)


def test_gains_bounded_by_class_entropy():
    rng = random.Random(0)
    for _ in range(20):
        rows = [((rng.choice("abcd"), rng.choice("efg"), rng.choice("hi")),
                 rng.choice("XYZ")) for _ in range(rng.randint(2, 60))]
        base = make_base(rows, 3)
        h = class_entropy(base)
        for g in information_gains(base):
            assert -1e-12 <= g <= h + 1e-12
