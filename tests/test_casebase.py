import random

import pytest
from hypothesis import given, strategies as st

from memtag.casebase import CaseBase, majority_class
from memtag.errors import StructureError
from memtag.ib import classify_ib1
from memtag.interning import Interner
from memtag.taggen import (TaggerConfig, _unknown_windows, build_lexicon,
                           extract_known_cases, extract_unknown_cases,
                           gold_known_windows)


@pytest.fixture
def interner():
    return Interner(["a", "b", "c", "d", "X", "Y"])


def sym(interner, *texts):
    return tuple(interner.id_of(t) for t in texts)


def test_add_duplicates_counted(interner):
    vec = sym(interner, "a", "b")
    x = interner.id_of("X")
    base = CaseBase(2, interner, [(vec, x), (vec, x)])
    assert base.patterns[vec] == {x: 2}
    assert base.total_cases == 2
    assert len(base) == 1


def test_add_ambiguous_pattern(interner):
    vec = sym(interner, "a", "b")
    base = CaseBase(2, interner, [(vec, interner.id_of("X")),
                                  (vec, interner.id_of("Y"))])
    assert base.patterns[vec] == {interner.id_of("X"): 1, interner.id_of("Y"): 1}


def test_add_arity_mismatch(interner):
    with pytest.raises(StructureError, match="case arity 3 != base arity 2"):
        CaseBase(2, interner, [(sym(interner, "a", "b", "c"),
                                interner.id_of("X"))])
    with pytest.raises(StructureError, match="arity must be >= 1, got 0"):
        CaseBase(0, interner)


def test_f1_focus_the_always_dt(f1):
    interner = Interner()
    lexicon = build_lexicon(f1, interner)
    base = extract_known_cases(f1, lexicon, interner)
    the = lexicon.entries["the"].ambiguous_tag
    dt = interner.id_of("DT")
    the_patterns = [dist for vec, dist in base.items() if vec[2] == the]
    assert the_patterns
    assert all(set(dist) == {dt} for dist in the_patterns)


def test_majority_class(interner):
    x, y = interner.id_of("X"), interner.id_of("Y")
    assert majority_class({x: 3, y: 1}, interner) == x
    assert majority_class({x: 1}, interner) == x
    # tie: lexicographically smaller text wins
    assert majority_class({y: 2, x: 2}, interner) == x
    with pytest.raises(StructureError):
        majority_class({}, interner)


@given(st.lists(st.tuples(st.tuples(st.integers(2, 5), st.integers(2, 5)),
                          st.integers(6, 8)),
                min_size=1, max_size=30),
       st.randoms(use_true_random=False))
def test_add_order_insensitive(cases, rnd):
    interner = Interner([str(i) for i in range(9)])
    a = CaseBase(2, interner, cases)
    shuffled = list(cases)
    rnd.shuffle(shuffled)
    b = CaseBase(2, interner, shuffled)
    assert a.patterns == b.patterns
    assert a.total_cases == b.total_cases


def add_one_by_one(base, cases):
    """The reference for the constructor: each case stored as it comes."""
    for features, target in cases:
        if len(features) != base.arity:
            raise StructureError("arity mismatch")
        dist = base.patterns.get(features)
        if dist is None:
            base.patterns[features] = {target: 1}
        else:
            dist[target] = dist.get(target, 0) + 1
        base.total_cases += 1


def stored(base):
    """Everything a case base holds, pattern order and class order included
    (dict equality alone ignores order)."""
    return ([(vec, list(dist.items())) for vec, dist in base.patterns.items()],
            base.total_cases)


@given(st.lists(st.tuples(st.tuples(st.integers(2, 5), st.integers(2, 5)),
                          st.integers(6, 8)), max_size=60))
def test_add_many_matches_per_case_order(cases):
    """Counting equal cases first keeps the order of one-by-one insertion."""
    interner = Interner([str(i) for i in range(9)])
    counted = CaseBase(2, interner, iter(cases))
    reference = CaseBase(2, interner)
    add_one_by_one(reference, cases)
    assert stored(counted) == stored(reference)


def test_add_many_matches_per_case_order_on_corpora(f1, synth_small):
    """Both extracted case bases equal the one-by-one insertion of their
    case streams, in the order the corpus gives them."""
    config = TaggerConfig()
    for corpus in (f1, synth_small):
        interner = Interner()
        lexicon = build_lexicon(corpus, interner)
        for extract, windows in (
                (extract_known_cases, lambda: gold_known_windows(
                    corpus, lexicon, interner, config, strict=True)),
                (extract_unknown_cases, lambda: _unknown_windows(
                    corpus, lexicon, interner, config))):
            base = extract(corpus, lexicon, interner, config)
            reference = CaseBase(base.arity, interner)
            add_one_by_one(reference, windows())
            assert stored(base) == stored(reference)


@given(st.lists(st.tuples(st.tuples(st.integers(2, 4), st.integers(2, 4)),
                          st.integers(5, 7)), min_size=1, max_size=40))
def test_total_cases_conservation(cases):
    interner = Interner([str(i) for i in range(8)])
    base = CaseBase(2, interner, cases)
    assert base.total_cases == len(cases)
    assert sum(n for d in base.patterns.values() for n in d.values()) == len(cases)


def test_dedup_transparency():
    """Classification must not change whether duplicates are stored expanded
    or as counted distributions (checked against an expanded-list scan)."""
    rng = random.Random(5)
    interner = Interner([f"s{i}" for i in range(6)] + ["c0", "c1", "c2"])
    classes = [interner.id_of(f"c{i}") for i in range(3)]
    values = [interner.id_of(f"s{i}") for i in range(6)]
    expanded = []
    for _ in range(200):
        vec = tuple(rng.choice(values) for _ in range(3))
        cls = rng.choice(classes)
        expanded.append((vec, cls))
    base = CaseBase(3, interner, expanded)

    def oracle(query):
        best = min(sum(a != b for a, b in zip(vec, query)) for vec, _ in expanded)
        pool = {}
        for vec, cls in expanded:
            if sum(a != b for a, b in zip(vec, query)) == best:
                pool[cls] = pool.get(cls, 0) + 1
        return majority_class(pool, interner)

    for _ in range(100):
        query = tuple(rng.choice(values) for _ in range(3))
        assert classify_ib1(base, query) == oracle(query)
