import os
import random
import struct
import subprocess
import sys
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (F1_PATH, LEAF, PV_LEXICON, PV_SENTENCE, SYNTH_SMALL,
                      chained_known_tree_model, check_section_map, column,
                      config_section, count_lexical_entries, count_lexicons,
                      f1_model_with_known_nodes, f1_model_with_lexicon,
                      fingerprint, header_section, interner_table,
                      lexicon_columns, lexicon_section, preorder,
                      readme_section, text_table, texts, tree_section,
                      with_crc, with_section)
from memtag import modelfile, taggen
from memtag.corpus import Corpus, parse_corpus
from memtag.errors import ModelFormatError, ParameterError, StructureError
from memtag.evaluation import compare_algorithms, evaluate
from memtag.igtree import IGTree, IGTreeNode, feature_order, stats
from memtag.interning import BOUNDARY, UNKNOWN_MARK, Interner
from memtag.modelfile import _read_texts, _texts
from memtag.taggen import (UNKNOWN_SLOTS, Lexicon, TaggerConfig, TaggerModel,
                           _lexicon_tag, build_lexicon,
                           extract_known_cases, extract_unknown_cases,
                           is_number, lexicon_from_tag_counts, train)
from memtag.synth import SynthConfig, synth_corpus

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def rows_of(base):
    interner = base.interner
    return [(texts(interner, vec), {interner.text(c): n for c, n in dist.items()})
            for vec, dist in base.items()]


# -- lexicon ---------------------------------------------------------------

def test_lexicon_once_is_rb_in():
    corpus = parse_corpus("\n".join(["once/RB x/X"] * 330 + ["once/IN x/X"] * 77))
    interner = Interner()
    lex = build_lexicon(corpus, interner)
    entry = lex.entries["once"]
    assert interner.text(entry.ambiguous_tag) == "RB-IN"
    assert entry.tag_counts == {interner.id_of("RB"): 330,
                                interner.id_of("IN"): 77}


def test_lexicon_threshold_drops_rare_tag():
    corpus = parse_corpus("\n".join(["below/IN x/X"] * 900 + ["below/RB x/X"] * 50))
    interner = Interner()
    lex = build_lexicon(corpus, interner)
    assert interner.text(lex.entries["below"].ambiguous_tag) == "IN"
    assert lex.entries["below"].surviving_tags == (interner.id_of("IN"),)


def test_lexicon_frequency_order_matters():
    corpus = parse_corpus("\n".join(["below/IN x/X"] * 300 + ["below/RB x/X"] * 100))
    interner = Interner()
    lex = build_lexicon(corpus, interner)
    assert interner.text(lex.entries["below"].ambiguous_tag) == "IN-RB"


def test_lexicon_f1_saw_tie(f1):
    interner = Interner()
    lex = build_lexicon(f1, interner)
    saw = lex.entries["saw"]
    assert interner.text(saw.ambiguous_tag) == "NN-VBD"
    assert texts(interner, saw.surviving_tags) == ("NN", "VBD")
    # 8 word types, "saw" the one ambiguous type: 4 of the 18 tokens
    assert train(f1).summary().splitlines()[:2] == [
        "lexicon: 8 word types, 1 (12.5%) ambiguous",
        "ambiguous tokens: 22.2%"]


def test_threshold_must_lie_in_unit_interval(f1):
    """TaggerConfig and the lexicon builders share one check, which the
    builders make before they intern anything. On f1, 7 and NaN would
    keep only the top tag of "saw", and -1 every tag."""
    for threshold in (0.0, 0.10, 1.0):
        assert TaggerConfig(threshold=threshold).threshold == threshold
    counts = {"saw": {"NN": 2, "VBD": 2}}
    for threshold in (-0.01, -1.0, 1.5, 7.0, float("nan"), float("inf")):
        with pytest.raises(ParameterError, match=r"threshold must be in \[0, 1\]"):
            TaggerConfig(threshold=threshold)
        for build, source in ((build_lexicon, f1),
                              (lexicon_from_tag_counts, counts)):
            interner = Interner()
            with pytest.raises(ParameterError,
                               match=r"threshold must be in \[0, 1\]"):
                build(source, interner, threshold)
            assert list(interner) == [BOUNDARY, UNKNOWN_MARK]


def test_lexicon_keeps_most_frequent_even_below_threshold():
    corpus = parse_corpus("w/A w/A w/B w/B x/X")
    interner = Interner()
    lex = build_lexicon(corpus, interner, threshold=0.9)
    # both shares are 0.5 < 0.9; the majority survives, tie broken by text
    assert interner.text(lex.entries["w"].ambiguous_tag) == "A"


def lexicon_per_token(corpus, interner, threshold=0.10):
    """The reference for build_lexicon: tags counted token by token, then
    every word's entry built through `_lexicon_tag`, one tag or more."""
    counts = {}
    for sent in corpus.sentences:
        for word, tag in sent:
            by_tag = counts.setdefault(word, {})
            tid = interner.intern(tag)
            by_tag[tid] = by_tag.get(tid, 0) + 1
    entries = {}
    for word, by_tag in counts.items():
        surviving, joined = _lexicon_tag(by_tag, interner, threshold)
        entries[word] = (list(by_tag.items()), surviving,
                         interner.intern(joined))
    return entries


@pytest.mark.parametrize("threshold", [0.10, 0.35])
def test_build_lexicon_matches_per_token_order(f1, synth_small, threshold):
    """Same interner table, entry order and tag_counts order as counting
    token by token."""
    for corpus in (f1, synth_small):
        counted, reference = Interner(), Interner()
        lex = build_lexicon(corpus, counted, threshold)
        expected = lexicon_per_token(corpus, reference, threshold)
        assert list(counted) == list(reference)
        assert list(lex.entries) == list(expected)
        assert [(list(e.tag_counts.items()), e.surviving_tags, e.ambiguous_tag)
                for e in lex.entries.values()] == list(expected.values())


# -- case extraction -------------------------------------------------------

@pytest.fixture
def pv():
    corpus = parse_corpus(PV_SENTENCE)
    interner = Interner()
    lexicon = lexicon_from_tag_counts(PV_LEXICON, interner)
    return corpus, lexicon, interner


def test_known_cases_table_rows(pv):
    corpus, lexicon, interner = pv
    rows = rows_of(extract_known_cases(corpus, lexicon, interner))
    assert rows[0] == (("=", "=", "np", "np"), {"np": 1})        # Pierre
    assert ((("cd", "nns", "jj-np", ","), {"jj": 1})) in rows    # old


def test_known_cases_number_focus_configurable(pv):
    corpus, lexicon, interner = pv
    default_rows = [v for v, _ in rows_of(extract_known_cases(corpus, lexicon,
                                                              interner))]
    assert ("np", ",", "cd", "nns") not in default_rows  # 61 routed away
    # the "," before 61 sees the numeral as tagging does: UNK-A
    assert default_rows[2] == ("np", "np", ",", "UNK-A")
    keep = TaggerConfig(route_numbers_to_unknown=False)
    kept_rows = rows_of(extract_known_cases(corpus, lexicon, interner, keep))
    assert kept_rows[3] == (("np", ",", "cd", "nns"), {"cd": 1})


def test_unknown_cases_table_rows(pv):
    corpus, lexicon, interner = pv
    rows = rows_of(extract_unknown_cases(corpus, lexicon, interner))
    assert rows[0] == (("P", "=", "np", "r", "r", "e"), {"np": 1})   # Pierre
    assert rows[1] == (("V", "np", ",", "k", "e", "n"), {"np": 1})   # Vinken
    assert rows[2] == (("6", ",", "nns", "=", "6", "1"), {"cd": 1})  # 61
    # nov. before the numeral 29
    assert (("n", "nn", "UNK-A", "o", "v", "."), {"np": 1}) in rows


def test_unknown_cases_open_class_only(pv):
    corpus, lexicon, interner = pv
    rows = rows_of(extract_unknown_cases(corpus, lexicon, interner))
    targets = {t for _, dist in rows for t in dist}
    for closed in (",", "md", "dt", "in", "."):
        assert closed not in targets


def test_f1_known_case_for_saw(f1):
    interner = Interner()
    lexicon = build_lexicon(f1, interner)
    rows = rows_of(extract_known_cases(f1, lexicon, interner))
    assert rows[2] == (("DT", "NN", "NN-VBD", "DT"), {"VBD": 2})
    assert len(rows) == 13
    base = extract_known_cases(f1, lexicon, interner)
    assert base.total_cases == 18


def test_f1_unknown_case_for_cuts(f1):
    interner = Interner()
    lexicon = build_lexicon(f1, interner)
    rows = rows_of(extract_unknown_cases(f1, lexicon, interner,
                                         TaggerConfig(closed_class_tags=frozenset({"DT", "."}))))
    assert (("c", "NN", "DT", "u", "t", "s"), {"VBZ": 1}) in rows


def test_short_word_letter_padding(pv):
    corpus, lexicon, interner = pv
    single = parse_corpus("a/nn")
    lex = lexicon_from_tag_counts({"a": {"nn": 1}}, interner)
    rows = rows_of(extract_unknown_cases(single, lex, interner))
    assert rows[0][0] == ("a", "=", "=", "=", "=", "a")


def test_lexicon_word_without_positive_tag_counts_rejected():
    """A word with no tag counts, or with a count below 1 (which a model
    file could not hold), is named wherever it stands."""
    for bad in ({}, {"nn": 0}, {"nn": 0, "vb": 0}, {"nn": -1, "vb": 3}):
        for counts in ({"w": bad}, {"w": bad, "a": {"nn": 1}},
                       {"a": {"nn": 1}, "w": bad}):
            with pytest.raises(ParameterError,
                               match=r"word 'w' needs tag counts, each >= 1"):
                lexicon_from_tag_counts(counts, Interner())


def test_marker_texts_are_ordinary_tags():
    """The tags "=" and "UNK-A", and a lexicon tag joined to "UNK-A", are
    values like any other: they train, save, load back to the same bytes
    and come back from tagging, each with an id of its own, not a
    marker's."""
    model = train(parse_corpus(
        "a/= b/UNK-A ./.\nw/UNK ./.\nw/UNK ./.\nw/A x/X ./.\n"))
    data = model.to_bytes()
    loaded = TaggerModel.from_bytes(data)
    assert loaded.to_bytes() == data
    interner = loaded.interner
    assert loaded.lexicon.tags["w"] == interner.id_of("UNK-A")
    for words, tags in ((["a", "b", "."], ["=", "UNK-A", "."]),
                        (["w", "."], ["UNK", "."]),
                        (["w", "x", "."], ["A", "X", "."])):
        assert model.tag(words) == loaded.tag(words) == tags
        assert min(map(interner.id_of, tags)) >= 2


def test_letter_equals_sign_is_no_boundary():
    """A word's letter "=" is a value, not the padding: the unknown-word
    queries of "=xy" and "xy" differ at p and s-3, and no letter slot of
    "=xy" holds the boundary."""
    model = train(parse_corpus("the/DT dog/NN ./.\nthe/DT =ab/NN ./.\n"))
    interner = model.interner
    equals = interner.id_of("=")
    assert equals >= 2
    (_, odd, _), (_, plain, _) = (model.tag_records(["the", w, "."])
                                  for w in ("=xy", "xy"))
    assert odd.route == plain.route == "unknown"
    p, s3 = UNKNOWN_SLOTS.index("p"), UNKNOWN_SLOTS.index("s-3")
    assert odd.query[p] == odd.query[s3] == equals
    assert plain.query[s3] == interner.boundary != equals
    assert plain.query[p] != equals
    letters = [odd.query[UNKNOWN_SLOTS.index(s)]
               for s in ("p", "s-3", "s-2", "s-1")]
    assert interner.boundary not in letters


@pytest.mark.parametrize("corpus", [Corpus([[]]), Corpus([[], []])])
def test_corpus_without_tokens_is_refused(corpus):
    """Empty sentences are no corpus: each entry point names the problem
    instead of failing further in."""
    for call, message in (
            (lambda: train(corpus), "cannot train on an empty corpus"),
            (lambda: build_lexicon(corpus, Interner()),
             "cannot build a lexicon from an empty corpus"),
            (lambda: compare_algorithms(corpus, corpus),
             "cannot build a lexicon from an empty corpus")):
        with pytest.raises(ParameterError, match=message):
            call()


def test_lexicon_routing_cache_is_not_a_parameter():
    """A Lexicon builds its routing maps itself; none can be passed in."""
    with pytest.raises(TypeError, match="6 positional arguments"):
        Lexicon({}, [], [], [], {}, {True: {}})
    with pytest.raises(TypeError, match="_non_numeral_tags"):
        Lexicon({}, [], [], [], {}, _non_numeral_tags={})


def test_extraction_requires_lexicon_coverage(f1):
    interner = Interner()
    partial = lexicon_from_tag_counts({"the": {"DT": 1}}, interner)
    for extract in (extract_known_cases, extract_unknown_cases):
        with pytest.raises(StructureError, match="'cat' not in lexicon"):
            extract(f1, partial, interner)


def test_extraction_needs_only_the_known_route_words(synth_small):
    """Coverage follows the routing rule: a lexicon without the numerals
    gives both case bases exactly as the full lexicon does while numerals
    are routed unknown, and is refused, naming a numeral, when they are
    not."""
    interner = Interner()
    full = build_lexicon(synth_small, interner)
    text = interner.text
    known_route = lexicon_from_tag_counts(
        {word: {text(t): n for t, n in entry.tag_counts.items()}
         for word, entry in full.entries.items() if not is_number(word)},
        interner)
    assert 0 < len(known_route.tags) < len(full.tags)
    routed_known = TaggerConfig(route_numbers_to_unknown=False)
    assert full.known_tags(routed_known) is full.tags
    for extract in (extract_known_cases, extract_unknown_cases):
        want = extract(synth_small, full, interner)
        got = extract(synth_small, known_route, interner)
        assert list(got.patterns.items()) == list(want.patterns.items())
        assert got.total_cases == want.total_cases
        with pytest.raises(StructureError,
                           match=r"word '([^']*)' not in lexicon") as err:
            extract(synth_small, known_route, interner, routed_known)
        assert is_number(err.value.args[0].split("'")[1])


def test_is_number():
    for text in ("61", "29", "12,345.6", "0", "-7", "+3.14", "1,234,567",
                 "\u0663\u0664"):
        assert is_number(text)
    for text in ("nov.", "a1", "1st", "1,23", "..", "", "3-4", "1/2",
                 "\u00b2", "12\n"):
        assert not is_number(text)


# -- training and tagging --------------------------------------------------

def test_train_f1_reproduces_gold(f1):
    model = train(f1)
    for sent in f1.sentences:
        words = [t.word for t in sent]
        assert model.tag(words) == [t.tag for t in sent]


def test_train_single_sentence_degenerate():
    corpus = parse_corpus("hello/UH")
    model = train(corpus)
    assert model.tag(["hello"]) == ["UH"]
    # UH is closed-class, so the unknown base is empty; unseen words get
    # the fallback tag
    assert model.unknown_tree is None
    assert model.tag(["unseen"]) == ["UH"]


def test_known_route_without_a_tree_answers_the_fallback(f1):
    """A word the lexicon routes known gets the fallback tag when the model
    has no known tree, before and after a round trip through the file."""
    m = train(f1)
    assert m.tag(["dog"]) == ["NN"]
    assert m.interner.text(m.fallback_tag) == "DT"
    treeless = TaggerModel(m.interner, m.lexicon, m.config, m.known_weights,
                           m.unknown_weights, None, m.unknown_tree,
                           m.fallback_tag)
    for model in (treeless, TaggerModel.from_bytes(treeless.to_bytes())):
        assert model.known_tree is None
        assert model.tag_records(["dog"])[0].route == "known"
        assert model.tag(["dog"]) == ["DT"]


def test_summary_reports_empty_trees():
    """A route without training cases has no tree, and summary() says so:
    all-numeral text has no known case, closed-class text no unknown one."""
    numerals = train(parse_corpus("61/CD 29/CD"))
    assert numerals.known_tree is None and numerals.unknown_tree is not None
    closed = train(parse_corpus("the/DT of/IN"))
    assert closed.known_tree is not None and closed.unknown_tree is None
    for model, name in ((numerals, "known"), (closed, "unknown")):
        lines = model.summary().splitlines()
        assert f"{name} tree: empty" in lines
        loaded = TaggerModel.from_bytes(model.to_bytes())
        assert loaded.summary().splitlines() == lines


def test_train_holds_one_case_base_at_a_time(synth_small, monkeypatch):
    """train() has dropped the known base before it extracts the unknown
    one, and the model is the one it trained before the watch."""
    class WatchedBase(taggen.CaseBase):
        __slots__ = ("__weakref__",)

    bases, alive = [], []
    extract_known, extract_unknown = (taggen.extract_known_cases,
                                      taggen.extract_unknown_cases)

    def watched_known(*args):
        base = extract_known(*args)
        bases.append(weakref.ref(base))
        return base

    def watched_unknown(*args):
        alive.append([ref() is not None for ref in bases])
        return extract_unknown(*args)

    expected = train(synth_small).to_bytes()
    monkeypatch.setattr(taggen, "CaseBase", WatchedBase)
    monkeypatch.setattr(taggen, "extract_known_cases", watched_known)
    monkeypatch.setattr(taggen, "extract_unknown_cases", watched_unknown)
    assert train(synth_small).to_bytes() == expected
    assert alive == [[False]]


def test_train_determinism(f1):
    assert train(f1).to_bytes() == train(f1).to_bytes()


def test_tag_single_unambiguous_word(f1):
    model = train(f1)
    assert model.tag(["cat"]) == ["NN"]


def test_tag_empty_sentence(f1):
    model = train(f1)
    with pytest.raises(ParameterError):
        model.tag([])
    with pytest.raises(ParameterError):
        model.tag_records([])
    with pytest.raises(ParameterError):
        model.tag_records(["the"], gold_left=[])


@pytest.mark.parametrize("words", [["", "cat"], ["the", "", "cat"],
                                   ["the", "cat", ""]])
def test_tag_empty_word(words, f1_model):
    """An empty word has no letters for the unknown route: each entry point
    refuses it, naming its position."""
    message = f"empty word at position {words.index('')}"
    for call in (f1_model.tag, f1_model.tag_records,
                 lambda words: f1_model.explain(words, 0)):
        with pytest.raises(ParameterError, match=message):
            call(words)


def test_numbers_routed_to_unknown_tree_even_if_seen():
    corpus = parse_corpus("sold/VBD 61/CD shares/NNS ./.\n"
                          "sold/VBD 29/CD shares/NNS ./.")
    model = train(corpus)
    records = model.tag_records(["sold", "61", "shares", "."])
    assert records[1].route == "unknown"
    assert model.interner.text(records[1].prediction) == "CD"
    # unseen number at tagging time also lands in the unknown route
    records = model.tag_records(["sold", "77", "shares", "."])
    assert records[1].route == "unknown"
    assert model.interner.text(records[1].prediction) == "CD"


def test_routing_is_pure_function_of_lexicon_and_number_test(synth_small):
    model = train(synth_small)
    entries = model.lexicon.entries
    known = unknown = 0
    expect_known = expect_unknown = 0
    for sent in synth_small.sentences[:300]:
        words = [t.word for t in sent]
        for rec in model.tag_records(words):
            known += rec.route == "known"
            unknown += rec.route == "unknown"
        for w in words:
            if w in entries and not is_number(w):
                expect_known += 1
            else:
                expect_unknown += 1
    assert (known, unknown) == (expect_known, expect_unknown)


@pytest.mark.parametrize("case", ["f1", "synth_small", "single_sentence",
                                  "numbers_known"])
def test_tag_and_tag_records_share_one_loop(case, f1, synth_small):
    """tag() returns the texts of tag_records()' predictions, and every
    prediction is its route's trie answer for the recorded query."""
    if case == "single_sentence":
        corpus = parse_corpus("hello/UH")
        sentences = [["hello"], ["unseen", "hello"], ["hello", "61", "x"]]
    else:
        corpus = f1 if case == "f1" else synth_small
        sentences = [[t.word for t in s] for s in corpus.sentences[:200]]
        sentences += [["the", "61", "blorft", "."], ["12,345.6"]]
    config = TaggerConfig(route_numbers_to_unknown=case != "numbers_known")
    model = train(corpus, config)
    if case == "single_sentence":
        assert model.unknown_tree is None
    text = model.interner.text
    entries = model.lexicon.entries
    for words in sentences:
        records = model.tag_records(words)
        assert model.tag(words) == [text(r.prediction) for r in records]
        for w, rec in zip(words, records):
            known = w in entries and not (config.route_numbers_to_unknown
                                          and is_number(w))
            assert rec.route == ("known" if known else "unknown")
            tree = (model.known_tree if rec.route == "known"
                    else model.unknown_tree)
            expect = (model.fallback_tag if tree is None
                      else tree.classify(rec.query))
            assert rec.prediction == expect


def test_unknown_right_neighbor_marks_a_slot(f1):
    model = train(f1)
    interner = model.interner
    records = model.tag_records(["the", "glorp"])
    assert records[0].route == "known"
    assert records[0].query[3] == interner.unknown_mark
    # numeric right neighbor gets the same reserved marker
    records = model.tag_records(["the", "61"])
    assert records[0].query[3] == interner.unknown_mark
    # sentence end stays the boundary marker
    records = model.tag_records(["the"])
    assert records[0].query[3] == interner.boundary


def test_gold_left_context_fills_d_slots(f1):
    model = train(f1)
    interner = model.interner
    words = ["the", "cat", "saw", "the", "saw", "."]
    gold = ["DT", "NN", "VBD", "DT", "NN", "."]
    records = model.tag_records(words, gold_left=gold)
    assert records[2].query[0] == interner.id_of("DT")
    assert records[2].query[1] == interner.id_of("NN")


@given(st.lists(st.sampled_from(["the", "cat", "saw", "dog", "wood", "61",
                                 "zzz", "a", "cuts", "."]),
                min_size=1, max_size=12))
@settings(max_examples=50)
def test_output_length_invariant(words):
    model = train(parse_corpus(
        "the/DT cat/NN saw/VBD the/DT saw/NN ./.\n"
        "the/DT dog/NN saw/VBD the/DT cat/NN ./.\n"
        "a/DT saw/NN cuts/VBZ the/DT wood/NN ./."))
    assert len(model.tag(words)) == len(words)
    text = model.interner.text
    assert model.tag(words) == [text(r.prediction)
                                for r in model.tag_records(words)]


def test_variable_context_path_lengths(synth_small):
    """Paths in the known tree stop as soon as context disambiguates, so
    their lengths must not all equal the arity."""
    model = train(synth_small)
    lengths = set()
    for sent in synth_small.sentences[:200]:
        words = [t.word for t in sent]
        for i, rec in enumerate(model.tag_records(words)):
            if rec.route == "known":
                _, steps = model.known_tree.trace(rec.query)
                lengths.add(len(steps))
    assert len(lengths) > 1


# -- explain ---------------------------------------------------------------

def test_explain_unambiguous_known_word(f1):
    model = train(f1)
    exp = model.explain(["the", "cat", "saw", "the", "saw", "."], 0)
    assert exp.route == "known"
    assert exp.prediction == "DT"
    assert len(exp.steps) == 1
    assert exp.steps[0].slot == "f"
    assert exp.steps[0].value == "DT"


def test_explain_unseen_word_uses_unknown_tree(f1):
    model = train(f1)
    exp = model.explain(["blorft"], 0)
    assert exp.route == "unknown"
    assert exp.steps  # path rooted in the unknown tree


def test_explain_saw_focus_then_context(f1):
    model = train(f1)
    exp = model.explain(["the", "cat", "saw", "the", "saw", "."], 2)
    assert exp.route == "known"
    assert exp.prediction == "VBD"
    assert [s.slot for s in exp.steps] == ["f", "a+1"]
    assert exp.steps[0].value == "NN-VBD" and exp.steps[0].matched
    assert exp.steps[1].value == "DT" and exp.steps[1].matched


def test_explain_position_out_of_range(f1):
    model = train(f1)
    with pytest.raises(ParameterError):
        model.explain(["the"], 1)


# -- serialization ---------------------------------------------------------

def test_model_round_trip_bit_exact(f1, tmp_path):
    model = train(f1)
    path = tmp_path / "f1.model"
    model.save(str(path))
    loaded = TaggerModel.load(str(path))
    assert loaded.to_bytes() == model.to_bytes()
    for sent in f1.sentences:
        words = [t.word for t in sent]
        assert loaded.tag(words) == model.tag(words)


def test_model_load_names_the_file(tmp_path):
    missing = tmp_path / "none.model"
    with pytest.raises(ParameterError, match="^no such file: "):
        TaggerModel.load(str(missing))
    bad = tmp_path / "bad.model"
    bad.write_bytes(b"MBT1\x01")
    with pytest.raises(ModelFormatError) as exc:
        TaggerModel.load(str(bad))
    assert str(exc.value) == f"{bad}: truncated model header"


def test_model_round_trip_preserves_config(f1):
    config = TaggerConfig(threshold=0.25,
                          closed_class_tags=frozenset({"DT", "."}),
                          route_numbers_to_unknown=False)
    model = train(f1, config)
    loaded = TaggerModel.from_bytes(model.to_bytes())
    assert loaded.config == config
    assert loaded.known_weights == model.known_weights
    assert loaded.unknown_weights == model.unknown_weights


def test_model_bad_magic(f1):
    data = with_section(train(f1).to_bytes(), "header", header_section(),
                        header_section(magic=b"NOPE"))
    with pytest.raises(ModelFormatError, match="bad magic"):
        TaggerModel.from_bytes(data)


def test_model_version_mismatch(f1):
    data = with_section(train(f1).to_bytes(), "header", header_section(),
                        header_section(version=99))
    with pytest.raises(ModelFormatError, match="version 99 "):
        TaggerModel.from_bytes(data)


def test_readme_model_file_section_names_the_format_version():
    """README's model-file section describes the version the writer
    writes and the reader reads, and names every older one as refused."""
    section = readme_section("Model file")
    version = modelfile.FORMAT_VERSION
    for phrase in (f"Version {version} is a sequence of sections",
                   f"then a u16 version ({version})",
                   f"a version other than {version} (a version 1 to "
                   f"{version - 1} file is named"):
        assert " ".join(phrase.split()) in " ".join(section.split()), phrase


def test_model_truncated(f1):
    """Every proper prefix, the header's included, is refused, and the
    section map refuses it with the same error."""
    data = train(f1).to_bytes()
    for n in range(len(data)):
        with pytest.raises(ModelFormatError) as read_error:
            TaggerModel.from_bytes(data[:n])
        with pytest.raises(ModelFormatError) as map_error:
            modelfile.sections(data[:n])
        assert str(map_error.value) == str(read_error.value)


def test_section_map_of_small_models(f1):
    """The section map of a model with a closed-class list, of one without
    a known tree, and of one without either tree (`check_section_map`)."""
    numerals = parse_corpus("12/CD 3,400/CD\n5.5/CD 77/CD -2/CD")
    models = (train(f1, TaggerConfig(closed_class_tags=frozenset({"DT", "."}),
                                     route_numbers_to_unknown=False)),
              train(numerals),
              train(numerals, TaggerConfig(closed_class_tags=frozenset({"CD"}))))
    assert models[0].known_tree and models[0].unknown_tree
    assert models[1].known_tree is None and models[1].unknown_tree
    assert models[2].known_tree is None and models[2].unknown_tree is None
    for model in models:
        check_section_map(model)


def test_changed_content_fails_on_load(f1):
    """A flag byte other than 0/1, a repeated arc value, an interner table
    that repeats a text, and a closed-class list out of order would each
    load as a different model."""
    model = train(f1)
    data = model.to_bytes()
    texts = list(model.interner)[2:]  # the file stores no marker
    table = interner_table(model)
    config = config_section(model)

    closed_model = train(f1, TaggerConfig(
        closed_class_tags=frozenset({"DT", "."})))
    closed_config = config_section(closed_model)
    assert closed_config.endswith(text_table([".", "DT"]))
    arc = [0, *LEAF]
    for bad, message in (
            (with_section(data, "config", config,
                          config_section(model, has_closed=2)),
             "flag byte 2 "),
            (f1_model_with_known_nodes([0, 2, *arc, *arc]),
             "repeated tree arc value"),
            (with_section(data, "interner", table,
                          text_table([texts[0], *texts])), "repeats a text"),
            (with_section(data, "interner", table, table[:-1] + b"x"),
             "text list does not end with a newline"),
            (with_section(closed_model.to_bytes(), "config", closed_config,
                          config_section(closed_model, closed=["DT", "."])),
             "not sorted and distinct")):
        with pytest.raises(ModelFormatError, match=message):
            TaggerModel.from_bytes(bad)


def test_lexicon_checked_on_load(f1):
    """Every lexicon tag id is a symbol and no marker, every count
    positive, no word or tag repeats, the word list ends with a newline,
    each column has one width, and a recomputed lexicon tag is a
    symbol."""
    model = train(f1)
    words, n_tags, tag_ids, counts = lexicon_columns(model)
    id_of = model.interner.id_of
    n_symbols = len(model.interner)
    i = words.index("cat")  # one tag: NN
    j = sum(n_tags[:i])  # cat's tag in the flattened columns
    assert n_tags[i] == 1 and tag_ids[j] == id_of("NN") and i > 0

    def cat_tags(ids):
        n = [*n_tags[:i], len(ids), *n_tags[i + 1:]]
        t = [*tag_ids[:j], *ids, *tag_ids[j + 1:]]
        c = [*counts[:j], *[1] * len(ids), *counts[j + 1:]]
        return lexicon_section(words, n, t, c)

    def replaced(values, at, value):
        return [*values[:at], value, *values[at + 1:]]

    def columns(*values):
        return b"".join(map(column, values))

    good = f1_model_with_lexicon(
        lexicon_section(words, n_tags, tag_ids, counts))
    assert good == model.to_bytes()
    nn, dt = id_of("NN"), id_of("DT")
    for bad_section, message in (
            (lexicon_section(words, n_tags, replaced(tag_ids, j, n_symbols),
                             counts),
             "tag id is not a symbol"),
            (lexicon_section(words, n_tags, replaced(tag_ids, j, 0), counts),
             "tag id is a marker"),
            (lexicon_section(words, n_tags, replaced(tag_ids, j, 1), counts),
             "tag id is a marker"),
            (lexicon_section(words, n_tags, tag_ids, replaced(counts, j, 0)),
             "count of zero"),
            (cat_tags([]), "count of zero"),
            (lexicon_section(replaced(words, i, words[0]), n_tags, tag_ids,
                             counts),
             "repeats a word"),
            (cat_tags([nn, nn]), "'cat' repeats a tag"),
            (cat_tags([nn, dt]), "'DT-NN' of 'cat' is not a symbol"),
            (text_table(words)[:-1] + b" " + columns(n_tags, tag_ids, counts),
             "text list does not end with a newline"),
            (text_table(words) + column(n_tags, width=2)
             + columns(tag_ids, counts),
             "width 2 is wider than its values"),
            (text_table(words) + b"\x03" + columns(tag_ids, counts),
             "width 3 is not 1, 2 or 4")):
        with pytest.raises(ModelFormatError, match=message):
            TaggerModel.from_bytes(f1_model_with_lexicon(bad_section))


def test_tree_deeper_than_arity_fails_on_load():
    # a chain exactly as deep as the arity is a valid trie shape
    assert TaggerModel.from_bytes(chained_known_tree_model(4)).known_tree
    for depth in (5, 3000):
        with pytest.raises(ModelFormatError, match="below the last feature"):
            TaggerModel.from_bytes(chained_known_tree_model(depth))


def test_hostile_tree_section_fails_on_load(f1):
    """A tree section's ints are checked as a column, then as a tree: one
    width per column, a count the file holds, every int used and none
    missing, every default and arc value a symbol."""
    n_symbols = len(train(f1).interner)
    assert n_symbols < 1 << 8
    chain = [0, 1, 0] * 4 + LEAF
    assert TaggerModel.from_bytes(f1_model_with_known_nodes(chain)).known_tree
    for bad, message in (
            (f1_model_with_known_nodes(chain, width=2),
             "width 2 is wider than its values"),
            (f1_model_with_known_nodes(chain, width=4),
             "width 4 is wider than its values"),
            (f1_model_with_known_nodes(chain, n_ints=(1 << 32) - 1),
             "truncated column"),
            (f1_model_with_known_nodes(chain + [0]), "1 tree values left over"),
            (f1_model_with_known_nodes(chain + LEAF),
             "2 tree values left over"),
            (f1_model_with_known_nodes(chain[:-1]),
             "corrupt model file: list index out of range"),
            (f1_model_with_known_nodes([]),
             "corrupt model file: list index out of range"),
            (f1_model_with_known_nodes([n_symbols, 0]),
             f"tree default {n_symbols} is not a symbol"),
            (f1_model_with_known_nodes([0, 1, n_symbols, *LEAF]),
             f"tree arc value {n_symbols} is not a symbol")):
        with pytest.raises(ModelFormatError, match=message):
            TaggerModel.from_bytes(bad)


def test_tree_without_cases_fails_on_load(f1):
    """`build` refuses an empty base, so a stored case count of 0 (CRC
    recomputed) is refused on load, for either tree."""
    model = train(f1)
    data = model.to_bytes()
    for name in ("known_tree", "unknown_tree"):
        tree = getattr(model, name)
        patched = with_section(data, name, tree_section(tree),
                               tree_section(tree, case_count=0))
        with pytest.raises(ModelFormatError, match="tree with no cases"):
            TaggerModel.from_bytes(patched)


def test_tree_order_follows_gains(f1):
    """The file stores gains but no feature order: the weights section
    holds the ten gains, and the tree sections hold no order. With the
    known gains reversed (CRC recomputed), the loaded tree tests its
    features in the reversed gains' order, and writes the file back."""
    model = train(f1)
    data = model.to_bytes()
    gains = struct.pack("<4d6d", *model.known_weights, *model.unknown_weights)
    for loaded in (model, TaggerModel.from_bytes(data)):
        for tree, weights in ((loaded.known_tree, loaded.known_weights),
                              (loaded.unknown_tree, loaded.unknown_weights)):
            assert tree.feature_order == feature_order(weights)
    reversed_gains = model.known_weights[::-1]
    assert feature_order(reversed_gains) != model.known_tree.feature_order
    patched = with_section(data, "weights", gains, struct.pack(
        "<4d6d", *reversed_gains, *model.unknown_weights))
    loaded = TaggerModel.from_bytes(patched)
    assert loaded.known_weights == reversed_gains
    assert loaded.known_tree.feature_order == feature_order(reversed_gains)
    assert loaded.to_bytes() == patched


def test_write_refuses_tree_out_of_gain_order(f1):
    """A tree that does not test its features in the order of its gains
    could not be read back from a file that stores only the gains."""
    m = train(f1)
    for known_weights, unknown_weights in (
            (m.known_weights[::-1], m.unknown_weights),
            (m.known_weights, m.unknown_weights[::-1])):
        bad = TaggerModel(m.interner, m.lexicon, m.config, known_weights,
                          unknown_weights, m.known_tree, m.unknown_tree,
                          m.fallback_tag)
        with pytest.raises(StructureError,
                           match="is not the order of its gains"):
            bad.to_bytes()
    # without the tree, any gains are written and read back
    no_tree = TaggerModel(m.interner, m.lexicon, m.config,
                          m.known_weights[::-1], m.unknown_weights, None,
                          m.unknown_tree, m.fallback_tag)
    data = no_tree.to_bytes()
    assert TaggerModel.from_bytes(data).known_weights == m.known_weights[::-1]


def test_write_refuses_gains_of_the_wrong_length(f1):
    m = train(f1)
    for known_weights, unknown_weights, message in (
            (m.known_weights[:3], m.unknown_weights,
             "known gains: 3 values for arity 4"),
            (m.known_weights, m.unknown_weights + (0.0,),
             "unknown gains: 7 values for arity 6")):
        for known_tree in (m.known_tree, None):
            bad = TaggerModel(m.interner, m.lexicon, m.config, known_weights,
                              unknown_weights, known_tree, m.unknown_tree,
                              m.fallback_tag)
            with pytest.raises(StructureError, match=message):
                bad.to_bytes()


def test_write_refuses_a_newline_in_the_interner_or_a_word(f1):
    """A text list splits at newlines, so the writer refuses one in an
    interner text or a lexicon word (a closed-class tag: below)."""
    m = train(f1)
    interner = Interner([*list(m.interner)[2:], "x\ny"])
    lexicon = lexicon_from_tag_counts(
        {"a\nb": {"NN": 1}}, Interner(list(m.interner)[2:]))
    for interner, lexicon in ((interner, m.lexicon), (m.interner, lexicon)):
        bad = TaggerModel(interner, lexicon, m.config, m.known_weights,
                          m.unknown_weights, m.known_tree, m.unknown_tree,
                          m.fallback_tag)
        with pytest.raises(StructureError, match="contains a newline"):
            bad.to_bytes()


# Texts without a newline: any code point but "\n" and the surrogates,
# with the empty text, "\r", U+2028 and an astral code point drawn often.
line_text = st.one_of(
    st.sampled_from(["", "\r", "\u2028", "\U0001d518"]),
    st.text(st.characters(codec="utf-8", exclude_characters="\n")))
line_texts = st.lists(line_text)


@pytest.fixture(scope="module")
def f1_model(f1):
    return train(f1)


@given(line_texts, st.binary(max_size=3), st.binary(max_size=3))
def test_text_list_round_trips(texts, before, after):
    data = before + _texts(texts) + after
    assert _read_texts(data, len(before)) == (texts, len(data) - len(after))


@given(line_texts, st.text(), st.text(), st.integers(0, 50))
def test_text_with_a_newline_is_refused(f1_model, texts, head, tail, at):
    bad = head + "\n" + tail
    with pytest.raises(StructureError, match="contains a newline"):
        _texts([*texts[:at], bad, *texts[at:]])
    m = f1_model
    config = TaggerConfig(closed_class_tags=frozenset([*texts, bad]))
    with pytest.raises(StructureError, match="contains a newline"):
        TaggerModel(m.interner, m.lexicon, config, m.known_weights,
                    m.unknown_weights, m.known_tree, m.unknown_tree,
                    m.fallback_tag).to_bytes()


@given(st.lists(line_text, min_size=1), st.data())
def test_cut_or_unterminated_text_list_is_refused(texts, data):
    full = _texts(texts)
    cut = full[:data.draw(st.integers(4, len(full) - 1))]
    with pytest.raises(ModelFormatError, match="truncated text list"):
        _read_texts(cut, 0)
    last = data.draw(st.integers(0, 255).filter(lambda b: b != ord("\n")))
    with pytest.raises(ModelFormatError, match="does not end with a newline"):
        _read_texts(full[:-1] + bytes([last]), 0)


@given(st.lists(st.one_of(st.sampled_from([BOUNDARY, UNKNOWN_MARK]),
                         line_text), unique=True), line_text, st.data())
def test_stored_marker_text_is_an_ordinary_value(texts, new, data):
    """Each stored text, a marker's display text included, gets its index
    + 2; no text maps to a marker id; a repeated text is still refused."""
    interner = Interner(texts)
    for i, text in enumerate(texts):
        assert interner.id_of(text) == i + 2
        assert interner.text(i + 2) == text
    assert interner.intern(new) >= 2
    assert interner.id_of(new) >= 2
    assert interner.text(interner.boundary) == BOUNDARY
    assert interner.text(interner.unknown_mark) == UNKNOWN_MARK
    if texts:
        again = data.draw(st.sampled_from(texts))
        at = data.draw(st.integers(0, len(texts)))
        with pytest.raises(ValueError, match="repeats a text"):
            Interner([*texts[:at], again, *texts[at:]])


def test_tree_section_size_and_stats_bytes(f1, synth_small):
    """A tree's section, after its presence byte, is 9 bytes (case count,
    int count, column width), then its 3·nodes − 1 preorder ints at the
    column's width: 1 byte while every int is below 256, 2 bytes once one
    is not. `stats` counts the same slots at 4 B each, as criterion 4
    counts the expanded store."""
    for corpus in (f1, synth_small):
        m = train(corpus)
        assert len(m.interner) <= 1 << 8
        size = len(m.to_bytes())
        parts = (m.interner, m.lexicon, m.config, m.known_weights,
                 m.unknown_weights)
        for tree, without in (
                (m.known_tree,
                 TaggerModel(*parts, None, m.unknown_tree, m.fallback_tag)),
                (m.unknown_tree,
                 TaggerModel(*parts, m.known_tree, None, m.fallback_tag))):
            st = stats(tree)
            assert size - len(without.to_bytes()) == 9 + 3 * st.nodes - 1
            assert st.serialized_bytes == 4 + 8 * st.nodes + 4 * st.arcs
    interner = Interner(f"s{i}" for i in range(300))
    weights = (0.4, 0.3, 0.2, 0.1)
    tree = IGTree(IGTreeNode(299, {5: IGTreeNode(7, {})}),
                  feature_order(weights), 1)

    def model(known_tree):
        return TaggerModel(interner, Lexicon({}, [], [], [], {}),
                           TaggerConfig(), weights, (0.0,) * 6, known_tree,
                           None, 2)

    data = model(tree).to_bytes()
    assert len(data) - len(model(None).to_bytes()) == 9 + 2 * (3 * 2 - 1)
    assert stats(tree).serialized_bytes == 4 + 8 * 2 + 4 * 1
    assert TaggerModel.from_bytes(data).to_bytes() == data


# The second keeps more tags per word and stores a closed-class list.
ROUND_TRIP_CONFIGS = (TaggerConfig(),
                      TaggerConfig(threshold=0.02,
                                   closed_class_tags=frozenset({"DT", "IN"}),
                                   route_numbers_to_unknown=False))


# Trains on f1 and the corpus of a SynthConfig repr under each TaggerConfig
# repr, and prints each model file in hex, then the hash of a str.
TRAIN_IN_PROCESS = """
import sys
from memtag import SynthConfig, TaggerConfig, read_corpus, synth_corpus, train
f1_path, synth, *configs = sys.argv[1:]
for corpus in (read_corpus(f1_path), synth_corpus(eval(synth))):
    for config in configs:
        print(train(corpus, eval(config)).to_bytes().hex())
print(hash("memtag"))
"""


def test_model_bytes_are_the_same_in_every_process(f1, synth_small):
    """Training depends on no str hash: processes under hash seeds 0 and 1
    write the model files that this process writes, on f1 and a synthetic
    corpus, under both round-trip configs."""
    want = [train(corpus, config).to_bytes().hex()
            for corpus in (f1, synth_small) for config in ROUND_TRIP_CONFIGS]
    hashes = set()
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=os.path.join(ROOT, "src"))
        done = subprocess.run(
            [sys.executable, "-c", TRAIN_IN_PROCESS, F1_PATH,
             repr(SYNTH_SMALL), *map(repr, ROUND_TRIP_CONFIGS)],
            env=env, check=True, capture_output=True, text=True, timeout=300)
        *models, str_hash = done.stdout.split()
        assert models == want
        hashes.add(str_hash)
    assert len(hashes) == 2  # the seeds took effect


def test_interner_holds_feature_values_only(f1, synth_small):
    """A trained model interns exactly the two markers, the corpus tags,
    the lexicon tags and the letters of open-class tokens: no word."""
    for corpus in (f1, synth_small):
        for config in ROUND_TRIP_CONFIGS:
            model = train(corpus, config)
            text = model.interner.text
            tokens = [token for sent in corpus.sentences for token in sent]
            letters = {ch for word, tag in tokens if config.is_open_class(tag)
                       for ch in word[0] + word[-3:]}
            lexicon_tags = {text(e.ambiguous_tag)
                            for e in model.lexicon.entries.values()}
            assert set(model.interner) == ({BOUNDARY, UNKNOWN_MARK, *letters}
                                           | {tag for _, tag in tokens}
                                           | lexicon_tags)


def test_synth_model_round_trip(synth_small):
    """The loaded model is the trained one: lexicon entries (surviving tags
    and lexicon tag included), trees, weights, config and fallback."""
    for config in ROUND_TRIP_CONFIGS:
        model = train(synth_small, config)
        blob = model.to_bytes()
        loaded = TaggerModel.from_bytes(blob)
        assert loaded.to_bytes() == blob
        assert loaded.lexicon == model.lexicon
        assert sum(len(e.surviving_tags) > 1
                   for e in model.lexicon.entries.values()) > 10
        assert list(loaded.interner) == list(model.interner)
        assert loaded.config == model.config == config
        assert loaded.fallback_tag == model.fallback_tag
        assert loaded.known_weights == model.known_weights
        assert loaded.unknown_weights == model.unknown_weights
        for got, want in ((loaded.known_tree, model.known_tree),
                          (loaded.unknown_tree, model.unknown_tree)):
            assert fingerprint(got) == fingerprint(want)


def test_load_and_tag_build_no_lexicon_entries(synth_small, monkeypatch):
    """A load routes from the lexicon columns: loading, tagging, explaining
    and evaluating held-out text (unseen words and numerals included) build
    no LexicalEntry and answer as the trained model does. The first read of
    `.lexicon.entries` builds the entries, and the loaded routing map
    holds every entry's lexicon tag, minus the numerals when they are
    routed unknown."""
    held_out = synth_corpus(SynthConfig(n_tokens=3000, seed=12))
    held_out.sentences.append(parse_corpus(
        "the/DT blorft/NN 61/CD 12,345.6/CD ./.").sentences[0])
    sentences = [[t.word for t in s] for s in held_out.sentences]
    for config in ROUND_TRIP_CONFIGS:
        model = train(synth_small, config)
        blob = model.to_bytes()
        built = count_lexical_entries(monkeypatch)
        loaded = TaggerModel.from_bytes(blob)
        routes = set()
        for words in sentences:
            records = loaded.tag_records(words)
            assert records == model.tag_records(words)
            assert loaded.tag(words) == model.tag(words)
            routes.update((r.route, is_number(r.word),
                           r.word in model.lexicon.tags) for r in records)
        assert loaded.explain(sentences[-1], 2) == model.explain(
            sentences[-1], 2)
        got, want = evaluate(loaded, held_out), evaluate(model, held_out)
        assert ((got.known_total, got.known_correct, got.unknown_total,
                 got.unknown_correct)
                == (want.known_total, want.known_correct, want.unknown_total,
                    want.unknown_correct))
        assert built == []
        assert ("unknown", True, False) in routes  # an unseen numeral
        assert ("unknown", False, False) in routes  # an unseen word
        numerals_unknown = config.route_numbers_to_unknown
        assert loaded._known_tags == {
            word: e.ambiguous_tag
            for word, e in loaded.lexicon.entries.items()
            if not (numerals_unknown and is_number(word))}
        assert len(built) == len(model.lexicon.tags)
        monkeypatch.undo()


def test_trained_and_loaded_lexicons_build_no_entries(synth_small,
                                                      monkeypatch):
    """Training and saving, loading and saving, and an algorithm comparison
    build no LexicalEntry, and each builds one Lexicon, so its routing map
    exactly once. Neither does summary()."""
    built = count_lexical_entries(monkeypatch)
    calls = count_lexicons(monkeypatch)
    model = train(synth_small)
    data = model.to_bytes()
    assert (len(built), len(calls)) == (0, 1)
    loaded = TaggerModel.from_bytes(data)
    assert loaded.to_bytes() == data
    assert loaded.summary() == model.summary()
    assert (len(built), len(calls)) == (0, 2)
    compare_algorithms(Corpus(synth_small.sentences[:300]),
                       Corpus(synth_small.sentences[300:360]))
    assert (len(built), len(calls)) == (0, 3)


def test_all_numeral_lexicon_builds_its_routing_map_once(monkeypatch):
    """With every lexicon word a numeral routed unknown, the routing map is
    empty. Training builds it once, and a load builds no entries."""
    corpus = parse_corpus("12/CD 3,400/CD\n5.5/CD 77/CD -2/CD")
    calls = count_lexicons(monkeypatch)
    model = train(corpus)
    assert len(calls) == 1 and model.known_tree is None
    built = count_lexical_entries(monkeypatch)
    loaded = TaggerModel.from_bytes(model.to_bytes())
    words = ["12", "8", "3,400"]
    assert [r.route for r in loaded.tag_records(words)] == ["unknown"] * 3
    assert loaded.tag(words) == model.tag(words) == ["CD"] * 3
    assert len(calls) == 2 and built == []
    assert loaded.lexicon == model.lexicon
    assert loaded.to_bytes() == model.to_bytes()


def corruptions(blob):
    """1,200 seeded corruptions of a model file: each changes 1 to 4
    consecutive bytes."""
    rng = random.Random(1)
    for _ in range(1200):
        data = bytearray(blob)
        n = rng.randint(1, 4)
        pos = rng.randrange(len(data) - n + 1)
        for k in range(pos, pos + n):
            data[k] ^= rng.randrange(1, 256)
        yield bytes(data)


def f1_models(f1):
    """The f1 model, and the f1 model with a closed-class list in its
    config and numerals on the known route."""
    closed = TaggerConfig(closed_class_tags=frozenset({"DT", "."}),
                          route_numbers_to_unknown=False)
    return train(f1).to_bytes(), train(f1, closed).to_bytes()


def test_corrupt_models_fail_on_checksum(f1):
    """The CRC catches every corruption of 1 to 4 bytes; the magic and the
    version are checked before it."""
    for blob in f1_models(f1):
        for data in corruptions(blob):
            with pytest.raises(ModelFormatError, match="magic|version|CRC"):
                TaggerModel.from_bytes(data)


def test_corrupt_models_fail_on_load_not_while_tagging(f1):
    """The same corruptions with the CRC recomputed reach the body checks:
    each either raises ModelFormatError on load, or loads a model that
    writes the same bytes back and tags and explains every position
    cleanly, an unseen word and a numeral included."""
    sentences = [[t.word for t in s] for s in f1.sentences]
    sentences += [["the", "blorft", "61", "."], ["zzz"]]
    for blob in f1_models(f1):
        rejected = 0
        for data in map(with_crc, corruptions(blob)):
            try:
                model = TaggerModel.from_bytes(data)
            except ModelFormatError:
                rejected += 1
                continue
            assert model.to_bytes() == data
            for words in sentences:
                assert len(model.tag(words)) == len(words)
                for i in range(len(words)):
                    model.explain(words, i)
        assert 0 < rejected < 1200
