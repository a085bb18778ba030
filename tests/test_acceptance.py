"""Acceptance suite: one test per shipped claim, each printing a PASS/FAIL
line (run with -s to watch them). The heavyweight corpora are shared
session fixtures; every tolerance is fixed here, not tuned at run time.
"""

import hashlib
import random
import time

import pytest

from conftest import PV_LEXICON, PV_SENTENCE, random_case_base, texts
from memtag.casebase import CaseBase
from memtag.corpus import cv_folds, parse_corpus
from memtag.evaluation import compare_algorithms, evaluate, learning_curve
from memtag.ib import classify_ib1ig
from memtag.igtree import build, prune, stats
from memtag.interning import Interner
from memtag.metrics import (class_entropy, distance_overlap,
                            distance_weighted, information_gains)
from memtag.taggen import (TaggerConfig, TaggerModel, build_lexicon,
                           extract_known_cases, extract_unknown_cases,
                           lexicon_from_tag_counts, train)


def _report(num, name, fn):
    try:
        fn()
    except BaseException:
        print(f"ACCEPTANCE {num} {name}: FAIL")
        raise
    print(f"ACCEPTANCE {num} {name}: PASS")


@pytest.fixture(scope="module")
def model_100k(synth_100k):
    return train(synth_100k)


# -- 1. oracle equivalence -------------------------------------------------

def test_criterion_1_oracle_equivalence():
    def check():
        t0 = time.perf_counter()
        n_bases = 0
        seed = 0
        while n_bases < 20:
            base, rng = random_case_base(seed)
            seed += 1
            weights = information_gains(base)
            if min(weights) <= 1e-9:
                continue
            n_bases += 1
            unpruned = build(base, weights)
            tree = prune(unpruned)
            for vec in base.patterns:
                assert tree.classify(vec) == classify_ib1ig(base, weights, vec)
            n_symbols = len(base.interner)
            for _ in range(10_000):
                q = tuple(rng.randrange(n_symbols + 2)
                          for _ in range(base.arity))
                assert unpruned.classify(q) == tree.classify(q)
        elapsed = time.perf_counter() - t0
        assert n_bases >= 20
        assert elapsed < 60.0, f"took {elapsed:.1f}s"

    _report(1, "oracle equivalence", check)


# -- 2. metric identities ----------------------------------------------------

def test_criterion_2_metric_identities():
    def check():
        rng = random.Random(0)
        for _ in range(100_000):
            arity = rng.randint(1, 6)
            x = tuple(rng.randrange(8) for _ in range(arity))
            y = tuple(rng.randrange(8) for _ in range(arity))
            assert distance_weighted(x, y, (1.0,) * arity) == distance_overlap(x, y)
        for ds in range(100):
            interner = Interner()
            classes = [interner.intern(f"C{i}")
                       for i in range(rng.randint(2, 5))]
            const = interner.intern("const")
            cases = []
            for _ in range(rng.randint(2, 80)):
                cls = rng.choice(classes)
                # feature 0 constant, feature 1 mirrors the class exactly,
                # feature 2 random
                cases.append(((const,
                               interner.intern(f"mirror_{cls}"),
                               interner.intern(f"r{rng.randrange(4)}")),
                              cls))
            base = CaseBase(3, interner, cases)
            gains = information_gains(base)
            assert abs(gains[0]) <= 1e-9
            assert abs(gains[1] - class_entropy(base)) <= 1e-9

    _report(2, "metric identities", check)


# -- 3. case-representation transcription -----------------------------------

def test_criterion_3_table_transcription():
    def check():
        corpus = parse_corpus(PV_SENTENCE)
        interner = Interner()
        lexicon = lexicon_from_tag_counts(PV_LEXICON, interner)

        keep_numbers = TaggerConfig(route_numbers_to_unknown=False)
        known = extract_known_cases(corpus, lexicon, interner, keep_numbers)
        rows = [(texts(interner, v), texts(interner, d))
                for v, d in known.items()]
        assert rows[:6] == [
            (("=", "=", "np", "np"), ("np",)),
            (("=", "np", "np", ","), ("np",)),
            (("np", "np", ",", "cd"), (",",)),
            (("np", ",", "cd", "nns"), ("cd",)),
            ((",", "cd", "nns", "jj-np"), ("nns",)),
            (("cd", "nns", "jj-np", ","), ("jj",)),
        ]

        unknown = extract_unknown_cases(corpus, lexicon, interner)
        urows = [(texts(interner, v), texts(interner, d))
                 for v, d in unknown.items()]
        assert urows[:5] == [
            (("P", "=", "np", "r", "r", "e"), ("np",)),
            (("V", "np", ",", "k", "e", "n"), ("np",)),
            (("6", ",", "nns", "=", "6", "1"), ("cd",)),
            (("y", "cd", "jj-np", "a", "r", "s"), ("nns",)),
            (("o", "nns", ",", "o", "l", "d"), ("jj",)),
        ]

    _report(3, "case representation transcription", check)


# -- 4. compression ----------------------------------------------------------

def test_criterion_4_compression(synth_100k):
    def check():
        t0 = time.perf_counter()
        interner = Interner()
        lexicon = build_lexicon(synth_100k, interner)
        base = extract_known_cases(synth_100k, lexicon, interner)
        assert base.total_cases >= 100_000
        tree = prune(build(base, information_gains(base)))
        st = stats(tree)
        elapsed = time.perf_counter() - t0
        ratio = st.serialized_bytes / st.expanded_bytes
        assert ratio <= 0.10, f"tree is {100 * ratio:.1f}% of expanded storage"
        assert elapsed < 120.0, f"took {elapsed:.1f}s"

    _report(4, "compression", check)


# -- 5. speed ----------------------------------------------------------------

def test_criterion_5_speed(synth_100k, model_100k):
    def check():
        interner = model_100k.interner
        config = model_100k.config
        lexicon = model_100k.lexicon
        base = extract_known_cases(synth_100k, lexicon, interner, config)
        assert base.total_cases >= 100_000
        weights = information_gains(base)
        tree = prune(build(base, weights))

        queries = list(base.patterns)
        rng = random.Random(0)
        rng.shuffle(queries)

        # The >=50x gate times the trie against the brute-force scan, the
        # definition, not against ib.OverlapIndex.
        brute = queries[:40]
        for q in brute[:5]:
            classify_ib1ig(base, weights, q)
        t0 = time.perf_counter()
        for q in brute:
            classify_ib1ig(base, weights, q)
        brute_qps = len(brute) / (time.perf_counter() - t0)

        fast = (queries * (60_000 // len(queries) + 1))[:60_000]
        for q in fast[:100]:
            tree.classify(q)
        t0 = time.perf_counter()
        for q in fast:
            tree.classify(q)
        tree_qps = len(fast) / (time.perf_counter() - t0)

        ratio = tree_qps / brute_qps
        assert ratio >= 50.0, f"speedup only {ratio:.0f}x"

        report = evaluate(model_100k, synth_100k)
        assert report.words_per_second >= 10_000, (
            f"only {report.words_per_second:,.0f} words/s")

    _report(5, "speed", check)


# -- 6. accuracy parity -------------------------------------------------------

def test_criterion_6_accuracy_parity(synth_100k):
    def check():
        assert synth_100k.token_count >= 100_000
        t0 = time.perf_counter()
        per_fold = [compare_algorithms(tr, te)
                    for tr, te in cv_folds(synth_100k, 10, 0)]
        elapsed = time.perf_counter() - t0
        assert len(per_fold) == 10
        for accs in per_fold:
            gap = abs(accs["igtree"] - accs["ib1ig"])
            assert gap <= 0.010 + 1e-12, f"fold gap {100 * gap:.2f}pp"
        mean_ig = sum(a["igtree"] for a in per_fold) / len(per_fold)
        mean_ib1 = sum(a["ib1"] for a in per_fold) / len(per_fold)
        assert mean_ig >= mean_ib1
        # IB1 and IB1-IG go through ib.OverlapIndex; a fall back to the
        # brute-force scan would take minutes.
        assert elapsed < 60.0, f"took {elapsed:.1f}s"

    _report(6, "accuracy parity", check)


# -- 7. learning curve --------------------------------------------------------

def test_criterion_7_learning_curve(synth_300k):
    def check():
        assert synth_300k.token_count >= 300_000
        sizes = [30_000 + 27_000 * i for i in range(11)]
        points = learning_curve(synth_300k, sizes, k=10, seed=0)
        assert len(points) == 11
        deltas = [points[i + 1].mean_accuracy - points[i].mean_accuracy
                  for i in range(10)]
        non_decreasing = sum(d >= -1e-12 for d in deltas)
        assert non_decreasing >= 8, f"only {non_decreasing}/10 steps"
        assert points[-1].stddev <= points[0].stddev

    _report(7, "learning curve", check)


# -- 8. training-set consistency ----------------------------------------------

def _consistency(corpus, config=TaggerConfig()):
    """Tag the training corpus with gold left context. Every known-route
    query, and every unknown-route query of an open-class token, must be a
    case training stored; every query stored with one class must get it."""
    model = train(corpus, config)
    interner = model.interner
    bases = {
        "known": extract_known_cases(corpus, model.lexicon, interner, config),
        "unknown": extract_unknown_cases(corpus, model.lexicon, interner,
                                         config)}
    queries = {"known": 0, "unknown": 0}
    missing = {"known": 0, "unknown": 0}
    checked = failures = 0
    text = interner.text
    for sent in corpus.sentences:
        words = [t.word for t in sent]
        gold = [t.tag for t in sent]
        records = model.tag_records(words, gold_left=gold)
        for i, rec in enumerate(records):
            if rec.route == "unknown" and not config.is_open_class(gold[i]):
                continue
            queries[rec.route] += 1
            dist = bases[rec.route].patterns.get(rec.query)
            if dist is None:
                missing[rec.route] += 1
            elif len(dist) == 1:
                checked += 1
                if text(rec.prediction) != gold[i]:
                    failures += 1
    return queries, missing, checked, failures


def test_criterion_8_training_set_consistency(f1, synth_medium):
    def check():
        runs = ((f1, TaggerConfig()), (synth_medium, TaggerConfig()),
                (synth_medium, TaggerConfig(route_numbers_to_unknown=False)))
        unknown_queries = []
        for corpus, config in runs:
            queries, missing, checked, failures = _consistency(corpus, config)
            assert checked > 0
            assert missing == {"known": 0, "unknown": 0}, \
                f"queries not stored: {missing} of {queries}"
            assert failures == 0, f"{failures}/{checked} unambiguous misses"
            unknown_queries.append(queries["unknown"])
        # synth_medium's numerals take the unknown route only by default.
        assert unknown_queries[1] > 0 and unknown_queries[2] == 0

    _report(8, "training-set consistency", check)


# -- 9. determinism -------------------------------------------------------------

def test_criterion_9_determinism(f1, synth_medium, tmp_path):
    def check():
        for corpus in (f1, synth_medium):
            blob1 = train(corpus).to_bytes()
            blob2 = train(corpus).to_bytes()
            assert blob1 == blob2
            path = tmp_path / "model.bin"
            with open(path, "wb") as fh:
                fh.write(blob1)
            loaded = TaggerModel.load(str(path))
            assert loaded.to_bytes() == blob1

    _report(9, "determinism", check)


# -- pinned model bytes ---------------------------------------------------------

NON_DEFAULT = TaggerConfig(route_numbers_to_unknown=False,
                           closed_class_tags=frozenset({"DT", "."}))


def test_model_bytes_pinned(model_100k, synth_100k, synth_medium):
    """Model files are byte-identical to those of earlier releases: a
    change to training or to the model format that alters a model's bytes
    must say so and re-pin."""
    def sha1(model):
        return hashlib.sha1(model.to_bytes()).hexdigest()

    assert sha1(model_100k) == "30cdf02cf00ddb7909884d34a0ac0c928cb3b182"
    assert (sha1(train(synth_100k, NON_DEFAULT))
            == "6b28af4480295be61db3f43f16400bdacc20a02a")
    assert sha1(train(synth_medium)) == "521481b4d1ae22b28bd0b15fd35ecad439212921"
    assert (sha1(train(synth_medium, NON_DEFAULT))
            == "20b18c4c2f6c8d23335fd793536710ab3b4c4c06")
