"""Tests of the benchmark itself: every correctness check passes on real
output of small inputs and rejects a deliberately wrong output.

    python3 -m pytest bench/test_bench.py
"""

import json
import os
import random
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import pytest  # noqa: E402

import calibration  # noqa: E402
import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from memtag import (Corpus, SynthConfig, TaggerConfig, compare_algorithms,  # noqa: E402
                    cv_folds, ib, synth_corpus, train)
from memtag.corpus import format_corpus  # noqa: E402
from memtag.evaluation import known_eval_queries  # noqa: E402
from memtag.interning import Interner  # noqa: E402
from memtag.metrics import information_gains  # noqa: E402
from memtag.taggen import build_lexicon, extract_known_cases  # noqa: E402


@pytest.fixture(scope="module")
def split():
    """A small corpus cut like acceptance-300k's: a training prefix and the
    held-out rest."""
    corpus = synth_corpus(SynthConfig(n_tokens=13_000, seed=5))
    k = workloads.prefix_length(corpus.sentences, 3_000)
    prefix, rest = corpus.sentences[:k], corpus.sentences[k:]
    return prefix, rest, train(Corpus(prefix))


def test_prefix_is_the_smaller_corpus():
    big = synth_corpus(SynthConfig(n_tokens=13_000, seed=5))
    small = synth_corpus(SynthConfig(n_tokens=3_000, seed=5))
    k = workloads.prefix_length(big.sentences, 3_000)
    assert big.sentences[:k] == small.sentences


# -- train -------------------------------------------------------------------

def test_model_checks_pass(split):
    prefix, _, model = split
    verdicts = workloads.check_model(model.to_bytes(),
                                     format_corpus(Corpus(prefix)), seed=1)
    assert verdicts == {"train.reload_identical": [], "train.lexicon": [],
                        "train.trie_majority": []}


def _lexicon_section(model) -> range:
    """Byte range of the lexicon section in the model file."""
    start = 6 + 4 + sum(4 + len(t.encode("utf-8")) for t in model.interner)
    size = 4 + sum(4 * (4 + len(e.surviving_tags) + 2 * len(e.tag_counts))
                   for e in model.lexicon.entries.values())
    return range(start, start + size)


def test_model_checks_reject_a_flipped_byte(split):
    prefix, _, model = split
    data = model.to_bytes()
    text = format_corpus(Corpus(prefix))
    lexicon = _lexicon_section(model)
    positions = [0, 4, len(data) - 1, lexicon.start, lexicon.stop - 1]
    positions += random.Random(0).sample(lexicon, 150)
    for pos in positions:
        for mask in (0x01, 0x80):
            flipped = bytearray(data)
            flipped[pos] ^= mask
            verdicts = workloads.check_model(bytes(flipped), text, seed=1)
            assert any(verdicts.values()), f"flip {mask:#x} at byte {pos} passed"


def test_trie_check_rejects_another_class(split):
    prefix, _, model = split
    base = extract_known_cases(Corpus(prefix), model.lexicon, model.interner,
                               model.config)
    items = list(base.items())[:300]
    classify = model.known_tree.classify
    text = model.interner.text
    assert checks.check_trie_majority(items, classify, text) == []
    target = items[7][0]
    other = next(c for c in base.class_counts() if c != classify(target))
    wrong = lambda vec: other if vec == target else classify(vec)  # noqa: E731
    assert len(checks.check_trie_majority(items, wrong, text)) == 1


# -- tag ---------------------------------------------------------------------

def test_tag_checks(split):
    prefix, rest, model = split
    words = [[w for w, _ in sent] for sent in rest]
    gold = [[t for _, t in sent] for sent in rest]
    train_tags = {t for sent in prefix for _, t in sent}
    baseline = checks.baseline_tagger(prefix)
    baseline_acc = checks.accuracy([baseline(w) for w in words], gold)
    tagged = [model.tag(w) for w in words]

    assert checks.check_one_tag_per_word(words, tagged) == []
    assert checks.check_tags_seen(tagged, train_tags) == []
    assert checks.check_beats_baseline(checks.accuracy(tagged, gold), baseline_acc) == []

    # Every tag moved one word to the right, the last wrapping to the front.
    shifted = [tags[-1:] + tags[:-1] for tags in tagged]
    assert checks.check_one_tag_per_word(words, shifted) == []
    assert checks.check_beats_baseline(checks.accuracy(shifted, gold), baseline_acc)
    # Every tag moved one word to the left, so each sentence is one short.
    assert checks.check_one_tag_per_word(words, [tags[1:] for tags in tagged])
    assert checks.check_tags_seen([["NN", "XX"]], train_tags)


# -- verify ------------------------------------------------------------------

def test_verify_checks():
    corpus = synth_corpus(SynthConfig(n_tokens=6_000, seed=3))
    train_c, test_c = cv_folds(corpus, 10, 0)[0]
    assert checks.check_parity(compare_algorithms(train_c, test_c)) == []
    assert checks.check_parity({"ib1": 0.9, "ib1ig": 0.97, "igtree": 0.955})

    config = TaggerConfig()
    interner = Interner()
    lexicon = build_lexicon(train_c, interner, config.threshold)
    base = extract_known_cases(train_c, lexicon, interner, config)
    weights = information_gains(base)
    queries = list(dict.fromkeys(
        q for q, _ in known_eval_queries(test_c, lexicon, interner, config)))[:40]
    patterns = list(base.items())

    def classify(q):
        return ib.classify_ib1ig(base, weights, q)

    assert checks.check_ib1ig(patterns, weights, queries, classify, interner.text) == []
    target = queries[3]
    other = next(c for c in base.class_counts() if c != classify(target))
    wrong = lambda q: other if q == target else classify(q)  # noqa: E731
    assert len(checks.check_ib1ig(patterns, weights, queries, wrong, interner.text)) == 1


# -- tracing and the runner --------------------------------------------------

def test_tracer_self_time_and_coverage(monkeypatch):
    ticks = iter([0.0, 1.0, 3.0, 4.0])
    monkeypatch.setattr(tracing.time, "perf_counter", lambda: next(ticks))
    tr = tracing.Tracer()
    with tr.span("outer"):
        with tr.span("inner"):
            pass
    assert tr.self_times() == {"outer": 2.0, "inner": 2.0}
    assert tr.covered_share("outer") == 0.5
    assert [r["parent"] for r in tr.rows()] == [None, 0]


def test_timer_leaves_out_its_slices():
    previous = signal.getsignal(signal.SIGALRM)
    with calibration.Timer() as t:
        time.sleep(0.2)
    assert t._slices >= 4
    assert 0.19 < t.raw_s + t._slice_s and t.raw_s < 0.2
    assert t.scaled_s > 0
    assert signal.getsignal(signal.SIGALRM) is previous
    with calibration.Timer() as t:  # shorter than one slice interval
        pass
    assert t.scaled_s >= 0 and t._slices == 1


def test_timer_adds_up_its_blocks():
    t = calibration.Timer()
    for _ in range(3):
        with t:
            time.sleep(0.05)
        time.sleep(0.1)  # between blocks: not timed
    assert 0.14 < t.raw_s + t._slice_s < 0.25
    assert t._slices >= 3 and t.scaled_s > 0


def test_runner_fails_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    with open(tmp_path / "BENCHMARK.json", encoding="utf-8") as fh:
        command = json.load(fh)["command"]
    proc = subprocess.run(
        [sys.executable, *command[1:], "--workload", "crossval-105k", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_split_text_keeps_every_sentence_in_order():
    import phase
    sentences = [["w"] * n for n in (3, 9, 1, 4, 4, 7, 2)]
    parts = phase.split_text(sentences, 2)
    assert len(parts) == 2 and sum(parts, []) == sentences
    assert [sum(map(len, p)) for p in parts] == [17, 13]
    assert phase.split_text(sentences[:1], 2) == [sentences[:1], []]
