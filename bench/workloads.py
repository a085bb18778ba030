"""The two workloads: set-up, timed rounds and output checks.

Every workload runs the whole user path of memtag on its own inputs, one
phase per fresh process, in whole rounds:

train   read and parse a slash-format corpus file, train(), save()
tag     TaggerModel.load (three samples), then tag every held-out sentence
oracle  one compare_algorithms call (IB1, IB1-IG, IGTree) on a test slice

acceptance-300k  the 300k-token acceptance corpus (seed 5); the ~500k words
                 that follow it are tagged, and the first 20 of those
                 sentences are the oracle's test slice.
crossval-105k    fold 0 of the 105k-token criterion-6 corpus (seed 3,
                 folds seed 0) is trained on; the ~500k words that follow the
                 corpus are tagged, and the first 20 sentences of fold 0's
                 test side are the oracle's test slice (criterion 6 on one
                 fold).

Each phase has its own end-to-end figures (train_s, load_s, tag_words_per_s,
oracle_s), so a change to one layer shows in the figure of the phase that
uses it. `--seed` draws the samples the train and oracle checks examine.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import time
from statistics import median, median_low

import checks
from calibration import Timer
from phase import read_lines, write_lines

from memtag import (Corpus, SynthConfig, TaggerConfig, TaggerModel, cv_folds,
                    ib, synth_corpus, write_corpus)
from memtag.corpus import parse_corpus
from memtag.evaluation import known_eval_queries
from memtag.interning import Interner
from memtag.metrics import information_gains
from memtag.taggen import (build_lexicon, extract_known_cases,
                           extract_unknown_cases)

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_REPEATS = 3
PHASE_TIMEOUT_S = 150

ACCEPTANCE_CORPUS = SynthConfig(n_tokens=800_000, seed=5)
ACCEPTANCE_TRAIN_TOKENS = 300_000  # this prefix is the acceptance corpus
CROSSVAL_CORPUS = SynthConfig(n_tokens=605_000, seed=3)
CROSSVAL_TOKENS = 105_000  # this prefix is the criterion-6 corpus
CROSSVAL_FOLDS, CROSSVAL_FOLD_SEED = 10, 0
TRAIN_TOKENS_PER_ROUND = 300_000  # a smaller training file is trained on repeatedly
ORACLE_SENTENCES = 20  # the oracle's test slice: ~3 s per call
TRIE_SAMPLE = 5000  # stored patterns per base
IB_SAMPLE = 20  # exactly matched oracle queries rescanned by the benchmark


class Run:
    """What one run measured and checked."""

    def __init__(self, work_dir: str, src: str, seed: int, seconds: float,
                 trace: bool):
        self.work_dir = work_dir
        self.src = src
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.metrics: dict[str, float] = {}  # figures a run measures once
        self.samples: dict[str, list[float]] = {}  # per round, scaled
        self.raw_samples: dict[str, list[float]] = {}  # per round, wall time
        self.checks: dict[str, list[str]] = {}
        self.attempted = 0
        self.failed = 0
        self.layers: list[dict[str, float]] = []  # one per traced round
        self.overhead: list[float] = []  # traced minus plain, per round
        self.spans: list[dict[str, list[dict]]] = []  # per traced round, per phase

    def path(self, name: str) -> str:
        return os.path.join(self.work_dir, name)

    def check(self, name: str, problems: list[str]) -> None:
        """Record a verdict; a check made every round must pass every round."""
        self.checks.setdefault(name, []).extend(problems)

    def sample(self, name: str, value: float, raw: float | None = None) -> None:
        """One round's figure, scaled to the reference speed when it is a
        time (`raw` is then the wall time)."""
        self.samples.setdefault(name, []).append(value)
        if raw is not None:
            self.raw_samples.setdefault(name, []).append(raw)

    def end_to_end(self) -> dict[str, float]:
        """Medians of the per-round figures, plus the figures measured once."""
        out = {name: median(v) for name, v in self.samples.items()}
        out.update(self.metrics)
        return out

    def raw(self) -> dict[str, float]:
        return {name: median(v) for name, v in self.raw_samples.items()}

    def set_up(self, make):
        """Run `make` SETUP_REPEATS times (once when traced); setup_s is the
        median. Returns the last products."""
        products = None
        for _ in range(1 if self.trace else SETUP_REPEATS):
            products = None  # each set-up starts from the same heap
            with Timer() as t:
                products = make()
            self.sample("setup_s", t.scaled_s, t.raw_s)
        return products

    def rounds(self, do_round) -> None:
        """Whole rounds until the run's seconds have passed."""
        start = time.perf_counter()
        while True:
            do_round()
            if time.perf_counter() - start >= self.seconds:
                return

    def phase(self, spec: dict) -> dict | None:
        """One phase.py process, waited for; None when it failed."""
        try:
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "phase.py"),
                 json.dumps(dict(spec, src=self.src))],
                stdout=subprocess.PIPE, text=True, timeout=PHASE_TIMEOUT_S)
        except subprocess.TimeoutExpired:  # run() has killed and reaped it
            return None
        if proc.returncode != 0:
            return None
        return json.loads(proc.stdout.splitlines()[-1])

    def traced_round(self, layers: dict[str, float],
                     spans: dict[str, list[dict]], overhead: float) -> None:
        self.layers.append(layers)
        self.spans.append(spans)
        self.overhead.append(overhead)

    def layer_medians(self) -> dict[str, float]:
        names = set().union(*self.layers)
        out = {n: median_low(layer[n] for layer in self.layers if n in layer)
               for n in names}
        out["trace.overhead_s"] = median(self.overhead)
        return out


def prefix_length(sentences, n_tokens: int) -> int:
    """Sentences synth_corpus would emit for n_tokens: it stops after the
    sentence that brings the count to n_tokens or more."""
    total = 0
    for i, sent in enumerate(sentences, start=1):
        total += len(sent)
        if total >= n_tokens:
            return i
    return len(sentences)


def read_bytes(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


# -- inputs -----------------------------------------------------------------
# Each returns (training sentences, held-out sentences to tag, the oracle's
# test sentences).

def acceptance_inputs():
    corpus = synth_corpus(ACCEPTANCE_CORPUS)
    k = prefix_length(corpus.sentences, ACCEPTANCE_TRAIN_TOKENS)
    held_out = corpus.sentences[k:]
    return corpus.sentences[:k], held_out, held_out[:ORACLE_SENTENCES]


def crossval_inputs():
    corpus = synth_corpus(CROSSVAL_CORPUS)
    k = prefix_length(corpus.sentences, CROSSVAL_TOKENS)
    train_c, test_c = cv_folds(Corpus(corpus.sentences[:k]), CROSSVAL_FOLDS,
                               CROSSVAL_FOLD_SEED)[0]
    return (train_c.sentences, corpus.sentences[k:],
            test_c.sentences[:ORACLE_SENTENCES])


# -- checks made once per run ------------------------------------------------

def check_model(data: bytes, corpus_text: str, seed: int) -> dict[str, list[str]]:
    """The train checks on one saved model file and the corpus it came from."""
    verdicts = {"train.reload_identical":
                checks.check_reload(data, TaggerModel.from_bytes)}
    if verdicts["train.reload_identical"]:
        return verdicts
    model = TaggerModel.from_bytes(data)
    verdicts["train.lexicon"] = checks.check_lexicon(
        model, corpus_text, TaggerConfig().threshold)
    if verdicts["train.lexicon"]:
        return verdicts
    corpus = parse_corpus(corpus_text)
    rng = random.Random(seed)
    problems = verdicts["train.trie_majority"] = []
    for extract, tree in ((extract_known_cases, model.known_tree),
                          (extract_unknown_cases, model.unknown_tree)):
        items = list(extract(corpus, model.lexicon, model.interner,
                             model.config).items())
        sample = rng.sample(items, min(TRIE_SAMPLE, len(items)))
        problems += checks.check_trie_majority(sample, tree.classify,
                                               model.interner.text)
    return verdicts


class Oracle:
    """The oracle's inputs as compare_algorithms builds them, for the checks."""

    def __init__(self, train_c: Corpus, test_c: Corpus):
        config = TaggerConfig()
        self.interner = Interner()
        lexicon = build_lexicon(train_c, self.interner, config.threshold)
        self.base = extract_known_cases(train_c, lexicon, self.interner, config)
        self.weights = information_gains(self.base)
        self.distinct = list(dict.fromkeys(
            q for q, _ in known_eval_queries(test_c, lexicon, self.interner,
                                             config)))

    def check_ib1ig(self, seed: int) -> list[str]:
        """Only a query with no exact stored match depends on the weights
        and on how the nearest set is pooled, so all of those are checked,
        with a seeded sample of the others."""
        base = self.base
        exact = [q for q in self.distinct if q in base.patterns]
        sample = [q for q in self.distinct if q not in base.patterns]
        sample += random.Random(seed).sample(exact, min(IB_SAMPLE, len(exact)))
        return checks.check_ib1ig(
            list(base.items()), self.weights, sample,
            lambda q: ib.classify_ib1ig(base, self.weights, q),
            self.interner.text)


# -- the rounds ---------------------------------------------------------------

def run_pipeline(run: Run, inputs) -> None:
    corpus_path = run.path("train.tagged")
    model_path = run.path("model.mbt")
    text_path = run.path("heldout.txt")
    gold_path = run.path("heldout.gold")
    out_path = run.path("heldout.tags")
    oracle_path = run.path("oracle-test.tagged")

    def make():
        train_sents, held_out, oracle_sents = inputs()
        write_corpus(Corpus(train_sents), corpus_path)
        write_lines(text_path, ([w for w, _ in sent] for sent in held_out))
        write_lines(gold_path, ([t for _, t in sent] for sent in held_out))
        write_corpus(Corpus(oracle_sents), oracle_path)
        return train_sents, held_out, oracle_sents

    train_sents, held_out, oracle_sents = run.set_up(make)
    words = [[w for w, _ in sent] for sent in held_out]
    gold = [[t for _, t in sent] for sent in held_out]
    del held_out
    n_train_tokens = sum(map(len, train_sents))
    train_tags = {t for sent in train_sents for _, t in sent}
    baseline = checks.baseline_tagger(train_sents)
    baseline_acc = checks.accuracy([baseline(w) for w in words], gold)
    oracle = Oracle(Corpus(train_sents), Corpus(oracle_sents))
    del train_sents, oracle_sents

    models: list[bytes] = []
    first_tags: list[bytes] = []
    results: list[dict] = []
    repeats = max(1, round(TRAIN_TOKENS_PER_ROUND / n_train_tokens))
    train_spec = {"phase": "train", "corpus": corpus_path, "model": model_path,
                  "repeats": repeats}
    tag_spec = {"phase": "tag", "model": model_path, "text": text_path,
                "gold": gold_path, "out": out_path}
    oracle_spec = {"phase": "oracle", "corpus": corpus_path,
                   "test": oracle_path}

    def verify_tags() -> bytes:
        """Checks the first round's tags; later rounds must repeat them."""
        data = read_bytes(out_path)
        if not first_tags:
            first_tags.append(data)
            tagged = read_lines(out_path)
            run.check("tag.one_tag_per_word", checks.check_one_tag_per_word(words, tagged))
            run.check("tag.tags_seen_in_training", checks.check_tags_seen(tagged, train_tags))
            acc = checks.accuracy(tagged, gold)
            run.check("tag.beats_baseline", checks.check_beats_baseline(acc, baseline_acc))
            run.metrics["accuracy"] = acc
        run.check("tag.same_output_every_round",
                  [] if data == first_tags[0] else ["tags differ from the first round's"])
        return data

    def one_round():
        # Operations: each model trained, each sentence tagged, each distinct
        # oracle query. The traced phases run once each.
        ops = repeats + len(words) + len(oracle.distinct)
        if run.trace:
            ops += 1 + len(words) + len(oracle.distinct)
        run.attempted += ops
        layers: dict[str, float] = {}
        spans: dict[str, list[dict]] = {}
        overhead = 0.0

        plain = run.phase(dict(train_spec, trace=False))
        if plain is None:  # no model, so nothing else in the round can run
            run.failed += ops
            return
        peaks = [plain["peak_rss_mib"]]
        for scaled_s, raw_s in zip(plain["train_s"], plain["raw_train_s"]):
            run.sample("train_s", scaled_s, raw_s)
        models.append(read_bytes(model_path))
        run.check("train.same_model_every_round",
                  [] if models[-1] == models[0] else
                  ["model bytes differ from the first round's"])
        if run.trace:
            traced_path = run.path("assembled.mbt")
            traced = run.phase(dict(train_spec, trace=True, model=traced_path))
            if traced is None:
                run.failed += 1
            else:
                run.check("train.traced_layers_equal_train",
                          [] if read_bytes(traced_path) == models[-1] else
                          ["model assembled layer by layer differs from train()'s"])
                layers.update(traced["layers"])
                spans["train"] = traced["spans"]
                overhead += traced["train_s"] - plain["raw_train_s"][0]

        plain = run.phase(dict(tag_spec, trace=False))
        if plain is None:
            run.failed += len(words)
        else:
            run.failed += plain["failed"]
            peaks.append(plain["peak_rss_mib"])
            for scaled_s, raw_s in zip(plain["load_s"], plain["raw_load_s"]):
                run.sample("load_s", scaled_s, raw_s)
            for n, scaled_s, raw_s in zip(plain["tag_words"], plain["tag_s"],
                                          plain["raw_tag_s"]):
                run.sample("tag_words_per_s", n / scaled_s, n / raw_s)
            plain_tags = verify_tags()
            if run.trace:
                traced = run.phase(dict(tag_spec, trace=True))
                if traced is None:
                    run.failed += len(words)
                else:
                    run.check("tag.traced_output_equal",
                              [] if read_bytes(out_path) == plain_tags else
                              ["traced tagging output differs from the plain run's"])
                    layers.update(traced["layers"])
                    spans["tag"] = traced["spans"]
                    overhead += (traced["load_s"] + traced["tag_s"]
                                 - plain["raw_load_s"][0] - sum(plain["raw_tag_s"]))

        plain = run.phase(dict(oracle_spec, trace=False))
        if plain is None:
            run.failed += len(oracle.distinct)
        else:
            peaks.append(plain["peak_rss_mib"])
            run.sample("oracle_s", plain["oracle_s"], plain["raw_oracle_s"])
            results.append(plain["result"])
            run.check("verify.igtree_ib1ig_parity", checks.check_parity(plain["result"]))
            if run.trace:
                traced = run.phase(dict(oracle_spec, trace=True))
                if traced is None:
                    run.failed += len(oracle.distinct)
                else:
                    n = traced["layers"]["ib.distinct_queries"]
                    run.check("verify.traced_result_equal",
                              [] if traced["result"] == plain["result"] else
                              ["traced result differs"])
                    run.check("verify.distinct_queries",
                              [] if n == len(oracle.distinct) else
                              [f"oracle classified {n} queries, "
                               f"{len(oracle.distinct)} are distinct"])
                    layers.update(traced["layers"])
                    spans["oracle"] = traced["spans"]
                    overhead += traced["oracle_s"] - plain["raw_oracle_s"]

        run.sample("peak_rss_mib", max(peaks))
        if run.trace and len(spans) == 3:
            run.traced_round(layers, spans, overhead)

    run.rounds(one_round)
    if models:
        run.metrics["model_bytes"] = len(models[0])
        with open(corpus_path, encoding="utf-8") as fh:
            text = fh.read()
        for name, problems in check_model(models[0], text, run.seed).items():
            run.check(name, problems)
    if results:
        run.check("verify.same_result_every_round",
                  [] if all(r == results[0] for r in results) else
                  ["accuracies differ between rounds"])
        run.check("verify.ib1ig_equals_scan", oracle.check_ib1ig(run.seed))


WORKLOADS = {
    "acceptance-300k": lambda run: run_pipeline(run, acceptance_inputs),
    "crossval-105k": lambda run: run_pipeline(run, crossval_inputs),
}
