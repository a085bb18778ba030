"""The benchmark under bench/ reads memtag's names: the model constructor,
the lexicon's entries, the extractors. Its train checks, run here on a
small trained model, fail on a change that breaks one of them."""

import os

from memtag.corpus import format_corpus
from memtag.taggen import train

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "bench")


def test_bench_model_checks_pass(synth_small, monkeypatch):
    monkeypatch.syspath_prepend(BENCH)
    import workloads
    data = train(synth_small).to_bytes()
    verdicts = workloads.check_model(data, format_corpus(synth_small), 0)
    assert verdicts == {"train.reload_identical": [], "train.lexicon": [],
                        "train.trie_majority": []}
