"""The benchmark under bench/ reads memtag's names: the model constructor,
the lexicon's entries, the extractors, the layers it times one by one, a
parsed corpus's sentences and tokens. Its train checks, its traced train
and oracle phases and its corpus readers, run here on small inputs, fail on
a change that breaks one of them."""

import os
from collections import Counter

from memtag.corpus import (Corpus, format_corpus, parse_corpus, read_corpus,
                           write_corpus)
from memtag.evaluation import compare_algorithms
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


def test_bench_traced_train_writes_train_bytes(synth_small, tmp_path,
                                               monkeypatch):
    """The traced phase calls train()'s layers one by one and must assemble
    the model train() writes: the benchmark's train.traced_layers_equal_train
    check."""
    monkeypatch.syspath_prepend(BENCH)
    import phase
    corpus, model = str(tmp_path / "train.tagged"), tmp_path / "m.mbt"
    write_corpus(synth_small, corpus)
    result = phase.train_traced({"corpus": corpus, "model": str(model)})
    assert model.read_bytes() == train(read_corpus(corpus)).to_bytes()
    assert result["layers"]["igtree.known_bytes"] > 0


def test_bench_traced_oracle_equals_compare_algorithms(synth_small, tmp_path,
                                                        monkeypatch):
    """The traced oracle wraps compare_algorithms' layers for one call: it
    must answer as the plain call does, and count the IB1-IG queries."""
    monkeypatch.syspath_prepend(BENCH)
    import phase
    train_c = Corpus(synth_small.sentences[:200])
    test_c = Corpus(synth_small.sentences[200:220])
    paths = {"corpus": str(tmp_path / "train.tagged"),
             "test": str(tmp_path / "test.tagged")}
    write_corpus(train_c, paths["corpus"])
    write_corpus(test_c, paths["test"])
    result = phase.oracle_traced(paths)
    assert result["result"] == compare_algorithms(train_c, test_c)
    assert result["layers"]["ib.distinct_queries"] > 0


def test_bench_reads_corpus_sentences_and_tokens(synth_small, monkeypatch):
    """workloads.prefix_length counts each parsed sentence's tokens, and
    checks.baseline_tagger reads each token as a (word, tag) pair; both are
    checked against counts taken from the corpus text itself."""
    monkeypatch.syspath_prepend(BENCH)
    import checks
    import workloads
    lines = format_corpus(synth_small).splitlines()
    sentences = parse_corpus("\n".join(lines)).sentences
    lengths = [len(line.split()) for line in lines]
    total = sum(lengths)
    for n_tokens in (1, lengths[0], lengths[0] + 1, total // 2, total,
                     total + 1):
        seen, want = 0, len(lines)
        for i, length in enumerate(lengths, start=1):
            seen += length
            if seen >= n_tokens:
                want = i
                break
        assert workloads.prefix_length(sentences, n_tokens) == want
    counts: dict[str, Counter] = {}
    for line in lines[:200]:
        for item in line.split():
            word, _, tag = item.rpartition("/")
            counts.setdefault(word, Counter())[tag] += 1
    baseline = checks.baseline_tagger(sentences[:200])
    words = sorted(counts)
    assert baseline(words) == [
        min(counts[w], key=lambda t: (-counts[w][t], t)) for w in words]
