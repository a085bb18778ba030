"""One timed phase of a round (train, tag or oracle), in a fresh process.

    python3 bench/phase.py SPEC_JSON

Set-up hands its products over on disk, so the peak resident memory of this
process is what a user's own training, tagging or evaluation process would
hold, and no phase's heap slows the next one down. The phase prints one JSON
object on its standard output; run.py starts it and waits for it.
"""

from __future__ import annotations

import json
import os
import sys
import traceback
from collections import Counter

from calibration import Timer
from tracing import Tracer

TRACE_BATCH = 25  # sentences per traced tagging span
# A load sample is one load or, for a small model, the mean of a group of
# loads: ~0.15 s of loading either way. A round takes LOAD_GROUPS samples.
LOAD_GROUP_BYTES = 1_200_000
LOAD_GROUPS = 3
TAG_PARTS = 2  # tagging samples per round, each over one part of the text


def peak_rss_mib() -> float:
    """Peak resident memory of this process image. VmHWM, unlike
    getrusage's ru_maxrss, leaves out the parent's peak, which the kernel
    carries over into a child that was forked and then exec'd."""
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM line in /proc/self/status")


def read_lines(path: str) -> list[list[str]]:
    """One list of space-separated items per line: words or tags."""
    with open(path, encoding="utf-8") as fh:
        return [line.split() for line in fh]


def write_lines(path: str, rows) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(" ".join(row) + "\n" for row in rows)


def size_counts(model, model_bytes: int) -> dict[str, int]:
    from memtag.igtree import stats
    known, unknown = stats(model.known_tree), stats(model.unknown_tree)
    return {
        "interning.symbols": len(model.interner),
        "igtree.known_nodes": known.nodes,
        "igtree.unknown_nodes": unknown.nodes,
        "igtree.known_bytes": known.serialized_bytes,
        "igtree.unknown_bytes": unknown.serialized_bytes,
        "taggen.lexicon_bytes": (model_bytes - known.serialized_bytes
                                 - unknown.serialized_bytes),
    }


def train_plain(spec: dict) -> dict:
    """Training as often as makes ~TRAIN_TOKENS_PER_ROUND tokens, one sample
    each: a small corpus trains in well under a second."""
    from memtag import read_corpus, train
    timers = []
    for _ in range(spec["repeats"]):
        model = None  # each training starts from the same heap
        with Timer() as t:
            model = train(read_corpus(spec["corpus"]))
            model.save(spec["model"])
        timers.append(t)
    return {"train_s": [t.scaled_s for t in timers],
            "raw_train_s": [t.raw_s for t in timers],
            "peak_rss_mib": peak_rss_mib()}


def train_traced(spec: dict) -> dict:
    """train()'s layers called one by one, in the order train() calls them.
    run.py checks that the model assembled here has train()'s bytes."""
    from memtag.casebase import majority_class
    from memtag.corpus import parse_corpus
    from memtag.igtree import build, prune
    from memtag.interning import Interner
    from memtag.metrics import information_gains
    from memtag.taggen import (TaggerConfig, TaggerModel, build_lexicon,
                               extract_known_cases, extract_unknown_cases)
    tr = Tracer()
    config = TaggerConfig()
    with tr.span("train_s"):
        with open(spec["corpus"], encoding="utf-8") as fh:
            text = fh.read()
        with tr.span("corpus.parse"):
            corpus = parse_corpus(text)
        interner = Interner()
        with tr.span("taggen.build_lexicon"):
            lexicon = build_lexicon(corpus, interner, config.threshold)
        with tr.span("taggen.extract_known"):
            known = extract_known_cases(corpus, lexicon, interner, config)
        with tr.span("taggen.extract_unknown"):
            unknown = extract_unknown_cases(corpus, lexicon, interner, config)
        with tr.span("metrics.information_gains"):
            known_w, unknown_w = information_gains(known), information_gains(unknown)
        with tr.span("igtree.build"):
            known_t, unknown_t = build(known, known_w), build(unknown, unknown_w)
        with tr.span("igtree.prune"):
            known_t, unknown_t = prune(known_t), prune(unknown_t)
        with tr.span("taggen.fallback_tag"):
            gold = Counter(interner.intern(tok.tag)
                           for sent in corpus.sentences for tok in sent)
            fallback = majority_class(gold, interner)
        model = TaggerModel(interner, lexicon, config, known_w, unknown_w,
                            known_t, unknown_t, fallback)
        with tr.span("taggen.to_bytes"):
            data = model.to_bytes()
        with open(spec["model"], "wb") as fh:
            fh.write(data)
    layers = {f"{name}_s": t for name, t in tr.self_times().items()}
    layers["trace.covered_share.train_s"] = tr.covered_share("train_s")
    layers.update({
        "casebase.known_cases": known.total_cases,
        "casebase.known_patterns": len(known),
        "casebase.unknown_cases": unknown.total_cases,
        "casebase.unknown_patterns": len(unknown),
    })
    layers.update(size_counts(model, len(data)))
    return {"train_s": tr.total("train_s"), "layers": layers, "spans": tr.rows()}


def tag_plain(spec: dict) -> dict:
    from memtag import TaggerModel
    group = -(-LOAD_GROUP_BYTES // os.path.getsize(spec["model"]))
    groups = []
    for _ in range(LOAD_GROUPS):
        load = Timer()  # one sum over the group's loads, frees left out
        for _ in range(group):
            model = None  # each load starts from the same heap
            with load:
                model = TaggerModel.load(spec["model"])
        groups.append(load)
    sentences = read_lines(spec["text"])
    tagged, failed = [], 0
    parts = []  # (words, timer) per part of the text
    for part in split_text(sentences, TAG_PARTS):
        with Timer() as tag:
            for words in part:
                try:
                    tagged.append(model.tag(words))
                except Exception:  # count the sentence as failed and go on
                    if not failed:
                        traceback.print_exc()
                    failed += 1
                    tagged.append([])
        parts.append((sum(map(len, part)), tag))
    rss = peak_rss_mib()
    write_lines(spec["out"], tagged)
    return {"load_s": [t.scaled_s / group for t in groups],
            "raw_load_s": [t.raw_s / group for t in groups],
            "tag_words": [n for n, _ in parts],
            "tag_s": [t.scaled_s for _, t in parts],
            "raw_tag_s": [t.raw_s for _, t in parts],
            "failed": failed, "peak_rss_mib": rss}


def split_text(sentences: list[list[str]], n: int) -> list[list[list[str]]]:
    """`n` runs of whole sentences with about the same number of words."""
    total = sum(map(len, sentences))
    parts, start, words = [], 0, 0
    for i, sent in enumerate(sentences, start=1):
        words += len(sent)
        if words * n >= total * (len(parts) + 1) and len(parts) < n - 1:
            parts.append(sentences[start:i])
            start = i
    parts.append(sentences[start:])
    return parts


def tag_traced(spec: dict) -> dict:
    """Tagging with a span per layer per batch of sentences, then a second,
    untimed pass that replays the tagger's queries for the route, trie and
    accuracy figures. Records are dropped after each small batch: records
    that outlive the collector's youngest generation trigger full
    collections, which would dominate the traced time."""
    from memtag import TaggerModel
    tr = Tracer()
    with tr.span("load_s"):
        with open(spec["model"], "rb") as fh:
            data = fh.read()
        with tr.span("taggen.from_bytes"):
            model = TaggerModel.from_bytes(data)
    sentences = read_lines(spec["text"])
    text = model.interner.text
    tagged = []
    for b in range(0, len(sentences), TRACE_BATCH):
        with tr.span("tag_words_per_s"):
            with tr.span("taggen.tag_records"):
                records = [model.tag_records(words)
                           for words in sentences[b:b + TRACE_BATCH]]
            with tr.span("interning.text"):
                tagged += [[text(r.prediction) for r in recs] for recs in records]
    del records
    write_lines(spec["out"], tagged)

    layers = {f"{name}_s": t for name, t in tr.self_times().items()}
    for name in ("load_s", "tag_words_per_s"):
        layers[f"trace.covered_share.{name}"] = tr.covered_share(name)
    trees = {"known": model.known_tree, "unknown": model.unknown_tree}
    queries = {route: [] for route in trees}  # in tagging order
    hits = Counter()
    for words, gold in zip(sentences, read_lines(spec["gold"])):
        for rec, gold_tag in zip(model.tag_records(words), gold):
            queries[rec.route].append(rec.query)
            hits[rec.route] += text(rec.prediction) == gold_tag
    for route, tree in trees.items():
        tokens = len(queries[route])
        layers[f"taggen.{route}_tokens"] = tokens
        layers[f"taggen.{route}_accuracy"] = hits[route] / tokens
        classify = tree.classify
        with tr.span(f"igtree.classify.{route}"):
            for q in queries[route]:
                classify(q)
        layers[f"igtree.{route}_classify_qps"] = (
            tokens / tr.total(f"igtree.classify.{route}"))
        depths = Counter()
        for q, n in Counter(queries[route]).items():
            _, steps = tree.trace(q)
            depths[sum(matched for _, _, matched, _ in steps)] += n
        for depth in range(tree.arity + 1):
            layers[f"igtree.{route}_stop_depth.{depth}"] = depths[depth]
    layers.update(size_counts(model, len(data)))
    return {"load_s": tr.total("load_s"), "tag_s": tr.total("tag_words_per_s"),
            "failed": 0, "layers": layers, "spans": tr.rows()}


def read_oracle_inputs(spec: dict):
    from memtag import read_corpus
    return read_corpus(spec["corpus"]), read_corpus(spec["test"])


def oracle_plain(spec: dict) -> dict:
    from memtag import compare_algorithms
    train_c, test_c = read_oracle_inputs(spec)
    with Timer() as t:
        result = compare_algorithms(train_c, test_c)
    return {"oracle_s": t.scaled_s, "raw_oracle_s": t.raw_s,
            "result": result, "peak_rss_mib": peak_rss_mib()}


def oracle_traced(spec: dict) -> dict:
    """compare_algorithms looks its layers up as module attributes at call
    time, so they are wrapped in spans for the length of one call. The
    oracle's own fitting (lexicon, known cases, gains, trie) is one layer,
    `evaluation.fit`, apart from the training phase's layers of those names."""
    from memtag import compare_algorithms, evaluation, ib, igtree
    layers = (
        (evaluation, "build_lexicon", "evaluation.fit"),
        (evaluation, "extract_known_cases", "evaluation.fit"),
        (evaluation, "information_gains", "evaluation.fit"),
        (evaluation, "build", "evaluation.fit"),
        (evaluation, "prune", "evaluation.fit"),
        (evaluation, "known_eval_queries", "evaluation.known_eval_queries"),
        (ib, "classify_ib1", "ib.classify_ib1"),
        (ib, "classify_ib1ig", "ib.classify_ib1ig"),
        (igtree.IGTree, "classify", "igtree.classify"),
    )
    train_c, test_c = read_oracle_inputs(spec)
    tr = Tracer()
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in layers]
    try:
        for owner, attr, name in layers:
            setattr(owner, attr, tr.wrap(getattr(owner, attr), name))
        with tr.span("oracle_s"):
            result = compare_algorithms(train_c, test_c)
    finally:
        for owner, attr, fn in saved:
            setattr(owner, attr, fn)
    n = tr.count("ib.classify_ib1ig")
    out = {f"{name}_s": t for name, t in tr.self_times().items()}
    out.update({
        "trace.covered_share.oracle_s": tr.covered_share("oracle_s"),
        "ib.distinct_queries": n,
        "ib.ib1_ms_per_query": 1e3 * tr.total("ib.classify_ib1")
        / tr.count("ib.classify_ib1"),
        "ib.ib1ig_ms_per_query": 1e3 * tr.total("ib.classify_ib1ig") / n,
    })
    return {"oracle_s": tr.total("oracle_s"), "result": result,
            "layers": out, "spans": tr.rows()}


PHASES = {
    ("train", False): train_plain, ("train", True): train_traced,
    ("tag", False): tag_plain, ("tag", True): tag_traced,
    ("oracle", False): oracle_plain, ("oracle", True): oracle_traced,
}


def main() -> None:
    spec = json.loads(sys.argv[1])
    sys.path.insert(0, spec["src"])
    result = PHASES[spec["phase"], spec["trace"]](spec)
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
