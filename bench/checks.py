"""Correctness checks on the benchmark's outputs.

Each check returns a list of problems; an empty list is a pass. A check
compares the program's output with a computation made here, apart from the
program, or with a property the method must have. None compares with a
stored copy of earlier output.
"""

from __future__ import annotations

from collections import Counter

PARITY_TOLERANCE = 0.010  # acceptance criterion 6: IGTree vs IB1-IG, per fold


def majority(dist: dict[int, int], text) -> int:
    """Most frequent class; ties go to the smaller class text."""
    return min(dist, key=lambda c: (-dist[c], text(c)))


def word_tag_counts(corpus_text: str) -> dict[str, Counter]:
    """Per-word tag counts of a slash-format corpus, word and tag split at
    the last slash of each token."""
    counts: dict[str, Counter] = {}
    for line in corpus_text.splitlines():
        for item in line.split():
            word, _, tag = item.rpartition("/")
            counts.setdefault(word, Counter())[tag] += 1
    return counts


def check_reload(saved: bytes, load) -> list[str]:
    """The saved file, loaded again, serializes to the same bytes."""
    try:
        again = load(saved).to_bytes()
    except Exception as exc:  # a corrupt file must show here, not crash the run
        return [f"reload failed: {type(exc).__name__}: {exc}"]
    if again != saved:
        return [f"reload gives {len(again)} bytes, saved file has {len(saved)}"]
    return []


def lexicon_tag(counts: Counter, threshold: float) -> tuple[str, ...]:
    """A word's lexicon tag: its tags with at least `threshold` of its
    tokens (the most frequent always kept), most frequent first."""
    total = sum(counts.values())
    keep = [t for t, n in counts.items() if n / total >= threshold]
    top = majority(counts, str)
    if top not in keep:
        keep.append(top)
    return tuple(sorted(keep, key=lambda t: (-counts[t], t)))


def check_lexicon(model, corpus_text: str, threshold: float) -> list[str]:
    """Per word, the lexicon's tag counts equal counts taken from the corpus,
    and its surviving and joined ambiguous tags follow from those counts."""
    expected = word_tag_counts(corpus_text)
    texts = list(model.interner)
    entries = model.lexicon.entries
    problems = []
    if set(entries) != set(expected):
        missing = len(set(expected) - set(entries))
        extra = len(set(entries) - set(expected))
        problems.append(f"lexicon words differ: {missing} missing, {extra} extra")
    for word in set(entries) & set(expected):
        entry, want = entries[word], expected[word]
        survivors = lexicon_tag(want, threshold)
        try:
            got = ({texts[t]: n for t, n in entry.tag_counts.items()},
                   tuple(texts[t] for t in entry.surviving_tags),
                   texts[entry.ambiguous_tag])
        except IndexError:
            got = None
        if got != (dict(want), survivors, "-".join(survivors)):
            problems.append(f"{word!r}: lexicon entry {got} does not follow "
                            f"from corpus counts {dict(want)}")
            if len(problems) >= 5:
                break
    return problems


def check_trie_majority(sample, classify, text) -> list[str]:
    """On stored patterns the trie answers the majority class of the
    pattern's own distribution: the IB1-IG nearest neighbour at distance 0."""
    problems = []
    for vec, dist in sample:
        want = majority(dist, text)
        got = classify(vec)
        if got != want:
            problems.append(f"pattern {vec}: trie class {got}, stored "
                            f"majority {want} ({text(want)!r})")
            if len(problems) >= 5:
                break
    return problems


def check_one_tag_per_word(sentences: list[list[str]], tagged: list[list[str]]) -> list[str]:
    problems = []
    if len(tagged) != len(sentences):
        problems.append(f"{len(tagged)} tagged sentences for {len(sentences)} inputs")
    for i, (words, tags) in enumerate(zip(sentences, tagged)):
        if len(words) != len(tags):
            problems.append(f"sentence {i}: {len(tags)} tags for {len(words)} words")
            if len(problems) >= 5:
                break
    return problems


def check_tags_seen(tagged: list[list[str]], train_tags: set[str]) -> list[str]:
    unseen = {t for tags in tagged for t in tags} - train_tags
    return [f"tags never seen in training: {sorted(unseen)}"] if unseen else []


def accuracy(tagged: list[list[str]], gold: list[list[str]]) -> float:
    hits = total = 0
    for tags, want in zip(tagged, gold):
        hits += sum(a == b for a, b in zip(tags, want))
        total += len(want)
    return hits / total


def baseline_tagger(train_sentences: list[list[tuple[str, str]]]):
    """Most-frequent-tag baseline: a seen word gets its most frequent
    training tag, any other word the most frequent tag overall (ties to the
    smaller tag text)."""
    per_word: dict[str, Counter] = {}
    overall: Counter = Counter()
    for sent in train_sentences:
        for word, tag in sent:
            per_word.setdefault(word, Counter())[tag] += 1
            overall[tag] += 1
    best = {w: majority(c, str) for w, c in per_word.items()}
    fallback = majority(overall, str)
    return lambda words: [best.get(w, fallback) for w in words]


def check_beats_baseline(acc: float, baseline_acc: float) -> list[str]:
    if acc > baseline_acc:
        return []
    return [f"accuracy {acc:.4f} does not beat the most-frequent-tag baseline {baseline_acc:.4f}"]


def check_parity(result: dict[str, float]) -> list[str]:
    gap = abs(result["igtree"] - result["ib1ig"])
    if gap <= PARITY_TOLERANCE + 1e-12:
        return []
    return [f"IGTree {result['igtree']:.4f} vs IB1-IG {result['ib1ig']:.4f}: gap {100 * gap:.2f} pp"]


def nearest_vote(patterns, weights, query, text) -> int:
    """Gain-weighted overlap nearest set and its pooled majority vote, by a
    plain scan. Distances add the weights in feature order, as ib.py does,
    so equal distances compare equal."""
    scored = []
    for vec, dist in patterns:
        d = 0.0
        for a, b, w in zip(vec, query, weights):
            if a != b:
                d += w
        scored.append((d, dist))
    best = min(d for d, _ in scored)
    pool: Counter = Counter()
    for d, dist in scored:
        if d == best:
            pool.update(dist)
    return majority(pool, text)


def check_ib1ig(patterns, weights, queries, classify_ib1ig, text) -> list[str]:
    """IB1-IG's answer equals the vote of the benchmark's own scan."""
    problems = []
    for q in queries:
        want = nearest_vote(patterns, weights, q, text)
        got = classify_ib1ig(q)
        if got != want:
            problems.append(f"query {q}: ib1ig class {got}, scan {want} ({text(want)!r})")
    return problems
