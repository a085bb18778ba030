"""Accuracy measurement, cross-validation, learning curves, and the
comparison of the tree classifier with its nearest-neighbor references.

Accuracy is split between known and unknown words by the tagger's own
routing decision. The algorithm comparison scores IB1, IB1-IG and IGTree on
one shared train/test split, using known-word queries built with gold left
context, the setting that isolates classifier quality from error
propagation.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass
from statistics import mean, pstdev

from . import ib
from .casebase import Vector
from .corpus import Corpus, collector_paused, cv_folds
from .errors import ParameterError
from .igtree import build, prune
from .interning import Interner
from .metrics import information_gains
from .taggen import (Lexicon, TaggerConfig, TaggerModel, build_lexicon,
                     extract_known_cases, gold_known_windows, train)

@dataclass
class EvalReport:
    known_total: int
    known_correct: int
    unknown_total: int
    unknown_correct: int
    wall_time_s: float

    @property
    def total(self) -> int:
        return self.known_total + self.unknown_total

    @property
    def correct(self) -> int:
        return self.known_correct + self.unknown_correct

    @property
    def accuracy_total(self) -> float:
        return self.correct / self.total if self.total else 1.0

    @property
    def accuracy_known(self) -> float:
        return self.known_correct / self.known_total if self.known_total else 1.0

    @property
    def accuracy_unknown(self) -> float:
        return (self.unknown_correct / self.unknown_total
                if self.unknown_total else 1.0)

    @property
    def unknown_fraction(self) -> float:
        return self.unknown_total / self.total if self.total else 0.0

    @property
    def words_per_second(self) -> float:
        return self.total / max(self.wall_time_s, 1e-9)

    def _rows(self) -> list[tuple[str, float, float]]:
        """(category, accuracy, share of tokens) per route, then in total."""
        return [("Known", self.accuracy_known, 1.0 - self.unknown_fraction),
                ("Unknown", self.accuracy_unknown, self.unknown_fraction),
                ("Total", self.accuracy_total, 1.0)]

    def table(self) -> str:
        lines = [f"{'':<8}{'Accuracy':>10}{'Percentage':>12}"]
        lines += [f"{name:<8}{100.0 * acc:>10.1f}{100.0 * share:>12.1f}"
                  for name, acc, share in self._rows()]
        return "\n".join(lines)

    def tsv(self) -> str:
        lines = ["category\taccuracy\tpercentage"]
        lines += [f"{name.lower()}\t{acc:.6f}\t{share:.6f}"
                  for name, acc, share in self._rows()]
        return "\n".join(lines)


def evaluate(model: TaggerModel, test: Corpus,
             gold_left_context: bool = False) -> EvalReport:
    """Tag `test` and score per token against the gold tags."""
    if not test.sentences:
        raise ParameterError("cannot evaluate on an empty corpus")
    text = model.interner.text
    kt = kc = ut = uc = 0
    wall = 0.0
    for sent in test.sentences:
        words = [tok.word for tok in sent]
        gold = [tok.tag for tok in sent]
        t0 = time.perf_counter()
        records = model.tag_records(words, gold if gold_left_context else None)
        wall += time.perf_counter() - t0
        for rec, gold_tag in zip(records, gold):
            hit = text(rec.prediction) == gold_tag
            if rec.route == "known":
                kt += 1
                kc += hit
            else:
                ut += 1
                uc += hit
    return EvalReport(kt, kc, ut, uc, wall)


# -- cross-validation and learning curves ---------------------------------

@dataclass
class CVResult:
    mean: float
    stddev: float
    reports: list[EvalReport]


def cross_validate(corpus: Corpus, k: int = 10, seed: int = 0,
                   config: TaggerConfig = TaggerConfig(),
                   gold_left_context: bool = False) -> CVResult:
    """Train and evaluate once per fold; aggregate the total accuracy."""
    reports = [evaluate(train(tr, config), te, gold_left_context)
               for tr, te in cv_folds(corpus, k, seed)]
    values = [r.accuracy_total for r in reports]
    return CVResult(mean(values), pstdev(values), reports)


@dataclass
class LearningCurvePoint:
    train_size: int
    mean_accuracy: float
    stddev: float


def learning_curve(corpus: Corpus, sizes: list[int], k: int = 10,
                   seed: int = 0, config: TaggerConfig = TaggerConfig(),
                   gold_left_context: bool = False
                   ) -> list[LearningCurvePoint]:
    """One cross-validated accuracy per dataset size (in tokens).

    Each size takes the corpus's leading sentences up to that many tokens,
    so the full-corpus size reproduces a plain cross-validation run exactly.
    """
    if not sizes:
        raise ParameterError("need at least one size step")
    total = corpus.token_count
    points = []
    for size in sizes:
        if not 0 < size <= total:
            raise ParameterError(
                f"size {size} outside (0, {total}] for this corpus")
        sub: list = []
        tokens = 0
        for sent in corpus.sentences:
            if tokens >= size:
                break
            sub.append(sent)
            tokens += len(sent)
        result = cross_validate(Corpus(sub), k, seed, config,
                                gold_left_context)
        points.append(LearningCurvePoint(tokens, result.mean, result.stddev))
    return points


def curve_tsv(points: list[LearningCurvePoint]) -> str:
    lines = ["size\tmean\tstddev"]
    for p in points:
        lines.append(f"{p.train_size}\t{p.mean_accuracy:.6f}\t{p.stddev:.6f}")
    return "\n".join(lines)


# -- algorithm comparison (tree vs. nearest-neighbor references) -----------

def known_eval_queries(test: Corpus, lexicon: Lexicon, interner: Interner,
                       config: TaggerConfig) -> list[tuple[Vector, int]]:
    """(query, gold) pairs for every known-route test token, with gold left
    context: the training window, built without interning. Unseen gold tags
    map to NO_SYMBOL and can simply never be predicted."""
    return list(gold_known_windows(test, lexicon, interner, config,
                                   strict=False))


def _cached_accuracy(classify, queries: list[tuple[Vector, int]]) -> float:
    """Accuracy of a pure classifier over (query, gold) pairs, classifying
    each distinct query once."""
    counts = Counter(queries)
    preds: dict[Vector, int] = {}
    correct = 0
    total = 0
    for (query, gold), n in counts.items():
        pred = preds.get(query)
        if pred is None:
            pred = preds[query] = classify(query)
        total += n
        if pred == gold:
            correct += n
    return correct / total if total else 1.0


@collector_paused
def compare_algorithms(train_c: Corpus, test_c: Corpus) -> dict[str, float]:
    """Known-word accuracy of IB1, IB1-IG and IGTree on one shared split."""
    config = TaggerConfig()
    interner = Interner()
    lexicon = build_lexicon(train_c, interner, config.threshold)
    base = extract_known_cases(train_c, lexicon, interner, config)
    weights = information_gains(base)
    tree = prune(build(base, weights))
    queries = known_eval_queries(test_c, lexicon, interner, config)
    index = ib.OverlapIndex(base)
    return {
        "ib1": _cached_accuracy(
            lambda q: ib.classify_ib1(base, q, index=index), queries),
        "ib1ig": _cached_accuracy(
            lambda q: ib.classify_ib1ig(base, weights, q, index=index),
            queries),
        "igtree": _cached_accuracy(tree.classify, queries),
    }


def gains_tsv(weights) -> str:
    lines = ["feature_index\tgain"]
    for i, g in enumerate(weights):
        lines.append(f"{i}\t{g:.6f}")
    return "\n".join(lines)
