"""Synthetic tagged-corpus generator for benchmarks and scaling tests.

Sentences come from a first-order tag chain with concentrated transitions,
so the left context genuinely disambiguates; word types carry Zipfian
frequencies. Ambiguity is concentrated in the high-frequency types (as in
real corpora). Open-class tags have characteristic but partially shared
suffixes, and some types are bare stems, so word form carries useful yet
imperfect signal for unseen words. A small share of tokens are digit
strings tagged CD.
"""

from __future__ import annotations

import math
import random
from bisect import bisect
from dataclasses import dataclass
from itertools import accumulate

from .corpus import Corpus, Sentence, Token
from .errors import ParameterError

OPEN_TAGS = ("NN", "VB", "JJ", "RB", "NNS", "VBD", "VBZ")
CLOSED_TAGS = ("DT", "IN", "CC")
SUFFIX_POOL = ("s", "ed", "ing", "ly", "ion", "er", "est", "al",
               "ous", "ment", "ness", "ity", "ate", "ish")
AMBIGUOUS_HEAD_FRACTION = 0.10  # share of types, by rank, that may carry two tags
AMBIGUOUS_PROB = 0.65  # chance that such a head type does
SUFFIX_PROB = 0.7  # chance that an open-class form gets one of its tag's suffixes
NUMBER_PROB = 0.01  # chance that a token is a numeral, on top of the CD state
MIN_LEN = 4  # sentence length in words, before the final "."
MAX_LEN = 22


@dataclass(frozen=True)
class SynthConfig:
    n_tokens: int = 100_000
    n_types: int = 1_200
    zipf_exponent: float = 1.25
    seed: int = 17


class _Sampler:
    """Cumulative-weight sampler over a fixed item list."""

    __slots__ = ("items", "cum", "total")

    def __init__(self, items: list, weights: list[float]):
        self.items = items
        self.cum = list(accumulate(weights))
        self.total = self.cum[-1]

    def draw(self, rng: random.Random):
        return self.items[bisect(self.cum, rng.random() * self.total)]


def synth_corpus(config: SynthConfig = SynthConfig()) -> Corpus:
    if config.n_tokens < 1:
        raise ParameterError(f"n_tokens must be >= 1, got {config.n_tokens}")
    weights = _zipf_weights(config.n_types, config.zipf_exponent)
    rng = random.Random(config.seed)
    chain_tags = [*OPEN_TAGS, *CLOSED_TAGS, "CD"]

    # 2-3 suffixes per open tag, drawn with replacement across tags so that
    # some suffixes stay ambiguous between tags.
    suffixes = {tag: [rng.choice(SUFFIX_POOL) for _ in range(rng.randint(2, 3))]
                for tag in OPEN_TAGS}

    # Word types: Zipf weight by rank; head types may be tag-ambiguous. Each
    # type has one Token per tag it bears, shared by every draw of it.
    head = max(1, int(config.n_types * AMBIGUOUS_HEAD_FRACTION))
    forms: set[str] = set()
    by_tag = {t: ([], []) for t in chain_tags}  # tag -> (Tokens, weights)
    for i, weight in enumerate(weights):
        primary = rng.choice(OPEN_TAGS if i >= head or rng.random() < 0.5
                             else CLOSED_TAGS)
        tags = (primary,)
        if i < head and rng.random() < AMBIGUOUS_PROB:
            other = rng.choice([t for t in OPEN_TAGS + CLOSED_TAGS
                                if t != primary])
            tags = (primary, other)
        while True:
            stem = "".join(rng.choice("abcdefghijklmnopqrstuvwxyz")
                           for _ in range(rng.randint(2, 6)))
            form = stem
            if primary in suffixes and rng.random() < SUFFIX_PROB:
                form += rng.choice(suffixes[primary])
            if form not in forms:
                break
        forms.add(form)
        for tag in tags:
            by_tag[tag][0].append(Token(form, tag))
            by_tag[tag][1].append(weight)
    emitters = {tag: _Sampler(tokens, ws)
                for tag, (tokens, ws) in by_tag.items() if tokens}

    # Concentrated transitions: few successors with skewed weights, so the
    # previous tag is strongly predictive. CD gets a small flat share.
    transitions = {}
    for tag in chain_tags:
        succ = rng.sample(chain_tags, rng.randint(2, 4))
        weights = [2.0 ** -j + 0.02 for j in range(len(succ))]
        if "CD" not in succ:
            succ.append("CD")
            weights.append(0.03)
        transitions[tag] = _Sampler(succ, weights)
    start = _Sampler(chain_tags, [rng.random() + 0.2 for _ in chain_tags])

    # One Token per numeral text, and one for every sentence's end.
    numerals: dict[str, Token] = {}
    end = Token(".", ".")
    sentences: list[Sentence] = []
    total = 0
    while total < config.n_tokens:
        length = rng.randint(MIN_LEN, MAX_LEN)
        sent: Sentence = []
        tag = start.draw(rng)
        for _ in range(length):
            if tag == "CD" or rng.random() < NUMBER_PROB:
                form = _number_form(rng)
                if form not in numerals:
                    numerals[form] = Token(form, "CD")
                sent.append(numerals[form])
            elif tag not in emitters:
                raise ParameterError(f"too few types: none bears tag {tag!r}")
            else:
                sent.append(emitters[tag].draw(rng))
            tag = transitions[tag].draw(rng)
        sent.append(end)
        sentences.append(sent)
        total += len(sent)
    return Corpus(sentences)


def _zipf_weights(n_types: int, exponent: float) -> list[float]:
    """The weight of each type by rank, 1 / rank**exponent. Every weight,
    and their sum, must be finite and positive for a draw to pick a type."""
    try:
        weights = [1.0 / (i + 1) ** exponent for i in range(n_types)]
        if all(w > 0.0 for w in weights) and sum(weights) < math.inf:
            return weights
    except (OverflowError, ZeroDivisionError):  # the power over- or underflows
        pass
    raise ParameterError(f"zipf_exponent {exponent!r} gives type weights "
                         f"that are not finite and positive")


def _number_form(rng: random.Random) -> str:
    n = rng.randint(1, 99999)
    if n >= 1000 and rng.random() < 0.3:
        return f"{n:,}"
    if rng.random() < 0.15:
        return f"{n}.{rng.randint(0, 99)}"
    return str(n)
