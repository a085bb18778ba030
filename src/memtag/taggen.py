"""The tagger generator.

From a tagged corpus, three structures are extracted: a lexicon mapping each
word to its tag frequencies and one (possibly ambiguous) lexicon tag, a
known-word case base, and an unknown-word case base. Each case base is
weighted by information gain and compressed into a trie; the result plus the
shared interner of feature values (never words) is the tagger model.

Case layouts
    known   (d-2, d-1, f, a+1) -> t   two disambiguated left tags, the focus
                                      word's lexicon tag, the right
                                      neighbor's a+1 value
    unknown (p, d-1, a+1, s3, s2, s1) -> t   first letter, one disambiguated
                                      left tag, the right neighbor's a+1
                                      value, and the last three letters

Routing is defined once (`Lexicon.known_tags`): a word takes the known route
when it is in the lexicon and is not a numeral routed to the unknown base.
The a+1 value of a token is its right neighbor's known-route lexicon tag, or
the unknown marker when the neighbor is unseen or a numeral; training,
tagging and the oracle build it the same way, so the query built at tagging
time is the case training stored for the same context. During tagging the d
slots come from the tagger's own earlier output (or from gold tags when
replaying with gold left context), never from the lexicon. Windows never
cross sentence boundaries; missing slots hold the boundary marker. Both
markers are interner ids that no value text maps to (`interning`).
"""

from __future__ import annotations

import os
import re
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from itertools import accumulate, chain
from typing import Callable, Iterator, Sequence

from . import modelfile
from .casebase import CaseBase, Vector, majority_class
from .corpus import Corpus, collector_paused
from .errors import ModelFormatError, ParameterError, StructureError
from .igtree import IGTree, build, prune, stats
from .interning import NO_SYMBOL, Interner
from .metrics import FeatureWeights, information_gains

KNOWN_SLOTS = ("d-2", "d-1", "f", "a+1")
UNKNOWN_SLOTS = ("p", "d-1", "a+1", "s-3", "s-2", "s-1")
KNOWN_ARITY = len(KNOWN_SLOTS)
UNKNOWN_ARITY = len(UNKNOWN_SLOTS)
_ROUTES = {KNOWN_ARITY: "known", UNKNOWN_ARITY: "unknown"}

# Digits with optional sign, optional 3-digit grouping commas, optional
# decimal fraction: "61", "12,345.6", "-29".
_NUMBER_RE = re.compile(r"[+-]?\d+(?:,\d{3})*(?:\.\d+)?")

# Function-word style tags never enter the unknown-word case base: an unseen
# word is almost never a function word, and function-word cases would crowd
# out the open-class ones. CD stays open so that numerals can be resolved
# through the unknown-word route.
DEFAULT_CLOSED_CLASS_TAGS = frozenset({
    "DT", "PDT", "WDT", "IN", "CC", "TO", "MD", "PRP", "PRP$",
    "WP", "WP$", "POS", "RP", "EX", "UH", "SYM",
})


def is_number(word: str) -> bool:
    # isdecimal() is true exactly for a non-empty run of \d characters (the
    # Unicode Nd category): a cheap first test for the commonest numerals.
    return word.isdecimal() or _NUMBER_RE.fullmatch(word) is not None


def _check_threshold(threshold: float) -> None:
    if not 0.0 <= threshold <= 1.0:  # also false for NaN
        raise ParameterError(f"threshold must be in [0, 1], got {threshold}")


@dataclass(frozen=True)
class TaggerConfig:
    """Knobs of the generator; everything else is learned from the corpus."""

    threshold: float = 0.10
    closed_class_tags: frozenset[str] | None = None
    route_numbers_to_unknown: bool = True

    def __post_init__(self) -> None:
        _check_threshold(self.threshold)

    def is_open_class(self, tag: str) -> bool:
        if self.closed_class_tags is not None:
            return tag not in self.closed_class_tags
        if not any(ch.isalpha() for ch in tag):
            return False
        return tag.upper() not in DEFAULT_CLOSED_CLASS_TAGS


@dataclass(slots=True)
class LexicalEntry:
    tag_counts: dict[int, int]
    surviving_tags: tuple[int, ...]
    ambiguous_tag: int


@dataclass
class Lexicon:
    """Per word, in first-occurrence order: its lexicon tag (`tags`), and
    the three columns the model file stores: the word's tag count, then
    every word's tag ids and the counts of those tags. `surviving` holds
    the surviving tags of each multi-tag word; a single-tag word's one tag
    survives whatever the threshold. Made by `_lexicon_from_columns`.

    The routing maps of `known_tags`, `tags` and its non-numeral words, are
    built with the lexicon; `entries` is built on first use, and a
    concurrent first use builds an equal one.
    """

    tags: dict[str, int]
    n_tags: list[int]
    tag_ids: list[int]
    counts: list[int]
    surviving: dict[str, tuple[int, ...]]
    _non_numeral_tags: dict[str, int] = field(
        init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        self._non_numeral_tags = {word: tag for word, tag in self.tags.items()
                                  if not is_number(word)}

    @cached_property
    def entries(self) -> dict[str, LexicalEntry]:
        entries = {}
        starts = accumulate(self.n_tags, initial=0)
        for (word, tag), start, n in zip(self.tags.items(), starts,
                                         self.n_tags):
            end = start + n
            entries[word] = LexicalEntry(
                dict(zip(self.tag_ids[start:end], self.counts[start:end])),
                self.surviving.get(word, (tag,)), tag)
        return entries

    def known_tags(self, config: TaggerConfig) -> dict[str, int]:
        """The routing rule: word -> lexicon tag for every word that takes
        the known route, that is every lexicon word, minus the numerals
        when `route_numbers_to_unknown` is set; others route unknown."""
        if config.route_numbers_to_unknown:
            return self._non_numeral_tags
        return self.tags


def _lexicon_tag(counts: dict[int, int], interner: Interner,
                 threshold: float) -> tuple[tuple[int, ...], str]:
    """The surviving tags of a word, most frequent first (ties by text),
    and the text of its lexicon tag: the survivors joined with "-". The
    top tag always survives: if any tag passes the threshold, it does."""
    text = interner.text
    ranked = sorted(counts, key=lambda t: (-counts[t], text(t)))
    total = sum(counts.values())
    keep = [t for t in ranked if counts[t] / total >= threshold] or ranked[:1]
    return tuple(keep), "-".join(map(text, keep))


def _lexicon_from_columns(words: list[str], n_tags: list[int],
                          tag_ids: list[int], counts: list[int],
                          interner: Interner, symbol: Callable[[str], int],
                          threshold: float) -> Lexicon:
    """The Lexicon of these words and columns. A single-tag word's lexicon
    tag is its one tag; a multi-tag word's is `symbol` (`interner.intern`
    or `interner.id_of`) of the text `_lexicon_tag` joins. The checks
    fail only on a model file's columns."""
    starts = list(accumulate(n_tags, initial=0))
    tags = dict(zip(words, map(tag_ids.__getitem__, starts[:-1])))
    if len(tags) != len(words):
        raise ModelFormatError("lexicon repeats a word")
    surviving = {}
    for word, start, n in zip(words, starts, n_tags):
        if n == 1:
            continue
        by_tag = dict(zip(tag_ids[start:start + n], counts[start:start + n]))
        if len(by_tag) != n:
            raise ModelFormatError(f"lexicon word {word!r} repeats a tag")
        surviving[word], joined = _lexicon_tag(by_tag, interner, threshold)
        tag = tags[word] = symbol(joined)
        if tag == NO_SYMBOL:
            raise ModelFormatError(
                f"lexicon tag {joined!r} of {word!r} is not a symbol")
    return Lexicon(tags, n_tags, tag_ids, counts, surviving)


def build_lexicon(corpus: Corpus, interner: Interner,
                  threshold: float = TaggerConfig.threshold) -> Lexicon:
    """Count tags per word type, drop categories below `threshold` of the
    word's tokens (the most frequent one always survives), and synthesize
    one lexicon tag per type by joining the survivors with "-" in
    descending-frequency order."""
    _check_threshold(threshold)
    if not any(corpus.sentences):
        raise ParameterError("cannot build a lexicon from an empty corpus")
    # Counter keys keep first-occurrence order, so each tag is interned at
    # its first occurrence and each word keeps its tags in that order.
    intern = interner.intern
    by_word: dict[str, dict[int, int]] = {}
    for (word, tag), n in Counter(chain.from_iterable(corpus.sentences)).items():
        by_word.setdefault(word, {})[intern(tag)] = n
    per_word = by_word.values()
    n_tags = list(map(len, per_word))
    tag_ids = list(chain.from_iterable(per_word))
    counts = list(chain.from_iterable(map(dict.values, per_word)))
    return _lexicon_from_columns(list(by_word), n_tags, tag_ids, counts,
                                 interner, intern, threshold)


def _check_missing(word: str, config: TaggerConfig) -> None:
    """Refuse a corpus word missing from the lexicon, unless routing sends
    it unknown anyway: a numeral, when `route_numbers_to_unknown` is set."""
    if not (config.route_numbers_to_unknown and is_number(word)):
        raise StructureError(f"word {word!r} not in lexicon")


def _route(words: Sequence[str], known_tags: dict[str, int],
           interner: Interner) -> tuple[list[int | None], list[int]]:
    """Per token of one sentence: the focus tag (None for the unknown route)
    and the a+1 value (the next token's focus tag, the unknown marker when
    that token takes the unknown route, the boundary after the last)."""
    focus = list(map(known_tags.get, words))
    unk_mark = interner.unknown_mark
    right = [unk_mark if f is None else f for f in focus[1:]]
    right.append(interner.boundary)
    return focus, right


def gold_known_windows(corpus: Corpus, lexicon: Lexicon, interner: Interner,
                       config: TaggerConfig, strict: bool
                       ) -> Iterator[tuple[Vector, int]]:
    """(d-2, d-1, f, a+1) -> gold tag for every token that the lexicon's
    routing map routes known, the d slots holding the left gold tags.

    In strict mode (training) gold tags are interned, and every word that
    the routing rule would send down the known route must be in the
    lexicon (`_check_missing`). Otherwise (scoring held-out text) nothing
    is interned: unseen gold tags map to NO_SYMBOL and unseen words take
    the unknown route.
    """
    known_tags, lexicon_words = lexicon.known_tags(config), lexicon.tags
    boundary = interner.boundary
    for sent in filter(None, corpus.sentences):  # zip(*sent) needs a token
        words, tags = zip(*sent)
        gold = (interner.intern_all(tags) if strict
                else list(map(interner.id_of, tags)))
        focus, right = _route(words, known_tags, interner)
        d2 = d1 = boundary
        for word, f, a, g in zip(words, focus, right, gold):
            if f is not None:
                yield (d2, d1, f, a), g
            elif strict and word not in lexicon_words:
                _check_missing(word, config)
            d2, d1 = d1, g


def extract_known_cases(corpus: Corpus, lexicon: Lexicon, interner: Interner,
                        config: TaggerConfig = TaggerConfig()) -> CaseBase:
    """One (d-2, d-1, f, a+1) -> gold case per known-route training token.

    The d slots take the gold tags of the left neighbors (training stands in
    for earlier tagger decisions), f the lexicon tag, and a+1 the right
    neighbor's known-route lexicon tag or the unknown marker. Tokens routed
    to the unknown-word base (numbers, when that routing is on) contribute
    no case. Every corpus word that the routing rule would send down the
    known route must be in the lexicon; a numeral routed unknown need not.
    """
    return CaseBase(KNOWN_ARITY, interner, gold_known_windows(
        corpus, lexicon, interner, config, strict=True))


def _letter_slots(word: str, look: Callable[[str], int], boundary: int
                  ) -> tuple[int, int, int, int]:
    """(first, 3rd-last, 2nd-last, last) letter symbols by `look` of a
    non-empty word, `boundary` where the word is too short."""
    first = look(word[0])
    s3 = look(word[-3]) if len(word) >= 3 else boundary
    s2 = look(word[-2]) if len(word) >= 2 else boundary
    s1 = look(word[-1])
    return first, s3, s2, s1


def extract_unknown_cases(corpus: Corpus, lexicon: Lexicon, interner: Interner,
                          config: TaggerConfig = TaggerConfig()) -> CaseBase:
    """One (p, d-1, a+1, s3, s2, s1) -> gold case per open-class training
    token, with a+1 built as for the known cases. Letters come from the raw
    form, case-sensitive: the first letter carries prefix and capitalization
    information. Every corpus word that the routing rule would send down the
    known route must be in the lexicon, as for the known cases."""
    return CaseBase(UNKNOWN_ARITY, interner, _unknown_windows(
        corpus, lexicon, interner, config))


def _unknown_windows(corpus: Corpus, lexicon: Lexicon, interner: Interner,
                     config: TaggerConfig) -> Iterator[tuple[Vector, int]]:
    known_tags, lexicon_words = lexicon.known_tags(config), lexicon.tags
    open_class: dict[str, bool] = {}  # is_open_class per distinct tag
    letters: dict[str, tuple[int, int, int, int]] = {}  # per word type
    for sent in filter(None, corpus.sentences):  # zip(*sent) needs a token
        words, tags = zip(*sent)
        gold = interner.intern_all(tags)
        focus, right = _route(words, known_tags, interner)
        d1 = interner.boundary
        for word, tag, f, a, g in zip(words, tags, focus, right, gold):
            if f is None and word not in lexicon_words:
                _check_missing(word, config)
            is_open = open_class.get(tag)
            if is_open is None:
                is_open = open_class[tag] = config.is_open_class(tag)
            if is_open:
                first, s3, s2, s1 = letters.get(word) or letters.setdefault(
                    word, _letter_slots(word, interner.intern,
                                        interner.boundary))
                yield (first, d1, a, s3, s2, s1), g
            d1 = g


@dataclass(slots=True)
class TokenRecord:
    """What the tagger did for one token: the route it took, the query it
    built, and the class it produced."""

    word: str
    route: str  # "known" | "unknown"
    query: tuple[int, ...]
    prediction: int


@dataclass
class ExplanationStep:
    slot: str
    value: str
    matched: bool
    default: str


@dataclass
class Explanation:
    word: str
    route: str
    prediction: str
    steps: list[ExplanationStep]


class TaggerModel:
    """Lexicon + two tries + weights + config, sharing one interner.

    Routing is resolved once per lexicon word (the lexicon's routing map),
    so tagging a token costs one dict lookup, never runs the numeral test
    and never reads the lexicon's entries. Immutable after training or
    loading, apart from the lexicon's entries, built on first read, so one
    model can serve concurrent tagging calls; the sequential dependency is
    within a sentence only.
    """

    __slots__ = ("interner", "lexicon", "config", "known_weights",
                 "unknown_weights", "known_tree", "unknown_tree",
                 "fallback_tag", "_known_tags")

    def __init__(self, interner: Interner, lexicon: Lexicon,
                 config: TaggerConfig, known_weights: FeatureWeights,
                 unknown_weights: FeatureWeights, known_tree: IGTree | None,
                 unknown_tree: IGTree | None, fallback_tag: int):
        self.interner = interner
        self.lexicon = lexicon
        self.config = config
        self.known_weights = known_weights
        self.unknown_weights = unknown_weights
        self.known_tree = known_tree
        self.unknown_tree = unknown_tree
        self.fallback_tag = fallback_tag
        # Saves the tag loop, run per sentence, a lexicon.known_tags call.
        self._known_tags = lexicon.known_tags(config)

    # -- tagging ---------------------------------------------------------

    def _walk(self, words: list[str], gold_left: list[str] | None,
              queries: list[Vector] | None = None) -> list[int]:
        """Tag one sentence left to right in one plain loop, the one that
        `tag`, `tag_records`, `explain` and `evaluate` run: each token's
        prediction id, and its query appended to `queries` when given.

        Routing and a+1 come from `_route`, as in training. With
        `gold_left` the d slots hold those tags instead of the tagger's own
        output. A route without a tree answers the fallback tag.
        """
        if not words:
            raise ParameterError("cannot tag an empty sentence")
        if gold_left is not None and len(gold_left) != len(words):
            raise ParameterError("gold_left length differs from sentence length")
        interner = self.interner
        boundary, id_of = interner.boundary, interner.id_of
        fallback = self.fallback_tag
        known_tree, unknown_tree = self.known_tree, self.unknown_tree
        focus, right = _route(words, self._known_tags, interner)
        preds: list[int] = []
        # Without gold_left, `left` is `preds` itself: the d slots read
        # left[i] only after preds[i] is appended.
        left = preds if gold_left is None else list(map(id_of, gold_left))
        d2 = d1 = boundary
        for i, w in enumerate(words):
            f = focus[i]
            if f is not None:
                query, tree = (d2, d1, f, right[i]), known_tree
            else:
                if not w:
                    raise ParameterError(f"empty word at position {i}")
                first, s3, s2, s1 = _letter_slots(w, id_of, boundary)
                query, tree = (first, d1, right[i], s3, s2, s1), unknown_tree
            preds.append(tree.classify(query) if tree is not None else fallback)
            if queries is not None:
                queries.append(query)
            d2, d1 = d1, left[i]
        return preds

    def tag_records(self, words: list[str],
                    gold_left: list[str] | None = None) -> list[TokenRecord]:
        """Tag one sentence left to right, keeping per-token records: the
        same loop as `tag`, with the route and query of each token.

        With `gold_left`, the d slots are filled from those tags instead of
        the tagger's own output, isolating the classifiers from error
        propagation.
        """
        queries: list[Vector] = []  # a query's arity gives its route
        preds = self._walk(words, gold_left, queries)
        return [TokenRecord(w, _ROUTES[len(q)], q, p)
                for w, q, p in zip(words, queries, preds)]

    def tag(self, words: list[str]) -> list[str]:
        """Tag texts for one sentence; output length equals input length.
        Builds no per-token records."""
        return list(map(self.interner.text, self._walk(words, None)))

    def explain(self, words: list[str], position: int) -> Explanation:
        """The trie path behind one tagging decision: per tested feature the
        query value, whether an arc matched, and the default at that node."""
        records = self.tag_records(words)
        if not 0 <= position < len(records):
            raise ParameterError(f"position {position} out of range")
        rec = records[position]
        tree = self.known_tree if rec.route == "known" else self.unknown_tree
        slots = KNOWN_SLOTS if rec.route == "known" else UNKNOWN_SLOTS
        text = self.interner.text
        steps = []
        if tree is not None:
            _, raw = tree.trace(rec.query)
            for feat, value, matched, default in raw:
                value_text = text(value) if value != NO_SYMBOL else "?"
                steps.append(ExplanationStep(slots[feat], value_text, matched,
                                             text(default)))
        return Explanation(rec.word, rec.route, text(rec.prediction), steps)

    # -- reporting -------------------------------------------------------

    def summary(self) -> str:
        lex = self.lexicon
        starts = accumulate(lex.n_tags, initial=0)
        ambiguous = [sum(lex.counts[start:start + n]) for word, start, n
                     in zip(lex.tags, starts, lex.n_tags)
                     if len(lex.surviving.get(word, ())) > 1]  # token counts
        types, tokens = max(len(lex.tags), 1), max(sum(lex.counts), 1)
        lines = [
            f"lexicon: {len(lex.tags)} word types, {len(ambiguous)} "
            f"({100.0 * len(ambiguous) / types:.1f}%) ambiguous",
            f"ambiguous tokens: {100.0 * sum(ambiguous) / tokens:.1f}%",
        ]
        for name, tree in (("known", self.known_tree),
                           ("unknown", self.unknown_tree)):
            if tree is None:
                lines.append(f"{name} tree: empty")
                continue
            st = stats(tree)
            lines.append(
                f"{name} tree: {st.nodes} nodes, {st.leaves} leaves, "
                f"depth {st.max_depth}, {st.serialized_bytes} bytes at 4 B "
                f"per slot ({100.0 * st.compression_ratio:.1f}% of expanded)")
        return "\n".join(lines)

    # -- serialization ---------------------------------------------------

    def to_bytes(self) -> bytes:
        """The model file image; its layout is described at `modelfile`."""
        return modelfile._write_model(self)

    def save(self, path: str) -> None:
        data = self.to_bytes()
        with open(path, "wb") as fh:
            fh.write(data)

    @classmethod
    def from_bytes(cls, buf: bytes) -> "TaggerModel":
        return modelfile._read_model(buf)[0]

    @classmethod
    def load(cls, path: str) -> "TaggerModel":
        """The model in the file at `path`. A missing file is a
        ParameterError; a malformed one a ModelFormatError naming it."""
        if not os.path.isfile(path):
            raise ParameterError(f"no such file: {path}")
        with open(path, "rb") as fh:
            data = fh.read()
        try:
            return cls.from_bytes(data)
        except ModelFormatError as exc:
            raise ModelFormatError(f"{path}: {exc}") from exc


def _fit(base: CaseBase, arity: int
         ) -> tuple[FeatureWeights, IGTree | None]:
    """A base's gains and pruned tree; zero gains and no tree when empty."""
    if not base:
        return (0.0,) * arity, None
    weights = information_gains(base)
    return weights, prune(build(base, weights))


@collector_paused
def train(corpus: Corpus, config: TaggerConfig = TaggerConfig()) -> TaggerModel:
    """Generate a complete tagger model from a tagged corpus. Where it
    can, a forked child fits the known-word base while this process fits
    the unknown-word base (`forking.forked`), and only the child's gains
    and trie come back; no process outlives the call."""
    # Imported here, so that a process that only loads and tags models
    # never compiles or holds the fork code.
    from .forking import forked
    if not any(corpus.sentences):
        raise ParameterError("cannot train on an empty corpus")
    interner = Interner()
    lexicon = build_lexicon(corpus, interner, config.threshold)

    def fit_known() -> tuple[FeatureWeights, IGTree | None]:
        # Forked, a text interned here would be missing from this
        # process's interner, so the known fit must intern none.
        n_symbols = len(interner)
        fitted = _fit(extract_known_cases(corpus, lexicon, interner, config),
                      KNOWN_ARITY)
        if len(interner) != n_symbols:
            raise RuntimeError("the known-word fit interned a text")
        return fitted

    # A child fits the known base while this process fits the unknown one;
    # in process, the unknown base is dropped before the known one is
    # extracted. Either way a process holds one case base at a time. As the
    # known fit interns nothing, symbol ids are those of extracting the
    # known base, then the unknown one, in process.
    with forked(fit_known) as known_fit:
        unknown_weights, unknown_tree = _fit(
            extract_unknown_cases(corpus, lexicon, interner, config),
            UNKNOWN_ARITY)
        known_weights, known_tree = known_fit()

    # The lexicon has counted every token's tag once already.
    tag_totals: dict[int, int] = {}
    for tag, n in zip(lexicon.tag_ids, lexicon.counts):
        tag_totals[tag] = tag_totals.get(tag, 0) + n
    fallback = majority_class(tag_totals, interner)

    return TaggerModel(interner, lexicon, config, known_weights,
                       unknown_weights, known_tree, unknown_tree, fallback)
