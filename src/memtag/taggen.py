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
"UNK-A" when the neighbor is unseen or a numeral; training, tagging and the
oracle build it the same way, so the query built at tagging time is the case
training stored for the same context. During tagging the d slots come from
the tagger's own earlier output (or from gold tags when replaying with gold
left context), never from the lexicon. Windows never cross sentence
boundaries; missing slots hold "=".
"""

from __future__ import annotations

import os
import re
import struct
import sys
import zlib
from array import array
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from itertools import accumulate, chain
from typing import Callable, Iterator, Sequence

from .casebase import CaseBase, Vector, majority_class
from .corpus import Corpus, collector_paused
from .errors import ModelFormatError, ParameterError, StructureError
from .igtree import IGTree, IGTreeNode, build, feature_order, prune, stats
from .interning import BOUNDARY, NO_SYMBOL, UNKNOWN_MARK, Interner
from .metrics import FeatureWeights, information_gains

KNOWN_SLOTS = ("d-2", "d-1", "f", "a+1")
UNKNOWN_SLOTS = ("p", "d-1", "a+1", "s-3", "s-2", "s-1")
KNOWN_ARITY = len(KNOWN_SLOTS)
UNKNOWN_ARITY = len(UNKNOWN_SLOTS)

MAGIC = b"MBT1"
FORMAT_VERSION = 6

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
    or `interner.id_of`) of the text `_lexicon_tag` joins; a joined text
    that is a marker is refused with ParameterError, since it would take
    the marker's id. The other checks fail only on a model file's
    columns."""
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
        if tag in (interner.boundary, interner.unknown_mark):
            raise ParameterError(
                f"lexicon tag {joined!r} of {word!r} is a marker")
    return Lexicon(tags, n_tags, tag_ids, counts, surviving)


def build_lexicon(corpus: Corpus, interner: Interner,
                  threshold: float = 0.10) -> Lexicon:
    """Count tags per word type, drop categories below `threshold` of the
    word's tokens (the most frequent one always survives), and synthesize
    one lexicon tag per type by joining the survivors with "-" in
    descending-frequency order."""
    _check_threshold(threshold)
    if not corpus.sentences:
        raise ParameterError("cannot build a lexicon from an empty corpus")
    # Counter keys keep first-occurrence order
    by_word: dict[str, dict[str, int]] = {}
    for (word, tag), n in Counter(chain.from_iterable(corpus.sentences)).items():
        interner.intern(tag)
        by_word.setdefault(word, {})[tag] = n
    return lexicon_from_tag_counts(by_word, interner, threshold)


def lexicon_from_tag_counts(
        word_tag_counts: dict[str, dict[str, int]], interner: Interner,
        threshold: float = 0.10) -> Lexicon:
    """Build a lexicon from explicit per-word tag counts (for a corpus,
    hand-built fixtures and external lexical resources). A tag, or a
    lexicon tag joined from tags, that is a marker ("=" or "UNK-A") is
    refused with ParameterError."""
    _check_threshold(threshold)
    n_tags: list[int] = []
    tag_ids: list[int] = []
    counts: list[int] = []
    for word, by_tag in word_tag_counts.items():
        if not by_tag or min(by_tag.values()) < 1:
            raise ParameterError(f"word {word!r} needs tag counts, each >= 1")
        for marker in (BOUNDARY, UNKNOWN_MARK):
            if marker in by_tag:
                raise ParameterError(
                    f"word {word!r} has the tag {marker!r}, a marker")
        n_tags.append(len(by_tag))
        tag_ids += map(interner.intern, by_tag)
        counts += by_tag.values()
    return _lexicon_from_columns(list(word_tag_counts), n_tags, tag_ids,
                                 counts, interner, interner.intern, threshold)


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
        # Saves _walk, run per sentence, a lexicon.known_tags call.
        self._known_tags = lexicon.known_tags(config)

    # -- tagging ---------------------------------------------------------

    def _walk(self, words: list[str], gold_left: list[str] | None
              ) -> Iterator[tuple[str, Vector, int]]:
        """Tag one sentence left to right, yielding (route, query,
        prediction) per token.

        Routing and a+1 come from `_route`, as in training. With
        `gold_left` the d slots hold those tags instead of the tagger's own
        output. A route without a tree answers the fallback tag. The
        windows are built inline: a shared window generator would cost an
        extra generator step per token.
        """
        if not words:
            raise ParameterError("cannot tag an empty sentence")
        if gold_left is not None and len(gold_left) != len(words):
            raise ParameterError("gold_left length differs from sentence length")
        interner = self.interner
        boundary, letter = interner.boundary, interner.id_of
        fallback = self.fallback_tag
        known_tree, unknown_tree = self.known_tree, self.unknown_tree
        focus, right = _route(words, self._known_tags, interner)
        gold = (None if gold_left is None
                else [interner.id_of(t) for t in gold_left])
        d2 = d1 = boundary
        for i, w in enumerate(words):
            f = focus[i]
            if f is not None:
                query = (d2, d1, f, right[i])
                pred = (known_tree.classify(query) if known_tree is not None
                        else fallback)
                yield "known", query, pred
            else:
                if not w:
                    raise ParameterError(f"empty word at position {i}")
                first, s3, s2, s1 = _letter_slots(w, letter, boundary)
                query = (first, d1, right[i], s3, s2, s1)
                pred = (unknown_tree.classify(query)
                        if unknown_tree is not None else fallback)
                yield "unknown", query, pred
            d2, d1 = d1, (pred if gold is None else gold[i])

    def tag_records(self, words: list[str],
                    gold_left: list[str] | None = None) -> list[TokenRecord]:
        """Tag one sentence left to right, keeping per-token records: the
        same loop as `tag`, with the route and query of each token.

        With `gold_left`, the d slots are filled from those tags instead of
        the tagger's own output, isolating the classifiers from error
        propagation.
        """
        # The walk is zipped first, so that it runs (and rejects an empty
        # sentence) before zip sees that `words` is exhausted.
        return [TokenRecord(w, route, query, pred) for (route, query, pred), w
                in zip(self._walk(words, gold_left), words)]

    def tag(self, words: list[str]) -> list[str]:
        """Tag texts for one sentence; output length equals input length.
        Builds no per-token records."""
        text = self.interner.text
        return [text(pred) for _, _, pred in self._walk(words, None)]

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
        """The model file image; its layout is described at `_write_model`."""
        return _write_model(self)

    def save(self, path: str) -> None:
        data = self.to_bytes()
        with open(path, "wb") as fh:
            fh.write(data)

    @classmethod
    def from_bytes(cls, buf: bytes) -> "TaggerModel":
        return _read_model(buf)

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
    """Generate a complete tagger model from a tagged corpus."""
    if not corpus.sentences:
        raise ParameterError("cannot train on an empty corpus")
    interner = Interner()
    lexicon = build_lexicon(corpus, interner, config.threshold)
    # Each base is fitted and dropped before the next is extracted, so one
    # case base is alive at a time. Fitting interns nothing: symbol ids are
    # those of extracting both bases first.
    known_weights, known_tree = _fit(
        extract_known_cases(corpus, lexicon, interner, config), KNOWN_ARITY)
    unknown_weights, unknown_tree = _fit(
        extract_unknown_cases(corpus, lexicon, interner, config), UNKNOWN_ARITY)

    # The lexicon has counted every token's tag once already.
    tag_totals: dict[int, int] = {}
    for tag, n in zip(lexicon.tag_ids, lexicon.counts):
        tag_totals[tag] = tag_totals.get(tag, 0) + n
    fallback = majority_class(tag_totals, interner)

    return TaggerModel(interner, lexicon, config, known_weights,
                       unknown_weights, known_tree, unknown_tree, fallback)


# -- model file -------------------------------------------------------------
# `_write_model` and `_read_model` are the only code that knows the layout.

_U32 = struct.Struct("<I")
_COLUMN_TYPES = {1: "B", 2: "H", 4: "I"}  # array typecode per width
_SWAP = sys.byteorder == "big"  # columns are little-endian in the file
# threshold, route numerals to unknown, fallback tag, has closed classes
_CONFIG = struct.Struct("<dBIB")


def _column(values: Sequence[int]) -> bytes:
    """Element width (1, 2 or 4 bytes, the smallest that holds the largest
    value), then the values little-endian. The count is not stored: the
    reader knows it."""
    top = max(values, default=0)
    width = 1 if top < 1 << 8 else 2 if top < 1 << 16 else 4
    col = array(_COLUMN_TYPES[width], values)
    if _SWAP:
        col.byteswap()
    return bytes((width,)) + col.tobytes()


def _texts(texts: Sequence[str]) -> bytes:
    """The UTF-8 byte count, then the texts, each ended by "\n". A text
    that contains "\n" is refused with StructureError: no corpus word, tag
    or letter holds one, since corpus and tag input split lines at it."""
    joined = "\n".join([*texts, ""])
    if joined.count("\n") != len(texts):
        bad = next(t for t in texts if "\n" in t)
        raise StructureError(f"text {bad!r} contains a newline")
    blob = joined.encode("utf-8")
    return _U32.pack(len(blob)) + blob


def _node_ints(node: IGTreeNode, ints: list[int]) -> None:
    """Preorder: default, arc count, then per arc its value and subtree."""
    ints += (node.default, len(node.arcs))
    for value, child in node.arcs.items():
        ints.append(value)
        _node_ints(child, ints)


def _write_model(model: TaggerModel) -> bytes:
    """The model file, version 6. Integers are little-endian u32 unless
    marked; a column is `_column`'s, texts are `_texts`'.

        header     b"MBT1", u16 version
        interner   every symbol (feature value) text in id order after the
                   two markers (`Interner.from_table` adds them), as texts
        config     f64 threshold, u8 route numbers to unknown, fallback
                   tag, u8 has closed classes (0 or 1); if 1, the sorted
                   closed-class tags as texts
        lexicon    the words as texts, then columns: per word its tag
                   count; every word's tag ids; the counts of those tags
        weights    known then unknown: arity (4, then 6) f64 gains
        trees      known then unknown: u8 present (0 or 1); if present,
                   case count, the count of its preorder ints, then those
                   ints (`_node_ints`) as a column
        trailer    CRC-32 (`zlib.crc32`) of every byte before it

    A word's surviving tags and lexicon tag are not stored: they follow
    from its tag counts and the threshold (`_lexicon_tag`). Nor is a tree's
    feature order: it is `feature_order` of its gains, as in `build`, and a
    tree in another order is refused with StructureError, as are gains
    whose count is not their base's arity.
    """
    interner, config = model.interner, model.config
    closed = config.closed_class_tags
    out = bytearray(MAGIC)
    out += struct.pack("<H", FORMAT_VERSION)
    out += _texts(list(interner)[2:])
    out += _CONFIG.pack(config.threshold, config.route_numbers_to_unknown,
                        model.fallback_tag, closed is not None)
    if closed is not None:
        out += _texts(sorted(closed))
    lexicon = model.lexicon
    out += _texts(list(lexicon.tags))
    out += _column(lexicon.n_tags)
    out += _column(lexicon.tag_ids)
    out += _column(lexicon.counts)
    bases = (("known", KNOWN_ARITY, model.known_weights, model.known_tree),
             ("unknown", UNKNOWN_ARITY, model.unknown_weights,
              model.unknown_tree))
    for base, arity, weights, _ in bases:
        if len(weights) != arity:
            raise StructureError(f"{base} gains: {len(weights)} values for "
                                 f"arity {arity}")
        out += struct.pack(f"<{arity}d", *weights)
    for _, _, weights, tree in bases:
        if tree is None:
            out.append(0)
            continue
        if tree.feature_order != feature_order(weights):
            raise StructureError(f"tree feature order {tree.feature_order} "
                                 "is not the order of its gains")
        out.append(1)
        ints: list[int] = []
        _node_ints(tree.root, ints)
        out += struct.pack("<2I", tree.case_count, len(ints))
        out += _column(ints)
    out += _U32.pack(zlib.crc32(out))
    return bytes(out)


def _flag(byte: int) -> bool:
    if byte > 1:
        raise ModelFormatError(f"flag byte {byte} is neither 0 nor 1")
    return byte == 1


def _read_column(buf: bytes, off: int, n: int) -> tuple[array, int]:
    """Inverse of `_column`, for a column of `n` values; a width wider than
    the values need is rejected, so that a column has one encoding."""
    width = buf[off]
    typecode = _COLUMN_TYPES.get(width)
    if typecode is None:
        raise ModelFormatError(f"column width {width} is not 1, 2 or 4")
    start = off + 1
    off = start + width * n
    if off > len(buf):
        raise ModelFormatError("truncated column")
    col = array(typecode)
    col.frombytes(buf[start:off])
    if _SWAP:
        col.byteswap()
    # width 2 is needed from 2**8 on, width 4 from 2**16 on
    if width > 1 and max(col, default=0) < 1 << 4 * width:
        raise ModelFormatError(
            f"column width {width} is wider than its values")
    return col, off


def _read_texts(buf: bytes, off: int) -> tuple[list[str], int]:
    """Inverse of `_texts`: the texts are split at "\n" only."""
    (size,) = _U32.unpack_from(buf, off)
    start = off + 4
    off = start + size
    if off > len(buf):
        raise ModelFormatError("truncated text list")
    if size == 0:
        return [], off
    if buf[off - 1] != ord("\n"):
        raise ModelFormatError("text list does not end with a newline")
    return buf[start:off - 1].decode("utf-8").split("\n"), off


def _read_lexicon(buf: bytes, off: int, interner: Interner,
                  threshold: float) -> tuple[Lexicon, int]:
    """The lexicon's words and three columns, checked in full; each lexicon
    tag is recomputed as `lexicon_from_tag_counts` computes it, interning
    nothing."""
    words, off = _read_texts(buf, off)
    n_tags, off = _read_column(buf, off, len(words))
    tag_ids, off = _read_column(buf, off, sum(n_tags))
    counts, off = _read_column(buf, off, len(tag_ids))
    if max(tag_ids, default=0) >= len(interner):
        raise ModelFormatError("lexicon tag id is not a symbol")
    if min(tag_ids, default=2) < 2:  # ids 0 and 1 are the two markers
        raise ModelFormatError("lexicon tag id is a marker")
    if 0 in n_tags or 0 in counts:
        raise ModelFormatError("lexicon count of zero")
    return _lexicon_from_columns(
        words, n_tags.tolist(), tag_ids.tolist(), counts.tolist(), interner,
        interner.id_of, threshold), off


def _read_node(ints: list[int], i: int, depth_left: int, n_symbols: int
               ) -> tuple[IGTreeNode, int]:
    """The node whose ints start at `ints[i]`, its subtree, and the index
    after them, checked so that tagging cannot fail on it: every default
    and arc value is a symbol, and no arc hangs below the last feature
    (which also bounds the recursion)."""
    default, n_arcs = ints[i], ints[i + 1]
    i += 2
    if default >= n_symbols:
        raise ModelFormatError(f"tree default {default} is not a symbol")
    if n_arcs and depth_left == 0:
        raise ModelFormatError("tree arcs below the last feature")
    arcs: dict[int, IGTreeNode] = {}
    for _ in range(n_arcs):
        value = ints[i]
        if value >= n_symbols:
            raise ModelFormatError(f"tree arc value {value} is not a symbol")
        arcs[value], i = _read_node(ints, i + 1, depth_left - 1, n_symbols)
    if len(arcs) != n_arcs:
        raise ModelFormatError("repeated tree arc value")
    return IGTreeNode(default, arcs), i


def _read_tree(buf: bytes, off: int, weights: FeatureWeights, n_symbols: int
               ) -> tuple[IGTree | None, int]:
    """A tree that tests its features in the order of its gains, `weights`,
    holds a case (`build` refuses an empty base) and uses all its ints."""
    if not _flag(buf[off]):
        return None, off + 1
    case_count, n_ints = struct.unpack_from("<2I", buf, off + 1)
    if case_count == 0:
        raise ModelFormatError("tree with no cases")
    ints, off = _read_column(buf, off + 9, n_ints)
    order = feature_order(weights)
    # ints that end inside a node raise IndexError: see `_read_model`
    root, end = _read_node(ints.tolist(), 0, len(order), n_symbols)
    if end != n_ints:
        raise ModelFormatError(f"{n_ints - end} tree values left over")
    return IGTree(root, order, case_count), off


@collector_paused
def _read_model(buf: bytes) -> TaggerModel:
    """Inverse of `_write_model`. Checks, in order: the magic bytes, the
    version, the CRC, then the body. Any buffer that is not a model file
    raises ModelFormatError; so does any symbol id the interner lacks."""
    if buf[:4] != MAGIC:
        raise ModelFormatError("bad magic bytes: not a tagger model file")
    if len(buf) < 6:
        raise ModelFormatError("truncated model header")
    (version,) = struct.unpack_from("<H", buf, 4)
    if version != FORMAT_VERSION:
        raise ModelFormatError(
            f"model version {version} is not supported (this memtag reads "
            f"version {FORMAT_VERSION}); retrain the model")
    body = buf[:-4]
    if (len(buf) < 10
            or zlib.crc32(body) != _U32.unpack_from(buf, len(body))[0]):
        raise ModelFormatError("CRC mismatch: the model file is corrupt "
                               "or truncated")
    try:
        texts, off = _read_texts(body, 6)
        interner = Interner.from_table(texts)
        n_symbols = len(interner)
        threshold, route_numbers, fallback, has_closed = (
            _CONFIG.unpack_from(body, off))
        off += _CONFIG.size
        if fallback >= n_symbols:
            raise ModelFormatError(f"fallback tag {fallback} is not a symbol")
        closed = None
        if _flag(has_closed):
            tags, off = _read_texts(body, off)
            if tags != sorted(set(tags)):
                raise ModelFormatError(
                    "closed-class tags are not sorted and distinct")
            closed = frozenset(tags)
        config = TaggerConfig(threshold, closed, _flag(route_numbers))
        lexicon, off = _read_lexicon(body, off, interner, threshold)
        weights = []
        for arity in (KNOWN_ARITY, UNKNOWN_ARITY):
            weights.append(struct.unpack_from(f"<{arity}d", body, off))
            off += 8 * arity
        known_tree, off = _read_tree(body, off, weights[0], n_symbols)
        unknown_tree, off = _read_tree(body, off, weights[1], n_symbols)
    except ModelFormatError:
        raise
    except (struct.error, IndexError, ValueError) as exc:
        # ValueError covers bad UTF-8, Interner.from_table's checks, and
        # TaggerConfig's threshold check and a lexicon tag that is a marker
        # (both ParameterErrors)
        raise ModelFormatError(f"corrupt model file: {exc}") from exc
    if off != len(body):
        raise ModelFormatError(f"{len(body) - off} trailing bytes")
    return TaggerModel(interner, lexicon, config, weights[0], weights[1],
                       known_tree, unknown_tree, fallback)
