"""Text and tagged-corpus reading and writing, and train/test partitioning.

Corpus format: one sentence per line, tokens separated by single spaces, word
and tag joined by the last "/" in the token. The last-slash rule makes tokens
with embedded slashes unambiguous: "1/2/CD" is the word "1/2" tagged "CD".
"""

from __future__ import annotations

import codecs
import functools
import gc
import os
import random
import sys
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

from .errors import CorpusParseError, EmptyCorpusError, ParameterError


def collector_paused(func: Callable) -> Callable:
    """Run each call of `func` with the cyclic garbage collector off.

    A bulk build allocates enough objects to start many collections, and
    each full one walks every tracked object alive while freeing nothing:
    memtag's bulk builds make no reference cycles. Per paused call, a full
    collection would walk the `Token`s built by `parse_corpus` and
    `synth_corpus` (a tuple subclass, which CPython tracks for life); the
    corpus's `Token`s and the lexicon, case bases and trie nodes of
    `taggen.train`; the trie nodes and arc dicts of `modelfile._read_model`;
    the lexicon, case base and index buckets of `compare_algorithms`.
    README's "How it works" cites the measured cost. On return or on an
    exception the collector is turned back on only if it was on when the
    call began, so nested calls and callers that turned it off keep their
    state. The pause is process-wide: another thread's collections wait
    until the call ends.
    """
    @functools.wraps(func)
    def paused(*args, **kwargs):
        was_on = gc.isenabled()
        gc.disable()
        try:
            return func(*args, **kwargs)
        finally:
            if was_on:
                gc.enable()
    return paused


class Token(NamedTuple):
    word: str
    tag: str


Sentence = list[Token]


@dataclass
class Corpus:
    sentences: list[Sentence] = field(default_factory=list)

    @property
    def token_count(self) -> int:
        return sum(len(s) for s in self.sentences)

    def __len__(self) -> int:
        return len(self.sentences)


@collector_paused
def parse_corpus(text: str, source: str | None = None) -> Corpus:
    """Parse a tagged corpus from a string.

    Blank lines are skipped; a token without a separator or with an empty
    word/tag half is an error reported with its line number and, when given,
    the name of its `source`. Tokens with the same text are one `Token`.
    """
    sentences: list[Sentence] = []
    # Token's own constructor is a Python-level function; tuple.__new__
    # builds the same Token without that call.
    new_tuple = tuple.__new__
    # One Token per distinct token text, and one str object per distinct
    # word or tag text, so tokens with one word and different tags share
    # that word. Both dicts live for this call only.
    tokens: dict[str, Token] = {}
    known, remember = tokens.get, tokens.setdefault
    share = {}.setdefault
    # "\n" only: str.splitlines() also splits at form feeds, U+2028 and
    # other separators that a user's text editor shows inside one line.
    for line_no, line in enumerate(text.split("\n"), start=1):
        items = line.split()
        if not items:
            continue
        # Texts seen on earlier lines are looked up in C; only the rest are
        # parsed, in line order, so the first fault on the line is named.
        sent: Sentence = list(map(known, items))
        if not all(sent):  # a Token is a non-empty tuple, never false
            for i, tok in enumerate(sent):
                if tok is not None:
                    continue
                item = items[i]
                word, sep, tag = item.rpartition("/")
                if not (word and tag):  # no separator leaves the word empty
                    problem = ("has an empty word or tag" if sep
                               else "has no word/tag separator")
                    raise CorpusParseError(f"token {item!r} {problem}",
                                           line_no, source)
                # A text repeated on this line keeps its first Token.
                sent[i] = remember(item, new_tuple(
                    Token, (share(word, word), share(tag, tag))))
        sentences.append(sent)
    if not sentences:
        raise EmptyCorpusError("corpus contains no sentences", None, source)
    return Corpus(sentences)


def read_text(path: str | None) -> str:
    """The UTF-8 text of the file at `path` or, for None, of standard input,
    without a leading byte order mark. "\r\n" and "\r" read as "\n" from
    every source, as a file opened in text mode reads them. A missing file
    is a ParameterError; a byte that is not UTF-8 is a CorpusParseError
    naming the file (or "<stdin>") and the line."""
    if path is None:
        source, data = "<stdin>", sys.stdin.buffer.read()
    else:
        if not os.path.isfile(path):
            raise ParameterError(f"no such file: {path}")
        with open(path, "rb") as fh:
            source, data = path, fh.read()
    # Not the utf-8-sig codec: its error offsets would not index `data`.
    data = data.removeprefix(codecs.BOM_UTF8)
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # "\r" and "\n" are never part of a longer UTF-8 sequence.
        head = data[:exc.start].replace(b"\r\n", b"\n").replace(b"\r", b"\n")
        raise CorpusParseError(f"byte 0x{data[exc.start]:02x} is not UTF-8",
                               head.count(b"\n") + 1, source) from None
    return text.replace("\r\n", "\n").replace("\r", "\n")


def write_text(path: str | None, text: str) -> None:
    """`text` as UTF-8, its line ends written as they are, to the file at
    `path` or, for None, to standard output."""
    data = text.encode("utf-8")
    if path is None:
        sys.stdout.flush()  # what was printed before comes first
        sys.stdout.buffer.write(data)
    else:
        with open(path, "wb") as fh:
            fh.write(data)


def read_corpus(path: str) -> Corpus:
    """The corpus in the file at `path`, read by `read_text`. Every error
    names the file, and a malformed line its line number too."""
    return parse_corpus(read_text(path), path)


def format_corpus(corpus: Corpus) -> str:
    lines = []
    for sent in corpus.sentences:
        lines.append(" ".join(f"{tok.word}/{tok.tag}" for tok in sent))
    return "\n".join(lines) + "\n"


def write_corpus(corpus: Corpus, path: str) -> None:
    write_text(path, format_corpus(corpus))


def cv_folds(corpus: Corpus, k: int, seed: int = 0) -> list[tuple[Corpus, Corpus]]:
    """k cross-validation pairs; the k test folds partition the sentences."""
    n = len(corpus)
    if k < 2:
        raise ParameterError(f"fold count must be >= 2, got {k}")
    if n < k:
        raise ParameterError(f"corpus has {n} sentences, fewer than {k} folds")
    order = list(range(n))
    random.Random(seed).shuffle(order)
    folds = []
    for i in range(k):
        test_idx = set(order[i::k])
        train = Corpus([corpus.sentences[j] for j in range(n) if j not in test_idx])
        test = Corpus([corpus.sentences[j] for j in range(n) if j in test_idx])
        folds.append((train, test))
    return folds
