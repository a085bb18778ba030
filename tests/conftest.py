import os
import random
import struct
import zlib

import pytest
from hypothesis import HealthCheck, settings

from memtag.casebase import CaseBase, majority_class
from memtag.corpus import read_corpus
from memtag.interning import Interner
from memtag.synth import SynthConfig, synth_corpus
from memtag.taggen import LexicalEntry, Lexicon, train

settings.register_profile(
    "suite", deadline=None,
    suppress_health_check=[HealthCheck.too_slow])
settings.load_profile("suite")

DATA_DIR = os.path.join(os.path.dirname(__file__), "data")
F1_PATH = os.path.join(DATA_DIR, "f1.tagged")

# The first sentence of the WSJ as printed in the case-representation
# tables, with the lexicon tags those tables assume ("old" is jj-np there:
# more often jj than np in the full corpus).
PV_SENTENCE = (
    "Pierre/np Vinken/np ,/, 61/cd years/nns old/jj ,/, will/md join/vb "
    "the/dt board/nn as/in a/dt nonexecutive/jj director/nn nov./np 29/cd ./.")
PV_LEXICON = {
    "Pierre": {"np": 1}, "Vinken": {"np": 1}, ",": {",": 2}, "61": {"cd": 1},
    "years": {"nns": 1}, "old": {"jj": 2, "np": 1}, "will": {"md": 1},
    "join": {"vb": 1}, "the": {"dt": 1}, "board": {"nn": 1}, "as": {"in": 1},
    "a": {"dt": 1}, "nonexecutive": {"jj": 1}, "director": {"nn": 1},
    "nov.": {"np": 1}, "29": {"cd": 1}, ".": {".": 1},
}


def readme_section(heading):
    """The text of README's `## heading` section, up to the next one."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "README.md"), encoding="utf-8") as fh:
        readme = fh.read()
    return readme.split(f"\n## {heading}\n", 1)[1].split("\n## ", 1)[0]


def texts(interner, sids):
    """The texts of symbol ids, in order."""
    return tuple(map(interner.text, sids))


def majority(base):
    """The most frequent class over all of a case base's cases."""
    return majority_class(base.class_counts(), base.interner)


def count_lexical_entries(monkeypatch):
    """A list that grows by one for every LexicalEntry built from now on,
    until the monkeypatch is undone."""
    built = []
    init = LexicalEntry.__init__

    def counting_init(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(LexicalEntry, "__init__", counting_init)
    return built


def count_lexicons(monkeypatch):
    """A list that grows by one for every Lexicon built (each builds its
    routing map) from now on, until the monkeypatch is undone."""
    built = []
    post_init = Lexicon.__post_init__

    def counting_post_init(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(Lexicon, "__post_init__", counting_post_init)
    return built


def preorder(node):
    """A tree's ints as the model file stores them: per node in preorder
    its default and arc count, and before each child its arc value."""
    ints = [node.default, len(node.arcs)]
    for value, child in node.arcs.items():
        ints += [value, *preorder(child)]
    return ints


def tree_header(tree, n_ints):
    """The first bytes of a tree's section in the model file, after its
    presence byte: the case count and the count of its preorder ints. The
    feature order is not stored."""
    return struct.pack("<2I", tree.case_count, n_ints)


def tree_section(tree):
    """A tree's section in the model file, after its presence byte: its
    header, then its preorder ints as a column."""
    ints = preorder(tree.root)
    return tree_header(tree, len(ints)) + column(ints)


def tree_start(model, tree):
    """Where `tree`'s section starts in `model`'s file, after its presence
    byte. Both trees must be present: they end the body, the known one and
    then the unknown one, each after its presence byte."""
    start = len(model.to_bytes()) - 4 - len(tree_section(model.unknown_tree))
    if tree is model.unknown_tree:
        return start
    return start - 1 - len(tree_section(model.known_tree))


LEAF = [0, 0]  # a tree node's ints: default symbol 0, no arcs


def with_tree_ints(model, tree, ints, n_ints=None, width=None):
    """`model`'s file with `tree`'s preorder ints replaced by `ints` (as a
    column of `width`, by default the smallest), its stored int count by
    `n_ints` (by default the count of `ints`), the CRC recomputed."""
    data = model.to_bytes()
    start = tree_start(model, tree)
    old = tree_section(tree)
    assert data[start:start + len(old)] == old
    new = (tree_header(tree, len(ints) if n_ints is None else n_ints)
           + column(ints, width))
    return with_crc(data[:start] + new + data[start + len(old):])


def with_crc(data):
    """A patched model file with its CRC-32 trailer recomputed, so that the
    reader's body checks see the patch."""
    body = bytes(data[:-4])
    return body + struct.pack("<I", zlib.crc32(body))


def column(values, width=None):
    """A column of the model file: its element width (by default the
    smallest of 1, 2 and 4 bytes that holds the values), then the values
    little-endian. The file stores no count."""
    if width is None:
        top = max(values, default=0)
        width = 1 if top < 1 << 8 else 2 if top < 1 << 16 else 4
    code = {1: "B", 2: "H", 4: "I"}[width]
    return struct.pack(f"<B{len(values)}{code}", width, *values)


def text_table(texts):
    """A text list of the model file (the interner after its two markers,
    the closed-class tags, the lexicon's words): the UTF-8 byte count, then
    the texts, each ended by a newline."""
    blob = "".join(t + "\n" for t in texts).encode("utf-8")
    return struct.pack("<I", len(blob)) + blob


def interner_table(model):
    """The interner section of `model`'s file: its texts after the two
    markers, which the file does not store."""
    return text_table(list(model.interner)[2:])


def config_offset(model):
    """Where the config section starts: after the header and the interner."""
    return 6 + len(interner_table(model))


def lexicon_columns(model):
    """What the lexicon section of a model file stores, as lists: the
    words, tags per word, then every word's tag ids and counts."""
    lexicon = model.lexicon
    return (list(lexicon.tags), list(lexicon.n_tags), list(lexicon.tag_ids),
            list(lexicon.counts))


def lexicon_section(words, *columns):
    """A lexicon section of the model file: the words as a text list, then
    the columns."""
    return text_table(words) + b"".join(map(column, columns))


def f1_model_with_lexicon(section):
    """The f1 model file with its lexicon section replaced by `section`,
    the CRC recomputed."""
    model = train(read_corpus(F1_PATH))
    data = model.to_bytes()
    start = config_offset(model) + 14  # a config without closed classes
    old = lexicon_section(*lexicon_columns(model))
    assert data[start:start + len(old)] == old
    return with_crc(data[:start] + section + data[start + len(old):])


def fingerprint(tree):
    """Everything the model file stores of a tree, arc order included."""
    def node(n):
        return n.default, tuple((v, node(child)) for v, child in n.arcs.items())
    return tree.arity, tree.case_count, tree.feature_order, node(tree.root)


def f1_model_with_known_nodes(ints, n_ints=None, width=None):
    """The f1 model file with its known tree's preorder ints replaced as
    `with_tree_ints` replaces them, the CRC recomputed."""
    model = train(read_corpus(F1_PATH))
    return with_tree_ints(model, model.known_tree, ints, n_ints, width)


def chained_known_tree_model(depth):
    """The f1 model with its known tree replaced by a chain of `depth`
    one-arc nodes (default and arc value both symbol 0) ending in a leaf,
    the CRC recomputed."""
    return f1_model_with_known_nodes([0, 1, 0] * depth + LEAF)


def random_case_base(seed):
    """Random symbolic base with duplicates and label noise, and the rng that
    drew it. Zero-gain features make the weighted distance-0 neighbor set
    non-singleton, so a caller comparing the tree with IB1-IG filters on
    all-positive gains."""
    rng = random.Random(seed)
    while True:
        arity = rng.choice([4, 5, 6])
        values = [rng.randint(2, 6 if arity == 4 else 4) for _ in range(arity)]
        space = 1
        for v in values:
            space *= v
        if space <= 1400:
            break
    n_classes = rng.randint(2, 5)
    n_cases = rng.choice([60, 120, 300, 700, 1500, 3000, 5000])
    interner = Interner()
    classes = [interner.intern(f"C{i}") for i in range(n_classes)]
    for f in range(arity):
        for v in range(max(values)):
            interner.intern(f"v{f}_{v}")
    coef = [rng.randint(1, 7) for _ in range(arity)]
    cases = []
    for _ in range(n_cases):
        vec = tuple(interner.id_of(f"v{f}_{rng.randrange(values[f])}")
                    for f in range(arity))
        if rng.random() < 0.8:
            cls = classes[sum(c * v for c, v in zip(coef, vec)) % n_classes]
        else:
            cls = rng.choice(classes)
        cases.append((vec, cls))
    return CaseBase(arity, interner, cases), rng


@pytest.fixture(scope="session")
def f1():
    return read_corpus(F1_PATH)


@pytest.fixture(scope="session")
def synth_small():
    return synth_corpus(SynthConfig(n_tokens=8_000, seed=11))


@pytest.fixture(scope="session")
def synth_medium():
    return synth_corpus(SynthConfig(n_tokens=30_000, seed=7))


@pytest.fixture(scope="session")
def synth_100k():
    return synth_corpus(SynthConfig(n_tokens=105_000, seed=3))


@pytest.fixture(scope="session")
def synth_300k():
    return synth_corpus(SynthConfig(n_tokens=300_000, seed=5))
