import os
import random
import struct
import zlib

import pytest
from hypothesis import HealthCheck, settings

from memtag.casebase import CaseBase, majority_class
from memtag.corpus import read_corpus
from memtag.ib import nearest_set
from memtag.igtree import stats
from memtag.interning import Interner
from memtag.modelfile import sections
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


def tree_section(tree, ints=None, n_ints=None, width=None, case_count=None):
    """A tree's section in the model file: its presence byte, then the case
    count, the count of its preorder ints and those ints as a column. The
    feature order is not stored. An absent tree (None) is its presence
    byte alone. `ints` (as a column of `width`, by default the smallest),
    `n_ints` (by default the count of the ints) and `case_count` replace
    the tree's own."""
    if tree is None:
        return b"\x00"
    if ints is None:
        ints = preorder(tree.root)
    return (struct.pack("<B2I", 1,
                        tree.case_count if case_count is None else case_count,
                        len(ints) if n_ints is None else n_ints)
            + column(ints, width))


LEAF = [0, 0]  # a tree node's ints: default symbol 0, no arcs


def with_section(data, name, old, new):
    """The model file `data` with its section `name`, which must hold
    exactly `old`, replaced by `new`, the CRC recomputed. The section is
    found by the reader's own section map."""
    ((start, stop),) = [(a, b) for n, a, b in sections(data) if n == name]
    assert data[start:stop] == old
    return with_crc(data[:start] + new + data[stop:])


def with_tree_ints(model, name, ints, n_ints=None, width=None):
    """`model`'s file with the preorder ints of its tree `name`
    ("known_tree" or "unknown_tree", the section and attribute name)
    replaced as `tree_section` replaces them, the CRC recomputed."""
    tree = getattr(model, name)
    return with_section(model.to_bytes(), name, tree_section(tree),
                        tree_section(tree, ints, n_ints, width))


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


def header_section(magic=b"MBT1", version=6):
    """A model file's header section: the magic bytes and a u16 version."""
    return magic + struct.pack("<H", version)


def interner_table(model):
    """The interner section of `model`'s file: its texts after the two
    markers, which the file does not store."""
    return text_table(list(model.interner)[2:])


def config_section(model, **change):
    """The config section of `model`'s file: the f64 threshold, the u8
    route-numerals flag, the fallback tag, the u8 has-closed-classes flag,
    then, if there are closed classes, their sorted tags as a text list.
    `change` replaces fields by name: `threshold`, `has_closed` or
    `closed` (tags written in the order given)."""
    config = model.config
    closed = config.closed_class_tags
    fields = {"threshold": config.threshold, "has_closed": closed is not None,
              "closed": None if closed is None else sorted(closed), **change}
    head = struct.pack("<dBIB", fields["threshold"],
                       config.route_numbers_to_unknown, model.fallback_tag,
                       fields["has_closed"])
    return head + (b"" if fields["closed"] is None
                   else text_table(fields["closed"]))


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
    return with_section(model.to_bytes(), "lexicon",
                        lexicon_section(*lexicon_columns(model)), section)


SECTION_NAMES = ("header", "interner", "config", "lexicon", "weights",
                 "known_tree", "unknown_tree", "trailer")


def check_section_map(model):
    """`model`'s file, whose section map names the sections in file order,
    tiles the file, and places in each section the bytes that this file's
    encoders build independently of the writer: a present tree's section
    is 10 + width × (3·nodes − 1) bytes, presence byte included, and an
    absent tree's is 1 byte."""
    data = model.to_bytes()
    found = sections(data)
    assert tuple(name for name, _, _ in found) == SECTION_NAMES
    bounds = [0, *(stop for _, _, stop in found)]
    assert [(start, stop) for _, start, stop in found] == list(
        zip(bounds, bounds[1:]))
    assert bounds == sorted(bounds) and bounds[-1] == len(data)
    weights = struct.pack("<4d6d", *model.known_weights, *model.unknown_weights)
    want = {"header": header_section(), "interner": interner_table(model),
            "config": config_section(model),
            "lexicon": lexicon_section(*lexicon_columns(model)),
            "weights": weights}
    for name, start, stop in found:
        if name == "trailer":
            want[name] = struct.pack("<I", zlib.crc32(data[:start]))
        elif name.endswith("_tree"):
            tree = getattr(model, name)
            want[name] = tree_section(tree)
            size = 1
            if tree is not None:
                width = len(column([max(preorder(tree.root))])) - 1
                size = 10 + width * (3 * stats(tree).nodes - 1)
            assert stop - start == size
        assert data[start:stop] == want[name], name


def fingerprint(tree):
    """Everything the model file stores of a tree, arc order included."""
    def node(n):
        return n.default, tuple((v, node(child)) for v, child in n.arcs.items())
    return tree.arity, tree.case_count, tree.feature_order, node(tree.root)


def f1_model_with_known_nodes(ints, n_ints=None, width=None):
    """The f1 model file with its known tree's preorder ints replaced as
    `with_tree_ints` replaces them, the CRC recomputed."""
    return with_tree_ints(train(read_corpus(F1_PATH)), "known_tree", ints,
                          n_ints, width)


def chained_known_tree_model(depth):
    """The f1 model with its known tree replaced by a chain of `depth`
    one-arc nodes (default and arc value both symbol 0) ending in a leaf,
    the CRC recomputed."""
    return f1_model_with_known_nodes([0, 1, 0] * depth + LEAF)


def distance_overlap(x, y):
    """Reference overlap distance: the count of positions where x and y
    disagree."""
    return sum(a != b for a, b in zip(x, y, strict=True))


def distance_weighted(x, y, weights):
    """Reference weighted overlap distance: the weights of the positions
    where x and y disagree, summed in feature order from 0.0."""
    d = 0.0
    for a, b, w in zip(x, y, weights, strict=True):
        if a != b:
            d += w
    return d


def one_pattern_distance(x, y, weights=None):
    """The distance that `ib.nearest_set` computes from query y to x, the
    only pattern of a case base; unit weights when `weights` is None."""
    base = CaseBase(len(x), Interner(), [(x, 0)])
    return nearest_set(base, y, weights).distance


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


SYNTH_SMALL = SynthConfig(n_tokens=8_000, seed=11)


@pytest.fixture(scope="session")
def synth_small():
    return synth_corpus(SYNTH_SMALL)


@pytest.fixture(scope="session")
def synth_medium():
    return synth_corpus(SynthConfig(n_tokens=30_000, seed=7))


@pytest.fixture(scope="session")
def synth_100k():
    return synth_corpus(SynthConfig(n_tokens=105_000, seed=3))


@pytest.fixture(scope="session")
def synth_300k():
    return synth_corpus(SynthConfig(n_tokens=300_000, seed=5))
