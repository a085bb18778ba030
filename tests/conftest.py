import os
import random
import struct

import pytest
from hypothesis import HealthCheck, settings

from memtag.casebase import CaseBase
from memtag.corpus import read_corpus
from memtag.igtree import stats
from memtag.interning import Interner
from memtag.synth import SynthConfig, synth_corpus
from memtag.taggen import train

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


def tree_header(tree):
    """The first bytes of a tree's section in the model file, after its
    presence byte: arity, case count, feature order."""
    return struct.pack(f"<{2 + tree.arity}I", tree.arity, tree.case_count,
                       *tree.feature_order)


LEAF = struct.pack("<2I", 0, 0)  # a tree node: default symbol 0, no arcs


def f1_model_with_known_nodes(nodes):
    """The f1 model file with its known tree's nodes replaced by `nodes`."""
    model = train(read_corpus(F1_PATH))
    data = model.to_bytes()
    header = tree_header(model.known_tree)
    start = data.index(header)
    end = start + stats(model.known_tree).serialized_bytes
    return data[:start] + header + nodes + data[end:]


def chained_known_tree_model(depth):
    """The f1 model with its known tree replaced by a chain of `depth`
    one-arc nodes (default and arc value both symbol 0) ending in a leaf."""
    return f1_model_with_known_nodes(struct.pack("<3I", 0, 1, 0) * depth + LEAF)


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
    base = CaseBase(arity, interner)
    coef = [rng.randint(1, 7) for _ in range(arity)]
    for _ in range(n_cases):
        vec = tuple(interner.id_of(f"v{f}_{rng.randrange(values[f])}")
                    for f in range(arity))
        if rng.random() < 0.8:
            cls = classes[sum(c * v for c, v in zip(coef, vec)) % n_classes]
        else:
            cls = rng.choice(classes)
        base.add(vec, cls)
    return base, rng


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
