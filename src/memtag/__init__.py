"""Memory-based part-of-speech tagger generator.

Learns a tagger from any tagged corpus: a lexicon plus two case bases
(known words by context, unknown words by form and context), each weighted
by information gain and compressed into an oblivious decision trie that
classifies in time independent of the number of training cases. Brute-force
nearest-neighbor classifiers are included as reference oracles, along with
evaluation, cross-validation, learning curves and an algorithm comparison.
"""

from .casebase import CaseBase, majority_class
from .corpus import Corpus, Token, cv_folds, parse_corpus, read_corpus, write_corpus
from .errors import (CorpusParseError, EmptyCorpusError, ModelFormatError,
                     ParameterError, StructureError)
from .evaluation import (EvalReport, compare_algorithms, cross_validate,
                         evaluate, learning_curve)
from .ib import classify_ib1, classify_ib1ig, nearest_set
from .igtree import IGTree, build, prune, stats
from .interning import Interner
from .metrics import class_entropy, information_gains
from .synth import SynthConfig, synth_corpus
from .taggen import (TaggerConfig, TaggerModel, build_lexicon,
                     extract_known_cases, extract_unknown_cases, train)

__version__ = "0.1.0"
