import hashlib

import pytest

from memtag.corpus import format_corpus
from memtag.errors import ParameterError
from memtag.synth import SynthConfig, synth_corpus


def test_synth_corpus_is_pinned():
    # The benchmark workloads and the acceptance corpora are synth corpora;
    # a generator change would silently move every figure measured on them.
    text = format_corpus(synth_corpus(SynthConfig(n_tokens=3000, seed=1)))
    assert (hashlib.sha1(text.encode("utf-8")).hexdigest()
            == "74940dbbe3732ea66bc053fb9a387ea45e31a003")


def test_too_few_types_names_the_tag_without_a_word():
    # a chain tag that drew no word type fails at its first draw
    with pytest.raises(ParameterError,
                       match="too few types: none bears tag 'CC'"):
        synth_corpus(SynthConfig(n_tokens=2000, n_types=40, seed=1))
    for n_types in (1, 2, 5, 10, 20):
        with pytest.raises(ParameterError, match="too few types"):
            synth_corpus(SynthConfig(n_tokens=2000, n_types=n_types, seed=0))


@pytest.mark.parametrize("n_tokens", [0, -5])
def test_no_tokens_refused(n_tokens):
    with pytest.raises(ParameterError,
                       match=f"n_tokens must be >= 1, got {n_tokens}"):
        synth_corpus(SynthConfig(n_tokens=n_tokens))
