import hashlib

from memtag.corpus import format_corpus
from memtag.synth import SynthConfig, synth_corpus


def test_synth_corpus_is_pinned():
    # The benchmark workloads and the acceptance corpora are synth corpora;
    # a generator change would silently move every figure measured on them.
    text = format_corpus(synth_corpus(SynthConfig(n_tokens=3000, seed=1)))
    assert (hashlib.sha1(text.encode("utf-8")).hexdigest()
            == "74940dbbe3732ea66bc053fb9a387ea45e31a003")
