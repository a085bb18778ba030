"""memtag's bulk calls run with the cyclic garbage collector paused, and
every call leaves the collector as it found it."""

import gc
import inspect
import sys

import pytest

from memtag import modelfile
from memtag.corpus import Corpus, format_corpus, parse_corpus
from memtag.errors import CorpusParseError, ParameterError
from memtag.evaluation import compare_algorithms, cross_validate
from memtag.taggen import TaggerModel, train


@pytest.fixture(scope="module")
def paused_calls(synth_small):
    """(paused function, thunk that calls it) for each of the four bulk
    calls, on inputs built from a small corpus before any call runs."""
    corpus = synth_small
    model = train(corpus)
    data = model.to_bytes()
    text = format_corpus(corpus)
    train_c = Corpus(corpus.sentences[:300])
    test_c = Corpus(corpus.sentences[300:360])
    return {
        "parse_corpus": (parse_corpus, lambda: parse_corpus(text)),
        "train": (train, lambda: train(corpus)),
        "_read_model": (modelfile._read_model,
                        lambda: TaggerModel.from_bytes(data)),
        "compare_algorithms": (compare_algorithms,
                               lambda: compare_algorithms(train_c, test_c)),
    }


PAUSED = ("parse_corpus", "train", "_read_model", "compare_algorithms")


@pytest.fixture
def collector():
    """Restores the collector's state after the test."""
    was_on = gc.isenabled()
    yield
    if was_on:
        gc.enable()
    else:
        gc.disable()


def _starts_inside(func, call) -> list[int]:
    """The generation of every collection that starts while `func`'s own
    code is running during `call()`, after a full collection."""
    code = inspect.unwrap(func).__code__
    starts = []

    def record(phase, info):
        if phase != "start":
            return
        frame = sys._getframe(1)
        while frame is not None and frame.f_code is not code:
            frame = frame.f_back
        if frame is not None:
            starts.append(info["generation"])

    gc.collect()
    gc.callbacks.append(record)
    try:
        call()
    finally:
        gc.callbacks.remove(record)
    return starts


@pytest.mark.parametrize("name", PAUSED)
def test_no_collection_starts_inside_a_paused_call(name, paused_calls,
                                                   collector):
    func, call = paused_calls[name]
    gc.enable()
    assert _starts_inside(func, call) == []
    assert gc.isenabled()


@pytest.mark.parametrize("name", PAUSED)
def test_paused_call_leaves_a_disabled_collector_off(name, paused_calls,
                                                     collector):
    _, call = paused_calls[name]
    gc.disable()
    call()
    assert not gc.isenabled()


@pytest.mark.parametrize("was_on", (True, False))
def test_raising_call_restores_the_collector(was_on, collector):
    (gc.enable if was_on else gc.disable)()
    with pytest.raises(CorpusParseError):
        parse_corpus("a/DT b\n")
    assert gc.isenabled() is was_on
    with pytest.raises(ParameterError):
        train(Corpus([]))
    assert gc.isenabled() is was_on


def test_nested_paused_calls_end_with_the_collector_on(synth_small,
                                                       collector):
    """cross_validate runs train, paused, and evaluate, unpaused, once per
    fold."""
    gc.enable()
    result = cross_validate(Corpus(synth_small.sentences[:120]), k=3)
    assert len(result.reports) == 3
    assert gc.isenabled()
