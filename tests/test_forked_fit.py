"""train() fits the known-word base in a forked child while it fits the
unknown-word base: the model is the one that fitting both in process gives,
and no process outlives the call, whether it returns or raises."""

import errno
import os
import signal
import subprocess
import sys
import threading
import time

import pytest

from conftest import F1_PATH, ROUND_TRIP_CONFIGS, count_forks
from memtag import taggen
from memtag.corpus import parse_corpus
from memtag.errors import StructureError
from memtag.taggen import TaggerConfig, train

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# (corpus fixture or slash-format text, config): f1, the small synthetic
# corpus under each round-trip config, a corpus without a known-route token
# (all numerals) and one without an open-class token.
CORPORA = [("f1", TaggerConfig()),
           *(("synth_small", config) for config in ROUND_TRIP_CONFIGS),
           ("61/CD 29/CD\n1,000/CD 3.5/CD 61/CD", TaggerConfig()),
           ("the/DT of/IN\nof/IN the/DT the/DT", TaggerConfig())]


def assert_no_child():
    """This process has no child left, running or unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("corpus, config", CORPORA,
                         ids=["f1", "synth_small-default",
                              "synth_small-non-default", "numerals",
                              "closed-class"])
def test_forked_and_in_process_training_write_the_same_bytes(
        corpus, config, request, monkeypatch):
    corpus = (parse_corpus(corpus) if "/" in corpus
              else request.getfixturevalue(corpus))
    forks = count_forks(monkeypatch)
    forked = train(corpus, config)
    assert len(forks) == 1
    monkeypatch.delattr(os, "fork")
    in_process = train(corpus, config)
    assert forked.to_bytes() == in_process.to_bytes()
    assert list(forked.interner) == list(in_process.interner)
    assert_no_child()


@pytest.mark.parametrize("error", [StructureError("no unknown base today"),
                                   MemoryError("out of memory in the child")])
def test_an_error_in_the_childs_half_is_raised_again(error, f1, monkeypatch):
    def failing(*args):
        raise error

    monkeypatch.setattr(taggen, "extract_known_cases", failing)
    forks = count_forks(monkeypatch)
    with pytest.raises(type(error)) as raised:
        train(f1)
    assert len(forks) == 1
    assert raised.type is type(error)
    assert str(raised.value) == str(error)
    assert_no_child()


def test_an_error_in_the_parents_half_kills_the_child(f1, monkeypatch):
    """The child would sleep for minutes; train() raises at once."""
    def failing(*args):
        raise StructureError("no unknown base today")

    monkeypatch.setattr(taggen, "extract_known_cases",
                        lambda *args: time.sleep(600))
    monkeypatch.setattr(taggen, "extract_unknown_cases", failing)
    forks = count_forks(monkeypatch)
    start = time.monotonic()
    with pytest.raises(StructureError, match="^no unknown base today$"):
        train(f1)
    assert time.monotonic() - start < 60
    assert len(forks) == 1
    assert_no_child()


@pytest.mark.parametrize("die", [lambda: os._exit(3),
                                 lambda: os.kill(os.getpid(), signal.SIGKILL)],
                         ids=["exit", "killed"])
def test_a_child_that_dies_without_a_result_is_an_error(die, f1, monkeypatch):
    monkeypatch.setattr(taggen, "extract_known_cases", lambda *args: die())
    forks = count_forks(monkeypatch)
    with pytest.raises(RuntimeError, match="ended without a result"):
        train(f1)
    assert len(forks) == 1
    assert_no_child()


@pytest.mark.parametrize("fork", [True, False],
                         ids=["forked", "in-process"])
def test_a_known_fit_that_interns_a_text_is_an_error(fork, f1, monkeypatch):
    """Known extraction interns no new text; if it did, the forked child's
    text would be missing from the parent's interner, and train() says so,
    forked or not."""
    extract_known = taggen.extract_known_cases

    def interning(corpus, lexicon, interner, config):
        interner.intern("a text no corpus holds")
        return extract_known(corpus, lexicon, interner, config)

    monkeypatch.setattr(taggen, "extract_known_cases", interning)
    forks = count_forks(monkeypatch)
    if not fork:
        monkeypatch.delattr(os, "fork")
    with pytest.raises(RuntimeError, match="^the known-word fit interned"):
        train(f1)
    assert len(forks) == fork
    assert_no_child()


def test_no_fork_while_another_thread_is_alive(f1, monkeypatch):
    expected = train(f1).to_bytes()
    forks = count_forks(monkeypatch)
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        assert train(f1).to_bytes() == expected
    finally:
        stop.set()
        thread.join()
    assert forks == []
    assert_no_child()


def test_a_failed_fork_trains_in_process(f1, monkeypatch):
    expected = train(f1).to_bytes()

    def failing_fork():
        raise OSError("no more processes")

    monkeypatch.setattr(os, "fork", failing_fork)
    assert train(f1).to_bytes() == expected
    assert_no_child()


def test_a_failed_pipe_trains_in_process(f1, monkeypatch):
    """Out of file descriptors, train() forks nothing and still trains:
    in process it needs none."""
    monkeypatch.delattr(os, "fork")
    expected = train(f1).to_bytes()
    monkeypatch.undo()

    def failing_pipe():
        raise OSError(errno.EMFILE, "Too many open files")

    monkeypatch.setattr(os, "pipe", failing_pipe)
    forks = count_forks(monkeypatch)
    assert train(f1).to_bytes() == expected
    assert forks == []
    assert_no_child()


# Prints a line to a piped, so block-buffered, standard output, trains
# (forking once), then reports the fork count and whether it has a child.
PRINT_THEN_TRAIN = """
import os, sys
from memtag import read_corpus, train
forks = []
fork = os.fork
os.fork = lambda: forks.append(None) or fork()
print("printed before training")
train(read_corpus(sys.argv[1]))
try:
    os.waitpid(-1, os.WNOHANG)
except ChildProcessError:
    print("forks", len(forks), "and no child left")
"""


def test_output_buffered_before_training_is_printed_once():
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    done = subprocess.run([sys.executable, "-c", PRINT_THEN_TRAIN, F1_PATH],
                          env=env, check=True, capture_output=True, text=True,
                          timeout=120)
    assert done.stdout == ("printed before training\n"
                           "forks 1 and no child left\n")
    assert_no_child()


def test_importing_memtag_loads_no_pickle():
    """pickle is imported with `memtag.forking`, which only `train` imports:
    a process that loads and tags models never holds it."""
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    done = subprocess.run(
        [sys.executable, "-c",
         "import sys, memtag; print('pickle' in sys.modules)"],
        env=env, check=True, capture_output=True, text=True, timeout=120)
    assert done.stdout == "False\n"
    assert_no_child()
