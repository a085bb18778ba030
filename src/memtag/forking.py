"""One fit run in a forked child process while the caller works.

`taggen.train` fits the unknown-word case base this way while it fits the
known-word base. The child is a copy of the parent at the fork, so nothing
is sent to it; it sends its result back through a pipe, pickled. Only
`train` imports this module, so importing memtag loads no `pickle`.
"""

from __future__ import annotations

import os
import pickle
import signal
import threading
from contextlib import contextmanager
from itertools import islice
from typing import Callable, Iterator, NoReturn, TypeVar

from .interning import Interner

_T = TypeVar("_T")


@contextmanager
def forked(fit: Callable[[], _T], interner: Interner
           ) -> Iterator[Callable[[], _T]]:
    """Run `fit` in a forked child while the `with` block runs, and yield a
    function that waits for the child and returns what `fit` returned.

    Only the child's copy of `interner` sees the texts that `fit` interns.
    The child sends them back in id order, and they are interned here in
    that order, into an interner that must not have grown meanwhile, so
    every id is the one that calling `fit` here gives. An exception in
    `fit` is raised again here, with its type and message. When the block
    ends, by a return or an exception, the child is dead and reaped.
    Where `os.fork` is missing or fails, or another thread is alive (the
    child would hold a copy of each lock that thread holds, and never the
    thread to release it), the yielded function is `fit` itself.
    """
    pid = None
    if hasattr(os, "fork") and threading.active_count() == 1:
        read_fd, write_fd = os.pipe()
        try:
            pid = os.fork()
        except OSError:
            os.close(read_fd)
            os.close(write_fd)
    if pid is None:
        yield fit
        return
    if pid == 0:
        os.close(read_fd)
        _send(fit, interner, write_fd)
    os.close(write_fd)
    n_texts = len(interner)
    reaped = False

    def result() -> _T:
        nonlocal reaped
        with open(read_fd, "rb", closefd=False) as pipe:
            data = pipe.read()
        code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
        reaped = True
        if code != 0 or not data:
            raise RuntimeError(f"the forked fit's process {pid} ended "
                               f"without a result, exit status {code}")
        answer = pickle.loads(data)
        if isinstance(answer, BaseException):
            raise answer
        value, texts = answer
        if len(interner) != n_texts:
            raise RuntimeError("the interner grew while the forked fit ran")
        for text in texts:
            interner.intern(text)
        return value

    try:
        yield result
    finally:
        os.close(read_fd)
        if not reaped:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _send(fit: Callable[[], object], interner: Interner,
          write_fd: int) -> NoReturn:
    """The forked child's whole life: pickle `fit()` and the texts it
    interned, or the exception it raised, to `write_fd`, then leave by
    `os._exit`, status 0 once all is written. So the child runs no exit
    handler and flushes none of the output buffers it copied from its
    parent, which would print their text a second time."""
    status = 1
    try:
        n_texts = len(interner)
        try:
            answer = fit(), list(islice(interner, n_texts, None))
        except BaseException as exc:
            answer = exc
        with open(write_fd, "wb") as pipe:
            pickle.dump(answer, pipe, pickle.HIGHEST_PROTOCOL)
        status = 0
    finally:
        os._exit(status)
