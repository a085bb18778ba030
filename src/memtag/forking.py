"""One fit run in a forked child process while the caller works.

`taggen.train` fits the known-word case base this way while it fits the
unknown-word base. The child is a copy of the parent at the fork, so nothing
is sent to it; it sends back only what the fit returned, or the exception it
raised, through a pipe, pickled. Only `train` imports this module, so
importing memtag loads no `pickle`.
"""

from __future__ import annotations

import os
import pickle
import signal
import threading
from contextlib import contextmanager
from typing import Callable, Iterator, NoReturn, TypeVar

_T = TypeVar("_T")


@contextmanager
def forked(fit: Callable[[], _T]) -> Iterator[Callable[[], _T]]:
    """Run `fit` in a forked child while the `with` block runs, and yield a
    function that waits for the child and returns what `fit` returned.

    What `fit` changes in the objects it shares with the caller changes
    only in the child's copies. An exception in `fit` is raised again here,
    with its type and message. When the block ends, by a return or an
    exception, the child is dead and reaped. Where `os.fork` is missing,
    the pipe or the fork fails, or another thread is alive (the child would
    hold a copy of each lock that thread holds, and never the thread to
    release it), the yielded function is `fit` itself.
    """
    pid = None
    if hasattr(os, "fork") and threading.active_count() == 1:
        fds: tuple[int, ...] = ()
        try:
            fds = read_fd, write_fd = os.pipe()
            pid = os.fork()
        except OSError:
            for fd in fds:
                os.close(fd)
    if pid is None:
        yield fit
        return
    if pid == 0:
        os.close(read_fd)
        _send(fit, write_fd)
    os.close(write_fd)
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
        value, error = pickle.loads(data)
        if error is not None:
            raise error
        return value

    try:
        yield result
    finally:
        os.close(read_fd)
        if not reaped:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _send(fit: Callable[[], object], write_fd: int) -> NoReturn:
    """The forked child's whole life: pickle `fit()`'s value, or the
    exception it raised, to `write_fd`, then leave by `os._exit`, status 0
    once all is written. So the child runs no exit handler and flushes none
    of the output buffers it copied from its parent, which would print
    their text a second time."""
    status = 1
    try:
        try:
            answer = fit(), None
        except BaseException as exc:
            answer = None, exc
        with open(write_fd, "wb") as pipe:
            pickle.dump(answer, pipe, pickle.HIGHEST_PROTOCOL)
        status = 0
    finally:
        os._exit(status)
