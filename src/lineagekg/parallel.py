"""``fork_imap``: a serial map run in forked processes, one per usable CPU,
its results yielded by a generator that blocks only for a result it lacks;
``Forked``: a function run in a forked process that sends objects back as it
goes.

When it forks, ``fork_imap`` runs every index in a child, and the calling
process only reads; what it keeps runs here to its end before it yields.  The
pipeline maps its (task, profile) cells with it, and a cell's sample-paths its
pairs (``paths.PairWalk``).  train fits on that walk when it runs in the same
call, else on ``train.txt``: a walking child a full pipe ahead of the trainer
waits until the trainer next lacks a pair.  Forking with numpy loaded is safe:
OpenBLAS's pthreads build shuts its thread pool down before a fork
(``pthread_atfork``) and restarts it at the next BLAS call, in parent and
child alike, and no other thread runs.  Python 3.12+ warns on forking a
process that has threads; each fork silences that warning.
"""

from __future__ import annotations

import os
import pickle
import select
import signal
import warnings
from collections import deque
from typing import Callable, Iterable, Iterator, Optional, TypeVar

T = TypeVar("T")


def processes(count: int) -> int:
    """One process per usable CPU, at most one per item, and at least one;
    one where ``os.fork`` or ``os.sched_getaffinity`` (Linux) is missing."""
    if not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"):
        return 1
    return max(1, min(len(os.sched_getaffinity(0)), count))


def _outcomes(fn: Callable[[int], T], indices: Iterable[int]) -> Iterator[tuple]:
    """``(i, fn(i), None)`` per index, in order, up to the first index that
    raises: ``(i, None, exception)``, and nothing after it."""
    for index in indices:
        try:
            value = fn(index)
        except Exception as exc:  # re-raised by fork_imap
            yield index, None, exc
            return
        yield index, value, None


def _send_outcomes(fn: Callable[[int], T], indices: range, send, batch: int) -> None:
    outcomes = []
    for outcome in _outcomes(fn, indices):
        outcomes.append(outcome)
        if len(outcomes) == batch:
            send(outcomes)
            outcomes = []
    send(outcomes)


def _fork() -> int:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeprecationWarning)
        return os.fork()


def fork_imap(count: int, fn: Callable[[int], T], batch: int) -> Iterator[tuple[int, T]]:
    """``(i, fn(i))`` for each i in ``range(count)``, with index i run in share
    i % P of P = ``processes(count)`` processes.

    ``Forked`` children run the shares, each sending ``batch`` results at a
    time, and this process yields their results as each ``select`` returns,
    having read every ready pipe: a child that runs a full pipe ahead waits
    until then.  The shares no child runs (all of them where P = 1, or those
    whose fork failed) run here to their end, in index order, before anything
    is yielded, and each result is dropped here as it is yielded.  ``fn`` is
    dropped once every share is forked or run, which frees what only it holds.

    A share stops at its first failing index; the exception of the first
    failing index of all is raised once every share is done, as a serial loop
    would raise it.  A child that dies raises ``ChildProcessError``.  Children
    leave with ``os._exit``, so they run none of this process's cleanup; they
    are always reaped, and killed first if this process fails or stops
    iterating.
    """
    count_processes = processes(count)
    children: dict[int, Forked] = {}
    failures: list[tuple[int, Exception]] = []
    try:
        for share in range(count_processes if count_processes > 1 else 0):
            indices = range(share, count, count_processes)
            try:
                children[share] = Forked(lambda send, indices=indices: _send_outcomes(
                    fn, indices, send, batch))
            except OSError:
                break
        here = sorted(index for share in range(count_processes) if share not in children
                      for index in range(share, count, count_processes))
        outcomes = deque(_outcomes(fn, here))
        fn = None  # the children have their copies
        live = list(children.values())
        while True:
            while outcomes:  # each popped as it is yielded, so not held here
                if outcomes[0][2] is None:
                    yield outcomes.popleft()[:2]
                else:
                    failures.append(outcomes.popleft()[::2])
            if not live:
                break
            ready = select.select(live, [], [])[0]
            outcomes.extend(outcome for child in ready for sent in child.receive()
                            for outcome in sent)
            for child in ready:
                if child.closed:
                    live.remove(child)
                    code = child.wait()
                    if code != 0:
                        raise ChildProcessError(
                            f"forked process {child.pid} exited with code {code}")
    finally:
        for child in children.values():
            child.kill()
    if failures:
        raise min(failures, key=lambda failure: failure[0])[1]


class Forked:
    """``fn(send)`` run in a forked child; each ``send(obj)`` pickles ``obj``
    to this process at once, which takes the objects in with ``receive``.

    The child leaves with ``os._exit``: status 0 once ``fn`` returned, 1 if it
    raised.  An ``OSError`` from ``os.fork`` is raised here, and nothing
    starts.  ``wait`` reaps the child after its last object; ``kill`` kills
    and reaps a child not reaped yet, so the child is reaped on every path.
    """

    def __init__(self, fn: Callable[[Callable[[object], None]], None]):
        read_fd, write_fd = os.pipe()
        try:
            pid = _fork()
        except OSError:
            os.close(read_fd)
            os.close(write_fd)
            raise
        if pid == 0:
            status = 1
            try:
                os.close(read_fd)
                with os.fdopen(write_fd, "wb") as fh:
                    def send(obj: object) -> None:
                        data = pickle.dumps(obj, pickle.HIGHEST_PROTOCOL)
                        fh.write(len(data).to_bytes(8, "little") + data)
                        fh.flush()

                    fn(send)
                status = 0
            finally:
                os._exit(status)
        os.close(write_fd)
        os.set_blocking(read_fd, False)
        self.pid = pid
        self.closed = False  # the child closed its end: nothing more will arrive
        self._fd: Optional[int] = read_fd
        self._buffer = bytearray()
        self._status: Optional[int] = None

    def receive(self) -> list:
        """The objects that arrived since the last call, in the order sent:
        everything the pipe holds is read, without waiting for more."""
        objects: list = []
        while not self.closed:
            try:
                chunk = os.read(self._fd, 1 << 16)
            except BlockingIOError:
                break
            if not chunk:
                self.closed = True
                break
            buffer = self._buffer
            buffer += chunk
            start = 0
            while len(buffer) - start >= 8:
                end = start + 8 + int.from_bytes(buffer[start:start + 8], "little")
                if len(buffer) < end:
                    break
                objects.append(pickle.loads(buffer[start + 8:end]))
                start = end
            del buffer[:start]
        return objects

    def fileno(self) -> int:
        """The read end of the pipe, for ``select``, until the child is reaped."""
        return self._fd

    def wait(self) -> int:
        """The child's exit code, once it has closed its end; the objects
        still on their way are dropped."""
        while not self.closed:
            select.select([self._fd], [], [])
            self.receive()
        if self._status is None:
            self._status = os.waitstatus_to_exitcode(os.waitpid(self.pid, 0)[1])
            self._close_pipe()
        return self._status

    def kill(self) -> None:
        if self._status is None:
            try:
                os.kill(self.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            self._status = os.waitstatus_to_exitcode(os.waitpid(self.pid, 0)[1])
        self._close_pipe()

    def _close_pipe(self) -> None:
        if self._fd is not None:
            os.close(self._fd)
            self._fd = None
