"""``fork_imap`` and ``fork_map``: a serial map run in forked processes, one
per usable CPU, its results taken as they come or as a list; ``Forked``: a
function run in a forked process that sends objects back as it goes.

The pipeline maps its (task, profile) cells with ``fork_map``, and a cell's
sample-paths its pairs with ``fork_imap`` in the background, while the cell's
process trains (``paths.PairWalk``).  Forking with numpy loaded is safe:
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
from typing import Callable, Generator, Iterable, Iterator, Optional, TypeVar

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


def _send_outcomes(fn: Callable[[int], T], indices: range, send, batch: int,
                   background: bool) -> None:
    if background:
        os.nice(19)
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


def fork_imap(count: int, fn: Callable[[int], T], batch: int, background: bool = False
              ) -> Generator[Optional[tuple[int, T]], Optional[bool], None]:
    """``(i, fn(i))`` for each i in ``range(count)``, as each is done, with
    index i run in share i % P of P = ``processes(count)`` processes.

    This process runs share 0, yielding each result at once; ``Forked``
    children run the others and send ``batch`` results at a time, taken in
    after every ``batch`` of this process's indices and then as they come.
    With ``background`` and P > 1, every share runs in a child at nice 19, and
    this process runs none and takes results from whichever child sends
    first; there, ``send(False)`` in place of ``next``, once iteration has
    begun, yields ``None`` at once unless a result has arrived.  Shares whose
    fork fails run here, in index order.  ``fn`` is dropped once every share
    is forked or run, which frees here what only it holds.

    A share stops at its first failing index; the exception of the first
    failing index of all is raised once every share is done, as a serial loop
    would raise it.  A child that dies raises ``ChildProcessError``.  Children
    leave with ``os._exit``, so they run none of this process's cleanup; they
    are always reaped, and killed first if this process fails or stops
    iterating.
    """
    count_processes = processes(count)
    first_forked = 0 if background and count_processes > 1 else 1
    children: dict[int, Forked] = {}
    failures: list[tuple[int, Exception]] = []
    arrived: deque = deque()  # results taken in and not yielded yet

    def take(outcomes) -> None:
        for index, value, exc in outcomes:
            if exc is None:
                arrived.append((index, value))
            else:
                failures.append((index, exc))

    def receive(live: list[Forked], block: bool) -> None:
        """Takes in what the children sent; with ``block``, waits until one
        of them sends or ends.  A child that ended is reaped."""
        for child in select.select(live, [], [], None if block else 0)[0]:
            for outcomes in child.receive(block=False):
                take(outcomes)
            if child.closed:
                live.remove(child)
                code = child.wait()
                if code != 0:
                    raise ChildProcessError(f"forked process {child.pid} exited with code {code}")

    try:
        for share in range(first_forked, count_processes):
            indices = range(share, count, count_processes)
            try:
                children[share] = Forked(lambda send, indices=indices: _send_outcomes(
                    fn, indices, send, batch, background))
            except OSError:
                break
        here = sorted(index for share in range(count_processes) if share not in children
                      for index in range(share, count, count_processes))
        outcomes = enumerate(_outcomes(fn, here), 1) if here else None
        fn = None  # the children have their copies, and outcomes holds this process's
        live = list(children.values())
        block = True  # what the consumer asked for: the next result, or one that arrived
        while outcomes is not None or live or arrived:
            if arrived:
                block = (yield arrived.popleft()) is not False
            elif outcomes is not None and block:  # run this process's next index
                done, outcome = next(outcomes, (0, None))
                if outcome is None:
                    outcomes = None
                    continue
                take([outcome])
                if done % batch == 0 and live:  # so that no child waits long on a full pipe
                    receive(live, block=False)
            else:
                if live:
                    receive(live, block)
                if not arrived and not block:
                    block = (yield None) is not False
    finally:
        for child in children.values():
            child.kill()
    if failures:
        raise min(failures, key=lambda failure: failure[0])[1]


def fork_map(count: int, fn: Callable[[int], T]) -> list[T]:
    """``[fn(i) for i in range(count)]``, run as ``fork_imap`` runs it; each
    child sends its whole share at once."""
    results: list = [None] * count
    for index, value in fork_imap(count, fn, batch=max(1, count)):
        results[index] = value
    return results


class Forked:
    """``fn(send)`` run in a forked child; each ``send(obj)`` pickles ``obj``
    to this process at once, which takes the objects in with ``receive``.

    The child leaves with ``os._exit``: status 0 once ``fn`` returned, 1 if it
    raised.  ``os.fork`` raising ``OSError`` (or missing) raises ``OSError``
    here and starts nothing.  ``wait`` reaps the child after its last object;
    ``kill`` (also on leaving a ``with`` block) kills and reaps a child not
    reaped yet, so the child is reaped on every path.
    """

    def __init__(self, fn: Callable[[Callable[[object], None]], None]):
        if not hasattr(os, "fork"):
            raise OSError("os.fork is not available")
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

    def receive(self, block: bool = True) -> list:
        """The objects that arrived since the last call, in the order sent:
        everything the pipe holds is read.  With ``block``, waits until at
        least one object arrived or the child closed its end."""
        objects: list = []
        while not self.closed:
            try:
                chunk = os.read(self._fd, 1 << 16)
            except BlockingIOError:
                if objects or not block:
                    break
                select.select([self._fd], [], [])
                continue
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

    def __enter__(self) -> "Forked":
        return self

    def __exit__(self, *exc_info) -> None:
        self.kill()
