"""``fork_map``: a serial map run in forked processes, one per usable CPU.

The path sampler maps its pairs with it and the pipeline its (task, profile)
cells.  Forking with numpy loaded is safe: OpenBLAS's pthreads build shuts
its thread pool down before a fork (``pthread_atfork``) and restarts it at
the next BLAS call, in parent and child alike, and no other thread runs.
Python 3.12+ warns on forking a process that has threads; each fork silences
that warning.
"""

from __future__ import annotations

import os
import pickle
import signal
import warnings
from typing import Callable, TypeVar

T = TypeVar("T")


def processes(count: int) -> int:
    """One process per usable CPU, at most one per item, and at least one;
    one where ``os.fork`` or ``os.sched_getaffinity`` (Linux) is missing."""
    if not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"):
        return 1
    return max(1, min(len(os.sched_getaffinity(0)), count))


def _run_share(fn: Callable[[int], T], indices: range) -> tuple:
    """``(results, None)`` with ``fn(i)`` per index, in order, or
    ``(None, (i, exception))`` for the first index that raised."""
    results = []
    for index in indices:
        try:
            results.append(fn(index))
        except Exception as exc:  # re-raised by fork_map
            return None, (index, exc)
    return results, None


def fork_map(count: int, fn: Callable[[int], T]) -> list[T]:
    """``[fn(i) for i in range(count)]``, with index i run in share i % P of
    P = ``processes(count)`` processes.

    This process runs share 0 and forked children the others; where a fork
    fails, this process runs those shares too.  The exception of the first
    failing index is raised, as a serial loop would; a child that dies raises
    ``ChildProcessError``.  Children send their share back pickled over a pipe
    and leave with ``os._exit``, so they run none of this process's cleanup;
    they are always reaped.
    """
    count_processes = processes(count)
    shares: list = [None] * count_processes
    children: dict[int, tuple[int, object]] = {}  # share -> (pid, pipe reader)
    try:
        for share in range(1, count_processes):
            read_fd, write_fd = os.pipe()
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", DeprecationWarning)
                    pid = os.fork()
            except OSError:
                os.close(read_fd)
                os.close(write_fd)
                break
            if pid == 0:
                status = 1
                try:
                    os.close(read_fd)
                    outcome = _run_share(fn, range(share, count, count_processes))
                    with os.fdopen(write_fd, "wb") as fh:
                        pickle.dump(outcome, fh, pickle.HIGHEST_PROTOCOL)
                    status = 0
                finally:
                    os._exit(status)
            os.close(write_fd)
            children[share] = (pid, os.fdopen(read_fd, "rb"))
        for share in range(count_processes):
            if share not in children:
                shares[share] = _run_share(fn, range(share, count, count_processes))
        for share, (pid, reader) in list(children.items()):
            with reader:
                data = reader.read()
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            del children[share]
            if code != 0:
                raise ChildProcessError(f"forked process {pid} exited with code {code}")
            shares[share] = pickle.loads(data)
    finally:
        for pid, reader in children.values():
            reader.close()
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            os.waitpid(pid, 0)
    failures = [failure for _, failure in shares if failure is not None]
    if failures:
        raise min(failures, key=lambda failure: failure[0])[1]
    return [shares[index % count_processes][0][index // count_processes]
            for index in range(count)]
