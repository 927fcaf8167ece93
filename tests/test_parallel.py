import os
import select
import threading
import time
import weakref

import pytest

from lineagekg.parallel import Forked, fork_imap


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestForked:
    def test_objects_beyond_the_pipe_buffer_arrive_in_order(self):
        # about 1 MiB, far over a pipe's 64 KiB: the child blocks until read
        def child(send):
            for i in range(4000):
                send((i, "x" * 256))

        forked = Forked(child)
        try:
            time.sleep(0.05)
            received = []
            while not forked.closed:
                select.select([forked], [], [])
                received += forked.receive()
            assert forked.wait() == 0
        finally:
            forked.kill()
        assert received == [(i, "x" * 256) for i in range(4000)]
        assert_no_child_left()

    def test_child_that_raises_exits_1_after_its_objects(self):
        def child(send):
            send("first")
            raise ValueError("boom")

        forked = Forked(child)
        try:
            received = []
            while not forked.closed:
                select.select([forked], [], [])
                received += forked.receive()
            assert forked.wait() == 1
        finally:
            forked.kill()
        assert received == ["first"]
        assert_no_child_left()

    def test_wait_drains_what_nobody_read(self):
        forked = Forked(lambda send: [send(b"y" * 4096) for _ in range(100)])
        try:
            assert forked.wait() == 0
        finally:
            forked.kill()
        assert_no_child_left()

    def test_kill_kills_and_reaps_a_running_child(self):
        forked = Forked(lambda send: time.sleep(60))
        try:
            assert forked.receive() == []
        finally:
            forked.kill()
        assert_no_child_left()

    def test_fork_failure_raises_and_starts_nothing(self, monkeypatch):
        def no_fork():
            raise OSError("fork failed")

        monkeypatch.setattr(os, "fork", no_fork)
        with pytest.raises(OSError, match="fork failed"):
            Forked(lambda send: None)


class TestForkImap:
    @pytest.mark.parametrize("batch", [1, 7, 1000])
    def test_each_share_comes_in_order_a_batch_at_a_time(self, monkeypatch, batch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
        results = list(fork_imap(300, lambda i: i * i, batch))
        assert sorted(results) == [(i, i * i) for i in range(300)]
        for share in range(3):
            assert [i for i, _ in results if i % 3 == share] == list(range(share, 300, 3))
        assert_no_child_left()

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_what_runs_here_runs_to_its_end_first_and_is_not_held(self, monkeypatch, cpus):
        # on one CPU, or on two with every fork failing, every index runs here
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        def no_fork():
            raise OSError("fork failed")

        monkeypatch.setattr(os, "fork", no_fork)
        ran = []

        class Value:  # a weak reference to a result tells when it is freed
            pass

        def fn(index):
            ran.append(index)
            return Value()

        results = fork_imap(3, fn, 1)
        index, value = next(results)
        assert (index, ran) == (0, [0, 1, 2])
        freed = weakref.ref(value)
        del value
        assert freed() is None
        assert [index for index, _ in results] == [1, 2]

    def test_stopping_early_kills_and_reaps_the_children(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
        results = fork_imap(300, lambda i: time.sleep(0.01) or i, 1)
        index, value = next(results)
        assert index == value < 3  # the first index of some share
        results.close()
        assert_no_child_left()


def wait_for(path):
    """Blocks until ``path`` exists (at most 30 s)."""
    deadline = time.monotonic() + 30
    while not path.exists():
        assert time.monotonic() < deadline, f"{path} never appeared"
        time.sleep(0.01)


class TestForkImapInTheBackground:
    """When fork_imap forks, every share runs in a child, and the caller
    only reads."""

    def test_every_share_runs_in_a_child(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})

        class Where:  # a weak reference to fn tells when the caller dropped it
            def __call__(self, index):
                return os.getpid(), os.getppid(), os.nice(0)

        fn = Where()
        dropped = weakref.ref(fn)
        results = fork_imap(9, fn, 1)
        del fn
        first = next(results)
        assert dropped() is None  # every share forked: fn is freed here
        where = dict([first, *results])
        assert sorted(where) == list(range(9))
        pids = {pid for pid, _, _ in where.values()}
        assert len(pids) == 3 and os.getpid() not in pids
        # children of this process, at its own priority
        assert {(ppid, niceness) for _, ppid, niceness in where.values()} == {
            (os.getpid(), os.nice(0))}
        for share in range(3):  # one child per share
            assert len({where[index][0] for index in range(share, 9, 3)}) == 1
        assert_no_child_left()

    def test_a_slow_share_does_not_hold_back_another(self, monkeypatch, tmp_path):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        go = tmp_path / "go"

        def fn(index):
            if index == 0:
                wait_for(go)
            return index

        results = fork_imap(4, fn, 1)
        assert [next(results), next(results)] == [(1, 1), (3, 3)]
        go.touch()
        assert list(results) == [(0, 0), (2, 2)]
        assert_no_child_left()

    def test_a_read_waits_for_its_result_without_spinning(self, monkeypatch, tmp_path):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        go = tmp_path / "go"

        def fn(index):
            if index == 1:
                wait_for(go)
            return index

        results = fork_imap(2, fn, 1)
        assert next(results) == (0, 0)
        timer = threading.Timer(0.3, go.touch)
        timer.start()
        start, cpu = time.monotonic(), time.process_time()
        assert next(results) == (1, 1)  # blocks until it has arrived
        assert time.monotonic() - start >= 0.25
        assert time.process_time() - cpu < 0.1  # and waits without spinning
        timer.join()
        assert list(results) == []
        assert_no_child_left()

    def test_a_share_whose_fork_fails_runs_here(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
        fork, forks = os.fork, []

        def first_fork_only():
            if forks:
                raise OSError("fork failed")
            forks.append(1)
            return fork()

        monkeypatch.setattr(os, "fork", first_fork_only)
        results = list(fork_imap(9, lambda index: os.getpid(), 1))
        here = [index for index, pid in results if pid == os.getpid()]
        assert here == [1, 2, 4, 5, 7, 8]  # shares 1 and 2, in index order
        assert sorted(index for index, pid in results if pid != os.getpid()) == [0, 3, 6]
        assert_no_child_left()

    def test_a_child_that_dies_raises(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})

        def fn(index):
            if index == 4:
                os._exit(3)
            time.sleep(0.01)
            return index

        with pytest.raises(ChildProcessError, match=r"forked process \d+ exited with code 3"):
            list(fork_imap(30, fn, 1))
        assert_no_child_left()
