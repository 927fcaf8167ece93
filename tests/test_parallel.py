import os
import time

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

        with Forked(child) as forked:
            time.sleep(0.05)
            received = []
            while not forked.closed:
                received += forked.receive()
            assert forked.wait() == 0
        assert received == [(i, "x" * 256) for i in range(4000)]
        assert_no_child_left()

    def test_child_that_raises_exits_1_after_its_objects(self):
        def child(send):
            send("first")
            raise ValueError("boom")

        with Forked(child) as forked:
            received = []
            while not forked.closed:
                received += forked.receive()
            assert forked.wait() == 1
        assert received == ["first"]
        assert_no_child_left()

    def test_wait_drains_what_nobody_read(self):
        with Forked(lambda send: [send(b"y" * 4096) for _ in range(100)]) as forked:
            assert forked.wait() == 0
        assert_no_child_left()

    def test_leaving_the_block_kills_and_reaps_a_running_child(self):
        with Forked(lambda send: time.sleep(60)) as forked:
            assert forked.receive(block=False) == []
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
        # this process yields its own results at once, and the children's
        # after each batch of its own
        assert results[:min(batch, 100)] == [(i, i * i) for i in range(0, 3 * batch, 3)][:100]
        assert_no_child_left()

    def test_stopping_early_kills_and_reaps_the_children(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
        results = fork_imap(300, lambda i: time.sleep(0.01) or i, 1)
        assert next(results) == (0, 0)
        results.close()
        assert_no_child_left()
