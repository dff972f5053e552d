"""The fork primitive: a child's value or ``None``, its close, and the
counter the caller and its children share."""

import os
import signal
import time

import pytest

from survfuse import forks as fork_module
from survfuse.forks import Child, Counter, usable_cpus

from conftest import assert_no_child


def raises():
    raise ValueError("raised in the child")


def exits_non_zero():
    os._exit(3)


def exits_without_sending():
    os._exit(0)


def killed():
    os.kill(os.getpid(), signal.SIGKILL)


def pattern(repeats):
    return bytes(range(256)) * repeats


def take_until(counter, end):
    """The values this process took from ``counter`` until one reached ``end``."""
    taken = []
    while (k := counter.take()) < end:
        taken.append(k)
    return taken


class TestChild:
    def test_value_comes_back(self, forks):
        with Child(divmod, 17, 5) as child:
            assert child.result() == (3, 2)
            assert child.result() is None  # once
        assert len(forks) == 1
        assert_no_child()

    def test_value_larger_than_the_pipe(self):
        # 4 MiB: many pipe buffers' worth, read while the child writes
        with Child(pattern, 1 << 14) as child:
            assert child.result() == pattern(1 << 14)
        assert_no_child()

    @pytest.mark.parametrize("fail", [raises, exits_non_zero, exits_without_sending, killed])
    def test_failed_child_gives_none(self, forks, fail):
        with Child(fail) as child:
            assert child.result() is None
        assert len(forks) == 1
        assert_no_child()

    def test_no_fork_gives_none(self, monkeypatch):
        monkeypatch.delattr(os, "fork")
        with Child(divmod, 17, 5) as child:
            assert child.result() is None
        assert_no_child()

    def test_close_before_result_kills_and_reaps(self, forks):
        child = Child(time.sleep, 30.0)
        assert os.waitpid(forks[0], os.WNOHANG) == (0, 0)  # running
        started = time.monotonic()
        child.close()
        assert time.monotonic() - started < 5.0
        assert_no_child()
        assert child.result() is None
        child.close()

    def test_child_does_not_inherit_an_earlier_childs_pipe(self):
        # the first child's pipe ends when it exits, though a second child
        # was forked while the first ran
        first = Child(time.sleep, 0.2)
        with Child(time.sleep, 30.0) as second:
            started = time.monotonic()
            assert first.result() is None  # time.sleep returns None
            assert time.monotonic() - started < 5.0
        assert second.result() is None
        assert_no_child()


class TestCounter:
    def test_caller_and_children_never_take_a_value_twice(self):
        counter = Counter()
        children = [Child(take_until, counter, 20000) for _ in range(5)]
        try:
            mine = take_until(counter, 20000)
            theirs = [child.result() for child in children]
        finally:
            for child in children:
                child.close()
            counter.close()
        assert None not in theirs
        taken = mine + [k for values in theirs for k in values]
        assert sorted(taken) == list(range(20000))
        assert_no_child()

    def test_counts_from_zero(self):
        counter = Counter()
        assert [counter.take() for _ in range(3)] == [0, 1, 2]
        counter.close()
        counter.close()


class TestUsableCpus:
    def test_affinity_mask(self):
        assert usable_cpus() == len(os.sched_getaffinity(0)) >= 1

    def test_one_where_the_platform_cannot_say(self, monkeypatch):
        monkeypatch.delattr(fork_module.os, "sched_getaffinity")
        assert usable_cpus() == 1
