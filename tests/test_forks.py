"""The fork primitive: a child's value or ``None``, its close, and the
counter the caller and its children share."""

import os
import signal
import time

import pytest

from survfuse import feature_csv
from survfuse import forks as fork_module
from survfuse.feature_csv import FeatureRead
from survfuse.forks import Child, Counter, Tasks, usable_cpus

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


def square_or_fail(k):
    """``k * k``; task 3 fails in every process, in a child by being killed."""
    if k == 3:
        if os.getpid() != TEST_PID:
            os.kill(os.getpid(), signal.SIGKILL)
        raise ArithmeticError(f"task {k}")
    return k * k


TEST_PID = os.getpid()


class TestTasks:
    @pytest.mark.parametrize("workers", [0, 1, 3])
    def test_values_come_back_in_task_order(self, forks, workers):
        with Tasks(lambda k: (k, os.getpid()), 40, workers) as tasks:
            values = tasks.results()
        assert [k for k, _ in values] == list(range(40))
        assert len(forks) == workers
        assert {pid for _, pid in values} - {os.getpid()} <= set(forks)
        assert_no_child()

    @pytest.mark.parametrize("workers", [0, 2])
    def test_a_task_that_raises_here_holds_its_exception(self, workers):
        with Tasks(square_or_fail, 6, workers) as tasks:
            values = tasks.results()
        assert [v for k, v in enumerate(values) if k != 3] == [0, 1, 4, 16, 25]
        assert isinstance(values[3], ArithmeticError) and str(values[3]) == "task 3"
        assert_no_child()

    def test_more_workers_than_tasks(self, forks):
        with Tasks(square_or_fail, 2, 5) as tasks:
            assert tasks.results() == [0, 1]
        assert len(forks) == 2
        assert_no_child()


def sleeps(k):
    time.sleep(30.0)


def large_feature_csv(path):
    """A feature CSV of at least ``_FORK_MIN_BYTES``, which a read forks for."""
    row = ",".join(["0.5"] + ["0.123456789"] * 32)
    with open(path, "w") as fh:
        fh.write(",".join(["patient_id", "acquisition_id", "pe_probability",
                           *(f"f{k}" for k in range(32))]) + "\n")
        for i in range(feature_csv._FORK_MIN_BYTES // len(row) + 1):
            fh.write(f"P{i},A0,{row}\n")
    return path


# each way to start a child, and where the started object keeps its pid
_STARTS = {
    "Child": (lambda path: Child(time.sleep, 30.0), lambda child: child._pid),
    "Tasks": (lambda path: Tasks(sleeps, 1, 1), lambda tasks: tasks._children[0]._pid),
    "FeatureRead": (FeatureRead, lambda read: read._children[0]._pid),
}


@pytest.mark.parametrize("start", sorted(_STARTS))
def test_an_exception_in_the_with_block_kills_and_reaps_the_child(monkeypatch, tmp_path,
                                                                  start):
    monkeypatch.setattr(feature_csv, "usable_cpus", lambda: 2)
    begin, pid_of = _STARTS[start]
    path = large_feature_csv(tmp_path / "features.csv")
    with pytest.raises(KeyError):
        with begin(path) as started:
            pid = pid_of(started)
            assert pid is not None and os.waitpid(pid, os.WNOHANG) == (0, 0)  # running
            failed_at = time.monotonic()
            raise KeyError("failure while the child runs")
    assert time.monotonic() - failed_at < 5.0
    with pytest.raises(ChildProcessError):
        os.waitpid(pid, os.WNOHANG)
    assert_no_child()


class TestUsableCpus:
    def test_affinity_mask(self):
        assert usable_cpus() == len(os.sched_getaffinity(0)) >= 1

    def test_one_where_the_platform_cannot_say(self, monkeypatch):
        monkeypatch.delattr(fork_module.os, "sched_getaffinity")
        assert usable_cpus() == 1
