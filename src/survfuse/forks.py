"""Forked children: how survfuse runs work on another CPU.

Three callers fork, each a ``Tasks`` pool that says only whether its work
pays for a fork; ``Tasks`` then starts one child per usable CPU but one.
``feature_csv.FeatureRead`` forks for a feature CSV of at least
``_FORK_MIN_BYTES`` (1 MiB), before ``score`` or ``run`` imports numpy;
``rsf.start_forests`` for forests of at least ``_POOL_MIN_WORK`` (2500)
subjects x trees, while the networks train; ``analysis.run_study_full``
for its bootstrap tasks, once BLAS is pinned to one thread. Each caller
computes the tasks no child has taken when it asks for the results, so its
wait becomes work. With one usable CPU none forks.

A ``Child`` computes ``fn(*args)`` in a forked process, which inherits the
function and its arguments instead of being sent them, and sends the value
back once through a pipe, pickled. A large ``bytes`` object in it is read
straight into the caller's copy, with no second, message-sized copy. A
``Child`` and a ``Tasks`` pool are context managers whose exit kills and
reaps the children that still run.

A failed child costs only time. ``result`` is ``None`` where no child ran
(no ``os.fork``, or the fork failed) and where the child raised, was
killed, exited non-zero or sent a short message. The caller then does the
work itself, so every error is raised in the caller's process with its own
traceback, and no exception crosses the pipe. No ``fn`` returns ``None``.

A ``Counter`` is one 8-byte message in a pipe, shared by the caller and the
children it forks later. ``take`` reads the message and writes the next
value; a pipe write of at most ``PIPE_BUF`` bytes is atomic, so no two
processes take the same value. A process killed between the read and the
write would stall every other taker, so children that take are killed only
once the caller has stopped taking.

Forking copies only the calling thread, so no other thread should hold a
lock at the fork. ``cli.main`` calls ``pin_blas_threads`` before anything
imports numpy, so a CLI process runs BLAS on one thread and has no other
thread when it forks; the CLI parallelises through these children
instead. A library caller that imported numpy first keeps its BLAS threads:
its forest pool forks while they exist (Python 3.12+ warns about that), and
it evaluates without children. Nothing here imports numpy.
"""

from __future__ import annotations

import os
import pickle
import signal
import sys

# the thread-count variables of OpenBLAS, OpenMP (and so BLIS and most
# builds) and MKL
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

_blas_pinned = False


def pin_blas_threads() -> bool:
    """Have BLAS run on one thread, if numpy is not loaded yet; whether this
    process is pinned. Loaded, numpy keeps the threads it started with, so
    the call is then a no-op."""
    global _blas_pinned
    if "numpy" not in sys.modules:
        for var in _BLAS_THREAD_VARS:
            os.environ[var] = "1"
        _blas_pinned = True
    return _blas_pinned


def blas_pinned() -> bool:
    """Whether ``pin_blas_threads`` took effect in this process."""
    return _blas_pinned


def usable_cpus() -> int:
    """CPUs this process may run on; 1 where the platform cannot say."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call, as on macOS
        return 1


class _Closing:
    """A context manager whose exit calls ``close``."""

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False


class Child(_Closing):
    """``fn(*args)``, computed in a forked child; ``result`` returns it, or
    ``None`` if no child ran or the child failed."""

    _pid = _fd = None  # no child runs, or it has been reaped

    def __init__(self, fn, *args):
        reader, writer = os.pipe()
        try:
            pid = os.fork()
        except (AttributeError, OSError):  # no fork, or it failed: result() is None
            os.close(reader)
            os.close(writer)
            return
        if pid == 0:
            code = 1
            try:
                # with the read end closed here, the child's write fails
                # rather than blocks once the caller is gone
                os.close(reader)
                value = fn(*args)
                with open(writer, "wb") as out:
                    pickle.dump(value, out, protocol=pickle.HIGHEST_PROTOCOL)
                code = 0
            finally:
                os._exit(code)
        # with this copy closed, the pipe ends when the child exits, and the
        # children forked later do not inherit it
        os.close(writer)
        self._pid, self._fd = pid, reader

    def result(self):
        """The child's value, once; ``None`` if it sent no whole value or
        did not exit with code 0."""
        if self._pid is None:
            return None
        with open(self._fd, "rb") as fh:
            self._fd = None
            try:
                value = pickle.load(fh)
            except (EOFError, pickle.UnpicklingError):  # the child sent no whole message
                value = None
        _, status = os.waitpid(self._pid, 0)
        self._pid = None
        return value if status == 0 else None

    def close(self) -> None:
        """Kill and reap the child if it still runs; ``result`` is then ``None``."""
        if self._pid is not None:
            os.kill(self._pid, signal.SIGKILL)
            os.waitpid(self._pid, 0)
            self._pid = None
        if self._fd is not None:
            os.close(self._fd)
            self._fd = None


class Counter:
    """A counter from 0 that this process and the children it forks later
    share; ``take`` returns its value and advances it."""

    def __init__(self):
        self._reader, self._writer = os.pipe()
        os.write(self._writer, (0).to_bytes(8, "little"))

    def take(self) -> int:
        value = int.from_bytes(os.read(self._reader, 8), "little")
        os.write(self._writer, (value + 1).to_bytes(8, "little"))
        return value

    def close(self) -> None:
        """Close this process's ends; the children keep theirs."""
        for fd in (self._reader, self._writer):
            if fd is not None:
                os.close(fd)
        self._reader = self._writer = None


def _take_tasks(fn, n, counter):
    """The tasks this child computed, by index: it takes tasks until none is
    left, so it never waits on the pipe while there is work."""
    done = {}
    while (k := counter.take()) < n:
        done[k] = fn(k)
    return done


class Tasks(_Closing):
    """Tasks ``fn(0)``, ..., ``fn(n - 1)``, started, if ``fork`` holds, on one
    forked child per usable CPU but one, which take task indices from one
    ``Counter`` and send their values back by index once none is left.

    ``results`` computes here every task no child has taken, then every
    task a child did not return, and returns the values in task order. A
    task that raises here holds its exception in place of a value, so the
    caller can raise the first failure in an order of its own, whichever
    process ran which task."""

    def __init__(self, fn, n: int, fork: bool):
        self._fn, self._n = fn, n
        self._counter = Counter()
        self._children = [Child(_take_tasks, fn, n, self._counter)
                          for _ in range(min(usable_cpus() - 1, n) if fork else 0)]

    def _run(self, k):
        try:
            return self._fn(k)
        except Exception as exc:
            return exc

    def results(self) -> list:
        values = [None] * self._n
        while (k := self._counter.take()) < self._n:
            values[k] = self._run(k)
        for child in self._children:
            for k, value in (child.result() or {}).items():
                values[k] = value
        # a task taken by a child that failed
        values = [self._run(k) if value is None else value for k, value in enumerate(values)]
        self.close()
        return values

    def close(self) -> None:
        """Kill and reap the children and let go of the tasks' function;
        ``results`` can no longer be taken."""
        for child in self._children:
            child.close()
        self._children = []
        self._counter.close()
        self._fn = None
