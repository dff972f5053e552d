"""Forked children: how survfuse runs work on another CPU.

Two callers fork. ``feature_csv.FeatureRead`` parses a feature CSV of at
least ``_FORK_MIN_BYTES`` (1 MiB) in a child started before ``score`` or
``run`` imports numpy; ``rsf.start_forests`` grows a batch of forests of at
least ``_POOL_MIN_WORK`` (2500) subjects x trees in one child per usable
CPU but one, while the networks train. With one usable CPU neither forks.

A ``Child`` computes ``fn(*args)`` in a forked process, which inherits the
function and its arguments instead of being sent them, and sends the value
back once through a pipe, pickled. A large ``bytes`` object in it is read
straight into the caller's copy, with no second, message-sized copy.
``result`` returns the value and reaps the child; ``close`` kills and reaps
a child that still runs, so use a child as a context manager.

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
lock at the fork. The feature read forks before numpy is imported, when no
other thread exists; the forest pool forks after, when BLAS threads may.
Python 3.12+ warns about forking a process that runs threads; only Python
3.11 was checked.
"""

from __future__ import annotations

import os
import pickle
import signal


def usable_cpus() -> int:
    """CPUs this process may run on; 1 where the platform cannot say."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call, as on macOS
        return 1


class Child:
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

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False


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
