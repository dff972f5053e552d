"""The acquisition feature CSV, read with the standard library alone.

``read_columns`` is the one parser of the feature file (its format is
described in ``dataset``); ``dataset.ingest_features`` turns its columns
into numpy arrays. Nothing here imports numpy, so that the CLI can start a
read before the interpreter imports numpy and the rest of the package.

A ``FeatureRead`` forks a child that runs ``read_columns`` on a second CPU
while the caller goes on (imports, artifact load, clinical ingest); the
caller takes the columns with ``FeatureRead.result`` where it needs them.
The child sends the ids and probabilities through a pipe with ``marshal``,
then the raw bytes of the parsed cells, so the caller gets the bits it
would have parsed itself. If the child fails in any way (an exception, a
non-zero exit, a short message), ``result`` parses the file again in this
process, so every error is raised here by ``read_columns``, with its
class, row and message, and nothing is pickled. Where one CPU is usable,
the platform cannot fork, or the file is smaller than ``_FORK_MIN_BYTES``
(1 MiB, below which a child cost more than the parse it saved), no child
starts and ``result`` reads in this process.

Forking copies only the calling thread. Called before numpy is imported,
the process has no other thread yet, so Python 3.12+'s warning about
forking a threaded process does not apply; only Python 3.11 was checked.
"""

from __future__ import annotations

import csv
import marshal
import os
import signal
from array import array
from itertools import chain
from math import isfinite
from operator import itemgetter

from .errors import MalformedRowError, MissingColumnError

# feature-CSV rows whose cells are parsed together; bounds the cell strings
# held at once while a file is read
_FEATURE_BLOCK_ROWS = 256

# smallest feature file read in a child: on a 2-vCPU host a child made
# `score` 12-15 ms slower on files of 0.07-0.5 MB (60-400 patients), where
# the parse saved takes 3-25 ms, and about 20 ms faster on 1.3 MB
_FORK_MIN_BYTES = 1 << 20


def usable_cpus() -> int:
    """CPUs this process may run on; 1 where the platform cannot say."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call, as on macOS
        return 1


def parse_float(token: str) -> float | None:
    """``float`` of a stripped cell; ``None`` for an empty or non-numeric one."""
    token = token.strip()
    if not token:
        return None
    try:
        return float(token)
    except ValueError:
        return None


def read_columns(path) -> tuple[list[str], array, array, int]:
    """Read the acquisition feature CSV, one row per acquisition.

    Returns ``(patient_ids, pe_probability, cells, d)`` in file order: the
    id strings, an ``array('d')`` of probabilities, and an ``array('d')``
    holding the ``d`` feature cells of each row, row after row. Each row is
    checked as it is read; its feature cells are parsed with ``float`` a
    block of ``_FEATURE_BLOCK_ROWS`` rows at a time, so the unparsed cell
    strings held at once stay bounded by one block. A feature cell that is
    not a number, or is NaN or infinite, fails its row. A row that fails a
    check first has the rows pending before it parsed, so the earliest
    faulty row in the file is the one reported.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise MissingColumnError("feature CSV is empty") from None
        header = [h.strip() for h in header]
        for name in ("patient_id", "acquisition_id", "pe_probability"):
            if name not in header:
                raise MissingColumnError(f"feature CSV is missing column {name!r}")
        feat_cols = [h for h in header if h.startswith("f") and h[1:].isdigit()]
        d = len(feat_cols)
        if d == 0:
            raise MissingColumnError("feature CSV has no f0..f{d-1} columns")
        expected = [f"f{k}" for k in range(d)]
        if sorted(feat_cols, key=lambda s: int(s[1:])) != expected:
            raise MissingColumnError("feature columns must be contiguous f0..f{d-1}")
        idx = {name: header.index(name) for name in header}
        n_cells, pid_col, prob_col = len(header), idx["patient_id"], idx["pe_probability"]
        cols = [idx[c] for c in expected]
        # itemgetter of a single column returns the cell, not a 1-tuple
        take = itemgetter(*cols) if d > 1 else (lambda row: (row[cols[0]],))

        pids: list[str] = []
        probs = array("d")
        cells = array("d")
        pending: list[tuple[str, ...]] = []  # feature cells of the rows not yet parsed

        def reject_bad_cells():
            # the earliest pending row with a cell that is not a finite number
            first = len(pids) - len(pending)
            for k, row_cells in enumerate(pending):
                try:
                    values = list(map(float, row_cells))
                except ValueError:
                    raise MalformedRowError(first + k,
                                            "feature cells must all be numeric") from None
                if not all(map(isfinite, values)):
                    raise MalformedRowError(first + k, "feature cells must all be finite")

        def parse_pending():
            try:
                block = list(map(float, chain.from_iterable(pending)))
            except ValueError:
                reject_bad_cells()
                raise
            # a NaN or infinite cell makes the sum NaN or infinite; so can an
            # overflow of finite cells, which the row check then lets through
            if not isfinite(sum(block)):
                reject_bad_cells()
            cells.extend(block)
            pending.clear()

        def reject(i, reason):
            parse_pending()
            raise MalformedRowError(i, reason)

        try:
            for i, row in enumerate(reader):
                if len(row) != n_cells:
                    reject(i, f"expected {n_cells} cells, got {len(row)}")
                pid = row[pid_col].strip()
                if not pid:
                    reject(i, "empty patient_id")
                prob = parse_float(row[prob_col])
                if prob is None or not 0.0 <= prob <= 1.0:
                    reject(i, "pe_probability must be a number in [0, 1]")
                pids.append(pid)
                probs.append(prob)
                pending.append(take(row))
                if len(pending) == _FEATURE_BLOCK_ROWS:
                    parse_pending()
        except (csv.Error, ValueError):  # the reader failed (bad CSV or bad encoding)
            parse_pending()
            raise
        parse_pending()
    return pids, probs, cells, d


class FeatureRead:
    """A read of one feature CSV, started on another CPU if there is one.

    ``result`` returns ``read_columns(path)``, once. Use the object as a
    context manager, so that an exit before ``result`` kills and reaps the
    child."""

    def __init__(self, path):
        self.path = path
        self._pid = None
        self._fd = None
        try:
            large = os.path.getsize(path) >= _FORK_MIN_BYTES
        except OSError:  # result() raises the reader's own error
            large = False
        if large and usable_cpus() > 1 and hasattr(os, "fork"):
            self._fork()

    def _fork(self) -> None:
        reader, writer = os.pipe()
        try:
            pid = os.fork()
        except OSError:  # no child: result() reads in this process
            os.close(reader)
            os.close(writer)
            return
        if pid == 0:
            code = 1
            try:
                # with the read end closed here, the child's writes fail
                # rather than block once the parent is gone
                os.close(reader)
                pids, probs, cells, d = read_columns(self.path)
                with open(writer, "wb") as out:
                    marshal.dump((pids, probs, d, len(cells) * cells.itemsize), out)
                    out.write(cells)
                code = 0
            finally:
                os._exit(code)
        os.close(writer)
        self._pid, self._fd = pid, reader

    def result(self) -> tuple[list[str], array | bytes, array | bytearray, int]:
        """The file's columns, from the child if it sent them, else read here.

        The child's cells are read straight into the buffer that the
        caller's matrix views, so this process makes no second,
        message-sized copy of them."""
        if self._pid is not None:
            columns = None
            with open(self._fd, "rb") as fh:
                self._fd = None
                try:
                    pids, probs, d, size = marshal.load(fh)
                    cells = bytearray(size)
                    if fh.readinto(cells) == size:
                        columns = pids, probs, cells, d
                except (EOFError, ValueError):  # the child sent no whole message
                    pass
            _, status = os.waitpid(self._pid, 0)
            self._pid = None
            if status == 0 and columns is not None:
                return columns
        return read_columns(self.path)

    def close(self) -> None:
        """Kill and reap the child if it still runs; ``result`` then reads here."""
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
