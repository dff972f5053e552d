"""The acquisition feature CSV, read with the standard library alone.

``read_columns`` reads the feature file (its format is described in
``dataset``) through ``csv.reader``: ``_layout`` checks its header and
``_parse_rows`` checks and parses its rows. ``dataset.ingest_features``
turns the columns into numpy arrays. Nothing here imports numpy, so that
the CLI can start a read before the interpreter imports numpy and the rest
of the package.

A ``FeatureRead`` is a ``forks.Tasks`` pool over row blocks of the file,
as the forest pool and the evaluation are. Before it forks, the caller
checks the header and cuts the body into blocks of about ``_BLOCK_BYTES``
that start at line starts. For a file of at least ``_FORK_MIN_BYTES`` the
``usable_cpus() - 1`` children parse blocks while the caller goes on;
``result`` parses every block no child has taken, collects the rest and
joins them in block order, so the caller parses where it would wait.
Without children the caller parses every block itself.

A block is split into lines and cells by hand, and ``_parse_rows`` checks
its rows. A quoted field may span lines, so a file that holds a ``"``
byte, or whose ``open()`` encoding is neither UTF-8 nor ASCII, is one
block that ``read_columns`` reads whole. A block whose rows fail a check,
or that ``csv.reader`` might read otherwise, makes ``result`` read the
file with ``read_columns``, so every error is raised here by
``read_columns``, with the row's index in the file. A block's cells go
straight into one buffer shared with the children; its ids and
probabilities cross the pipe.
"""

from __future__ import annotations

import codecs
import csv
import mmap
import os
from array import array
from collections.abc import Iterator
from functools import partial
from itertools import chain
from math import isfinite
from operator import itemgetter, methodcaller

from .errors import MalformedRowError, MissingColumnError
from .forks import Tasks, usable_cpus

# feature-CSV rows whose cells are parsed together; bounds the cell strings
# held at once while a file is read. The kept ids hold on to the memory
# pools those strings came from: at 256 rows the blocks `score` parsed itself
# raised its peak RSS by about 0.3 MB, at 64 not measurably, with no slower
# a parse
_FEATURE_BLOCK_ROWS = 64

# smallest feature file read in a child: on a 2-vCPU host a child made
# `score` 12-15 ms slower on files of 0.07-0.5 MB (60-400 patients), where
# the parse saved takes 3-25 ms, and about 20 ms faster on 1.3 MB
_FORK_MIN_BYTES = 1 << 20

# bytes per row block of a FeatureRead (a block ends at the first line start
# from there): 40 blocks of a 5.1 MB file, each about 3 ms of parsing, so
# the caller's share at the join is close to its idle time
_BLOCK_BYTES = 128 << 10

# the open() encodings whose blocks are decoded apart: a line start is a
# character start in both
_BLOCK_CODECS = ("utf-8", "ascii")


def parse_float(token: str) -> float | None:
    """``float`` of a stripped cell; ``None`` for an empty or non-numeric one."""
    token = token.strip()
    if not token:
        return None
    try:
        return float(token)
    except ValueError:
        return None


def _layout(header: list[str]) -> tuple[int, int, int, list[int]]:
    """``(cells per row, patient_id column, pe_probability column, columns
    of f0..f{d-1})`` of the header row; a missing or misnumbered column
    raises ``MissingColumnError``."""
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
    return len(header), idx["patient_id"], idx["pe_probability"], [idx[c] for c in expected]


def _parse_rows(rows, layout) -> tuple[list[str], array, array]:
    """``(patient_ids, pe_probability, cells)`` of the data rows ``rows``
    (lists of cell strings) under a header's ``_layout``.

    Each row is checked as it is read; its feature cells are parsed with
    ``float`` a block of ``_FEATURE_BLOCK_ROWS`` rows at a time. A feature
    cell that is not a number, or is NaN or infinite, fails its row. A row
    that fails a check raises ``MalformedRowError`` with its index in
    ``rows``, after the rows pending before it are parsed, so the earliest
    faulty row is the one reported.
    """
    n_cells, pid_col, prob_col, cols = layout
    # itemgetter of a single column returns the cell, not a 1-tuple
    take = itemgetter(*cols) if len(cols) > 1 else (lambda row: (row[cols[0]],))

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
        for i, row in enumerate(rows):
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
    return pids, probs, cells


def read_columns(path) -> tuple[list[str], array, array, int]:
    """Read the acquisition feature CSV, one row per acquisition.

    Returns ``(patient_ids, pe_probability, cells, d)`` in file order: the
    id strings, an ``array('d')`` of probabilities, and an ``array('d')``
    holding the ``d`` feature cells of each row, row after row. The header
    is checked by ``_layout`` and the rows by ``_parse_rows``, so a faulty
    row raises ``MalformedRowError`` with its index among the data rows.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise MissingColumnError("feature CSV is empty") from None
        layout = _layout(header)
        pids, probs, cells = _parse_rows(reader, layout)
    return pids, probs, cells, len(layout[3])


def _split_rows(raw: bytes, codec: str) -> Iterator[list[str]] | None:
    """The rows of the quote-free lines ``raw``, split at LF or CRLF and at
    commas as ``csv.reader`` splits them, one at a time; ``None`` where it
    might read them otherwise: bytes that are not ``codec`` text, a CR that
    ends no CRLF, a NUL, or a line longer than ``csv.field_size_limit()``."""
    try:
        text = raw.decode(codec)
    except UnicodeDecodeError:
        return None
    if "\r" in text:
        text = text.replace("\r\n", "\n")
    lines = text.split("\n")
    if not lines[-1]:  # what follows the last line end
        lines.pop()
    if "\r" in text or "\0" in text or max(map(len, lines)) > csv.field_size_limit():
        return None
    return map(methodcaller("split", ","), lines)


def _read_whole(path, k):
    """The one block of a file that is not cut: ``read_columns(path)``, its
    probabilities and cells as bytes."""
    pids, probs, cells, d = read_columns(path)
    return pids, probs.tobytes(), cells.tobytes(), d


class _Blocks:
    """The row blocks of a quote-free feature CSV mapped as ``data``: block
    ``k`` is ``data[cuts[k]:cuts[k + 1]]`` and holds data rows ``rows[k]``
    to ``rows[k + 1] - 1``. Each block's cells go straight to their place in
    ``cells``, one buffer shared with the children forked later."""

    def __init__(self, data, codec: str, layout, cuts: list[int], rows: list[int]):
        self.data, self.codec, self.layout, self.cuts, self.rows = data, codec, layout, cuts, rows
        self.d = len(layout[3])
        self.cells = mmap.mmap(-1, 8 * self.d * rows[-1])

    def parse(self, k: int):
        """``(patient_ids, pe_probability)`` of block ``k``, the
        probabilities as bytes, its cells written to ``cells``; ``False``
        where ``_split_rows`` leaves the block to ``csv.reader`` or a row
        fails a check."""
        rows = _split_rows(self.data[self.cuts[k]:self.cuts[k + 1]], self.codec)
        if rows is None:
            return False
        try:
            pids, probs, cells = _parse_rows(rows, self.layout)
        except MalformedRowError:
            return False
        # a row per line, so the slice has the cells' size
        step = 8 * self.d
        self.cells[step * self.rows[k]:step * self.rows[k + 1]] = cells
        return pids, probs.tobytes()


def _cut(path) -> tuple[int, _Blocks | None]:
    """The size in bytes of a feature CSV (-1 if it cannot be opened) and
    its ``_Blocks``; ``None`` for a file read whole by ``read_columns``:
    one that is not UTF-8 or ASCII, holds a ``"`` byte or nothing after its
    header line, or whose header row ``_split_rows`` leaves to
    ``csv.reader`` or ``_layout`` refuses."""
    try:
        with open(path, newline="") as fh:
            size = os.fstat(fh.fileno()).st_size
            codec = codecs.lookup(fh.encoding).name
            if not size or codec not in _BLOCK_CODECS:
                return size, None
            with mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ) as scan:
                body = scan.find(b"\n") + 1 or size
                header = scan[:body]
                cuts, rows = [body], [0]
                quoted = b'"' in header
                while cuts[-1] < size and not quoted:
                    end = scan.find(b"\n", cuts[-1] + _BLOCK_BYTES - 1) + 1
                    cuts.append(end if 0 < end < size else size)
                    block = scan[cuts[-2]:cuts[-1]]
                    quoted = b'"' in block
                    rows.append(rows[-1] + block.count(b"\n") + (not block.endswith(b"\n")))
            header = None if quoted or body == size else _split_rows(header, codec)
            try:
                layout = header and _layout(next(header))
            except (MissingColumnError, ValueError):  # read_columns raises it in result()
                layout = None
            if not layout:
                return size, None
            # the pages the scan touched left with its mapping; the blocks'
            # mapping holds only those a process parses
            data = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
    except OSError:  # result() raises the reader's own error
        return -1, None
    return size, _Blocks(data, codec, layout, cuts, rows)


class FeatureRead(Tasks):
    """A read of one feature CSV, its row blocks parsed on forked children
    if they pay for themselves. ``result`` returns ``read_columns(path)``
    once, the probabilities and cells as bytes, arrays or a shared buffer."""

    def __init__(self, path):
        self.path = path
        size, self._blocks = _cut(path)
        workers = usable_cpus() - 1 if size >= _FORK_MIN_BYTES else 0
        if self._blocks is None:
            super().__init__(partial(_read_whole, path), 1, workers)
        else:
            super().__init__(self._blocks.parse, len(self._blocks.cuts) - 1, workers)

    def result(self) -> tuple[list[str], array | bytes, array | mmap.mmap | bytes, int]:
        blocks = self._blocks  # which close() lets go of
        parts = self.results()
        # a failed block, or the whole read failed here: read_columns raises
        if not all(isinstance(part, tuple) for part in parts):
            return read_columns(self.path)
        if blocks is None:
            return parts[0]
        pids, probs = [], array("d")
        for block_pids, block_probs in parts:
            pids += block_pids
            probs.frombytes(block_probs)
        return pids, probs, blocks.cells, blocks.d

    def close(self) -> None:
        super().close()
        if self._blocks is not None:
            self._blocks.data.close()
            self._blocks = None
