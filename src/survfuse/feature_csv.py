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
that start at line starts. A file of at least ``_FORK_MIN_BYTES`` pays for
children, which parse blocks while the caller goes on; ``result`` parses
every block no child has taken, collects the rest and joins them in block
order, so the caller parses where it would wait. Without children the
caller parses every block itself.

A block is split into lines and cells by hand, and ``_parse_rows`` checks
its rows. A quoted field may span lines, so a file that holds a ``"``
byte, or whose ``open()`` encoding is neither UTF-8 nor ASCII, is not cut:
it starts no child, and ``result`` reads it with ``read_columns``. A block
whose rows fail a check, or that ``csv.reader`` might read otherwise,
makes ``result`` read the file with ``read_columns``, so every error is
raised here by ``read_columns``, with the row's index in the file. A
block's cells go straight into one buffer shared with the children; its
ids and probabilities cross the pipe.
"""

from __future__ import annotations

import codecs
import csv
import mmap
import os
from array import array
from itertools import chain
from math import isfinite
from operator import itemgetter, methodcaller

from .errors import MalformedRowError, MissingColumnError
from .forks import Tasks

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


def _split_rows(raw: bytes, codec: str):
    """The rows of the quote-free ``codec`` text ``raw``, split at LF or
    CRLF and at commas as ``csv.reader`` splits them; ``csv.Error`` where
    it might read them otherwise: at a CR that ends no CRLF, a NUL, or a
    line longer than ``csv.field_size_limit()``."""
    text = raw.decode(codec).replace("\r\n", "\n")
    lines = text.split("\n")
    if not lines[-1]:  # what follows the last line end
        lines.pop()
    if "\r" in text or "\0" in text or max(map(len, lines)) > csv.field_size_limit():
        raise csv.Error("left to csv.reader")
    return map(methodcaller("split", ","), lines)


def _cut(path):
    """``(data, codec, layout, cuts, rows)`` of a feature CSV read in row
    blocks: the file mapped as ``data``, whose block ``k`` is
    ``data[cuts[k]:cuts[k + 1]]`` and holds ``rows[k + 1] - rows[k]`` lines.
    ``None`` for a file ``read_columns`` reads whole: one that cannot be
    opened, is not UTF-8 or ASCII, holds a ``"`` byte or nothing after its
    header line, or whose header line is not one row that ``_layout``
    accepts."""
    try:
        with open(path, newline="") as fh:
            size = os.fstat(fh.fileno()).st_size
            codec = codecs.lookup(fh.encoding).name
            if not size or codec not in _BLOCK_CODECS:
                return None
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
            if quoted or body == size:
                return None
            try:
                layout = _layout(next(_split_rows(header, codec)))
            except (MissingColumnError, ValueError, csv.Error):  # read_columns raises it
                return None
            # the pages the scan touched left with its mapping; this one
            # holds only those a process parses
            data = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
    except OSError:  # read_columns raises the reader's own error
        return None
    return data, codec, layout, cuts, rows


class FeatureRead(Tasks):
    """A read of one feature CSV, its row blocks parsed on forked children
    if they pay for themselves. ``result`` returns ``read_columns(path)``
    once: the cells in an ``array`` or in the buffer the blocks were
    parsed into, which the result then holds alone."""

    _data = _cells = None  # the mapped file and the cells' buffer, while blocks are parsed

    def __init__(self, path):
        self.path = path
        cut = _cut(path)
        if cut is None:  # result() reads the file with read_columns, here
            super().__init__(None, 0, False)
            return
        self._data, self._codec, self._layout, self._cuts, self._rows = cut
        self._d = len(self._layout[3])
        self._cells = mmap.mmap(-1, 8 * self._d * self._rows[-1])
        super().__init__(self._parse, len(self._cuts) - 1, len(self._data) >= _FORK_MIN_BYTES)

    def _parse(self, k: int):
        """``(patient_ids, pe_probability)`` of block ``k``, the
        probabilities as bytes, its cells written to the shared buffer;
        ``False`` where ``_split_rows`` leaves the block to ``csv.reader``
        or a row fails a check."""
        try:
            pids, probs, cells = _parse_rows(
                _split_rows(self._data[self._cuts[k]:self._cuts[k + 1]], self._codec),
                self._layout)
        except (MalformedRowError, ValueError, csv.Error):
            return False
        # a row per line, so the slice has the cells' size
        step = 8 * self._d
        self._cells[step * self._rows[k]:step * self._rows[k + 1]] = cells
        return pids, probs.tobytes()

    def result(self) -> tuple[list[str], array, array | mmap.mmap, int]:
        cells = self._cells  # which close() lets go of
        parts = self.results()
        # not cut, or a block failed: read_columns reads the file, and raises
        if cells is None or not all(isinstance(part, tuple) for part in parts):
            return read_columns(self.path)
        pids, probs = zip(*parts)
        return list(chain.from_iterable(pids)), array("d", b"".join(probs)), cells, self._d

    def close(self) -> None:
        super().close()
        if self._data is not None:
            self._data.close()
        self._data = self._cells = None
