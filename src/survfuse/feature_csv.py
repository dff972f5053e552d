"""The acquisition feature CSV, read with the standard library alone.

``read_columns`` is the one parser of the feature file (its format is
described in ``dataset``); ``dataset.ingest_features`` turns its columns
into numpy arrays. Nothing here imports numpy, so that the CLI can start a
read before the interpreter imports numpy and the rest of the package.

A ``FeatureRead`` runs ``read_columns`` in a ``forks.Child`` while the
caller goes on, and ``result`` takes the columns where the caller needs
them; where no child ran or it failed, ``result`` reads in this process, so
every error is raised here by ``read_columns``. The cells cross the pipe as
one ``bytes`` buffer that the feature matrix views.
"""

from __future__ import annotations

import csv
import os
from array import array
from itertools import chain
from math import isfinite
from operator import itemgetter

from .errors import MalformedRowError, MissingColumnError
from .forks import Child, usable_cpus

# feature-CSV rows whose cells are parsed together; bounds the cell strings
# held at once while a file is read
_FEATURE_BLOCK_ROWS = 256

# smallest feature file read in a child: on a 2-vCPU host a child made
# `score` 12-15 ms slower on files of 0.07-0.5 MB (60-400 patients), where
# the parse saved takes 3-25 ms, and about 20 ms faster on 1.3 MB
_FORK_MIN_BYTES = 1 << 20


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


def _columns_to_send(path):
    """``read_columns(path)``, its cells as one ``bytes`` buffer for the pipe."""
    pids, probs, cells, d = read_columns(path)
    return pids, probs, cells.tobytes(), d


class FeatureRead(Child):
    """A read of one feature CSV, in a child if one pays for itself.
    ``result`` returns ``read_columns(path)``, the cells as a buffer of
    their bytes, once; use the object as a context manager."""

    def __init__(self, path):
        self.path = path
        try:
            large = os.path.getsize(path) >= _FORK_MIN_BYTES
        except OSError:  # result() raises the reader's own error
            large = False
        if large and usable_cpus() > 1:
            super().__init__(_columns_to_send, path)

    def result(self) -> tuple[list[str], array, array | bytes, int]:
        columns = super().result()
        return columns if columns is not None else read_columns(self.path)
