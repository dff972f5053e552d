"""Cohort ingestion, imputation, feature extraction and splitting.

A split or the imputation reference is addressed by row indices into the
:class:`Dataset`; patient ids are read only for the feature join, the
duplicate-id check and error messages.

The on-disk interchange format is two CSV files. The clinical file has one
row per patient::

    patient_id, age, sex, heart_rate, systolic_bp, respiratory_rate,
    temperature_c, altered_mental_status, cancer, heart_failure,
    chronic_lung_disease, o2_sat, event, time_days, rv_dysfunction

``ingest_clinical`` is its one parser, into a :class:`Dataset`: the
cohort as columns. ``survfuse run`` and ``survfuse score`` go through the
same functions: ``attach_imaging`` joins the features,
``apply_imputation`` fills the matrix (``run`` learns the constants on its
training split first), ``clinical_matrix`` and ``imaging_matrix`` form
the model inputs, and ``pesi.pesi_scores`` scores the severity index.

The feature file has one row per acquisition (a patient may have several)::

    patient_id, acquisition_id, pe_probability, f0, f1, ..., f{d-1}

``feature_csv.read_columns`` is its one parser, into columns that
``ingest_features`` makes arrays of. Each patient keeps the acquisition
with the highest ``pe_probability``, the first in the file on ties.

Empty cells are treated as missing. Vital signs are thresholded into
binary severity indicators at ingest time (tachycardia >= 110 bpm,
hypotension < 100 mmHg, tachypnea >= 30/min, hypothermia < 36 C,
hypoxemia < 90%), so downstream models only ever see age plus ten binary
flags.
"""

from __future__ import annotations

import csv
import dataclasses
import logging
from array import array
from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter

import numpy as np

from .errors import (
    AllMissingColumnError,
    DatasetTooSmallError,
    DuplicatePatientIdError,
    MalformedRowError,
    MismatchedLengthsError,
    MissingColumnError,
    MissingModalityError,
    UnimputedRecordError,
)
from .feature_csv import FeatureRead, parse_float, read_columns

log = logging.getLogger(__name__)

# Binary clinical fields in canonical order; element 0 of every clinical
# feature vector is normalized age, elements 1..10 follow this order.
BINARY_FIELDS = (
    "male",
    "cancer",
    "heart_failure",
    "chronic_lung_disease",
    "hr_ge_110",
    "sbp_lt_100",
    "rr_ge_30",
    "temp_lt_36c",
    "altered_mental_status",
    "o2_sat_lt_90",
)

CLINICAL_COLUMNS = (
    "patient_id",
    "age",
    "sex",
    "heart_rate",
    "systolic_bp",
    "respiratory_rate",
    "temperature_c",
    "altered_mental_status",
    "cancer",
    "heart_failure",
    "chronic_lung_disease",
    "o2_sat",
    "event",
    "time_days",
    "rv_dysfunction",
)

# rv_dysfunction is an optional annotation, everything else must be present
REQUIRED_CLINICAL_COLUMNS = tuple(c for c in CLINICAL_COLUMNS if c != "rv_dysfunction")

_TRUE_TOKENS = frozenset({"1", "true", "t", "yes", "y"})
_FALSE_TOKENS = frozenset({"0", "false", "f", "no", "n"})
_MALE_TOKENS = frozenset({"m", "male"}) | _TRUE_TOKENS
_FEMALE_TOKENS = frozenset({"f", "female"}) | _FALSE_TOKENS


@dataclass(frozen=True)
class ImputationStats:
    """Constants learned from a reference cohort and reused verbatim elsewhere."""

    binary_medians: dict[str, bool]
    age_median: float
    age_mean: float
    age_std: float


@dataclass(frozen=True, eq=False)
class Labels:
    """Right-censored outcomes, one per subject: follow-up ``times`` in days
    and observed-event flags ``events``, as read-only arrays of their own.

    A time that is not finite or is below 0 raises ``ValueError``. ``table``
    is the subjects' :class:`EventTable`, built on first use and then
    shared by everything that reads these labels.
    """

    times: np.ndarray
    events: np.ndarray

    def __post_init__(self):
        times = np.array(self.times, dtype=float)
        events = np.array(self.events, dtype=bool)
        if times.ndim != 1 or events.shape != times.shape:
            raise MismatchedLengthsError(
                f"times of shape {times.shape} for events of shape {events.shape}")
        bad = ~(times >= 0.0) | np.isinf(times)
        if bad.any():
            raise ValueError(
                f"time_days must be finite and >= 0, got {float(times[np.argmax(bad)])}")
        times.flags.writeable = False
        events.flags.writeable = False
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "events", events)

    def __len__(self) -> int:
        return self.times.size

    def take(self, rows) -> "Labels":
        """The labels of ``rows`` (indices, a boolean mask or a slice), in that order."""
        return Labels(self.times[rows], self.events[rows])

    @cached_property
    def table(self) -> "EventTable":
        return EventTable(self.times, self.events)


@dataclass(frozen=True, eq=False)
class Dataset:
    """A cohort as columns, one entry per patient in file order.

    ``values`` is ``(n, 11)``: age in years, then the ten flags of
    ``BINARY_FIELDS`` as 1.0 or 0.0, NaN where a value is missing; the
    column order of ``clinical_matrix``. ``rv_dysfunction`` is 1.0, 0.0 or
    NaN, all NaN without that column. ``imaging`` is the ``(rows, kept)``
    of ``join_imaging``, ``None`` until ``attach_imaging``; ``imputation``
    holds the constants ``apply_imputation`` filled ``values`` with.
    """

    patient_ids: tuple[str, ...]
    values: np.ndarray
    labels: Labels
    rv_dysfunction: np.ndarray
    imaging: tuple[np.ndarray, np.ndarray] | None = None
    imputation: ImputationStats | None = None

    def __len__(self) -> int:
        return len(self.patient_ids)


_FLAG_VALUES = {**dict.fromkeys(_TRUE_TOKENS, 1.0), **dict.fromkeys(_FALSE_TOKENS, 0.0)}
_SEX_VALUES = {**dict.fromkeys(_MALE_TOKENS, 1.0), **dict.fromkeys(_FEMALE_TOKENS, 0.0)}

# clinical-CSV rows whose cells are parsed together; bounds the cell strings
# held at once while a file is read
_CLINICAL_BLOCK_ROWS = 256

# the measured columns, the age first: the order their cells are checked in
_MEASURES = ("age", "heart_rate", "systolic_bp", "respiratory_rate", "temperature_c", "o2_sat")
# the boolean columns after event, in the order a row logs its unparseable tokens
_LOGGED_FLAGS = ("cancer", "heart_failure", "chronic_lung_disease", "altered_mental_status",
                 "rv_dysfunction")


def _flag_column(tokens, table) -> tuple[np.ndarray, list[tuple[int, str]]]:
    """1.0, 0.0 or NaN per boolean token, by ``table`` after stripping and
    lowering, and ``(index, token)`` of each non-empty token it lacks."""
    lookup, bad = {}, {}
    for token in set(tokens):
        key = token.strip().lower()
        lookup[token] = table.get(key, np.nan)
        if key and key not in table:
            bad[token] = key
    values = np.fromiter(map(lookup.__getitem__, tokens), dtype=float, count=len(tokens))
    return values, [(i, bad[t]) for i, t in enumerate(tokens) if t in bad] if bad else []


def _measure_column(tokens) -> np.ndarray:
    """``parse_float`` of each token, NaN where it gives ``None``."""
    try:
        values = [float(t) if t else np.nan for t in tokens]
    except ValueError:  # a padded empty or non-numeric cell: missing
        values = [np.nan if v is None else v for v in map(parse_float, tokens)]
    return np.array(values, dtype=float)


def _first(mask) -> int:
    """Index of the first True of a non-empty boolean array, its length if none."""
    k = int(np.argmax(mask))
    return k if mask[k] else mask.size


def _first_non_finite(tokens, values) -> int:
    """Index of the first token that is a number (not missing) but NaN or
    infinite, ``len(tokens)`` if none; ``values`` are the parsed tokens."""
    for i in np.flatnonzero(~np.isfinite(values)).tolist():
        if parse_float(tokens[i]) is not None:
            return i
    return len(tokens)


def _first_duplicate(pids, seen) -> int:
    """Index of the first id already in ``seen``, adding the ids before it;
    ``len(pids)`` if there is none."""
    for i, pid in enumerate(pids):
        if pid in seen:
            return i
        seen.add(pid)
    return len(pids)


def _log_unparsed(row: int, token: str, column: str) -> None:
    log.debug("row %d: unparseable boolean %r in %s, marked missing", row, token, column)


def _parse_clinical_block(cells, row0, seen):
    """Check and parse the cells of consecutive rows, ``row0`` the first.

    ``cells`` maps each canonical column to its tokens and ``seen`` holds
    the ids of the rows before. Raises the error of the earliest faulty
    row, that of its first failing check in the order ``ingest_clinical``
    lists, after logging the unparseable booleans of the rows before it, a
    row's in ``_LOGGED_FLAGS`` order. Returns ``(ids, values, events,
    times, rv)``, events as 1.0 or 0.0.
    """
    n = len(cells["patient_id"])
    pids = list(map(str.strip, cells["patient_id"]))
    events, _ = _flag_column(cells["event"], _FLAG_VALUES)
    times = _measure_column(cells["time_days"])
    measures = {name: _measure_column(cells[name]) for name in _MEASURES}
    age = measures["age"]

    def malformed(reason):
        # reason: the message, or a function of the row's index giving it
        message = (lambda i: reason) if isinstance(reason, str) else reason
        return lambda i: MalformedRowError(row0 + i, message(i))

    def non_finite(name):
        return (_first_non_finite(cells[name], measures[name]),
                malformed(lambda i: f"{name} must be a finite number, "
                                    f"got {cells[name][i].strip()!r}"))

    checks = [  # (first failing row, its error), in the order a row is checked
        (_first(np.array([not pid for pid in pids], dtype=bool)), malformed("empty patient_id")),
        (_first_duplicate(pids, seen),
         lambda i: DuplicatePatientIdError(f"patient id {pids[i]!r} appears more than once")),
        (_first(np.isnan(events)), malformed("event must be a boolean")),
        (_first(~(times >= 0.0) | np.isinf(times)),
         malformed("time_days must be a finite non-negative number")),
        non_finite("age"),
        (_first(age <= 0.0), malformed(lambda i: f"age must be positive, got {float(age[i])}")),
        *(non_finite(name) for name in _MEASURES[1:]),
    ]
    row = min(first for first, _ in checks)

    flags, unparsed = {}, []
    for order, name in enumerate(_LOGGED_FLAGS):
        if name in cells:
            flags[name], bad = _flag_column(cells[name], _FLAG_VALUES)
            unparsed += [(i, order, token, name) for i, token in bad if i < row]
    for i, _, token, name in sorted(unparsed):
        _log_unparsed(row0 + i, token, name)
    if row < n:
        k = [first for first, _ in checks].index(row)
        if k == 2 and cells["event"][row].strip():
            _log_unparsed(row0 + row, cells["event"][row].strip().lower(), "event")
        raise checks[k][1](row)

    hr, sbp, rr = measures["heart_rate"], measures["systolic_bp"], measures["respiratory_rate"]
    temp, o2 = measures["temperature_c"], measures["o2_sat"]

    def flag(mask, measure):
        return np.where(np.isnan(measure), np.nan, mask)

    values = np.column_stack([
        age,
        _flag_column(cells["sex"], _SEX_VALUES)[0],
        flags["cancer"], flags["heart_failure"], flags["chronic_lung_disease"],
        flag(hr >= 110.0, hr), flag(sbp < 100.0, sbp), flag(rr >= 30.0, rr),
        flag(temp < 36.0, temp), flags["altered_mental_status"], flag(o2 < 90.0, o2),
    ])
    rv = flags.get("rv_dysfunction", np.full(n, np.nan))
    return pids, values, events, times, rv


def ingest_clinical(path) -> Dataset:
    """Read the clinical CSV, with the canonical column set, into a
    :class:`Dataset`.

    The header is the file's first line, taken as it is. Blank lines are
    skipped and do not count as rows; a short row reads its missing cells
    as empty; where a header name repeats, its last column is read. Rows
    are checked and parsed a block of ``_CLINICAL_BLOCK_ROWS`` at a time,
    and the earliest faulty row is the one reported, with the error of its
    first failing check: an empty or repeated patient id, an event that is
    not a boolean, a missing, non-finite or negative ``time_days``, a NaN
    or infinite age or vital sign, or an age that is not positive.
    Unparseable covariates are missing; an unparseable boolean is logged
    at DEBUG.

    Raises
    ------
    MissingColumnError, DuplicatePatientIdError, MalformedRowError
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        for name in REQUIRED_CLINICAL_COLUMNS:
            if name not in header:
                raise MissingColumnError(f"clinical CSV is missing column {name!r}")
        position = {h: k for k, h in enumerate(header)}  # the last of a repeated name
        names = [c for c in CLINICAL_COLUMNS if c in position]
        take = itemgetter(*(position[c] for c in names))
        width = 1 + max(position[c] for c in names)

        pids: list[str] = []
        seen: set[str] = set()
        # values row after row, events as 1.0/0.0, times, rv_dysfunction
        columns = [array("d") for _ in range(4)]
        pending: list[tuple[str, ...]] = []

        def parse_pending():
            if pending:
                block = _parse_clinical_block(dict(zip(names, zip(*pending))), len(pids), seen)
                pids.extend(block[0])
                for out, parsed in zip(columns, block[1:]):
                    out.frombytes(parsed.tobytes())
                pending.clear()

        try:
            for row in reader:
                if not row:
                    continue
                if len(row) < width:
                    row += [""] * (width - len(row))
                pending.append(take(row))
                if len(pending) == _CLINICAL_BLOCK_ROWS:
                    parse_pending()
        except (csv.Error, ValueError):  # the reader failed (bad CSV or bad encoding)
            parse_pending()
            raise
        parse_pending()

    values, events, times, rv = (np.frombuffer(c, dtype=float) for c in columns)
    return Dataset(
        patient_ids=tuple(pids),
        values=values.reshape(len(pids), 1 + len(BINARY_FIELDS)),
        labels=Labels(times, events == 1.0),
        rv_dysfunction=rv,
    )


def ingest_features(source) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read the acquisition feature CSV into arrays, one row per acquisition.

    ``source`` is the file's path, or a ``feature_csv.FeatureRead`` started
    on it, whose result is taken here. Returns ``(patient_ids,
    pe_probability, features)`` in file order: an object array of id
    strings, a float array, and a read-only ``(rows, d)`` float matrix over
    the parsed cells. The checks and the parse are those of
    ``feature_csv.read_columns``, whether it ran in this process or in the
    read's child.
    """
    if isinstance(source, FeatureRead):
        pids, probs, cells, d = source.result()
    else:
        pids, probs, cells, d = read_columns(source)
    features = np.frombuffer(cells, dtype=float).reshape(len(pids), d)
    features.flags.writeable = False
    patient_ids = np.empty(len(pids), dtype=object)
    patient_ids[:] = pids
    return patient_ids, np.frombuffer(probs, dtype=float).copy(), features


def join_imaging(patient_ids, source) -> tuple[np.ndarray, np.ndarray]:
    """Match acquisition features to the patients of a clinical cohort.

    ``source`` is what ``ingest_features`` takes: the feature CSV's path or
    a ``FeatureRead`` started on it. Returns ``(rows, kept)``: ``kept`` is a
    read-only matrix holding, per patient of the feature file, the feature
    row of its acquisition with the highest ``pe_probability``, the first
    such row in the file on ties; ``rows[i]`` is the row of ``kept`` that
    belongs to ``patient_ids[i]``, -1 for a patient without acquisitions.
    Feature rows for patients absent from the cohort are skipped with a
    warning; the clinical file is authoritative for cohort membership.
    """
    feature_ids, probs, features = ingest_features(source)
    codes: dict[str, int] = {}
    code = np.fromiter((codes.setdefault(p, len(codes)) for p in feature_ids),
                       dtype=np.intp, count=feature_ids.size)
    unknown = sorted(set(codes).difference(patient_ids))
    if unknown:
        log.warning("feature CSV has %d patient(s) not in the cohort: %s",
                    len(unknown), ", ".join(unknown[:5]))
    # by patient, then highest probability, then earliest row
    order = np.lexsort((np.arange(code.size), -probs, code))
    kept = features[order[np.flatnonzero(np.diff(code[order], prepend=-1))]]
    kept.flags.writeable = False
    rows = np.fromiter((codes.get(p, -1) for p in patient_ids), dtype=np.intp,
                       count=len(patient_ids))
    return rows, kept


def attach_imaging(ds: Dataset, source) -> Dataset:
    """The dataset with the acquisition features of ``source`` (the feature
    CSV's path or a ``FeatureRead`` started on it) joined by ``join_imaging``."""
    return dataclasses.replace(ds, imaging=join_imaging(ds.patient_ids, source))


def imaging_matrix(ds: Dataset, purpose: str = "") -> np.ndarray:
    """The ``(patients, d)`` imaging features, a row per patient in patient
    order. A patient without acquisitions, or a dataset without attached
    features, raises ``MissingModalityError``; ``purpose`` ends its message."""
    if ds.imaging is None:
        rows, kept = np.full(len(ds), -1), np.empty((0, 0))
    else:
        rows, kept = ds.imaging
    lacking = np.flatnonzero(rows < 0)
    if lacking.size:
        raise MissingModalityError(
            f"{lacking.size} patient(s) lack imaging features "
            f"(e.g. {ds.patient_ids[lacking[0]]!r}){purpose}"
        )
    return kept[rows]


def compute_imputation_stats(ds: Dataset, rows) -> ImputationStats:
    """Learn fill-in constants from the reference (training) patients, the
    dataset's ``rows`` (indices, a boolean mask or a slice).

    Binary fields take the median over observed reference values, with an
    exact 0.5 tie resolved to False. Age takes the reference median; the
    normalization mean/std are then computed over the POST-imputation
    reference ages (observed values plus the median for missing ones) so that
    normalized training age has mean exactly zero. The mean and std sum the
    ages in the order of ``rows``.
    """
    ref = ds.values[rows]
    if not ref.shape[0]:
        raise DatasetTooSmallError("reference rows select no records")
    missing = np.isnan(ref)

    medians: dict[str, bool] = {}
    for k, field in enumerate(BINARY_FIELDS, start=1):
        observed = ref[~missing[:, k], k]
        if not observed.size:
            raise AllMissingColumnError(f"column {field!r} has no observed values in the reference set")
        medians[field] = bool(observed.sum() * 2 > observed.size)  # strict majority; ties -> False

    ages = ref[:, 0]
    if missing[:, 0].all():
        raise AllMissingColumnError("column 'age_years' has no observed values in the reference set")
    age_median = median(ages[~missing[:, 0]])
    filled = np.where(missing[:, 0], age_median, ages)
    age_std = float(filled.std())
    if age_std == 0.0:
        age_std = 1.0  # degenerate cohort: normalized age becomes identically 0
    return ImputationStats(
        binary_medians=medians,
        age_median=age_median,
        age_mean=float(filled.mean()),
        age_std=age_std,
    )


def apply_imputation(ds: Dataset, stats: ImputationStats) -> Dataset:
    """Fill every missing clinical value with its column's constant, the age
    median or a flag's median, learned before."""
    fill = np.array([stats.age_median, *(stats.binary_medians[f] for f in BINARY_FIELDS)],
                    dtype=float)
    values = np.where(np.isnan(ds.values), fill, ds.values)
    return dataclasses.replace(ds, values=values, imputation=stats)


def impute_missing(ds: Dataset, rows) -> Dataset:
    """Learn constants on the dataset's ``rows`` and fill the whole dataset.

    The same constants are applied to every record regardless of split, so
    no statistic ever leaks from validation or test outcomes. Idempotent:
    re-running on the result changes nothing.
    """
    return apply_imputation(ds, compute_imputation_stats(ds, rows))


_CLINICAL_FIELDS = ("age_years",) + BINARY_FIELDS


def clinical_matrix(ds: Dataset) -> np.ndarray:
    """``(patients, 11)`` model inputs in patient order: age normalized by
    the imputation's mean and std, then the ten flags of ``BINARY_FIELDS``."""
    if ds.imputation is None:
        raise UnimputedRecordError("dataset has no imputation stats; run impute_missing first")
    if not len(ds):
        return np.array([])
    incomplete = np.isnan(ds.values).any(axis=1)
    if incomplete.any():
        k = int(np.argmax(incomplete))
        missing = [f for f, v in zip(_CLINICAL_FIELDS, ds.values[k].tolist()) if v != v]
        raise UnimputedRecordError(
            f"patient {ds.patient_ids[k]}: missing {', '.join(missing)}; impute first")
    mat = ds.values.copy()
    mat[:, 0] = (mat[:, 0] - ds.imputation.age_mean) / ds.imputation.age_std
    return mat


def split_dataset(ds: Dataset, seed: int, train_frac: float,
                  val_frac: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Random patient split: the ``(train, val, test)`` row indices, each
    ascending, so a split keeps dataset order. Train and val take the floors
    of their fractions of n, test the remainder."""
    n = len(ds)
    if n < 10:
        raise DatasetTooSmallError(f"need at least 10 records to split, got {n}")
    if train_frac <= 0 or val_frac < 0 or train_frac + val_frac >= 1:
        raise ValueError("split fractions must satisfy 0 < train, 0 <= val, train + val < 1")
    perm = np.random.default_rng(seed).permutation(n)
    n_train, n_val = int(np.floor(train_frac * n)), int(np.floor(val_frac * n))
    return tuple(np.sort(part) for part in np.split(perm, [n_train, n_train + n_val]))


def truncate_30day(labels: Labels) -> Labels:
    """Cap follow-up at 30 days for short-term evaluation.

    Times at or below 30 days are untouched (an event on day 30 stays an
    event); anything later becomes censored at exactly 30 days.
    """
    late = labels.times > 30.0
    return Labels(np.where(late, 30.0, labels.times), labels.events & ~late)


def median(values) -> float:
    """``np.median`` of one value or more, the same float: the middle one or
    the ``mean`` of the middle two of the sorted values, or the NaN that
    sorts last where there is one. ``np.median`` imports ``numpy.ma`` for
    its NaN check, which nothing else that ``survfuse`` runs uses."""
    a = np.sort(np.asarray(values, dtype=float).ravel())
    half = a.size // 2
    return float(a[-1]) if np.isnan(a[-1]) else float(a[half - 1 + a.size % 2:half + 1].mean())


def percentiles(values, q) -> np.ndarray:
    """``np.percentile(values, q)`` by its default linear method, the same
    floats: the values are partitioned at the indices ``np.percentile``
    partitions at, and each percentile is interpolated between its two
    neighbours as ``np.percentile`` interpolates (from the upper one where
    the fraction is 0.5 or more), or is NaN where there is a NaN.
    ``np.percentile`` imports ``numpy.ma`` through ``np.unique``."""
    arr = np.asarray(values, dtype=float).flatten()
    virtual = (arr.size - 1) * np.true_divide(q, 100)
    below = np.floor(virtual)
    above = below + 1
    # a percentile at or past the last value takes the last value
    last = virtual >= arr.size - 1
    below[last] = above[last] = -1
    below, above = below.astype(np.intp), above.astype(np.intp)
    arr.partition(sorted_unique(np.concatenate(([0, -1], below, above))))
    gamma = virtual - below
    lo, hi = arr[below], arr[above]
    step = hi - lo
    out = lo + step * gamma
    np.subtract(hi, step * (1 - gamma), out=out, where=gamma >= 0.5)
    if np.isnan(arr[-1]):
        out[:] = arr[-1]
    return out


def sorted_unique(values) -> np.ndarray:
    """``np.unique`` of the values: the distinct ones, ascending, with NaNs
    as one NaN at the end. They are sorted by numpy's default sort, as
    ``np.unique`` sorts floats, so that of 0.0 and -0.0 the same one comes
    first and is kept. ``np.unique`` imports ``numpy.ma`` for its
    masked-array check."""
    a = np.sort(np.asarray(values).ravel())
    first = np.ones(a.size, dtype=bool)
    np.not_equal(a[1:], a[:-1], out=first[1:])
    if a.dtype.kind == "f" and a.size and np.isnan(a[-1]):
        first[np.searchsorted(a, a[-1], side="left") + 1:] = False
    return a[first]


class EventTable:
    """The distinct event times of a cohort with the risk set at each.

    ``order`` sorts the subjects by time (stable), and ``times``/``events``
    are in that order. For each distinct event time g, ascending in
    ``event_times``: the risk set (everyone with time >= the event time) is
    sorted positions ``risk_start[g]:`` and holds ``at_risk[g]`` subjects,
    and the ``deaths[g]`` tied deaths sit at sorted positions
    ``death_pos[death_start[g] : death_start[g] + deaths[g]]``. A cohort
    without events gives empty per-event-time arrays.
    """

    def __init__(self, times, events):
        times = np.asarray(times, dtype=float)
        self.order = np.argsort(times, kind="stable")
        self.times = times[self.order]
        self.events = np.asarray(events, dtype=bool)[self.order]
        self.death_pos = np.flatnonzero(self.events)
        # the death times are sorted already: each run of equal values is one
        # event time, starting where the value changes
        death_times = self.times[self.death_pos]
        new = np.ones(death_times.size, dtype=bool)
        np.not_equal(death_times[1:], death_times[:-1], out=new[1:])
        self.death_start = np.flatnonzero(new)
        self.event_times = death_times[self.death_start]
        self.deaths = np.diff(self.death_start, append=death_times.size)
        self.risk_start = np.searchsorted(self.times, self.event_times, side="left")
        self.at_risk = self.times.size - self.risk_start

    @cached_property
    def tie_blocks(self) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        """The event times grouped by their number of deaths d, ascending in d.

        Each entry is ``(groups, positions)``: the ascending indices of the
        event times with d deaths, and a C-contiguous ``(groups.size, d)``
        array whose row k holds the sorted death positions of event time
        ``groups[k]``. A row reduction over a block adds in the same order as
        the 1-D reduction over one group's deaths.
        """
        blocks = []
        for d in sorted_unique(self.deaths):
            groups = np.flatnonzero(self.deaths == d)
            blocks.append((groups, self.death_pos[self.death_start[groups][:, None] + np.arange(d)]))
        return tuple(blocks)

    @cached_property
    def last_event_time(self) -> tuple[np.ndarray, np.ndarray]:
        """For each subject in time order, the index of the last event time
        at or before its time (0 where there is none) and whether there is one."""
        idx = np.searchsorted(self.event_times, self.times, side="right") - 1
        return np.maximum(idx, 0), idx >= 0

    @cached_property
    def event_flags(self) -> np.ndarray:
        """``events`` as 1.0 and 0.0."""
        return self.events.astype(float)

    def subgroup_counts(self, member) -> tuple[np.ndarray, np.ndarray]:
        """At-risk and death counts per event time of the subjects flagged in
        ``member`` (a boolean mask in the original subject order)."""
        m = np.asarray(member, dtype=bool)[self.order]
        from_here = np.append(np.cumsum(m[::-1])[::-1], 0)
        deaths_before = np.append(0, np.cumsum(m[self.death_pos]))
        return (from_here[self.risk_start],
                deaths_before[self.death_start + self.deaths] - deaths_before[self.death_start])
