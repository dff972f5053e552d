"""Cohort ingestion, imputation, feature extraction and splitting.

The on-disk interchange format is two CSV files. The clinical file has one
row per patient::

    patient_id, age, sex, heart_rate, systolic_bp, respiratory_rate,
    temperature_c, altered_mental_status, cancer, heart_failure,
    chronic_lung_disease, o2_sat, event, time_days, rv_dysfunction

The feature file has one row per acquisition (a patient may have several)::

    patient_id, acquisition_id, pe_probability, f0, f1, ..., f{d-1}

Its feature cells are parsed with ``float`` into one ``(rows, d)`` matrix,
a block of 256 rows at a time, by ``feature_csv.read_columns``, which uses
the standard library alone: the cells go into one ``array('d')`` that the
matrix then views without a copy. Besides the ids, the probabilities and
the cells, a read holds at most one block of unparsed cell strings: its
peak is about 2.2 times the matrix's size for 4000 rows of 32 features,
where the cell strings of the whole file would take about ten times.
``survfuse score`` and ``survfuse run`` start that read in a forked child
before they import numpy (see ``feature_csv.FeatureRead``) and hand the
started read to ``attach_imaging``, which takes its result where it would
have read the file; with one usable CPU, without fork, for a file under
1 MiB, or when the child fails, the file is read in this process instead,
so errors are the same either way. Each patient keeps the acquisition with
the highest ``pe_probability``, the first in the file on ties.

Empty cells are treated as missing. A NaN or infinite feature cell, age or
vital sign rejects its row with ``MalformedRowError``. Vital signs are
thresholded into binary severity indicators at ingest time (tachycardia
>= 110 bpm, hypotension < 100 mmHg, tachypnea >= 30/min, hypothermia
< 36 C, hypoxemia < 90%), so downstream models only ever see age plus ten
binary flags.
"""

from __future__ import annotations

import csv
import dataclasses
import logging
from dataclasses import dataclass
from functools import cached_property
from math import isfinite
from operator import attrgetter

import numpy as np

from .errors import (
    AllMissingColumnError,
    DatasetTooSmallError,
    DuplicatePatientIdError,
    MalformedRowError,
    MissingColumnError,
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
class SurvivalLabel:
    """Right-censored outcome: observed event flag and follow-up in days."""

    event: bool
    time_days: float

    def __post_init__(self):
        if not np.isfinite(self.time_days) or self.time_days < 0:
            raise ValueError(f"time_days must be finite and >= 0, got {self.time_days}")


@dataclass(frozen=True)
class ClinicalVariables:
    """The eleven severity-index inputs; ``None`` marks a missing value."""

    age_years: float | None
    male: bool | None
    cancer: bool | None
    heart_failure: bool | None
    chronic_lung_disease: bool | None
    hr_ge_110: bool | None
    sbp_lt_100: bool | None
    rr_ge_30: bool | None
    temp_lt_36c: bool | None
    altered_mental_status: bool | None
    o2_sat_lt_90: bool | None

    @property
    def missing_mask(self) -> dict[str, bool]:
        """Field name -> True when the stored value is the missing sentinel."""
        return {f: getattr(self, f) is None for f in ("age_years",) + BINARY_FIELDS}

    @property
    def complete(self) -> bool:
        return all(getattr(self, f) is not None for f in ("age_years",) + BINARY_FIELDS)


@dataclass(frozen=True, eq=False)
class PatientRecord:
    patient_id: str
    clinical: ClinicalVariables
    label: SurvivalLabel
    imaging_features: np.ndarray | None = None
    rv_dysfunction: bool | None = None


@dataclass(frozen=True)
class ImputationStats:
    """Constants learned from a reference cohort and reused verbatim elsewhere."""

    binary_medians: dict[str, bool]
    age_median: float
    age_mean: float
    age_std: float


@dataclass(frozen=True, eq=False)
class Dataset:
    """Immutable collection of patient records in ingestion order."""

    records: tuple[PatientRecord, ...]
    feature_dim: int | None = None
    imputation: ImputationStats | None = None

    def __len__(self) -> int:
        return len(self.records)

    @property
    def patient_ids(self) -> tuple[str, ...]:
        return tuple(r.patient_id for r in self.records)

    @property
    def labels(self) -> list[SurvivalLabel]:
        return [r.label for r in self.records]

    @property
    def age_norm_params(self) -> tuple[float, float] | None:
        if self.imputation is None:
            return None
        return (self.imputation.age_mean, self.imputation.age_std)

    def subset(self, ids) -> "Dataset":
        keep = set(ids)
        return dataclasses.replace(
            self, records=tuple(r for r in self.records if r.patient_id in keep)
        )


@dataclass(frozen=True)
class SplitAssignment:
    """Disjoint train/val/test patient ids plus the seed that produced them."""

    train_ids: tuple[str, ...]
    val_ids: tuple[str, ...]
    test_ids: tuple[str, ...]
    seed: int


def _parse_bool(token: str, row_index: int, column: str) -> bool | None:
    token = token.strip().lower()
    if not token:
        return None
    if token in _TRUE_TOKENS:
        return True
    if token in _FALSE_TOKENS:
        return False
    log.debug("row %d: unparseable boolean %r in %s, marked missing", row_index, token, column)
    return None


def _parse_measure(token: str, row_index: int, column: str) -> float | None:
    """``feature_csv.parse_float`` that rejects a NaN or infinite value."""
    value = parse_float(token)
    if value is not None and not isfinite(value):
        raise MalformedRowError(row_index, f"{column} must be a finite number, got {token.strip()!r}")
    return value


def _parse_sex(token: str) -> bool | None:
    token = token.strip().lower()
    if not token:
        return None
    if token in _MALE_TOKENS:
        return True
    if token in _FEMALE_TOKENS:
        return False
    return None


def ingest_clinical(path, schema: dict[str, str] | None = None) -> Dataset:
    """Read the clinical CSV into a :class:`Dataset`.

    Parameters
    ----------
    path : str or Path
        Clinical CSV with the canonical column set.
    schema : dict, optional
        Maps canonical column names to the actual header names, for files
        whose headers were renamed. Unmapped names are used as-is.

    Raises
    ------
    MissingColumnError, DuplicatePatientIdError, MalformedRowError
    """
    schema = schema or {}
    col = {name: schema.get(name, name) for name in CLINICAL_COLUMNS}

    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        header = reader.fieldnames or []
        for name in REQUIRED_CLINICAL_COLUMNS:
            if col[name] not in header:
                raise MissingColumnError(f"clinical CSV is missing column {col[name]!r}")
        has_rv = col["rv_dysfunction"] in header

        records: list[PatientRecord] = []
        seen: set[str] = set()
        for i, row in enumerate(reader):
            pid = (row.get(col["patient_id"]) or "").strip()
            if not pid:
                raise MalformedRowError(i, "empty patient_id")
            if pid in seen:
                raise DuplicatePatientIdError(f"patient id {pid!r} appears more than once")
            seen.add(pid)

            event = _parse_bool(row.get(col["event"]) or "", i, "event")
            if event is None:
                raise MalformedRowError(i, "event must be a boolean")
            time_days = parse_float(row.get(col["time_days"]) or "")
            if time_days is None or not np.isfinite(time_days) or time_days < 0:
                raise MalformedRowError(i, "time_days must be a finite non-negative number")

            age = _parse_measure(row.get(col["age"]) or "", i, col["age"])
            if age is not None and age <= 0:
                raise MalformedRowError(i, f"age must be positive, got {age}")

            hr = _parse_measure(row.get(col["heart_rate"]) or "", i, col["heart_rate"])
            sbp = _parse_measure(row.get(col["systolic_bp"]) or "", i, col["systolic_bp"])
            rr = _parse_measure(row.get(col["respiratory_rate"]) or "", i, col["respiratory_rate"])
            temp = _parse_measure(row.get(col["temperature_c"]) or "", i, col["temperature_c"])
            o2 = _parse_measure(row.get(col["o2_sat"]) or "", i, col["o2_sat"])

            clin = ClinicalVariables(
                age_years=age,
                male=_parse_sex(row.get(col["sex"]) or ""),
                cancer=_parse_bool(row.get(col["cancer"]) or "", i, "cancer"),
                heart_failure=_parse_bool(row.get(col["heart_failure"]) or "", i, "heart_failure"),
                chronic_lung_disease=_parse_bool(
                    row.get(col["chronic_lung_disease"]) or "", i, "chronic_lung_disease"
                ),
                hr_ge_110=None if hr is None else hr >= 110.0,
                sbp_lt_100=None if sbp is None else sbp < 100.0,
                rr_ge_30=None if rr is None else rr >= 30.0,
                temp_lt_36c=None if temp is None else temp < 36.0,
                altered_mental_status=_parse_bool(
                    row.get(col["altered_mental_status"]) or "", i, "altered_mental_status"
                ),
                o2_sat_lt_90=None if o2 is None else o2 < 90.0,
            )
            rv = _parse_bool(row.get(col["rv_dysfunction"]) or "", i, "rv_dysfunction") if has_rv else None
            records.append(
                PatientRecord(
                    patient_id=pid,
                    clinical=clin,
                    label=SurvivalLabel(event=event, time_days=time_days),
                    rv_dysfunction=rv,
                )
            )
    return Dataset(records=tuple(records))


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


def attach_imaging(ds: Dataset, source) -> Dataset:
    """Join acquisition features onto a clinical dataset.

    ``source`` is what ``ingest_features`` takes: the feature CSV's path or
    a ``FeatureRead`` started on it.

    Each patient gets a read-only view of the feature row of its acquisition
    with the highest ``pe_probability``, the first such row in the file on
    ties. Patients without any acquisition keep ``imaging_features=None``.
    Feature rows for patients absent from the cohort are skipped with a
    warning; the clinical file is authoritative for cohort membership.
    """
    patient_ids, probs, features = ingest_features(source)
    codes: dict[str, int] = {}
    code = np.fromiter((codes.setdefault(p, len(codes)) for p in patient_ids),
                       dtype=np.intp, count=patient_ids.size)
    unknown = sorted(set(codes).difference(ds.patient_ids))
    if unknown:
        log.warning("feature CSV has %d patient(s) not in the cohort: %s",
                    len(unknown), ", ".join(unknown[:5]))
    # by patient, then highest probability, then earliest row
    order = np.lexsort((np.arange(code.size), -probs, code))
    kept = features[order[np.flatnonzero(np.diff(code[order], prepend=-1))]]
    kept.flags.writeable = False
    chosen = dict(zip(codes, kept))  # codes iterate in code order, kept yields row views
    new_records = tuple(
        dataclasses.replace(rec, imaging_features=chosen[rec.patient_id])
        if rec.patient_id in chosen else rec
        for rec in ds.records
    )
    return dataclasses.replace(ds, records=new_records, feature_dim=features.shape[1])


def compute_imputation_stats(ds: Dataset, reference_ids) -> ImputationStats:
    """Learn fill-in constants from the reference (training) patients.

    Binary fields take the median over observed reference values, with an
    exact 0.5 tie resolved to False. Age takes the reference median; the
    normalization mean/std are then computed over the POST-imputation
    reference ages (observed values plus the median for missing ones) so that
    normalized training age has mean exactly zero.
    """
    wanted = set(reference_ids)
    ref = [r for r in ds.records if r.patient_id in wanted]
    if not ref:
        raise DatasetTooSmallError("reference id set selects no records")

    medians: dict[str, bool] = {}
    for field in BINARY_FIELDS:
        observed = [getattr(r.clinical, field) for r in ref if getattr(r.clinical, field) is not None]
        if not observed:
            raise AllMissingColumnError(f"column {field!r} has no observed values in the reference set")
        medians[field] = sum(observed) * 2 > len(observed)  # strict majority; ties -> False

    ages = [r.clinical.age_years for r in ref if r.clinical.age_years is not None]
    if not ages:
        raise AllMissingColumnError("column 'age_years' has no observed values in the reference set")
    age_median = float(np.median(ages))
    filled = np.array(
        [r.clinical.age_years if r.clinical.age_years is not None else age_median for r in ref],
        dtype=float,
    )
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
    """Fill every missing clinical value using previously learned constants."""
    new_records = []
    for rec in ds.records:
        c = rec.clinical
        if c.complete:
            new_records.append(rec)
            continue
        values = {f: getattr(c, f) for f in BINARY_FIELDS}
        for f in BINARY_FIELDS:
            if values[f] is None:
                values[f] = stats.binary_medians[f]
        age = c.age_years if c.age_years is not None else stats.age_median
        new_records.append(
            dataclasses.replace(rec, clinical=ClinicalVariables(age_years=age, **values))
        )
    return dataclasses.replace(ds, records=tuple(new_records), imputation=stats)


def impute_missing(ds: Dataset, reference_ids) -> Dataset:
    """Learn constants on ``reference_ids`` and fill the whole dataset.

    The same constants are applied to every record regardless of split, so
    no statistic ever leaks from validation or test outcomes. Idempotent:
    re-running on the result changes nothing.
    """
    stats = compute_imputation_stats(ds, reference_ids)
    return apply_imputation(ds, stats)


_CLINICAL_INPUTS = attrgetter("age_years", *BINARY_FIELDS)


def _clinical_rows(records, age_norm_params: tuple[float, float]) -> np.ndarray:
    """``(len(records), 11)`` model inputs: normalized age then the ten flags."""
    rows = [_CLINICAL_INPUTS(r.clinical) for r in records]
    for record, row in zip(records, rows):
        if None in row:
            missing = [f for f, m in record.clinical.missing_mask.items() if m]
            raise UnimputedRecordError(
                f"patient {record.patient_id}: missing {', '.join(missing)}; impute first"
            )
    mat = np.array(rows, dtype=float).reshape(len(rows), 1 + len(BINARY_FIELDS))
    mean, std = age_norm_params
    mat[:, 0] = (mat[:, 0] - mean) / std
    return mat


def clinical_feature_vector(record: PatientRecord, age_norm_params: tuple[float, float]) -> np.ndarray:
    """11-element model input: normalized age then the ten binary flags."""
    return _clinical_rows((record,), age_norm_params)[0]


def clinical_matrix(ds: Dataset, ids=None) -> np.ndarray:
    """Stack clinical feature vectors for ``ids`` (default: all) in record order."""
    if ds.age_norm_params is None:
        raise UnimputedRecordError("dataset has no imputation stats; run impute_missing first")
    wanted = None if ids is None else set(ids)
    records = [r for r in ds.records if wanted is None or r.patient_id in wanted]
    if not records:
        return np.array([])
    return _clinical_rows(records, ds.age_norm_params)


def split_dataset(ds: Dataset, seed: int, train_frac: float = 0.7, val_frac: float = 0.1) -> SplitAssignment:
    """Random 7:1:2 patient split (floors for train/val, remainder to test)."""
    n = len(ds)
    if n < 10:
        raise DatasetTooSmallError(f"need at least 10 records to split, got {n}")
    if train_frac <= 0 or val_frac < 0 or train_frac + val_frac >= 1:
        raise ValueError("split fractions must satisfy 0 < train, 0 <= val, train + val < 1")
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    n_train = int(np.floor(train_frac * n))
    n_val = int(np.floor(val_frac * n))
    ids = ds.patient_ids
    train = tuple(ids[i] for i in perm[:n_train])
    val = tuple(ids[i] for i in perm[n_train:n_train + n_val])
    test = tuple(ids[i] for i in perm[n_train + n_val:])
    return SplitAssignment(train_ids=train, val_ids=val, test_ids=test, seed=seed)


def truncate_30day(labels: list[SurvivalLabel]) -> list[SurvivalLabel]:
    """Cap follow-up at 30 days for short-term evaluation.

    Times at or below 30 days are untouched (an event on day 30 stays an
    event); anything later becomes censored at exactly 30 days.
    """
    out = []
    for lab in labels:
        if lab.time_days > 30.0:
            out.append(SurvivalLabel(event=False, time_days=30.0))
        else:
            out.append(lab)
    return out


def label_arrays(labels) -> tuple[np.ndarray, np.ndarray]:
    """Split labels into parallel (times, events) arrays."""
    times = np.array([lab.time_days for lab in labels], dtype=float)
    events = np.array([lab.event for lab in labels], dtype=bool)
    return times, events


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
        for d in np.unique(self.deaths):
            groups = np.flatnonzero(self.deaths == d)
            blocks.append((groups, self.death_pos[self.death_start[groups][:, None] + np.arange(d)]))
        return tuple(blocks)

    def subgroup_counts(self, member) -> tuple[np.ndarray, np.ndarray]:
        """At-risk and death counts per event time of the subjects flagged in
        ``member`` (a boolean mask in the original subject order)."""
        m = np.asarray(member, dtype=bool)[self.order]
        from_here = np.append(np.cumsum(m[::-1])[::-1], 0)
        deaths_before = np.append(0, np.cumsum(m[self.death_pos]))
        return (from_here[self.risk_start],
                deaths_before[self.death_start + self.deaths] - deaths_before[self.death_start])
