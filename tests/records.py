"""The record form of a cohort, kept as the oracle of the column form.

Before the cohort was held as columns (``dataset.Dataset`` and
``dataset.Labels``), each patient was a ``PatientRecord`` of
``ClinicalVariables`` and a ``SurvivalLabel``, read one ``DictReader`` row
at a time and imputed, normalized and scored one record and one field at a
time. These are those types and functions, written out per record; the
property tests check that the column functions give exactly their values
and raise exactly their errors.
"""

import csv
from dataclasses import dataclass, replace
from math import isfinite

import numpy as np

from survfuse.dataset import (
    BINARY_FIELDS,
    CLINICAL_COLUMNS,
    ImputationStats,
    Labels,
)
from survfuse.errors import (
    AllMissingColumnError,
    DatasetTooSmallError,
    DuplicatePatientIdError,
    MalformedRowError,
    MissingColumnError,
    NonPositiveAgeError,
    UnimputedRecordError,
)

FIELDS = ("age_years",) + BINARY_FIELDS


@dataclass(frozen=True)
class SurvivalLabel:
    """Right-censored outcome: observed event flag and follow-up in days."""

    event: bool
    time_days: float

    def __post_init__(self):
        if not isfinite(self.time_days) or self.time_days < 0:
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
    def missing(self) -> list[str]:
        return [f for f in FIELDS if getattr(self, f) is None]


@dataclass(frozen=True, eq=False)
class PatientRecord:
    patient_id: str
    clinical: ClinicalVariables
    label: SurvivalLabel
    rv_dysfunction: bool | None = None


@dataclass(frozen=True, eq=False)
class RecordDataset:
    records: tuple[PatientRecord, ...]
    imputation: ImputationStats | None = None

    @property
    def patient_ids(self) -> tuple[str, ...]:
        return tuple(r.patient_id for r in self.records)

    @property
    def labels(self) -> list[SurvivalLabel]:
        return [r.label for r in self.records]


def label_list(labels: Labels) -> list[SurvivalLabel]:
    return [SurvivalLabel(event=e, time_days=t)
            for t, e in zip(labels.times.tolist(), labels.events.tolist())]


def values_row(clin: ClinicalVariables) -> list[float]:
    """A values-matrix row: a flag as 1.0 or 0.0, NaN for ``None``."""
    return [np.nan if v is None else float(v) for v in (getattr(clin, f) for f in FIELDS)]


def record_dataset(ds) -> RecordDataset:
    """The records of a column ``Dataset``, imputation kept."""
    records = tuple(
        PatientRecord(
            patient_id=pid,
            clinical=ClinicalVariables(*(None if v != v else (v if k == 0 else v == 1.0)
                                         for k, v in enumerate(row))),
            label=label,
            rv_dysfunction=None if rv != rv else rv == 1.0,
        )
        for pid, row, label, rv in zip(ds.patient_ids, ds.values.tolist(),
                                       label_list(ds.labels), ds.rv_dysfunction.tolist())
    )
    return RecordDataset(records=records, imputation=ds.imputation)


# --- the per-row reader -------------------------------------------------------

_TRUE = frozenset({"1", "true", "t", "yes", "y"})
_FALSE = frozenset({"0", "false", "f", "no", "n"})


def parse_float(token):
    token = token.strip()
    if not token:
        return None
    try:
        return float(token)
    except ValueError:
        return None


def ingest_clinical(path, debug=lambda *args: None) -> RecordDataset:
    """One ``DictReader`` row and three dataclasses per patient; ``debug``
    takes the arguments of each DEBUG log call."""

    def parse_bool(token, row_index, column):
        token = token.strip().lower()
        if not token:
            return None
        if token in _TRUE:
            return True
        if token in _FALSE:
            return False
        debug("row %d: unparseable boolean %r in %s, marked missing", row_index, token, column)
        return None

    def parse_measure(token, row_index, column):
        value = parse_float(token)
        if value is not None and not np.isfinite(value):
            raise MalformedRowError(row_index,
                                    f"{column} must be a finite number, got {token.strip()!r}")
        return value

    def parse_sex(token):
        token = token.strip().lower()
        if token in {"m", "male"} | _TRUE:
            return True
        if token in {"f", "female"} | _FALSE:
            return False
        return None

    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        header = reader.fieldnames or []
        for name in CLINICAL_COLUMNS[:-1]:
            if name not in header:
                raise MissingColumnError(f"clinical CSV is missing column {name!r}")
        has_rv = "rv_dysfunction" in header
        records, seen = [], set()
        for i, row in enumerate(reader):
            def cell(name):
                return row.get(name) or ""

            pid = cell("patient_id").strip()
            if not pid:
                raise MalformedRowError(i, "empty patient_id")
            if pid in seen:
                raise DuplicatePatientIdError(f"patient id {pid!r} appears more than once")
            seen.add(pid)
            event = parse_bool(cell("event"), i, "event")
            if event is None:
                raise MalformedRowError(i, "event must be a boolean")
            time_days = parse_float(cell("time_days"))
            if time_days is None or not np.isfinite(time_days) or time_days < 0:
                raise MalformedRowError(i, "time_days must be a finite non-negative number")
            age = parse_measure(cell("age"), i, "age")
            if age is not None and age <= 0:
                raise MalformedRowError(i, f"age must be positive, got {age}")
            hr, sbp, rr, temp, o2 = (parse_measure(cell(name), i, name) for name in (
                "heart_rate", "systolic_bp", "respiratory_rate", "temperature_c", "o2_sat"))
            clin = ClinicalVariables(
                age_years=age,
                male=parse_sex(cell("sex")),
                cancer=parse_bool(cell("cancer"), i, "cancer"),
                heart_failure=parse_bool(cell("heart_failure"), i, "heart_failure"),
                chronic_lung_disease=parse_bool(cell("chronic_lung_disease"), i,
                                                "chronic_lung_disease"),
                hr_ge_110=None if hr is None else hr >= 110.0,
                sbp_lt_100=None if sbp is None else sbp < 100.0,
                rr_ge_30=None if rr is None else rr >= 30.0,
                temp_lt_36c=None if temp is None else temp < 36.0,
                altered_mental_status=parse_bool(cell("altered_mental_status"), i,
                                                 "altered_mental_status"),
                o2_sat_lt_90=None if o2 is None else o2 < 90.0,
            )
            rv = parse_bool(cell("rv_dysfunction"), i, "rv_dysfunction") if has_rv else None
            records.append(PatientRecord(patient_id=pid, clinical=clin,
                                         label=SurvivalLabel(event=event, time_days=time_days),
                                         rv_dysfunction=rv))
    return RecordDataset(records=tuple(records))


# --- split, imputation and the model inputs, one record at a time ------------


@dataclass(frozen=True)
class SplitAssignment:
    """Disjoint train/val/test patient ids, each in the permutation's order."""

    train_ids: tuple[str, ...]
    val_ids: tuple[str, ...]
    test_ids: tuple[str, ...]


def split_dataset(ds: RecordDataset, seed: int, train_frac, val_frac) -> SplitAssignment:
    n = len(ds.records)
    if n < 10:
        raise DatasetTooSmallError(f"need at least 10 records to split, got {n}")
    perm = np.random.default_rng(seed).permutation(n)
    n_train, n_val = int(np.floor(train_frac * n)), int(np.floor(val_frac * n))
    ids = ds.patient_ids
    return SplitAssignment(train_ids=tuple(ids[i] for i in perm[:n_train]),
                           val_ids=tuple(ids[i] for i in perm[n_train:n_train + n_val]),
                           test_ids=tuple(ids[i] for i in perm[n_train + n_val:]))


def compute_imputation_stats(ds: RecordDataset, reference_ids) -> ImputationStats:
    wanted = set(reference_ids)
    ref = [r for r in ds.records if r.patient_id in wanted]
    if not ref:
        raise DatasetTooSmallError("reference id set selects no records")
    medians = {}
    for field in BINARY_FIELDS:
        observed = [getattr(r.clinical, field) for r in ref
                    if getattr(r.clinical, field) is not None]
        if not observed:
            raise AllMissingColumnError(
                f"column {field!r} has no observed values in the reference set")
        medians[field] = sum(observed) * 2 > len(observed)  # strict majority; ties -> False
    ages = [r.clinical.age_years for r in ref if r.clinical.age_years is not None]
    if not ages:
        raise AllMissingColumnError("column 'age_years' has no observed values in the reference set")
    age_median = float(np.median(ages))
    filled = np.array([r.clinical.age_years if r.clinical.age_years is not None else age_median
                       for r in ref], dtype=float)
    age_std = float(filled.std())
    if age_std == 0.0:
        age_std = 1.0
    return ImputationStats(binary_medians=medians, age_median=age_median,
                           age_mean=float(filled.mean()), age_std=age_std)


def apply_imputation(ds: RecordDataset, stats: ImputationStats) -> RecordDataset:
    fill = {"age_years": stats.age_median, **stats.binary_medians}
    records = tuple(
        replace(r, clinical=replace(r.clinical, **{f: fill[f] for f in r.clinical.missing}))
        for r in ds.records)
    return RecordDataset(records=records, imputation=stats)


def impute_missing(ds: RecordDataset, reference_ids) -> RecordDataset:
    return apply_imputation(ds, compute_imputation_stats(ds, reference_ids))


def clinical_vector(record: PatientRecord, stats: ImputationStats) -> np.ndarray:
    """One record's model input, one field at a time."""
    c = record.clinical
    if c.missing:
        raise UnimputedRecordError(
            f"patient {record.patient_id}: missing {', '.join(c.missing)}; impute first")
    vec = np.empty(len(FIELDS), dtype=float)
    vec[0] = (c.age_years - stats.age_mean) / stats.age_std
    for k, field in enumerate(BINARY_FIELDS, start=1):
        vec[k] = 1.0 if getattr(c, field) else 0.0
    return vec


def clinical_matrix(ds: RecordDataset) -> np.ndarray:
    if ds.imputation is None:
        raise UnimputedRecordError("dataset has no imputation stats; run impute_missing first")
    return np.array([clinical_vector(r, ds.imputation) for r in ds.records])


def pesi_score(clin: ClinicalVariables) -> int:
    """One patient's score; requires fully imputed inputs."""
    from survfuse.pesi import PESI_WEIGHTS

    if clin.missing:
        raise UnimputedRecordError(f"cannot score with missing fields: {', '.join(clin.missing)}")
    if clin.age_years <= 0:
        raise NonPositiveAgeError(f"age must be positive, got {clin.age_years}")
    score = int(round(clin.age_years))
    for field, points in PESI_WEIGHTS.items():
        if getattr(clin, field):
            score += points
    return score


def pesi_scores(ds: RecordDataset) -> np.ndarray:
    return np.array([pesi_score(r.clinical) for r in ds.records], dtype=float)


def truncate_30day(labels: list[SurvivalLabel]) -> list[SurvivalLabel]:
    return [SurvivalLabel(event=False, time_days=30.0) if lab.time_days > 30.0 else lab
            for lab in labels]
