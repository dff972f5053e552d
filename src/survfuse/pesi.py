"""Pulmonary Embolism Severity Index (PESI).

Point weights and class bands follow the original derivation study
(Aujesky et al., Am J Respir Crit Care Med 172:1041-1046, 2005): age in
years plus fixed increments for ten findings, banded into classes I-V.
:func:`pesi_score` scores one patient. :func:`pesi_points` scores the rows
of a clinical values matrix at once with the same rounding and the same
errors, and :func:`pesi_scores` scores a dataset's records through it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import BINARY_FIELDS, ClinicalVariables, Dataset, _clinical_values, _variables
from .errors import NonPositiveAgeError, UnimputedRecordError

# Points added on top of age (in years) for each positive finding.
PESI_WEIGHTS = {
    "male": 10,
    "cancer": 30,
    "heart_failure": 10,
    "chronic_lung_disease": 10,
    "hr_ge_110": 20,
    "sbp_lt_100": 30,
    "rr_ge_30": 20,
    "temp_lt_36c": 20,
    "altered_mental_status": 60,
    "o2_sat_lt_90": 20,
}

# points of the flag columns of a values matrix, in BINARY_FIELDS order
_PESI_POINTS = np.array([PESI_WEIGHTS[f] for f in BINARY_FIELDS], dtype=float)

# Upper score bound of classes I-IV; anything above the last bound is class V.
_CLASS_BOUNDS = ((65, "I"), (85, "II"), (105, "III"), (125, "IV"))


@dataclass(frozen=True)
class PesiResult:
    score: int
    risk_class: str


def risk_class_for(score: int) -> str:
    for bound, label in _CLASS_BOUNDS:
        if score <= bound:
            return label
    return "V"


def pesi_score(clin: ClinicalVariables) -> PesiResult:
    """Score one patient; requires fully imputed inputs."""
    if not clin.complete:
        missing = [f for f, m in clin.missing_mask.items() if m]
        raise UnimputedRecordError(f"cannot score with missing fields: {', '.join(missing)}")
    if clin.age_years <= 0:
        raise NonPositiveAgeError(f"age must be positive, got {clin.age_years}")
    score = int(round(clin.age_years))
    for field, points in PESI_WEIGHTS.items():
        if getattr(clin, field):
            score += points
    return PesiResult(score=score, risk_class=risk_class_for(score))


def _first_unscorable(values: np.ndarray) -> int | None:
    """The first row with a missing value or an age outside (0, inf)."""
    age = values[:, 0]
    bad = np.isnan(values).any(axis=1) | ~(age > 0) | np.isinf(age)
    return int(np.argmax(bad)) if bad.any() else None


def pesi_points(values: np.ndarray) -> np.ndarray:
    """PESI scores of the rows of a clinical values matrix, as floats.

    ``values`` is ``(n, 11)`` as ``dataset.ClinicalColumns`` holds it: age
    in years, then the ten flags of ``BINARY_FIELDS`` as 1.0 or 0.0, NaN
    where missing. Each score is round-half-even of age plus the points of
    the positive findings, as in :func:`pesi_score`; the first row that
    :func:`pesi_score` would reject raises that function's error.
    """
    bad = _first_unscorable(values)
    if bad is not None:
        pesi_score(_variables(values[bad].tolist()))  # raises the per-record error
    return np.rint(values[:, 0]) + values[:, 1:] @ _PESI_POINTS


def pesi_scores(ds: Dataset) -> np.ndarray:
    """PESI scores of every record, in record order, as floats, by
    :func:`pesi_points`. The first record that :func:`pesi_score` would
    reject (a missing field, or an age that is not a positive finite
    number) raises that function's error."""
    values = _clinical_values(ds.records)
    bad = _first_unscorable(values)
    if bad is not None:
        pesi_score(ds.records[bad].clinical)  # raises the per-record error
    return pesi_points(values)
