"""Pulmonary Embolism Severity Index (PESI).

Point weights and class bands follow the original derivation study
(Aujesky et al., Am J Respir Crit Care Med 172:1041-1046, 2005): age in
years plus fixed increments for ten findings, banded into classes I-V.
:func:`pesi_score` scores one patient; :func:`pesi_scores` scores a whole
dataset at once with the same rounding and the same errors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import attrgetter

import numpy as np

from .dataset import ClinicalVariables, Dataset
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

_PESI_INPUTS = attrgetter("age_years", *PESI_WEIGHTS)
_PESI_POINTS = np.array(list(PESI_WEIGHTS.values()), dtype=float)

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


def pesi_scores(ds: Dataset) -> np.ndarray:
    """PESI scores of every record, in record order, as floats.

    Each score is round-half-even of age plus the points of the positive
    findings, as in :func:`pesi_score`. The first record that
    :func:`pesi_score` would reject (a missing field, or an age that is not
    a positive finite number) raises that function's error.
    """
    rows = [_PESI_INPUTS(r.clinical) for r in ds.records]
    for record, row in zip(ds.records, rows):
        if None in row or not 0 < row[0] < math.inf:
            pesi_score(record.clinical)  # raises the per-record error
    mat = np.array(rows, dtype=float).reshape(len(rows), 1 + len(PESI_WEIGHTS))
    return np.rint(mat[:, 0]) + mat[:, 1:] @ _PESI_POINTS


def pesi_predictor(ds: Dataset) -> np.ndarray:
    """PESI scores as a float risk vector in dataset record order."""
    return pesi_scores(ds)
