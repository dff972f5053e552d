"""Pulmonary Embolism Severity Index (PESI).

Point weights and class bands follow the original derivation study
(Aujesky et al., Am J Respir Crit Care Med 172:1041-1046, 2005): age in
years plus fixed increments for ten findings, banded into classes I-V.
"""

from __future__ import annotations

from dataclasses import dataclass

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


def pesi_predictor(ds: Dataset) -> np.ndarray:
    """PESI scores as a float risk vector in dataset record order."""
    return np.array([pesi_score(r.clinical).score for r in ds.records], dtype=float)
