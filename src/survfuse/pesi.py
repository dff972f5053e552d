"""Pulmonary Embolism Severity Index (PESI).

Point weights and class bands follow the original derivation study
(Aujesky et al., Am J Respir Crit Care Med 172:1041-1046, 2005): age in
years plus fixed increments for ten findings, banded into classes I-V.
:func:`pesi_points` scores the rows of a clinical values matrix at once,
and :func:`pesi_scores` scores a dataset's imputed ``values`` through it.
"""

from __future__ import annotations

import numpy as np

from .dataset import BINARY_FIELDS, Dataset
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


def risk_class_for(score: int) -> str:
    for bound, label in _CLASS_BOUNDS:
        if score <= bound:
            return label
    return "V"


def _raise_unscorable(row: list) -> None:
    """Raise the error of a values row with a missing value or an age
    outside (0, inf)."""
    missing = [f for f, v in zip(("age_years",) + BINARY_FIELDS, row) if v != v]
    if missing:
        raise UnimputedRecordError(f"cannot score with missing fields: {', '.join(missing)}")
    if not row[0] > 0:
        raise NonPositiveAgeError(f"age must be positive, got {row[0]}")
    # an infinite age cannot be rounded to a whole number of points
    raise OverflowError("cannot convert float infinity to integer")


def pesi_points(values: np.ndarray) -> np.ndarray:
    """PESI scores of the rows of a clinical values matrix, as floats.

    ``values`` is ``(n, 11)`` as ``dataset.Dataset`` holds it. Each score is
    round-half-even of age plus the points of the positive findings. The
    first row with a missing value raises ``UnimputedRecordError``, or with
    an age that is not positive ``NonPositiveAgeError``, or with an
    infinite age ``OverflowError``.
    """
    age = values[:, 0]
    bad = np.isnan(values).any(axis=1) | ~(age > 0) | np.isinf(age)
    if bad.any():
        _raise_unscorable(values[int(np.argmax(bad))].tolist())
    return np.rint(age) + values[:, 1:] @ _PESI_POINTS


def pesi_scores(ds: Dataset) -> np.ndarray:
    """PESI scores of every patient, in patient order, as floats, by
    :func:`pesi_points` on the dataset's values."""
    return pesi_points(ds.values)
