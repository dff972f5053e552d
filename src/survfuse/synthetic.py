"""Synthetic study cohorts with known hazard structure, written as the two
CSV files that ``survfuse run`` reads.

Ground truth follows a proportional-hazards model with an exponential
baseline, so event times sample in closed form from uniform draws:
``t = -ln(u) / (rate * exp(risk))``. Censoring is an independent exponential
clock. All randomness comes from one numpy PCG64 generator (O'Neill's
permuted congruential generator) seeded with ``SeedSequence(plan.seed)``,
so a seed reproduces a cohort bit-for-bit on any platform.

Draw order is part of the generator contract (changing it changes the
cohort): the two latent components, the clinical noise and flags, the
event uniforms, the censor uniforms, the acquisition counts, the missing
cells, then per acquisition its PE probability and imaging noise.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .dataset import CLINICAL_COLUMNS, Labels
from .errors import InvalidSpecError


def _survival_labels(rng: np.random.Generator, risk: np.ndarray,
                     baseline_rate: float, censor_rate: float):
    """Exponential event and censor times; events win exact ties (measure zero)."""
    n = risk.size
    u_event = rng.random(n)
    t_event = -np.log1p(-u_event) / (baseline_rate * np.exp(risk))
    t_event = np.maximum(t_event, np.finfo(float).tiny)  # u == 0 exactly
    if censor_rate > 0:
        u_censor = rng.random(n)
        t_censor = -np.log1p(-u_censor) / censor_rate
        t_censor = np.maximum(t_censor, np.finfo(float).tiny)
    else:
        t_censor = np.full(n, np.inf)
    observed = np.minimum(t_event, t_censor)
    events = t_event <= t_censor
    return Labels(observed, events)


@dataclass(frozen=True)
class CohortPlan:
    """Parameters for a full synthetic study written as the two CSV files.

    The first latent component expresses itself through the clinical
    variables (age shifts, vital-sign drift, comorbidity odds); the second
    drives the imaging feature columns and the RV dysfunction flag. The
    hazard mixes both per ``latent_weights``, giving each modality partial,
    complementary signal. ``baseline_rate`` is per day; the defaults of the
    config's ``generate`` section put the bulk of deaths inside the first
    year with a meaningful fraction before day 30.
    """

    n: int
    seed: int
    latent_weights: tuple[float, float]
    img_dim: int
    noise_scale: float
    baseline_rate: float
    censor_rate: float
    max_acquisitions: int
    missing_rate: float

    def __post_init__(self):
        if self.n < 10:
            raise InvalidSpecError(f"cohort n must be >= 10, got {self.n}")
        if self.img_dim < 1:
            raise InvalidSpecError("img_dim must be >= 1")
        if self.baseline_rate <= 0 or self.censor_rate < 0:
            raise InvalidSpecError("rates must be positive (censor may be 0)")
        if not 0.0 <= self.missing_rate < 1.0:
            raise InvalidSpecError("missing_rate must be in [0, 1)")
        if self.max_acquisitions < 1:
            raise InvalidSpecError("max_acquisitions must be >= 1")


def _bernoulli(rng, logits):
    return rng.random(logits.size) < 1.0 / (1.0 + np.exp(-logits))


def write_study_csvs(plan: CohortPlan, clinical_path, features_path) -> int:
    """Emit a clinical CSV and an acquisition feature CSV for ``plan``.

    The files use the canonical ingestion schemas, so a generated study runs
    through the identical parsing, thresholding, imputation and aggregation
    path as real data. Returns the number of patients written.
    """
    rng = np.random.default_rng(np.random.SeedSequence(plan.seed))
    n = plan.n
    z = rng.standard_normal((n, 2))
    z_clin, z_img = z[:, 0], z[:, 1]

    age = np.clip(62.0 + 14.0 * (0.8 * z_clin + 0.6 * rng.standard_normal(n)), 18.0, 99.0)
    heart_rate = np.round(88.0 + 11.0 * z_clin + 12.0 * rng.standard_normal(n), 1)
    systolic_bp = np.round(124.0 - 11.0 * z_clin + 14.0 * rng.standard_normal(n), 1)
    resp_rate = np.round(19.0 + 3.5 * z_clin + 4.0 * rng.standard_normal(n), 1)
    temperature = np.round(36.8 - 0.25 * z_clin + 0.45 * rng.standard_normal(n), 2)
    o2_sat = np.round(np.clip(94.5 - 2.0 * z_clin + 2.5 * rng.standard_normal(n), 60.0, 100.0), 1)
    male = rng.random(n) < 0.5
    cancer = _bernoulli(rng, -1.6 + 0.9 * z_clin)
    heart_failure = _bernoulli(rng, -2.2 + 0.7 * z_clin)
    chronic_lung = _bernoulli(rng, -2.0 + 0.6 * z_clin)
    ams = _bernoulli(rng, -2.8 + 1.0 * z_clin)
    rv_dysfunction = _bernoulli(rng, -1.8 + 1.3 * z_img)

    risk = plan.latent_weights[0] * z_clin + plan.latent_weights[1] * z_img
    labels = _survival_labels(rng, risk, plan.baseline_rate, plan.censor_rate)
    events, times = labels.events.tolist(), labels.times.tolist()

    n_acq = rng.integers(1, plan.max_acquisitions + 1, size=n)
    # one slot per covariate cell: age, sex, four vitals + o2, four history flags
    missing = (
        rng.random((n, 11)) < plan.missing_rate if plan.missing_rate > 0
        else np.zeros((n, 11), dtype=bool)
    )

    def fmt_bool(b):
        return "1" if b else "0"

    with open(clinical_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CLINICAL_COLUMNS)
        for i in range(n):
            cells = [
                f"{age[i]:.1f}",
                "M" if male[i] else "F",
                repr(float(heart_rate[i])),
                repr(float(systolic_bp[i])),
                repr(float(resp_rate[i])),
                repr(float(temperature[i])),
                fmt_bool(ams[i]),
                fmt_bool(cancer[i]),
                fmt_bool(heart_failure[i]),
                fmt_bool(chronic_lung[i]),
                repr(float(o2_sat[i])),
            ]
            cells = [("" if missing[i, k] else cell) for k, cell in enumerate(cells)]
            writer.writerow(
                [f"P{i:05d}", *cells, fmt_bool(events[i]),
                 repr(times[i]), fmt_bool(rv_dysfunction[i])]
            )

    with open(features_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["patient_id", "acquisition_id", "pe_probability",
                         *(f"f{k}" for k in range(plan.img_dim))])
        for i in range(n):
            for a in range(int(n_acq[i])):
                prob = rng.uniform(0.3, 0.99)
                feats = z_img[i] + plan.noise_scale * rng.standard_normal(plan.img_dim)
                writer.writerow(
                    [f"P{i:05d}", f"A{a}", f"{prob:.6f}", *(repr(float(v)) for v in feats)]
                )
    return n
