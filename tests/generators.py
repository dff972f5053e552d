"""Cohort generators the tests draw from, beside the study's own
``synthetic.write_study_csvs``.

``gen_cox_linear`` draws standard-normal covariates, then the event
uniforms, then the censor uniforms; ``gen_multimodal`` draws the latents,
the clinical noise, the imaging noise, then the event and censor uniforms.
Both take their survival times from ``synthetic._survival_labels``, so a
seed reproduces a cohort bit-for-bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from survfuse.dataset import Labels
from survfuse.errors import InvalidSpecError
from survfuse.synthetic import _survival_labels


@dataclass(frozen=True)
class ModalityPlan:
    """Two feature views driven by disjoint latent risk components.

    ``latent_weights`` sets how strongly each latent component drives the
    hazard; the clinical view observes only the first component, the imaging
    view only the second, each through ``noise_scale`` additive noise. With
    both weights nonzero neither view alone carries the full signal.
    """

    clin_dim: int = 4
    img_dim: int = 4
    latent_weights: tuple[float, float] = (1.0, 1.0)
    noise_scale: float = 0.5


@dataclass(frozen=True)
class GeneratorSpec:
    n: int = 2000
    beta_true: tuple[float, ...] | None = (1.0, -0.5)
    baseline_rate: float = 0.1
    censor_rate: float = 0.05
    modality_plan: ModalityPlan | None = None
    seed: int = 0

    def __post_init__(self):
        if self.n < 1:
            raise InvalidSpecError(f"n must be >= 1, got {self.n}")
        if self.baseline_rate <= 0:
            raise InvalidSpecError(f"baseline_rate must be > 0, got {self.baseline_rate}")
        if self.censor_rate < 0:
            raise InvalidSpecError(f"censor_rate must be >= 0, got {self.censor_rate}")
        if (self.beta_true is None) == (self.modality_plan is None):
            raise InvalidSpecError("exactly one of beta_true / modality_plan must be set")
        if self.beta_true is not None and len(self.beta_true) == 0:
            raise InvalidSpecError("beta_true must have at least one coefficient")
        if self.modality_plan is not None:
            mp = self.modality_plan
            if mp.clin_dim < 1 or mp.img_dim < 1:
                raise InvalidSpecError("modality dims must be >= 1")
            if mp.noise_scale < 0:
                raise InvalidSpecError("noise_scale must be >= 0")


@dataclass(frozen=True, eq=False)
class MultimodalData:
    x_clin: np.ndarray
    x_img: np.ndarray
    labels: Labels
    true_risk: np.ndarray
    clin_view: np.ndarray  # per-subject mean of the clinical features
    img_view: np.ndarray   # per-subject mean of the imaging features


def gen_cox_linear(spec: GeneratorSpec):
    """Standard-normal covariates with linear log-hazard ``X @ beta_true``.

    Returns ``(X, labels, true_risk)``.
    """
    if spec.beta_true is None:
        raise InvalidSpecError("gen_cox_linear needs beta_true")
    beta = np.asarray(spec.beta_true, dtype=float)
    rng = np.random.default_rng(np.random.SeedSequence(spec.seed))
    X = rng.standard_normal((spec.n, beta.size))
    risk = X @ beta
    labels = _survival_labels(rng, risk, spec.baseline_rate, spec.censor_rate)
    return X, labels, risk


def gen_multimodal(spec: GeneratorSpec) -> MultimodalData:
    """Complementary two-view cohort; see :class:`ModalityPlan`."""
    if spec.modality_plan is None:
        raise InvalidSpecError("gen_multimodal needs a modality_plan")
    mp = spec.modality_plan
    rng = np.random.default_rng(np.random.SeedSequence(spec.seed))
    latent = rng.standard_normal((spec.n, 2))
    x_clin = latent[:, [0]] + mp.noise_scale * rng.standard_normal((spec.n, mp.clin_dim))
    x_img = latent[:, [1]] + mp.noise_scale * rng.standard_normal((spec.n, mp.img_dim))
    risk = mp.latent_weights[0] * latent[:, 0] + mp.latent_weights[1] * latent[:, 1]
    labels = _survival_labels(rng, risk, spec.baseline_rate, spec.censor_rate)
    return MultimodalData(
        x_clin=x_clin,
        x_img=x_img,
        labels=labels,
        true_risk=risk,
        clin_view=x_clin.mean(axis=1),
        img_view=x_img.mean(axis=1),
    )
