"""The library's option objects at the study's default settings.

Every default is read from ``config.effective_config({})``, the one place
the study writes them; a test states only the fields it changes.
"""

from survfuse.config import effective_config
from survfuse.cox_linear import FitOptions
from survfuse.deep_survival import TrainOptions
from survfuse.rsf import RsfOptions
from survfuse.synthetic import CohortPlan

DEFAULTS = effective_config({})
FUSION_OPTIONS = FitOptions(ridge_penalty=DEFAULTS["fusion_ridge"])


def rsf_options(seed: int = 0, **fields) -> RsfOptions:
    return RsfOptions(**{**DEFAULTS["rsf"], **fields}, seed=seed)


def train_options(**fields) -> TrainOptions:
    section = {k: v for k, v in DEFAULTS["deep_clinical"].items() if k != "hidden_dims"}
    return TrainOptions(**{**section, **fields})


def cohort_plan(**fields) -> CohortPlan:
    gen = {**DEFAULTS["generate"], "latent_weights": tuple(DEFAULTS["generate"]["latent_weights"])}
    return CohortPlan(**{"seed": DEFAULTS["seed"], **gen, **fields})
