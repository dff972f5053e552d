"""Late fusion of per-modality risk scores.

A proportional-hazards model over standardized modality scores: each input
vector is z-scored with constants frozen at fit time, then a linear Cox fit
(small ridge for stability) produces the fused linear predictor. Covariate
order is canonical (``kinds.TAGS``'s: clinical, imaging, severity index,
then the forest variants), independent of dict insertion order.

The model code is imported where it runs (see ``artifacts``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .dataset import Labels
from .errors import (
    DimensionMismatchError,
    ExtraModalityError,
    MismatchedLengthsError,
    MissingModalityError,
    SchemaMismatchError,
)
from .kinds import TAGS

if TYPE_CHECKING:
    from .cox_linear import CoxModel, FitOptions

CANONICAL_ORDER = tuple(TAGS)

@dataclass(frozen=True, eq=False)
class FusionModel:
    cox: CoxModel
    sources: tuple[str, ...]
    means: np.ndarray
    stds: np.ndarray


def _ordered_sources(keys) -> tuple[str, ...]:
    unknown = set(keys) - set(CANONICAL_ORDER)
    if unknown:
        raise ValueError(f"unknown modality tags: {sorted(unknown)}; "
                         f"expected a subset of {CANONICAL_ORDER}")
    if not 1 <= len(keys) <= 3:
        raise ValueError(f"fusion takes 1-3 modalities, got {len(keys)}")
    return tuple(tag for tag in CANONICAL_ORDER if tag in keys)


def fit_fusion(scores_by_modality: dict[str, np.ndarray], labels: Labels,
               options: FitOptions) -> FusionModel:
    """Fit the fusion Cox model on per-modality score vectors.

    A zero-variance column is centered but not scaled (std treated as 1),
    and the ridge keeps the information matrix invertible, so a constant
    modality degrades gracefully to coefficient ~0 instead of failing.
    """
    from .cox_linear import fit_cox

    sources = _ordered_sources(scores_by_modality.keys())
    n = len(labels)
    columns = []
    for tag in sources:
        v = np.asarray(scores_by_modality[tag], dtype=float).ravel()
        if v.size != n:
            raise MismatchedLengthsError(f"modality {tag!r} has {v.size} scores for {n} labels")
        columns.append(v)
    raw = np.column_stack(columns)
    means = raw.mean(axis=0)
    stds = raw.std(axis=0)
    stds = np.where(stds == 0.0, 1.0, stds)
    z = (raw - means) / stds
    cox = fit_cox(z, labels, options, covariate_names=sources)
    return FusionModel(cox=cox, sources=sources, means=means, stds=stds)


def predict_fused(model: FusionModel, scores: dict[str, np.ndarray]) -> np.ndarray:
    """Fused linear predictor, one per patient of the score vectors."""
    given = set(scores.keys())
    expected = set(model.sources)
    missing = expected - given
    if missing:
        raise MissingModalityError(f"missing modality inputs: {sorted(missing)}")
    extra = given - expected
    if extra:
        raise ExtraModalityError(f"unexpected modality inputs: {sorted(extra)}")
    cols = [np.asarray(scores[tag], dtype=float).ravel() for tag in model.sources]
    sizes = {c.size for c in cols}
    if len(sizes) != 1:
        raise MismatchedLengthsError(f"modality score lengths disagree: {sorted(sizes)}")
    return ((np.column_stack(cols) - model.means) / model.stds) @ model.cox.beta


def score_component(tag: str, model, X: np.ndarray) -> np.ndarray:
    """The risk scores of the network or forest fitted under ``tag`` on its
    tag's input matrix ``X``; a matrix of another width is a schema mismatch."""
    try:
        if TAGS[tag][0] == "mlp":
            from .deep_survival import forward
            return forward(model, X)
        from .rsf import predict_risk
        return predict_risk(model, X)
    except DimensionMismatchError as exc:
        raise SchemaMismatchError(f"the {tag} component does not fit the input: {exc}") from exc
