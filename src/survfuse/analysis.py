"""Study-level analyses: risk stratification, factor analysis, model
comparison, and the end-to-end evaluation pipeline.

``run_study`` reproduces the full experiment on one cohort: split, impute,
train the clinical and imaging networks, fuse (pairwise, with the severity
index, and over the two forest baselines), then evaluate concordance with
bootstrap intervals overall and truncated at 30 days, the reclassification
ledger, stratified survival curves with log-rank tests, paired comparisons
against the severity index, and the RV dysfunction factor analysis. The
whole pipeline is deterministic given the config seed: every stochastic
stage draws from its own substream derived from (seed, stage).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

import numpy as np

from . import deep_survival, pesi, rsf
from .config import effective_config
from .cox_linear import FitOptions
from .dataset import (
    Dataset,
    Labels,
    clinical_matrix,
    imaging_matrix,
    impute_missing,
    split_dataset,
    truncate_30day,
)
from .errors import (
    EmptyInputError,
    MismatchedLengthsError,
    NoComparablePairsError,
    TooFewPairsError,
    TooFewResamplesError,
)
from .fusion import CANONICAL_ORDER, fit_fusion, predict_fused
from .kinds import COMPONENTS, MODEL_KINDS, reads_imaging
from .metrics import (
    TestResult,
    bootstrap_ci,
    c_index,
    km_curve,
    logrank_test,
    nri,
    resample_weights,
    sigmoid,
    weighted_c_index,
    wilcoxon_signed_rank,
)

# the short-term table drops the forest baseline
SHORT_TERM_KINDS = tuple(k for k in MODEL_KINDS if k != "rsf_fused")

SPLIT_NAMES = ("train", "val", "test")


@dataclass(frozen=True)
class RiskStrata:
    high_ids: tuple[str, ...]
    low_ids: tuple[str, ...]
    cut_value: float
    method: str


@dataclass(frozen=True)
class RvFactorReport:
    n_rv: int
    rv_high_count: int
    rv_high_pct: float | None        # None when there are no RV patients
    n_deaths: int
    deaths_high_count: int
    death_capture_pct: float | None  # None when there are no deaths


@dataclass(frozen=True)
class ComparisonResult:
    test: TestResult
    mean_diff: float
    n_resamples: int


def stratify(scores, ids, method: str, threshold: float | None) -> RiskStrata:
    """Partition patients into high/low risk groups; ties go to high.

    ``median`` cuts at the sample median of the scores; ``fixed`` uses the
    supplied threshold unchanged.
    """
    s = np.asarray(scores, dtype=float)
    ids = tuple(ids)
    if s.size == 0:
        raise EmptyInputError("no scores to stratify")
    if s.size != len(ids):
        raise MismatchedLengthsError(f"{s.size} scores for {len(ids)} ids")
    if method == "median":
        cut = float(np.median(s))
    elif method == "fixed":
        if threshold is None:
            raise ValueError("fixed stratification needs a threshold")
        cut = float(threshold)
    else:
        raise ValueError(f"unknown stratification method {method!r}")
    high = s >= cut
    return RiskStrata(
        high_ids=tuple(i for i, h in zip(ids, high) if h),
        low_ids=tuple(i for i, h in zip(ids, high) if not h),
        cut_value=cut,
        method=method,
    )


def rv_factor_analysis(strata: RiskStrata, rv_flags: dict[str, bool],
                       death_flags: dict[str, bool]) -> RvFactorReport:
    """How often RV dysfunction and death land in the high-risk stratum.

    Degenerate denominators (no RV patients, no deaths) yield None fields
    rather than an error so a report can still be produced.
    """
    all_ids = strata.high_ids + strata.low_ids
    missing = [i for i in all_ids if i not in rv_flags or i not in death_flags]
    if missing:
        raise MismatchedLengthsError(
            f"flags missing for {len(missing)} stratified patient(s), e.g. {missing[0]!r}"
        )
    high = set(strata.high_ids)
    rv_ids = [i for i in all_ids if rv_flags[i]]
    death_ids = [i for i in all_ids if death_flags[i]]
    rv_high = sum(1 for i in rv_ids if i in high)
    deaths_high = sum(1 for i in death_ids if i in high)
    return RvFactorReport(
        n_rv=len(rv_ids),
        rv_high_count=rv_high,
        rv_high_pct=100.0 * rv_high / len(rv_ids) if rv_ids else None,
        n_deaths=len(death_ids),
        deaths_high_count=deaths_high,
        death_capture_pct=100.0 * deaths_high / len(death_ids) if death_ids else None,
    )


def compare_to_pesi(model_scores, pesi_scores, labels: Labels, n_resamples: int,
                    seed: int = 0) -> ComparisonResult:
    """Paired bootstrap comparison of concordance against the severity index.

    Each resample draws patients with replacement and records the c-index
    difference (model minus index) on the identical resample (one
    ``resample_weights`` matrix scores both), so the Wilcoxon signed-rank
    test sees properly paired values. Identical scores produce all-zero
    differences, reported as "no difference" (p = 1).
    """
    if n_resamples < 100:
        raise TooFewResamplesError(f"need at least 100 resamples, got {n_resamples}")
    model_scores = np.asarray(model_scores, dtype=float)
    pesi_scores = np.asarray(pesi_scores, dtype=float)
    n = len(labels)
    if model_scores.size != n or pesi_scores.size != n:
        raise MismatchedLengthsError("scores and labels must align")
    weights = resample_weights(np.random.default_rng(seed), labels, n_resamples)
    diffs = (weighted_c_index(model_scores, labels, weights)
             - weighted_c_index(pesi_scores, labels, weights))
    try:
        test = wilcoxon_signed_rank(diffs)
    except TooFewPairsError:
        test = TestResult(statistic=0.0, p_value=1.0,
                          method="wilcoxon-signed-rank-degenerate (no nonzero differences)")
    return ComparisonResult(test=test, mean_diff=float(diffs.mean()), n_resamples=n_resamples)


# ---------------------------------------------------------------------------
# full study pipeline


@dataclass(frozen=True, eq=False)
class StudyReport:
    overall: dict
    short_term: dict
    nri: dict
    km: dict
    rv_analysis: dict | None
    comparisons: dict


@dataclass(eq=False)
class StudyArtifacts:
    """Fitted components kept for persistence and scoring: each network and
    forest under its component tag, each fusion under its fused model kind."""

    dataset: Dataset
    split: object
    fitted: dict[str, object] = field(default_factory=dict)


# stage tags for derived random substreams, a fitted component's under its
# component tag; the numbers are frozen, append only
_STAGE = {"split": 0, "clin": 1, "img": 2, "rsf_clin": 3,
          "rsf_img": 4, "ci": 5, "compare": 6, "ci_short": 7}


def _derived_seed(*key: int) -> int:
    return int(np.random.SeedSequence(tuple(key)).generate_state(1, dtype=np.uint64)[0])


def _fit_models(cfg: dict, tags, inputs, labels, pesi_scores, arts: StudyArtifacts,
                forests: rsf.PendingForests):
    """Fit the components ``tags`` and then the panel on the training split,
    recording the fitted models in ``arts``; returns the raw and
    probability-scale scores per model and split. ``inputs`` holds the
    clinical and imaging matrices per split. The forests, already started,
    are finished after both networks have trained."""
    scores = {"pesi": pesi_scores}
    for tag, section in (("clin", "deep_clinical"), ("img", "deep_imaging")):
        if tag not in tags:
            continue
        X = inputs[tag]
        hp = dict(cfg[section])
        net = deep_survival.init_mlp(X["train"].shape[1], tuple(hp.pop("hidden_dims")),
                                     _derived_seed(cfg["seed"], _STAGE[tag]), tag)
        net, _ = deep_survival.train(net, X["train"], labels["train"],
                                     val=(X["val"], labels["val"]),
                                     options=deep_survival.TrainOptions(**hp))
        arts.fitted[tag] = net
        scores[tag] = {s: deep_survival.forward(net, X[s]) for s in SPLIT_NAMES}
    forest_tags = [tag for tag in tags if tag.startswith("rsf_")]
    for tag, forest in zip(forest_tags, forests.finish()):
        arts.fitted[tag] = forest
        X = inputs[tag.removeprefix("rsf_")]
        scores[tag] = {s: rsf.predict_risk(forest, X[s]) for s in SPLIT_NAMES}

    fusion_opts = FitOptions(ridge_penalty=cfg["fusion_ridge"])
    raw: dict[str, dict[str, np.ndarray]] = {}
    prob: dict[str, dict[str, np.ndarray]] = {}
    for kind in cfg["models"]:
        parts = COMPONENTS[kind]
        if len(parts) == 1:
            raw[kind] = scores[parts[0]]
        else:
            fused = fit_fusion({t: scores[t]["train"] for t in parts}, labels["train"],
                               fusion_opts)
            arts.fitted[kind] = fused
            raw[kind] = {s: predict_fused(fused, {t: scores[t][s] for t in parts})
                         for s in SPLIT_NAMES}
        # a network's own score is already a sigmoid output
        own_network = len(parts) == 1 and parts[0] != "pesi"
        prob[kind] = raw[kind] if own_network else {s: sigmoid(raw[kind][s]) for s in SPLIT_NAMES}
    return raw, prob


def run_study(ds: Dataset, config: dict | None = None) -> StudyReport:
    report, _ = run_study_full(ds, config)
    return report


def run_study_full(ds: Dataset, config: dict | None = None):
    """Returns ``(StudyReport, StudyArtifacts)``; see module docstring.

    ``config`` is a config as a ``--config`` file holds it (omitted fields
    take their defaults); it is checked by ``config.effective_config``
    before anything is fitted."""
    cfg = effective_config(config or {})
    models = cfg["models"]

    split = split_dataset(ds, cfg["seed"], cfg["split"][0], cfg["split"][1])
    ds = impute_missing(ds, split.train_ids)

    # each split's patients, in dataset order
    split_of = {pid: s for s, ids in zip(SPLIT_NAMES, (split.train_ids, split.val_ids,
                                                       split.test_ids)) for pid in ids}
    which = [split_of[pid] for pid in ds.patient_ids]
    rows = {s: np.flatnonzero([w == s for w in which]) for s in SPLIT_NAMES}
    labels = {s: ds.labels.take(rows[s]) for s in SPLIT_NAMES}
    ids = {s: [ds.patient_ids[i] for i in rows[s]] for s in SPLIT_NAMES}

    # the component tags the requested models read, in fusion order
    tags = [t for t in CANONICAL_ORDER if any(t in COMPONENTS[k] for k in models)]
    clin_all = clinical_matrix(ds)
    inputs = {"clin": {s: clin_all[rows[s]] for s in SPLIT_NAMES}}
    if reads_imaging(models):
        img_all = imaging_matrix(ds, " but an imaging model was requested")
        inputs["img"] = {s: img_all[rows[s]] for s in SPLIT_NAMES}

    pesi_all = pesi.pesi_scores(ds)
    pesi_scores = {s: pesi_all[rows[s]] for s in SPLIT_NAMES}

    arts = StudyArtifacts(dataset=ds, split=split)
    # the forests grow on the process pool while the networks train here
    forest_fits = [
        (inputs[tag.removeprefix("rsf_")]["train"], labels["train"],
         rsf.RsfOptions(**cfg["rsf"], seed=_derived_seed(cfg["seed"], _STAGE[tag])))
        for tag in tags if tag.startswith("rsf_")
    ]
    with rsf.start_forests(forest_fits) as forests:
        raw, prob = _fit_models(cfg, tags, inputs, labels, pesi_scores, arts, forests)

    # --- evaluation ---------------------------------------------------------
    overall = {s: {} for s in SPLIT_NAMES}
    for si, s in enumerate(SPLIT_NAMES):
        for mi, kind in enumerate(MODEL_KINDS):
            if kind not in models:
                continue
            scores = raw[kind][s]
            ci_seed = _derived_seed(cfg["seed"], _STAGE["ci"], si, mi)
            lo, hi = bootstrap_ci(scores, labels[s], cfg["bootstrap_resamples"], ci_seed)
            overall[s][kind] = {
                "c_index": c_index(scores, labels[s]), "ci_low": lo, "ci_high": hi,
            }

    short_term = {s: {} for s in SPLIT_NAMES}
    for si, s in enumerate(SPLIT_NAMES):
        labels30 = truncate_30day(labels[s])
        for mi, kind in enumerate(SHORT_TERM_KINDS):
            if kind not in models:
                continue
            scores = raw[kind][s]
            ci_seed = _derived_seed(cfg["seed"], _STAGE["ci_short"], si, mi)
            try:
                value = c_index(scores, labels30)
                lo, hi = bootstrap_ci(scores, labels30, cfg["bootstrap_resamples"], ci_seed)
            except NoComparablePairsError:
                value, lo, hi = None, None, None  # no deaths inside 30 days in this split
            short_term[s][kind] = {"c_index": value, "ci_low": lo, "ci_high": hi}

    nri_pairs = (
        ("plus_clinical", "deep_imaging", "deep_multimodal"),
        ("plus_imaging", "deep_clinical", "deep_multimodal"),
        ("plus_pesi", "deep_multimodal", "deep_pesi_fused"),
    )
    nri_table = {s: {} for s in SPLIT_NAMES}
    for s in SPLIT_NAMES:
        for name, old_kind, new_kind in nri_pairs:
            if old_kind not in prob or new_kind not in prob:
                continue
            result = nri(prob[old_kind][s], prob[new_kind][s], labels[s], cfg["nri_threshold"])
            nri_table[s][name] = dataclasses.asdict(result)

    km_section = {}
    strata_by_model = {}
    for kind in MODEL_KINDS:
        if kind not in models:
            continue
        strata = stratify(prob[kind]["test"], ids["test"],
                          cfg["stratification"]["method"], cfg["stratification"]["threshold"])
        strata_by_model[kind] = strata
        in_high = set(strata.high_ids)
        is_high = np.array([i in in_high for i in ids["test"]], dtype=bool)
        high, low = labels["test"].take(is_high), labels["test"].take(~is_high)
        entry = {"cut_value": strata.cut_value, "method": strata.method,
                 "n_high": len(high), "n_low": len(low)}
        if high and low:
            test = logrank_test(high, low)
            entry["logrank_statistic"] = test.statistic
            entry["logrank_p"] = test.p_value
        else:  # a constant score puts everyone in one stratum
            entry["logrank_statistic"] = None
            entry["logrank_p"] = None
        for name, group in (("high", high), ("low", low)):
            curve = km_curve(group, name) if group else None
            entry[name] = {
                "n": len(group),
                "points": [dataclasses.asdict(p) for p in curve.points] if curve else [],
            }
        km_section[kind] = entry

    comparisons = {}
    for mi, kind in enumerate(MODEL_KINDS):
        if kind == "pesi" or kind not in models:
            continue
        cmp_seed = _derived_seed(cfg["seed"], _STAGE["compare"], mi)
        result = compare_to_pesi(raw[kind]["test"], pesi_scores["test"], labels["test"],
                                 cfg["bootstrap_resamples"], cmp_seed)
        comparisons[kind] = {
            "statistic": result.test.statistic,
            "p_value": result.test.p_value,
            "method": result.test.method,
            "mean_c_index_diff": result.mean_diff,
            "n_resamples": result.n_resamples,
        }

    rv_section = None
    rv_test = ds.rv_dysfunction[rows["test"]]
    if not np.isnan(rv_test).any() and "deep_multimodal" in strata_by_model:
        strata = strata_by_model["deep_multimodal"]
        rv_flags = dict(zip(ids["test"], (rv_test == 1.0).tolist()))
        death_flags = dict(zip(ids["test"], labels["test"].events.tolist()))
        factor = rv_factor_analysis(strata, rv_flags, death_flags)
        lin = raw["deep_multimodal"]["test"]
        sig = prob["deep_multimodal"]["test"]
        high = set(strata.high_ids)
        rv_section = {
            **dataclasses.asdict(factor),
            "cut_linear": float(np.median(lin)) if strata.method == "median" else None,
            "cut_sigmoid": strata.cut_value,
            "patients": [
                {
                    "patient_id": pid,
                    "risk_linear": float(lv),
                    "risk_sigmoid": float(pv),
                    "high_risk": pid in high,
                    "rv_dysfunction": rv_flags[pid],
                    "event": death_flags[pid],
                }
                for pid, lv, pv in zip(ids["test"], lin, sig)
            ],
        }

    report = StudyReport(
        overall=overall,
        short_term=short_term,
        nri=nri_table,
        km=km_section,
        rv_analysis=rv_section,
        comparisons=comparisons,
    )
    return report, arts
