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
The evaluation is one plan of tasks, one per cell of the report, each
computed from the fitted scores alone; its bootstrap tasks run on a
``forks.Tasks`` pool (see ``forks``), and the report is the same bytes
whichever process ran which task.
Patients are rows: a split is the ascending rows of ``split_dataset``,
a stratum a boolean mask over them; ids are read only for the RV patient list.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from functools import partial
from typing import NamedTuple

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
    median,
    split_dataset,
    truncate_30day,
)
from .deep_survival import sigmoid
from .errors import (
    EmptyInputError,
    MismatchedLengthsError,
    NoComparablePairsError,
    TooFewPairsError,
    TooFewResamplesError,
)
from .forks import Tasks, blas_pinned
from .fusion import fit_fusion, predict_fused, score_component
from .kinds import ARTIFACTS, COMPONENTS, MODEL_KINDS, RV_MODEL, TAGS, reads_imaging
from .metrics import (
    TestResult,
    bootstrap_ci,
    c_index,
    km_curve,
    logrank_test,
    nri,
    resample_weights,
    weighted_c_index,
    wilcoxon_signed_rank,
)

SPLIT_NAMES = ("train", "val", "test")


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


def stratify(scores, method: str, threshold: float | None) -> tuple[np.ndarray, float]:
    """The high-risk mask ``scores >= cut`` and the cut; ties go to high.

    ``median`` cuts at the sample median of the scores; ``fixed`` uses the
    supplied threshold unchanged.
    """
    s = np.asarray(scores, dtype=float)
    if s.size == 0:
        raise EmptyInputError("no scores to stratify")
    if method == "median":
        cut = median(s)
    elif method == "fixed":
        if threshold is None:
            raise ValueError("fixed stratification needs a threshold")
        cut = float(threshold)
    else:
        raise ValueError(f"unknown stratification method {method!r}")
    return s >= cut, cut


def rv_factor_analysis(high, rv, events) -> RvFactorReport:
    """How often RV dysfunction and death land in the high-risk stratum.

    ``high``, ``rv`` and ``events`` flag the same patients: high risk, RV
    dysfunction and an observed death. Degenerate denominators (no RV
    patients, no deaths) yield None fields rather than an error so a report
    can still be produced.
    """
    high, rv, events = (np.asarray(a, dtype=bool) for a in (high, rv, events))
    if not high.shape == rv.shape == events.shape:
        raise MismatchedLengthsError(
            f"{high.size} risk flags for {rv.size} RV and {events.size} death flags")
    n_rv, n_deaths = int(rv.sum()), int(events.sum())
    rv_high, deaths_high = int((rv & high).sum()), int((events & high).sum())
    return RvFactorReport(
        n_rv=n_rv,
        rv_high_count=rv_high,
        rv_high_pct=100.0 * rv_high / n_rv if n_rv else None,
        n_deaths=n_deaths,
        deaths_high_count=deaths_high,
        death_capture_pct=100.0 * deaths_high / n_deaths if n_deaths else None,
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
    fitted: dict[str, object] = field(default_factory=dict)


# stage tags for derived random substreams, a fitted component's under its
# component tag; the numbers are frozen, append only
_STAGE = {"split": 0, "clin": 1, "img": 2, "rsf_clin": 3,
          "rsf_img": 4, "ci": 5, "compare": 6, "ci_short": 7}


def _derived_seed(*key: int) -> int:
    return int(np.random.SeedSequence(tuple(key)).generate_state(1, dtype=np.uint64)[0])


# --- the evaluation plan ----------------------------------------------------
# Every cell of the report is one task ``(section, split, kind, seed)``:
# ``section`` names a ``StudyReport`` field, ``kind`` a model kind (an NRI
# pair's name in ``nri``), and ``seed`` the task's own bootstrap substream,
# ``None`` for a task that draws nothing. The report is assembled from the
# results in plan order.

# the short-term table drops the forest baseline
SHORT_TERM_KINDS = tuple(k for k in MODEL_KINDS if k != "rsf_fused")

# the reclassification table: each entry's old and new model kind
_NRI_PAIRS = {
    "plus_clinical": ("deep_imaging", "deep_multimodal"),
    "plus_imaging": ("deep_clinical", "deep_multimodal"),
    "plus_pesi": ("deep_multimodal", "deep_pesi_fused"),
}


class _Task(NamedTuple):
    section: str
    split: str
    kind: str
    seed: int | None


# the task fields that key an entry within its section, a ``StudyReport``
# field: a table by split and kind, one by kind, or the one entry
_KEY_PATH = {"overall": ("split", "kind"), "short_term": ("split", "kind"),
             "nri": ("split", "kind"), "km": ("kind",), "rv_analysis": (),
             "comparisons": ("kind",)}


def _evaluation_plan(models, seed: int, rv_known: bool) -> list[_Task]:
    """The tasks of a study of ``models`` in report order; a kind's
    position in ``MODEL_KINDS`` (in ``SHORT_TERM_KINDS`` for the short-term
    table) and its split's position key its seed. The RV analysis is
    planned only where every test patient's RV status is known."""
    plan = []
    for section, stage, kinds in (("overall", "ci", MODEL_KINDS),
                                  ("short_term", "ci_short", SHORT_TERM_KINDS)):
        plan += [_Task(section, s, kind, _derived_seed(seed, _STAGE[stage], si, mi))
                 for si, s in enumerate(SPLIT_NAMES)
                 for mi, kind in enumerate(kinds) if kind in models]
    plan += [_Task("nri", s, name, None) for s in SPLIT_NAMES
             for name, pair in _NRI_PAIRS.items() if all(k in models for k in pair)]
    plan += [_Task("km", "test", kind, None) for kind in MODEL_KINDS if kind in models]
    plan += [_Task("comparisons", "test", kind, _derived_seed(seed, _STAGE["compare"], mi))
             for mi, kind in enumerate(MODEL_KINDS) if kind != "pesi" and kind in models]
    if rv_known and RV_MODEL in models:
        plan.append(_Task("rv_analysis", "test", RV_MODEL, None))
    return plan


def _evaluate_task(task: _Task, cfg: dict, labels, raw, prob, pesi_test, rv_test, test_ids):
    """One task's report entry, from the study's raw and probability-scale
    scores and labels per split, the test split's PESI scores, RV flags and
    patient ids; never ``None``."""
    section, s, kind, seed = task
    if section == "overall":
        scores = raw[kind][s]
        lo, hi = bootstrap_ci(scores, labels[s], cfg["bootstrap_resamples"], seed)
        return {"c_index": c_index(scores, labels[s]), "ci_low": lo, "ci_high": hi}
    if section == "short_term":
        scores, labels30 = raw[kind][s], truncate_30day(labels[s])
        try:
            value = c_index(scores, labels30)
            lo, hi = bootstrap_ci(scores, labels30, cfg["bootstrap_resamples"], seed)
        except NoComparablePairsError:
            value, lo, hi = None, None, None  # no deaths inside 30 days in this split
        return {"c_index": value, "ci_low": lo, "ci_high": hi}
    if section == "nri":
        old, new = _NRI_PAIRS[kind]
        return dataclasses.asdict(nri(prob[old][s], prob[new][s], labels[s], cfg["nri_threshold"]))
    if section == "comparisons":
        result = compare_to_pesi(raw[kind]["test"], pesi_test, labels["test"],
                                 cfg["bootstrap_resamples"], seed)
        return {**dataclasses.asdict(result.test), "mean_c_index_diff": result.mean_diff,
                "n_resamples": result.n_resamples}
    method = cfg["stratification"]["method"]
    is_high, cut = stratify(prob[kind]["test"], method, cfg["stratification"]["threshold"])
    if section == "km":
        high, low = labels["test"].take(is_high), labels["test"].take(~is_high)
        # no test where a constant score puts everyone in one stratum
        test = logrank_test(high, low) if high and low else None
        return {"cut_value": cut, "method": method, "n_high": len(high), "n_low": len(low),
                "logrank_statistic": test and test.statistic, "logrank_p": test and test.p_value,
                **{name: {"n": len(group),
                          "points": [dataclasses.asdict(p) for p in km_curve(group).points]
                          if group else []}
                   for name, group in (("high", high), ("low", low))}}
    # the RV analysis, on the model's high-risk stratum of the test split
    rv, events = rv_test == 1.0, labels["test"].events
    lin = raw[kind]["test"]
    return {
        **dataclasses.asdict(rv_factor_analysis(is_high, rv, events)),
        "cut_linear": median(lin) if method == "median" else None,
        "cut_sigmoid": cut,
        "patients": [
            {"patient_id": pid, "risk_linear": lv, "risk_sigmoid": pv,
             "high_risk": h, "rv_dysfunction": r, "event": e}
            for pid, lv, pv, h, r, e in zip(test_ids, lin.tolist(), prob[kind]["test"].tolist(),
                                            is_high.tolist(), rv.tolist(), events.tolist())
        ],
    }


def _evaluate(plan, evaluate, sizes) -> StudyReport:
    """The report of ``plan``, each task computed by ``evaluate``. The
    seeded tasks, the bootstraps, go to a ``forks.Tasks`` pool, heaviest
    first by the size of their split (twice that for a comparison, which
    scores two models); the others are computed here, and the pool forks
    only where BLAS, which the children would compete with, is pinned to
    one thread. The first task in plan order that failed raises its error,
    whichever process ran it."""
    def weight(k):
        return sizes[plan[k].split] * (2 if plan[k].section == "comparisons" else 1)

    pooled = sorted((k for k, task in enumerate(plan) if task.seed is not None), key=weight,
                    reverse=True)
    with Tasks(lambda j: evaluate(plan[pooled[j]]), len(pooled), blas_pinned()) as tasks:
        done = dict(zip(pooled, tasks.results()))
    sections = {name: {s: {} for s in SPLIT_NAMES} if len(keys) == 2 else {} if keys else None
                for name, keys in _KEY_PATH.items()}
    for k, task in enumerate(plan):
        value = done[k] if k in done else evaluate(task)
        if isinstance(value, Exception):
            raise value
        parent, key = sections, task.section
        for name in _KEY_PATH[task.section]:
            parent, key = parent[key], getattr(task, name)
        parent[key] = value
    return StudyReport(**sections)


# a network's config section is named as its artifact kind
_ARTIFACT_OF = {held: kind for kind, held in ARTIFACTS.items()}


def _fit_models(cfg: dict, tags, inputs, labels, pesi_scores, arts: StudyArtifacts,
                forests: rsf.PendingForests):
    """Fit the components ``tags`` and then the panel on the training split,
    recording the fitted models in ``arts``; returns the raw and
    probability-scale scores per model and split. ``inputs`` holds the
    clinical and imaging matrices per split. The forests, already started,
    are finished after the networks have trained."""
    for tag in [t for t in tags if TAGS[t][0] == "mlp"]:
        X = inputs[TAGS[tag][1]]
        hp = dict(cfg[_ARTIFACT_OF[tag]])
        net = deep_survival.init_mlp(X["train"].shape[1], tuple(hp.pop("hidden_dims")),
                                     _derived_seed(cfg["seed"], _STAGE[tag]), tag)
        net, _ = deep_survival.train(net, X["train"], labels["train"],
                                     val=(X["val"], labels["val"]),
                                     options=deep_survival.TrainOptions(**hp))
        arts.fitted[tag] = net
    arts.fitted.update(zip([t for t in tags if TAGS[t][0] == "forest"], forests.finish()))
    scores = {tag: {s: score_component(tag, model, inputs[TAGS[tag][1]][s]) for s in SPLIT_NAMES}
              for tag, model in arts.fitted.items()}
    scores["pesi"] = pesi_scores

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
        own_network = len(parts) == 1 and TAGS[parts[0]][0] == "mlp"
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

    # each split's rows, in dataset order
    rows = dict(zip(SPLIT_NAMES, split_dataset(ds, cfg["seed"], *cfg["split"][:2])))
    ds = impute_missing(ds, rows["train"])
    labels = {s: ds.labels.take(rows[s]) for s in SPLIT_NAMES}

    # the component tags the requested models read, in fusion order
    tags = [t for t in TAGS if any(t in COMPONENTS[k] for k in models)]
    clin_all = clinical_matrix(ds)
    inputs = {"clin": {s: clin_all[rows[s]] for s in SPLIT_NAMES}}
    if reads_imaging(models):
        img_all = imaging_matrix(ds, " but an imaging model was requested")
        inputs["img"] = {s: img_all[rows[s]] for s in SPLIT_NAMES}

    pesi_all = pesi.pesi_scores(ds)
    pesi_scores = {s: pesi_all[rows[s]] for s in SPLIT_NAMES}

    arts = StudyArtifacts(dataset=ds)
    # the forests grow on the process pool while the networks train here
    forest_fits = [
        (inputs[TAGS[tag][1]]["train"], labels["train"],
         rsf.RsfOptions(**cfg["rsf"], seed=_derived_seed(cfg["seed"], _STAGE[tag])))
        for tag in tags if TAGS[tag][0] == "forest"
    ]
    with rsf.start_forests(forest_fits) as forests:
        raw, prob = _fit_models(cfg, tags, inputs, labels, pesi_scores, arts, forests)

    rv_test = ds.rv_dysfunction[rows["test"]]
    plan = _evaluation_plan(models, cfg["seed"], not np.isnan(rv_test).any())
    test_ids = [ds.patient_ids[i] for i in rows["test"].tolist()]
    report = _evaluate(plan, partial(_evaluate_task, cfg=cfg, labels=labels, raw=raw, prob=prob,
                                     pesi_test=pesi_scores["test"], rv_test=rv_test,
                                     test_ids=test_ids),
                       {s: len(labels[s]) for s in SPLIT_NAMES})
    return report, arts
