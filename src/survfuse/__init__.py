"""Survival modeling and multimodal risk fusion for pulmonary embolism
cohorts: CSV ingestion with deterministic imputation, a Cox partial
likelihood core, small survival networks for the clinical and imaging
views, random survival forest baselines, score-level fusion, a severity
index, and the statistical evaluation around them (concordance with
bootstrap intervals, Kaplan-Meier curves with log-rank tests, net
reclassification, paired signed-rank comparisons).

The package namespace is filled on first use (PEP 562): ``survfuse.X`` and
``from survfuse import X`` import the submodule that defines ``X`` when
``X`` is first asked for, so that importing ``survfuse.cli`` imports no
numpy (see ``cli``).
"""

import importlib

# public name -> the submodule that defines it, by submodule; every submodule
# listed here is public too
_EXPORTS = {
    "analysis": (
        "ComparisonResult", "MODEL_KINDS", "RvFactorReport", "StudyReport",
        "compare_to_pesi", "run_study", "run_study_full", "rv_factor_analysis", "stratify",
    ),
    "artifacts": (
        "FusionBundle", "ModelArtifact", "file_fingerprint", "load_model",
        "save_model",
    ),
    "config": ("effective_config",),
    "cox_linear": ("CoxModel", "FitOptions", "fit_cox"),
    "dataset": (
        "Dataset", "ImputationStats", "Labels", "apply_imputation",
        "attach_imaging", "clinical_matrix", "compute_imputation_stats", "imaging_matrix",
        "impute_missing", "ingest_clinical", "ingest_features", "split_dataset",
        "truncate_30day",
    ),
    "deep_survival": (
        "MlpSurvModel", "TrainOptions", "forward", "init_mlp", "linear_scores", "sigmoid",
        "train",
    ),
    "errors": ("SurvfuseError",),
    "fusion": (
        "CANONICAL_ORDER", "FusionModel", "fit_fusion", "predict_fused",
    ),
    "metrics": (
        "KmCurve", "KmPoint", "NriResult", "TestResult", "bootstrap_ci", "c_index",
        "km_curve", "logrank_test", "nri", "wilcoxon_signed_rank",
    ),
    "pesi": ("PESI_WEIGHTS", "pesi_scores", "risk_class_for"),
    "rsf": (
        "ForestModel", "RsfOptions", "SurvivalTree", "fit_forest", "predict_risk",
    ),
    "synthetic": ("CohortPlan", "write_study_csvs"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"

__all__ = sorted([*_HOME, *_EXPORTS])


def __getattr__(name):
    if name in _HOME:
        value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    elif name in _EXPORTS:
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
