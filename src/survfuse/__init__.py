"""Survival modeling and multimodal risk fusion for pulmonary embolism
cohorts: CSV ingestion with deterministic imputation, a Cox partial
likelihood core, small survival networks for the clinical and imaging
views, random survival forest baselines, score-level fusion, a severity
index, and the statistical evaluation around them (concordance with
bootstrap intervals, Kaplan-Meier curves with log-rank tests, net
reclassification, paired signed-rank comparisons).
"""

from .analysis import (
    ComparisonResult,
    DeepHyper,
    MODEL_KINDS,
    RiskStrata,
    RsfHyper,
    RvFactorReport,
    StudyConfig,
    StudyReport,
    compare_to_pesi,
    format_pct,
    run_study,
    run_study_full,
    rv_factor_analysis,
    stratify,
)
from .artifacts import FusionBundle, ModelArtifact, file_fingerprint, load_model, save_model
from .cox_linear import (
    CoxModel,
    FitOptions,
    fit_cox,
    partial_loglik,
    partial_loglik_grad_hess,
    predict_linear,
)
from .dataset import (
    ClinicalVariables,
    Dataset,
    ImputationStats,
    PatientRecord,
    SplitAssignment,
    SurvivalLabel,
    apply_imputation,
    attach_imaging,
    clinical_feature_vector,
    clinical_matrix,
    compute_imputation_stats,
    impute_missing,
    ingest_clinical,
    ingest_features,
    label_arrays,
    split_dataset,
    truncate_30day,
)
from .deep_survival import (
    MlpSurvModel,
    TrainOptions,
    cox_loss,
    forward,
    init_mlp,
    linear_scores,
    loss_and_gradients,
    train,
)
from .errors import SurvfuseError
from .fusion import CANONICAL_ORDER, FusionModel, fit_fusion, predict_fused
from .metrics import (
    KmCurve,
    KmPoint,
    NriResult,
    TestResult,
    bootstrap_ci,
    c_index,
    km_curve,
    logrank_test,
    nri,
    sigmoid,
    wilcoxon_signed_rank,
)
from .pesi import PESI_WEIGHTS, PesiResult, pesi_predictor, pesi_score, pesi_scores, risk_class_for
from .rsf import ForestModel, RsfOptions, SurvivalTree, fit_forest, predict_risk
from .synthetic import (
    CohortPlan,
    GeneratorSpec,
    ModalityPlan,
    MultimodalData,
    gen_cox_linear,
    gen_multimodal,
    write_study_csvs,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
