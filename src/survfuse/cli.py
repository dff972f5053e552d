"""Command-line surface: dataset generation, the full study pipeline,
artifact-based scoring, and report re-rendering.

Commands
--------
``generate``  write a synthetic cohort (clinical + feature CSVs)
``run``       ingest CSVs, run the study, emit report.json / plots / models
``score``     apply a saved model artifact to a patient CSV
``report``    re-render a report.json as readable text

Exit codes: 0 on success, 1 for validation problems (bad config, bad
flags, malformed or mismatched input data), 2 for runtime or fit
failures. Every pipeline failure is labeled with the stage it occurred
in. The ``SURVFUSE_LOG`` environment variable sets the log level
(DEBUG, INFO, WARNING, ERROR); the default is WARNING.

Importing this module imports neither numpy nor the modeling code; each
command imports what it uses. ``score`` and ``run`` first start reading
their feature CSV (``feature_csv.FeatureRead``: a forked child on a second
CPU for a file of 1 MiB or more, else this process later), then import
numpy and the package, load the artifact or config and read the
clinical CSV, and take the parsed features where the imaging join
(``dataset.attach_imaging``) reads them. Errors therefore come in the order
they always did, and the child is killed and reaped on any exit before
that point. Forking before numpy is imported means the process has no
other thread yet (Python 3.12+ warns about forking a threaded process;
only 3.11 was checked).

Both commands hold the cohort as one columnar ``dataset.Dataset`` and go
through the same functions: ``ingest_clinical``, ``attach_imaging``,
``apply_imputation`` (``run`` learns the constants on its training split,
``score`` takes the artifact's), then ``clinical_matrix``,
``imaging_matrix`` and ``pesi.pesi_scores`` for the model inputs.

Everything a command writes is deterministic given the config and seed:
reports embed a fingerprint of the effective analysis configuration and
no output embeds wall-clock state.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import json
import logging
import os
import sys

# no numpy at import time: each command imports the numeric code it uses
# after it has started its feature read
from .errors import (
    DatasetTooSmallError,
    DuplicatePatientIdError,
    InvalidConfigError,
    IoError,
    MalformedRowError,
    MissingColumnError,
    MissingModalityError,
    SchemaMismatchError,
    StageError,
    SurvfuseError,
    UnknownModelKindError,
)
from .feature_csv import FeatureRead
from .kinds import ARTIFACTS, COMPONENTS, MODEL_KINDS, reads_imaging

log = logging.getLogger("survfuse.cli")

# failures of these classes mean the inputs were bad, not that the fit broke
_VALIDATION_ERRORS = (
    InvalidConfigError,
    SchemaMismatchError,
    UnknownModelKindError,
    MissingColumnError,
    DuplicatePatientIdError,
    MalformedRowError,
    MissingModalityError,
    DatasetTooSmallError,
)

_SCORE_HEADER = ("patient_id", "risk_score", "pesi_score", "pesi_class")


# --- configuration ----------------------------------------------------------

_DEEP_CLIN_DEFAULTS = {
    "hidden_dims": [32],
    "learning_rate": 1e-3,
    "epochs": 500,
    "weight_decay": 1e-4,
    "patience": 50,
}
_DEEP_IMG_DEFAULTS = {**_DEEP_CLIN_DEFAULTS, "hidden_dims": [64]}
_RSF_DEFAULTS = {"n_trees": 100, "mtry": None, "min_leaf_size": 15}
_STRAT_DEFAULTS = {"method": "median", "threshold": None}
_GEN_DEFAULTS = {
    "n": 1000,
    "img_dim": 32,
    "latent_weights": [1.0, 1.0],
    "noise_scale": 0.5,
    "baseline_rate": 0.004,
    "censor_rate": 0.003,
    "max_acquisitions": 3,
    "missing_rate": 0.0,
}

_TOP_DEFAULTS = {
    "seed": 0,
    "clinical": None,
    "features": None,
    "out": None,
    "split": [0.7, 0.1, 0.2],
    "models": list(MODEL_KINDS),
    "bootstrap_resamples": 1000,
    "nri_threshold": 0.7,
    "stratification": dict(_STRAT_DEFAULTS),
    "deep_clinical": dict(_DEEP_CLIN_DEFAULTS),
    "deep_imaging": dict(_DEEP_IMG_DEFAULTS),
    "rsf": dict(_RSF_DEFAULTS),
    "fusion_ridge": 1e-8,
    "truncate_30day": False,
    "generate": dict(_GEN_DEFAULTS),
}

# the part of the effective config that determines analysis results
_FINGERPRINT_KEYS = (
    "seed",
    "split",
    "models",
    "bootstrap_resamples",
    "nri_threshold",
    "stratification",
    "deep_clinical",
    "deep_imaging",
    "rsf",
    "fusion_ridge",
)


def _require(cond: bool, path: str, reason: str) -> None:
    if not cond:
        raise InvalidConfigError(path, reason)


def _is_num(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _merge_section(name: str, defaults: dict, given) -> dict:
    _require(isinstance(given, dict), name, "must be a JSON object")
    merged = dict(defaults)
    for key, value in given.items():
        _require(key in defaults, f"{name}.{key}", "unknown field")
        merged[key] = value
    return merged


def load_config(path) -> dict:
    """Read a JSON config file; the result still needs ``effective_config``."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise InvalidConfigError("", f"cannot read config file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InvalidConfigError("", f"config is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise InvalidConfigError("", "config must be a JSON object")
    return doc


def effective_config(raw: dict, args=None) -> dict:
    """Merge defaults, file values, and flag overrides, then validate.

    Raises :class:`InvalidConfigError` with the offending field path on the
    first problem found.
    """
    cfg = {k: (dict(v) if isinstance(v, dict) else (list(v) if isinstance(v, list) else v))
           for k, v in _TOP_DEFAULTS.items()}
    for key, value in raw.items():
        _require(key in _TOP_DEFAULTS, key, "unknown field")
        if key in ("stratification", "deep_clinical", "deep_imaging", "rsf", "generate"):
            cfg[key] = _merge_section(
                key, _TOP_DEFAULTS[key], value)
        else:
            cfg[key] = value

    if args is not None:
        if getattr(args, "seed", None) is not None:
            cfg["seed"] = args.seed
        if getattr(args, "out", None) is not None:
            cfg["out"] = args.out
        if getattr(args, "clinical", None) is not None:
            cfg["clinical"] = args.clinical
        if getattr(args, "features", None) is not None:
            cfg["features"] = args.features
        if getattr(args, "models", None) is not None:
            cfg["models"] = [m.strip() for m in args.models.split(",") if m.strip()]
        if getattr(args, "truncate_30d", False):
            cfg["truncate_30day"] = True
        if getattr(args, "n", None) is not None:
            cfg["generate"]["n"] = args.n

    _require(_is_int(cfg["seed"]), "seed", "must be an integer")
    _require(0 <= cfg["seed"] < 2 ** 64, "seed", "must fit in an unsigned 64-bit integer")

    split = cfg["split"]
    _require(isinstance(split, list) and len(split) == 3 and all(_is_num(v) for v in split),
             "split", "must be a list of three numbers")
    _require(all(v > 0 for v in split), "split", "ratios must be positive")
    _require(abs(sum(split) - 1.0) <= 1e-9, "split", "ratios must sum to 1")

    models = cfg["models"]
    _require(isinstance(models, list) and models, "models", "must be a non-empty list")
    for m in models:
        _require(m in MODEL_KINDS, "models", f"unknown model kind {m!r}")
    _require(len(set(models)) == len(models), "models", "contains duplicates")

    _require(_is_int(cfg["bootstrap_resamples"]) and cfg["bootstrap_resamples"] >= 100,
             "bootstrap_resamples", "must be an integer >= 100")
    _require(_is_num(cfg["nri_threshold"]) and 0.0 < cfg["nri_threshold"] < 1.0,
             "nri_threshold", "must be a number in (0, 1)")

    strat = cfg["stratification"]
    _require(strat["method"] in ("median", "fixed"),
             "stratification.method", "must be 'median' or 'fixed'")
    if strat["method"] == "fixed":
        _require(_is_num(strat["threshold"]),
                 "stratification.threshold", "required for fixed stratification")
    else:
        _require(strat["threshold"] is None or _is_num(strat["threshold"]),
                 "stratification.threshold", "must be a number or null")

    for name in ("deep_clinical", "deep_imaging"):
        sec = cfg[name]
        dims = sec["hidden_dims"]
        _require(isinstance(dims, list) and dims
                 and all(_is_int(d) and d >= 1 for d in dims),
                 f"{name}.hidden_dims", "must be a non-empty list of positive integers")
        _require(_is_num(sec["learning_rate"]) and sec["learning_rate"] > 0,
                 f"{name}.learning_rate", "must be a positive number")
        _require(_is_int(sec["epochs"]) and sec["epochs"] >= 1,
                 f"{name}.epochs", "must be a positive integer")
        _require(_is_num(sec["weight_decay"]) and sec["weight_decay"] >= 0,
                 f"{name}.weight_decay", "must be a non-negative number")
        _require(_is_int(sec["patience"]) and sec["patience"] >= 0,
                 f"{name}.patience", "must be a non-negative integer")

    rsf_sec = cfg["rsf"]
    _require(_is_int(rsf_sec["n_trees"]) and rsf_sec["n_trees"] >= 1,
             "rsf.n_trees", "must be a positive integer")
    _require(rsf_sec["mtry"] is None or (_is_int(rsf_sec["mtry"]) and rsf_sec["mtry"] >= 1),
             "rsf.mtry", "must be a positive integer or null")
    _require(_is_int(rsf_sec["min_leaf_size"]) and rsf_sec["min_leaf_size"] >= 1,
             "rsf.min_leaf_size", "must be a positive integer")

    _require(_is_num(cfg["fusion_ridge"]) and cfg["fusion_ridge"] >= 0,
             "fusion_ridge", "must be a non-negative number")
    _require(isinstance(cfg["truncate_30day"], bool), "truncate_30day", "must be a boolean")

    gen = cfg["generate"]
    _require(_is_int(gen["n"]) and gen["n"] >= 10, "generate.n",
             "must be an integer >= 10")
    _require(_is_int(gen["img_dim"]) and gen["img_dim"] >= 1,
             "generate.img_dim", "must be a positive integer")
    lw = gen["latent_weights"]
    _require(isinstance(lw, list) and len(lw) == 2 and all(_is_num(v) for v in lw),
             "generate.latent_weights", "must be a list of two numbers")
    _require(_is_num(gen["noise_scale"]) and gen["noise_scale"] >= 0,
             "generate.noise_scale", "must be a non-negative number")
    _require(_is_num(gen["baseline_rate"]) and gen["baseline_rate"] > 0,
             "generate.baseline_rate", "must be a positive number")
    _require(_is_num(gen["censor_rate"]) and gen["censor_rate"] >= 0,
             "generate.censor_rate", "must be a non-negative number")
    _require(_is_int(gen["max_acquisitions"]) and gen["max_acquisitions"] >= 1,
             "generate.max_acquisitions", "must be a positive integer")
    _require(_is_num(gen["missing_rate"]) and 0.0 <= gen["missing_rate"] < 1.0,
             "generate.missing_rate", "must be a number in [0, 1)")

    for key in ("clinical", "features", "out"):
        _require(cfg[key] is None or isinstance(cfg[key], str), key, "must be a string path")
    return cfg


def config_fingerprint(cfg: dict) -> str:
    """sha256 over the canonical JSON form of the analysis-relevant config."""
    part = {k: cfg[k] for k in _FINGERPRINT_KEYS}
    blob = json.dumps(part, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _study_config(cfg: dict):
    from .analysis import DeepHyper, RsfHyper, StudyConfig

    dc, di, rs = cfg["deep_clinical"], cfg["deep_imaging"], cfg["rsf"]
    return StudyConfig(
        seed=cfg["seed"],
        train_frac=cfg["split"][0],
        val_frac=cfg["split"][1],
        models=tuple(cfg["models"]),
        bootstrap_resamples=cfg["bootstrap_resamples"],
        nri_threshold=cfg["nri_threshold"],
        stratification_method=cfg["stratification"]["method"],
        stratification_threshold=cfg["stratification"]["threshold"],
        deep_clinical=DeepHyper(
            hidden_dims=tuple(dc["hidden_dims"]), learning_rate=dc["learning_rate"],
            epochs=dc["epochs"], weight_decay=dc["weight_decay"], patience=dc["patience"]),
        deep_imaging=DeepHyper(
            hidden_dims=tuple(di["hidden_dims"]), learning_rate=di["learning_rate"],
            epochs=di["epochs"], weight_decay=di["weight_decay"], patience=di["patience"]),
        rsf=RsfHyper(n_trees=rs["n_trees"], mtry=rs["mtry"], min_leaf_size=rs["min_leaf_size"]),
        fusion_ridge=cfg["fusion_ridge"],
    )


# --- command helpers --------------------------------------------------------


def _stage(name: str):
    """Context manager labeling any failure with its pipeline stage."""

    class _Stage:
        def __enter__(self):
            log.info("stage %s", name)
            return self

        def __exit__(self, exc_type, exc, tb):
            if exc is not None and not isinstance(exc, (StageError, SystemExit, KeyboardInterrupt)):
                raise StageError(name, exc) from exc
            return False

    return _Stage()


def _write_json(path, doc) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc


def _km_points(entries: list[dict]):
    from .metrics import KmPoint

    return [KmPoint(time=e["time"], survival=e["survival"],
                    at_risk=e["at_risk"], events=e["events"]) for e in entries]


def _write_km_files(out_dir: str, kind: str, entry: dict) -> None:
    from .svg import render_km_svg

    high = _km_points(entry["high"]["points"])
    low = _km_points(entry["low"]["points"])
    svg_text = render_km_svg(high, low, title=kind)
    svg_path = os.path.join(out_dir, f"km_{kind}.svg")
    csv_path = os.path.join(out_dir, f"km_{kind}.csv")
    try:
        with open(svg_path, "w", encoding="utf-8") as fh:
            fh.write(svg_text)
        with open(csv_path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["group", "time", "survival", "at_risk", "events"])
            for name, points in (("high", high), ("low", low)):
                for p in points:
                    writer.writerow([name, repr(p.time), repr(p.survival), p.at_risk, p.events])
    except OSError as exc:
        raise IoError(f"cannot write KM files for {kind}: {exc}") from exc


def _read_features(path):
    """The feature read of a command, started now; a no-op without a path."""
    return FeatureRead(path) if path is not None else contextlib.nullcontext()


def _ingest_for_run(cfg: dict, features):
    from .dataset import attach_imaging, ingest_clinical

    if cfg["clinical"] is None:
        raise InvalidConfigError("clinical", "a clinical CSV path is required")
    if not os.path.exists(cfg["clinical"]):
        raise InvalidConfigError("clinical", f"file not found: {cfg['clinical']}")
    ds = ingest_clinical(cfg["clinical"])
    if cfg["features"] is not None:
        if not os.path.exists(cfg["features"]):
            raise InvalidConfigError("features", f"file not found: {cfg['features']}")
        ds = attach_imaging(ds, features)
    elif reads_imaging(cfg["models"]):
        raise MissingModalityError(
            "imaging models were requested but no features CSV was provided"
        )
    return ds


def _save_artifacts(out_dir: str, arts, cfg: dict) -> list[str]:
    from . import artifacts

    models_dir = os.path.join(out_dir, "models")
    os.makedirs(models_dir, exist_ok=True)
    paths = [cfg["clinical"]] + ([cfg["features"]] if cfg["features"] else [])
    fp = artifacts.file_fingerprint(*paths)
    imp = arts.dataset.imputation
    seed = cfg["seed"]
    written = []
    for kind, held in ARTIFACTS.items():
        model = arts.fitted.get(held)
        if model is None:
            continue
        if held in COMPONENTS:  # a fusion, saved with the fitted models it reads
            model = artifacts.FusionBundle(fusion=model, components={
                tag: arts.fitted[tag] for tag in COMPONENTS[held] if tag != "pesi"})
        path = os.path.join(models_dir, f"{kind}.json")
        artifacts.save_model(path, kind, model, imputation=imp, seed=seed, data_fingerprint=fp)
        written.append(path)
    return written


# --- commands ---------------------------------------------------------------


def cmd_generate(args) -> int:
    from .synthetic import CohortPlan, write_study_csvs

    raw = load_config(args.config) if args.config else {}
    cfg = effective_config(raw, args)
    if cfg["out"] is None:
        raise InvalidConfigError("out", "an output directory is required")
    gen = cfg["generate"]
    with _stage("generate"):
        os.makedirs(cfg["out"], exist_ok=True)
        plan = CohortPlan(
            n=gen["n"],
            seed=cfg["seed"],
            latent_weights=tuple(gen["latent_weights"]),
            img_dim=gen["img_dim"],
            noise_scale=gen["noise_scale"],
            baseline_rate=gen["baseline_rate"],
            censor_rate=gen["censor_rate"],
            max_acquisitions=gen["max_acquisitions"],
            missing_rate=gen["missing_rate"],
        )
        clinical_path = os.path.join(cfg["out"], "clinical.csv")
        features_path = os.path.join(cfg["out"], "features.csv")
        n = write_study_csvs(plan, clinical_path, features_path)
    print(f"wrote {clinical_path} ({n} patients)")
    print(f"wrote {features_path}")
    return 0


def cmd_run(args) -> int:
    raw = load_config(args.config) if args.config else {}
    cfg = effective_config(raw, args)
    if cfg["out"] is None:
        raise InvalidConfigError("out", "an output directory is required")

    # the feature CSV is parsed on another CPU while the modeling code is
    # imported and the clinical CSV ingested
    with _read_features(cfg["features"]) as features, _stage("ingest"):
        ds = _ingest_for_run(cfg, features)
    from .analysis import run_study_full

    with _stage("study"):
        report, arts = run_study_full(ds, _study_config(cfg))
    with _stage("report"):
        os.makedirs(cfg["out"], exist_ok=True)
        doc = {
            "overall": report.overall,
            "short_term": report.short_term,
            "nri": report.nri,
            "km": report.km,
            "rv_analysis": report.rv_analysis,
            "comparisons": report.comparisons,
            "config_fingerprint": config_fingerprint(cfg),
        }
        report_path = os.path.join(cfg["out"], "report.json")
        _write_json(report_path, doc)
        for kind, entry in report.km.items():
            _write_km_files(cfg["out"], kind, entry)
        written = _save_artifacts(cfg["out"], arts, cfg)
    print(f"wrote {report_path}")
    for kind in report.km:
        print(f"wrote {os.path.join(cfg['out'], f'km_{kind}.svg')} and .csv")
    for path in written:
        print(f"wrote {path}")
    return 0


# the component tag of each single-model artifact kind
_KIND_TAGS = {kind: held for kind, held in ARTIFACTS.items() if held not in COMPONENTS}


def _score_records(artifact, ds):
    """Risk scores of an imputed dataset's patients under an artifact. The
    clinical and imaging inputs are each formed once, when first needed."""
    import numpy as np

    from . import deep_survival, pesi, rsf
    from .dataset import clinical_matrix, imaging_matrix
    from .fusion import predict_fused

    inputs = {}

    def score(tag, model):
        modality = tag.removeprefix("rsf_")
        if modality not in inputs:
            inputs[modality] = clinical_matrix(ds) if modality == "clin" else imaging_matrix(ds)
        if isinstance(model, deep_survival.MlpSurvModel):
            return deep_survival.forward(model, inputs[modality])
        return np.atleast_1d(rsf.predict_risk(model, inputs[modality]))

    if artifact.kind in _KIND_TAGS:
        return score(_KIND_TAGS[artifact.kind], artifact.model)
    bundle = artifact.model
    scores = {}
    for tag, comp in bundle.components.items():
        if tag not in _KIND_TAGS.values():
            raise SchemaMismatchError(f"unknown component tag {tag!r} in artifact")
        scores[tag] = score(tag, comp)
    if "pesi" in bundle.fusion.sources:
        scores["pesi"] = pesi.pesi_scores(ds)
    return np.atleast_1d(predict_fused(bundle.fusion, scores))


def cmd_score(args) -> int:
    # the feature CSV is parsed on another CPU while numpy and the modeling
    # code are imported, the artifact loaded and the clinical CSV read
    with _read_features(args.features) as features:
        import numpy as np

        from . import artifacts, pesi
        from .dataset import apply_imputation, attach_imaging, ingest_clinical

        with _stage("load"):
            artifact = artifacts.load_model(args.model)
        if reads_imaging([artifact.kind]) and not args.features:
            raise InvalidConfigError("features", f"required for {artifact.kind} artifacts")

        with _stage("ingest"):
            try:
                ds = ingest_clinical(args.clinical)
            except MissingColumnError as exc:
                raise SchemaMismatchError(str(exc)) from exc
            if args.features:
                ds = attach_imaging(ds, features)

    rows = []
    if len(ds):
        with _stage("score"):
            if artifact.imputation is None:
                raise SchemaMismatchError(
                    "artifact carries no imputation constants; cannot score raw records"
                )
            ds = apply_imputation(ds, artifact.imputation)
            risks = _score_records(artifact, ds)
            points = pesi.pesi_scores(ds).astype(np.int64).tolist()
            rows = list(zip(ds.patient_ids, map(repr, risks.tolist()), points,
                            map(pesi.risk_class_for, points)))

    with _stage("write"):
        try:
            with open(args.out, "w", encoding="utf-8", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(_SCORE_HEADER)
                writer.writerows(rows)
        except OSError as exc:
            raise IoError(f"cannot write {args.out}: {exc}") from exc
    print(f"wrote {args.out} ({len(rows)} patients)")
    return 0


def _fmt_ci(cell: dict) -> str:
    if cell["c_index"] is None:
        return "n/a (no comparable pairs)"
    return f"{cell['c_index']:.3f} [{cell['ci_low']:.3f}, {cell['ci_high']:.3f}]"


def cmd_report(args) -> int:
    with _stage("load"):
        try:
            with open(args.report, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
        except OSError as exc:
            raise IoError(f"cannot read {args.report}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise SchemaMismatchError(f"{args.report} is not valid JSON: {exc}") from exc
        expected = ("overall", "short_term", "nri", "km", "rv_analysis",
                    "comparisons", "config_fingerprint")
        missing = [k for k in expected if k not in doc]
        if missing:
            raise SchemaMismatchError(f"report lacks key(s): {', '.join(missing)}")
    try:
        out = _render_report(doc)
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise SchemaMismatchError(f"{args.report} has a malformed body: {exc!r}") from exc
    print("\n".join(out))
    return 0


def _render_report(doc: dict) -> list[str]:
    out = []
    out.append("concordance, full follow-up")
    for split, table in doc["overall"].items():
        for kind, cell in table.items():
            out.append(f"  {split:5s} {kind:18s} {_fmt_ci(cell)}")
    out.append("concordance, 30-day truncated")
    for split, table in doc["short_term"].items():
        for kind, cell in table.items():
            out.append(f"  {split:5s} {kind:18s} {_fmt_ci(cell)}")
    out.append("net reclassification")
    for split, table in doc["nri"].items():
        for name, cell in table.items():
            out.append(f"  {split:5s} {name:15s} NRI {cell['nri']:+.3f}")
    out.append("stratified survival (test split)")
    for kind, entry in doc["km"].items():
        p = entry["logrank_p"]
        p_text = "n/a" if p is None else f"{p:.4g}"
        out.append(
            f"  {kind:18s} cut {entry['cut_value']:.4f} "
            f"high n={entry['n_high']} low n={entry['n_low']} log-rank p={p_text}"
        )
    out.append("comparison against the severity index (test split)")
    for kind, cell in doc["comparisons"].items():
        out.append(
            f"  {kind:18s} mean c-index diff {cell['mean_c_index_diff']:+.4f} "
            f"p={cell['p_value']:.4g}"
        )
    rv = doc["rv_analysis"]
    if rv is None:
        out.append("RV dysfunction analysis: not available (missing RV flags)")
    else:
        out.append("RV dysfunction analysis (test split, multimodal stratification)")
        if rv["rv_high_pct"] is None:
            out.append("  no RV-positive patients in the test split")
        else:
            out.append(
                f"  RV patients in high-risk group: {rv['rv_high_count']}/{rv['n_rv']} "
                f"({rv['rv_high_pct']:.1f}%)"
            )
        if rv["death_capture_pct"] is None:
            out.append("  no deaths in the test split")
        else:
            out.append(
                f"  deaths in high-risk group: {rv['deaths_high_count']}/{rv['n_deaths']} "
                f"({rv['death_capture_pct']:.1f}%)"
            )
    out.append(f"config fingerprint: {doc['config_fingerprint']}")
    return out


# --- entry point ------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; the contract wants 1 for validation."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="survfuse", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, out_required=False):
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--seed", type=int, help="override the config seed")
        p.add_argument("--out", required=out_required, help="output location")

    p_gen = sub.add_parser("generate", help="write a synthetic cohort")
    common(p_gen)
    p_gen.add_argument("--n", type=int, help="override the generated cohort size")
    p_gen.set_defaults(func=cmd_generate)

    p_run = sub.add_parser("run", help="run the full study")
    common(p_run)
    p_run.add_argument("--clinical", help="clinical CSV path")
    p_run.add_argument("--features", help="imaging feature CSV path")
    p_run.add_argument("--models", help="comma-separated model kinds to evaluate")
    p_run.add_argument("--truncate-30d", action="store_true", dest="truncate_30d",
                       help="accepted and ignored: the report always has the 30-day table")
    p_run.set_defaults(func=cmd_run)

    p_score = sub.add_parser("score", help="score patients with a saved model")
    p_score.add_argument("--model", required=True, help="model artifact JSON")
    p_score.add_argument("--clinical", required=True, help="clinical CSV path")
    p_score.add_argument("--features", help="imaging feature CSV path")
    p_score.add_argument("--out", required=True, help="output CSV path")
    p_score.set_defaults(func=cmd_score)

    p_rep = sub.add_parser("report", help="re-render a report.json as text")
    p_rep.add_argument("report", help="path to report.json")
    p_rep.set_defaults(func=cmd_report)
    return parser


def _configure_logging() -> None:
    level_name = os.environ.get("SURVFUSE_LOG", "WARNING").upper()
    level = getattr(logging, level_name, None)
    if not isinstance(level, int):
        level = logging.WARNING
    logging.basicConfig(stream=sys.stderr, level=level,
                        format="%(levelname)s %(name)s: %(message)s")


def main(argv=None) -> int:
    _configure_logging()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except InvalidConfigError as exc:
        log.error("invalid config: %s", exc)
        return 1
    except StageError as exc:
        log.error("%s", exc)
        return 1 if isinstance(exc.cause, _VALIDATION_ERRORS) else 2
    except SurvfuseError as exc:
        log.error("%s", exc)
        return 1 if isinstance(exc, _VALIDATION_ERRORS) else 2


if __name__ == "__main__":
    sys.exit(main())
