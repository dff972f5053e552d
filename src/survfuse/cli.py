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

Importing this module imports neither numpy, the modeling code nor the
config module; each command imports what it uses, and ``score`` only the
model code its artifact holds (see ``artifacts``). ``main`` pins BLAS to
one thread, and ``score`` and ``run`` start reading their feature CSV
before they import numpy (see ``forks``); the imaging join
(``dataset.attach_imaging``) takes the parsed features where it would
read the file, so errors come in the order the files are read.

Both commands hold the cohort as one ``dataset.Dataset`` and go through
the same functions (see ``dataset``).

Everything a command writes is deterministic given the config and seed:
reports embed a fingerprint of the effective analysis configuration and
no output embeds wall-clock state.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import logging
import os
import sys

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
from .forks import pin_blas_threads
from .kinds import ARTIFACTS, COMPONENTS, RV_MODEL, TAGS, reads_imaging

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

# the top-level keys of report.json: the fields of ``analysis.StudyReport``
# and the config fingerprint
_REPORT_KEYS = ("overall", "short_term", "nri", "km", "rv_analysis", "comparisons",
                "config_fingerprint")


# --- command helpers --------------------------------------------------------


@contextlib.contextmanager
def _stage(name: str):
    """Context manager labeling any failure with its pipeline stage."""
    log.info("stage %s", name)
    try:
        yield
    except StageError:
        raise
    except Exception as exc:
        raise StageError(name, exc) from exc


def _write_json(path, doc) -> None:
    # encoded before the file is opened: a NaN or infinite number raises
    # ValueError, and no file is written
    text = json.dumps(doc, indent=2, sort_keys=True, allow_nan=False)
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc


def _write_km_files(out_dir: str, kind: str, entry: dict) -> None:
    from .metrics import KmPoint
    from .svg import render_km_svg

    high, low = ([KmPoint(**e) for e in entry[name]["points"]] for name in ("high", "low"))
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


def _input_file(flag: str, path: str) -> str:
    """``path``, the input file given by ``--flag``, if it exists."""
    if not os.path.exists(path):
        raise InvalidConfigError(flag, f"file not found: {path}")
    return path


def _ingest_for_run(cfg: dict, features):
    from .dataset import attach_imaging, ingest_clinical

    if cfg["clinical"] is None:
        raise InvalidConfigError("clinical", "a clinical CSV path is required")
    ds = ingest_clinical(_input_file("clinical", cfg["clinical"]))
    if cfg["features"] is not None:
        _input_file("features", cfg["features"])
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
                tag: arts.fitted[tag] for tag in COMPONENTS[held] if TAGS[tag][0]})
        path = os.path.join(models_dir, f"{kind}.json")
        artifacts.save_model(path, kind, model, imputation=imp, seed=seed, data_fingerprint=fp)
        written.append(path)
    return written


# --- commands ---------------------------------------------------------------


def cmd_generate(args) -> int:
    from .config import effective_config, load_config
    from .synthetic import CohortPlan, write_study_csvs

    raw = load_config(args.config) if args.config else {}
    cfg = effective_config(raw, args)
    if cfg["out"] is None:
        raise InvalidConfigError("out", "an output directory is required")
    # the section's keys are the plan's fields
    gen = {**cfg["generate"], "latent_weights": tuple(cfg["generate"]["latent_weights"])}
    with _stage("generate"):
        os.makedirs(cfg["out"], exist_ok=True)
        plan = CohortPlan(seed=cfg["seed"], **gen)
        clinical_path = os.path.join(cfg["out"], "clinical.csv")
        features_path = os.path.join(cfg["out"], "features.csv")
        n = write_study_csvs(plan, clinical_path, features_path)
    print(f"wrote {clinical_path} ({n} patients)")
    print(f"wrote {features_path}")
    return 0


def cmd_run(args) -> int:
    from .config import config_fingerprint, effective_config, load_config

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
        report, arts = run_study_full(ds, cfg)
    with _stage("report"):
        os.makedirs(cfg["out"], exist_ok=True)
        doc = {**vars(report), "config_fingerprint": config_fingerprint(cfg)}
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


def _score_records(artifact, ds, pesi_points):
    """Risk scores of an imputed dataset's patients under an artifact, given
    their PESI points. The clinical and imaging inputs are each formed once,
    when first needed."""
    from .dataset import clinical_matrix, imaging_matrix
    from .fusion import predict_fused, score_component

    inputs = {}

    def score(tag, model):
        modality = TAGS[tag][1]
        if modality not in inputs:
            inputs[modality] = clinical_matrix(ds) if modality == "clin" else imaging_matrix(ds)
        return score_component(tag, model, inputs[modality])

    held = ARTIFACTS[artifact.kind]
    if held in TAGS:
        return score(held, artifact.model)
    bundle = artifact.model
    # ``artifacts.load_model`` checked that the fitted sources are the components
    scores = {tag: score(tag, bundle.components[tag]) if TAGS[tag][0] else pesi_points
              for tag in bundle.fusion.sources}
    return predict_fused(bundle.fusion, scores)


def cmd_score(args) -> int:
    # the feature CSV is parsed on another CPU while numpy and the modeling
    # code are imported, the artifact loaded and the clinical CSV read
    with _read_features(args.features) as features:
        import numpy as np

        # fusion too, which the scoring uses: imported while the features
        # are parsed, not after the imaging join, where scoring waits on it
        from . import artifacts, fusion, pesi
        from .dataset import apply_imputation, attach_imaging, ingest_clinical

        with _stage("load"):
            artifact = artifacts.load_model(args.model)
        if reads_imaging([artifact.kind]) and not args.features:
            raise InvalidConfigError("features", f"required for {artifact.kind} artifacts")

        with _stage("ingest"):
            try:
                ds = ingest_clinical(_input_file("clinical", args.clinical))
            except MissingColumnError as exc:
                raise SchemaMismatchError(str(exc)) from exc
            if args.features:
                _input_file("features", args.features)
                ds = attach_imaging(ds, features)

    rows = []
    if len(ds):
        with _stage("score"):
            if artifact.imputation is None:
                raise SchemaMismatchError(
                    "artifact carries no imputation constants; cannot score raw records"
                )
            ds = apply_imputation(ds, artifact.imputation)
            pesi_points = pesi.pesi_scores(ds)
            # a risk that overflows is refused below, naming its row, so
            # numpy's warning about it would only name library internals
            with np.errstate(over="ignore", invalid="ignore"):
                risks = _score_records(artifact, ds, pesi_points)
            bad = np.flatnonzero(~np.isfinite(risks))
            if bad.size:
                i = int(bad[0])
                raise SchemaMismatchError(f"{args.model} gives row {i} (patient"
                                          f" {ds.patient_ids[i]}) the risk {float(risks[i])!r},"
                                          " which is not finite")
            points = pesi_points.astype(np.int64).tolist()
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
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise SchemaMismatchError(f"{args.report} is not valid JSON: {exc}") from exc
        missing = [k for k in _REPORT_KEYS if k not in doc]
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
    for key, title in (("overall", "full follow-up"), ("short_term", "30-day truncated")):
        out.append(f"concordance, {title}")
        for split, table in doc[key].items():
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
        cause = "missing RV flags" if RV_MODEL in doc["km"] else f"{RV_MODEL} was not run"
        out.append(f"RV dysfunction analysis: not available ({cause})")
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

    def common(p):
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--seed", type=int, help="override the config seed")
        p.add_argument("--out", help="output location")

    p_gen = sub.add_parser("generate", help="write a synthetic cohort")
    common(p_gen)
    p_gen.add_argument("--n", type=int, help="override the generated cohort size")
    p_gen.set_defaults(func=cmd_generate)

    p_run = sub.add_parser("run", help="run the full study")
    common(p_run)
    p_run.add_argument("--clinical", help="clinical CSV path")
    p_run.add_argument("--features", help="imaging feature CSV path")
    p_run.add_argument("--models", help="comma-separated model kinds to evaluate")
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
    # before anything imports numpy (see ``forks``)
    pin_blas_threads()
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
