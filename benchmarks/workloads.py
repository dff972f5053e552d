"""The benchmark's workloads: what each sets up, runs and checks.

A workload is a set-up (cohort generation, plus a panel fit for scoring)
and an operation (the CLI calls whose wall time is measured). Both are
lists of ``survfuse`` CLI argument lists; the benchmark seed only enters
through the generated cohorts and the ``seed`` field of the config, so the
program receives nothing but CSVs and a config. Why each workload exists
is recorded in ``README.md`` next to this file.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
from dataclasses import dataclass

REPORT_KEYS = ("overall", "short_term", "nri", "km", "rv_analysis",
               "comparisons", "config_fingerprint")

# artifact kinds written by a full six-model `run`, and those that need imaging
ARTIFACT_KINDS = ("deep_clinical", "deep_imaging", "rsf_clinical", "rsf_imaging",
                  "fusion_multimodal", "fusion_pesi_fused", "fusion_rsf")
IMAGING_KINDS = ("deep_imaging", "rsf_imaging", "fusion_multimodal",
                 "fusion_pesi_fused", "fusion_rsf")


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def check_report(path) -> list[str]:
    """Problems with a report.json: missing keys or a c-index outside [0, 1]."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    problems = [f"report lacks key {k!r}" for k in REPORT_KEYS if k not in doc]
    for table in ("overall", "short_term"):
        for split, cells in doc.get(table, {}).items():
            for kind, cell in cells.items():
                value = cell.get("c_index")
                if value is not None and not 0.0 <= value <= 1.0:
                    problems.append(f"{table}.{split}.{kind}.c_index = {value}")
    return problems


def check_scores(path, n_patients: int) -> list[str]:
    """Problems with a score CSV: wrong header or not one row per patient.

    Raises ValueError for a risk score that is not a number.
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    name = os.path.basename(path)
    problems = []
    if not rows or rows[0] != ["patient_id", "risk_score", "pesi_score", "pesi_class"]:
        problems.append(f"{name}: unexpected header")
    body = rows[1:]
    if len(body) != n_patients:
        problems.append(f"{name}: {len(body)} rows for {n_patients} patients")
    if any(len(r) != 4 for r in body):
        return problems + [f"{name}: a row does not have four fields"]
    if len({r[0] for r in body}) != len(body):
        problems.append(f"{name}: repeated patient ids")
    if not all(math.isfinite(float(r[1])) for r in body):
        problems.append(f"{name}: a row lacks a finite risk score")
    return problems


@dataclass
class Plan:
    """The CLI calls of one workload at one seed, laid out under ``work``."""

    setup: list[list[str]]
    operation: list[list[str]]
    out_dir: str  # emptied before each operation
    configs: dict[str, dict]  # config files to write before the set-up


@dataclass(frozen=True)
class Study:
    """``survfuse run`` on one generated cohort."""

    name: str
    n: int
    config: dict
    models: str | None = None
    setup_reps: int = 5

    def plan(self, work: str, seed: int) -> Plan:
        cohort = os.path.join(work, "cohort")
        cfg_path = os.path.join(work, "config.json")
        gen = ["generate", "--n", str(self.n), "--seed", str(seed), "--out", cohort]
        run = ["run", "--clinical", os.path.join(cohort, "clinical.csv"),
               "--features", os.path.join(cohort, "features.csv"),
               "--config", cfg_path, "--out", os.path.join(work, "out")]
        if self.models:
            run += ["--models", self.models]
        return Plan(setup=[gen], operation=[run], out_dir=os.path.join(work, "out"),
                    configs={cfg_path: {**self.config, "seed": seed}})

    def outputs(self, work: str) -> list[str]:
        """report.json, the KM files and the model artifacts."""
        return sorted(os.path.join(d, f) for d, _, files in os.walk(os.path.join(work, "out"))
                      for f in files)

    def check(self, work: str) -> list[str]:
        return check_report(os.path.join(work, "out", "report.json"))


@dataclass(frozen=True)
class ScoreBatch:
    """Fit the six-model panel once, then score a larger cohort with each artifact."""

    name: str
    fit_n: int
    fit_config: dict
    score_n: int
    setup_reps: int = 2

    def plan(self, work: str, seed: int) -> Plan:
        fit_cohort = os.path.join(work, "fit_cohort")
        score_cohort = os.path.join(work, "score_cohort")
        panel = os.path.join(work, "panel")
        cfg_path = os.path.join(work, "fit_config.json")
        setup = [
            ["generate", "--n", str(self.fit_n), "--seed", str(seed), "--out", fit_cohort],
            ["run", "--clinical", os.path.join(fit_cohort, "clinical.csv"),
             "--features", os.path.join(fit_cohort, "features.csv"),
             "--config", cfg_path, "--out", panel],
            # a separate cohort, drawn from another seed than the fitted one
            ["generate", "--n", str(self.score_n), "--seed", str(seed + 1), "--out", score_cohort],
        ]
        operation = []
        for kind in ARTIFACT_KINDS:
            call = ["score", "--model", os.path.join(panel, "models", f"{kind}.json"),
                    "--clinical", os.path.join(score_cohort, "clinical.csv")]
            if kind in IMAGING_KINDS:
                call += ["--features", os.path.join(score_cohort, "features.csv")]
            operation.append(call + ["--out", os.path.join(work, "scores", f"{kind}.csv")])
        return Plan(setup=setup, operation=operation, out_dir=os.path.join(work, "scores"),
                    configs={cfg_path: {**self.fit_config, "seed": seed}})

    def outputs(self, work: str) -> list[str]:
        return [os.path.join(work, "scores", f"{kind}.csv") for kind in ARTIFACT_KINDS]

    def check(self, work: str) -> list[str]:
        problems = []
        for path in self.outputs(work):
            problems += check_scores(path, self.score_n)
        return problems


def every_epoch(epochs: int) -> dict:
    """MLP config that trains for exactly ``epochs`` epochs.

    Early stopping ends training at an epoch that depends on the cohort, so
    the seed would change how much work a run does (the default study ran
    1102 to 2000 epochs over seeds 1-3, up to a fifth of its wall time).
    With patience equal to the epoch count the seed changes only the data.
    """
    hyper = {"epochs": epochs, "patience": epochs}
    return {"deep_clinical": hyper, "deep_imaging": hyper}


WORKLOADS = {
    w.name: w
    for w in (
        # the paper's study at the default config, early stopping aside:
        # bootstrap concordance dominates
        Study("study_default", n=200, config=every_epoch(500)),
        # fitting dominates: forests and MLP training on a larger cohort
        Study("study_fit", n=1200,
              config={"bootstrap_resamples": 100, "rsf": {"n_trees": 10}, **every_epoch(120)},
              models="rsf_fused,deep_multimodal"),
        # the read path: load artifacts, ingest, predict; no fitting, no bootstrap
        ScoreBatch("score_batch", fit_n=400,
                   fit_config={"bootstrap_resamples": 100, **every_epoch(100)},
                   score_n=4000),
    )
}
