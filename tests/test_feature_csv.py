"""The feature CSV read that ``score`` and ``run`` start in a forked child.

Every check runs with the read forked (two usable CPUs) and in this process
(one usable CPU): the two must give the same arrays, the same exit codes
and the same log lines, and no child may outlive a command.
"""

import csv
import json
import os
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import survfuse
from survfuse import feature_csv
from survfuse.cli import main
from survfuse.dataset import ingest_features
from survfuse.feature_csv import FeatureRead

from conftest import assert_no_child
from strategies import same_bits

SRC = str(Path(survfuse.__file__).resolve().parents[1])
README = Path(__file__).resolve().parents[1] / "README.md"

# forked: 2 usable CPUs; in this process: 1
PATHS = {"forked": 2, "in_process": 1}


def use_cpus(monkeypatch, cpus):
    """``cpus`` usable CPUs, and a child for a feature file of any size."""
    monkeypatch.setattr(feature_csv, "usable_cpus", lambda: cpus)
    monkeypatch.setattr(feature_csv, "_FORK_MIN_BYTES", 0)


@pytest.fixture(scope="module")
def panel(tmp_path_factory):
    """A 60-patient cohort and a ``deep_imaging`` artifact fitted on it."""
    root = tmp_path_factory.mktemp("panel")
    cfg = root / "config.json"
    hyper = {"hidden_dims": [4], "epochs": 5, "patience": 5}
    cfg.write_text(json.dumps({"bootstrap_resamples": 100, "deep_clinical": hyper,
                               "deep_imaging": hyper}))
    assert main(["generate", "--n", "60", "--seed", "4", "--out", str(root)]) == 0
    assert main(["run", "--clinical", str(root / "clinical.csv"),
                 "--features", str(root / "features.csv"), "--config", str(cfg),
                 "--models", "deep_imaging", "--out", str(root / "run")]) == 0
    return root


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def write_rows(path, rows):
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    return path


def set_cell(rows, line, column, token):
    rows[line][rows[0].index(column)] = token


def drop_columns(rows, names):
    keep = [k for k, h in enumerate(rows[0]) if h not in names]
    return [[row[k] for k in keep] for row in rows]


def broken_features(src, dst, fault):
    """Copy of the feature CSV ``src`` with one fault; the data row that
    carries it is row 2 (file line 3)."""
    rows = read_rows(src)
    if fault == "non_numeric":
        set_cell(rows, 3, "f1", "x")
    elif fault == "non_finite":
        set_cell(rows, 3, "f1", "inf")
    elif fault == "cell_count":
        rows[3].append("1")
    elif fault == "empty_id":
        set_cell(rows, 3, "patient_id", " ")
    elif fault == "probability":
        set_cell(rows, 3, "pe_probability", "1.5")
    elif fault == "missing_column":
        rows = drop_columns(rows, {"acquisition_id"})
    elif fault == "no_feature_columns":
        rows = drop_columns(rows, {h for h in rows[0] if h.startswith("f")})
    elif fault == "non_contiguous":
        rows[0][rows[0].index("f1")] = "f99"
    elif fault == "empty_file":
        rows = []
    write_rows(dst, rows)
    if fault == "undecodable":
        with open(dst, "ab") as fh:
            fh.write(b"P9,A0,0.5" + b",\xff" * (len(rows[0]) - 3) + b"\r\n")
    return dst


FAULTS = {
    "non_numeric": "row 2: feature cells must all be numeric",
    "non_finite": "row 2: feature cells must all be finite",
    "cell_count": "row 2: expected",
    "empty_id": "row 2: empty patient_id",
    "probability": "row 2: pe_probability must be a number in [0, 1]",
    "missing_column": "feature CSV is missing column 'acquisition_id'",
    "no_feature_columns": "feature CSV has no f0..f{d-1} columns",
    "non_contiguous": "feature columns must be contiguous f0..f{d-1}",
    "empty_file": "feature CSV is empty",
    "undecodable": "codec can't decode byte 0xff",
}


def score(panel, tmp_path, features, clinical=None, model="deep_imaging"):
    return main(["score", "--model", str(panel / "run" / "models" / f"{model}.json"),
                 "--clinical", str(clinical or panel / "clinical.csv"),
                 "--features", str(features), "--out", str(tmp_path / "s.csv")])


class TestErrorParity:
    @pytest.mark.parametrize("fault", sorted(FAULTS))
    def test_forked_and_in_process_reads_fail_alike(self, panel, tmp_path, monkeypatch,
                                                    caplog, forks, fault):
        features = broken_features(panel / "features.csv", tmp_path / "f.csv", fault)
        seen = {}
        for name, cpus in PATHS.items():
            use_cpus(monkeypatch, cpus)
            caplog.clear()
            code = score(panel, tmp_path, features)
            seen[name] = (code, caplog.text)
            assert FAULTS[fault] in caplog.text
            assert not (tmp_path / "s.csv").exists()
            assert_no_child()
        assert len(forks) == 1  # the forked read ran, and only it
        assert seen["forked"] == seen["in_process"]
        # the reader's own failure is not a validation error
        assert seen["forked"][0] == (2 if fault == "undecodable" else 1)

    @pytest.mark.parametrize("cpus", sorted(PATHS.values()))
    def test_clinical_error_is_reported_first(self, panel, tmp_path, monkeypatch, caplog,
                                              cpus):
        use_cpus(monkeypatch, cpus)
        features = broken_features(panel / "features.csv", tmp_path / "f.csv", "non_numeric")
        rows = read_rows(panel / "clinical.csv")
        set_cell(rows, 5, "age", "nan")
        clinical = write_rows(tmp_path / "c.csv", rows)
        assert score(panel, tmp_path, features, clinical) == 1
        assert "row 4: age must be a finite number, got 'nan'" in caplog.text
        assert "feature cells" not in caplog.text
        assert_no_child()

    def test_child_killed_before_sending(self, panel, tmp_path, monkeypatch, forks):
        # the parent reads the file itself and scores as it would have
        use_cpus(monkeypatch, 1)
        assert score(panel, tmp_path, panel / "features.csv") == 0
        want = (tmp_path / "s.csv").read_bytes()
        parent, read_columns = os.getpid(), feature_csv.read_columns

        def dies_in_the_child(path):
            if os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
            return read_columns(path)

        monkeypatch.setattr(feature_csv, "read_columns", dies_in_the_child)
        use_cpus(monkeypatch, 2)
        assert score(panel, tmp_path, panel / "features.csv") == 0
        assert len(forks) == 1
        assert (tmp_path / "s.csv").read_bytes() == want
        assert_no_child()


class TestNoChildLeft:
    @pytest.fixture(autouse=True)
    def two_cpus(self, monkeypatch):
        use_cpus(monkeypatch, 2)
        assert_no_child()

    def test_missing_artifact(self, panel, tmp_path, forks):
        code = main(["score", "--model", str(tmp_path / "ghost.json"),
                     "--clinical", str(panel / "clinical.csv"),
                     "--features", str(panel / "features.csv"), "--out", str(tmp_path / "s.csv")])
        assert code == 2
        assert len(forks) == 1
        assert_no_child()

    def test_bad_clinical_file(self, panel, tmp_path, caplog, forks):
        rows = read_rows(panel / "clinical.csv")
        set_cell(rows, 2, "event", "maybe")
        clinical = write_rows(tmp_path / "c.csv", rows)
        assert score(panel, tmp_path, panel / "features.csv", clinical) == 1
        assert "row 1: event must be a boolean" in caplog.text
        assert len(forks) == 1
        assert_no_child()

    def test_run_with_missing_features_file(self, panel, tmp_path, caplog, forks):
        code = main(["run", "--clinical", str(panel / "clinical.csv"),
                     "--features", str(tmp_path / "ghost.csv"), "--models", "pesi",
                     "--out", str(tmp_path / "out")])
        assert code == 1
        assert "features: file not found" in caplog.text
        assert forks == []  # a file that cannot be read starts no child
        assert_no_child()

    def test_run_with_bad_clinical_file(self, panel, tmp_path, caplog, forks):
        rows = read_rows(panel / "clinical.csv")
        set_cell(rows, 2, "time_days", "-1")
        clinical = write_rows(tmp_path / "c.csv", rows)
        code = main(["run", "--clinical", str(clinical),
                     "--features", str(panel / "features.csv"), "--models", "pesi",
                     "--out", str(tmp_path / "out")])
        assert code == 1
        assert "row 1: time_days must be a finite non-negative number" in caplog.text
        assert len(forks) == 1
        assert_no_child()

    def test_successful_score_reaps_its_child(self, panel, tmp_path, forks):
        assert score(panel, tmp_path, panel / "features.csv") == 0
        assert len(forks) == 1
        assert_no_child()


@st.composite
def feature_files(draw):
    """The text of a well-formed feature CSV: d of 1-6, 0-12 patients with
    1-3 acquisitions, cells written with ``repr``, any of them quoted, CRLF
    or LF line ends, with or without a trailing line end."""
    d = draw(st.integers(1, 6))
    header = draw(st.permutations(
        ["patient_id", "acquisition_id", "pe_probability", *(f"f{k}" for k in range(d))]))
    floats = st.floats(width=64, allow_nan=False, allow_infinity=False)
    rows = []
    for p in range(draw(st.integers(0, 12))):
        for a in range(draw(st.integers(1, 3))):
            values = {"patient_id": draw(st.sampled_from([f"P{p}", f"P,{p}", f" P{p} "])),
                      "acquisition_id": f"A{a}",
                      "pe_probability": repr(draw(st.floats(0.0, 1.0)))}
            values.update({f"f{k}": repr(draw(floats)) for k in range(d)})
            rows.append([values[h] for h in header])
    quote_all = draw(st.booleans())
    end = draw(st.sampled_from(["\r\n", "\n"]))

    def line(cells):
        return ",".join(f'"{c}"' if quote_all or "," in c else c for c in cells)

    text = end.join(line(cells) for cells in [header, *rows])
    return text + end if draw(st.booleans()) else text


class TestForkedReadParity:
    @settings(max_examples=40)
    @given(feature_files())
    def test_forked_read_is_the_in_process_read(self, text):
        made = []
        fork = os.fork

        def spy():
            pid = fork()
            made.append(pid)
            return pid

        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "f.csv"
            path.write_bytes(text.encode())
            want = ingest_features(path)
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(feature_csv, "usable_cpus", lambda: 2)
                mp.setattr(feature_csv, "_FORK_MIN_BYTES", 0)
                mp.setattr(os, "fork", spy)
                with FeatureRead(path) as read:
                    got = ingest_features(read)
        assert len(made) == 1  # the forked read ran
        assert_no_child()
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and a.shape == b.shape
        assert got[0].tolist() == want[0].tolist()
        assert same_bits(got[1], want[1]) and same_bits(got[2], want[2])
        assert not got[2].flags.writeable and not want[2].flags.writeable

    def test_message_larger_than_the_pipe(self, tmp_path, monkeypatch, forks):
        # 4000 rows of 32 cells: 1 MB of cells, many pipe buffers' worth
        use_cpus(monkeypatch, 2)
        rng = np.random.default_rng(3)
        rows = [["patient_id", "acquisition_id", "pe_probability", *(f"f{k}" for k in range(32))]]
        rows += [[f"P{i // 2}", f"A{i % 2}", repr(rng.random()),
                  *map(repr, rng.standard_normal(32).tolist())] for i in range(4000)]
        path = write_rows(tmp_path / "f.csv", rows)
        want = ingest_features(path)
        with FeatureRead(path) as read:
            got = ingest_features(read)
        assert len(forks) == 1
        assert got[0].tolist() == want[0].tolist()
        assert same_bits(got[1], want[1]) and same_bits(got[2], want[2])
        assert not got[2].flags.writeable
        assert_no_child()

    @pytest.mark.parametrize("cpus, min_bytes, forked", [
        (1, 0, False), (2, 0, True), (2, 58, True), (2, 59, False)])
    def test_child_only_with_two_cpus_and_a_large_file(self, tmp_path, monkeypatch, forks,
                                                       cpus, min_bytes, forked):
        monkeypatch.setattr(feature_csv, "usable_cpus", lambda: cpus)
        monkeypatch.setattr(feature_csv, "_FORK_MIN_BYTES", min_bytes)
        path = tmp_path / "f.csv"
        path.write_text("patient_id,acquisition_id,pe_probability,f0\nP1,A0,0.5,2.5\n")
        assert path.stat().st_size == 58
        with FeatureRead(path) as read:
            patient_ids, probs, features = ingest_features(read)
        assert len(forks) == forked
        assert patient_ids.tolist() == ["P1"] and probs.tolist() == [0.5]
        assert features.tolist() == [[2.5]]
        assert_no_child()

    def test_no_fork_reads_in_process(self, tmp_path, monkeypatch):
        use_cpus(monkeypatch, 2)
        monkeypatch.delattr(os, "fork")
        path = tmp_path / "f.csv"
        path.write_text("patient_id,acquisition_id,pe_probability,f0\nP1,A0,0.5,2.5\n")
        with FeatureRead(path) as read:
            assert ingest_features(read)[2].tolist() == [[2.5]]
        assert_no_child()


EXPORTED = [
    "CANONICAL_ORDER", "CohortPlan", "ComparisonResult", "CoxModel", "Dataset",
    "FitOptions", "ForestModel", "FusionBundle", "FusionModel",
    "ImputationStats", "KmCurve", "KmPoint", "Labels", "MODEL_KINDS", "MlpSurvModel",
    "ModelArtifact", "NriResult", "PESI_WEIGHTS",
    "RsfOptions", "RvFactorReport",
    "StudyReport", "SurvfuseError", "SurvivalTree", "TestResult",
    "TrainOptions", "analysis", "apply_imputation", "artifacts", "attach_imaging",
    "bootstrap_ci", "c_index", "clinical_matrix", "compare_to_pesi",
    "compute_imputation_stats", "config", "cox_linear", "dataset", "deep_survival",
    "effective_config", "errors",
    "file_fingerprint", "fit_cox", "fit_forest", "fit_fusion", "forward", "fusion",
    "imaging_matrix", "impute_missing",
    "ingest_clinical", "ingest_features", "init_mlp", "km_curve", "linear_scores",
    "load_model", "logrank_test", "metrics", "nri", "pesi", "pesi_scores", "predict_fused",
    "predict_risk", "risk_class_for", "rsf", "run_study", "run_study_full",
    "rv_factor_analysis", "save_model", "sigmoid", "split_dataset", "stratify", "synthetic",
    "train", "truncate_30day", "wilcoxon_signed_rank", "write_study_csvs",
]


def run_python(code):
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)


class TestReadme:
    def test_library_use_example_runs(self):
        # the README's library example, run as a user would with src/ on the path
        section = README.read_text(encoding="utf-8").split("\n## Library use\n", 1)[1]
        code = section.split("```python\n", 1)[1].split("```", 1)[0]
        done = run_python(code)
        assert done.returncode == 0, done.stderr
        assert 0.5 < float(done.stdout) <= 1.0


class TestLazyImports:
    def test_cli_imports_no_numpy(self):
        done = run_python("import sys, survfuse.cli; assert 'numpy' not in sys.modules")
        assert done.returncode == 0, done.stderr

    def test_config_imports_no_numpy(self):
        done = run_python("import sys, survfuse.config; assert 'numpy' not in sys.modules")
        assert done.returncode == 0, done.stderr

    def test_package_exports_are_unchanged(self):
        assert survfuse.__all__ == EXPORTED
        for name in EXPORTED:
            assert getattr(survfuse, name) is not None
        assert survfuse.MODEL_KINDS is survfuse.analysis.MODEL_KINDS
        with pytest.raises(AttributeError):
            survfuse.no_such_name

    def test_submodule_through_the_package(self):
        done = run_python("import survfuse; print(survfuse.metrics.c_index.__module__)")
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "survfuse.metrics"

    def test_feature_read_forks_before_numpy_is_imported(self, panel, tmp_path):
        # a fork after numpy's import could copy a process that runs BLAS threads
        argv = ["score", "--model", str(panel / "run" / "models" / "deep_imaging.json"),
                "--clinical", str(panel / "clinical.csv"),
                "--features", str(panel / "features.csv"), "--out", str(tmp_path / "s.csv")]
        code = (
            "import os, sys\n"
            "from survfuse import feature_csv\n"
            "from survfuse.cli import main\n"
            "feature_csv._FORK_MIN_BYTES = 0\n"
            "feature_csv.usable_cpus = lambda: 2\n"
            "fork, numpy_at_fork = os.fork, []\n"
            "def spy():\n"
            "    numpy_at_fork.append('numpy' in sys.modules)\n"
            "    return fork()\n"
            "os.fork = spy\n"
            f"assert main({argv!r}) == 0\n"
            "print(numpy_at_fork)\n"
        )
        done = run_python(code)
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[-1] == "[False]"

    def test_score_imports_no_study_code(self, panel, tmp_path):
        argv = ["score", "--model", str(panel / "run" / "models" / "deep_imaging.json"),
                "--clinical", str(panel / "clinical.csv"),
                "--features", str(panel / "features.csv"), "--out", str(tmp_path / "s.csv")]
        code = (
            "import sys\n"
            "from survfuse.cli import main\n"
            f"assert main({argv!r}) == 0\n"
            "print(sorted(m for m in ('survfuse.analysis', 'survfuse.synthetic', 'survfuse.svg')"
            " if m in sys.modules))\n"
        )
        done = run_python(code)
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[-1] == "[]"
