"""The feature CSV read that ``score`` and ``run`` start before they import
numpy: its row blocks are parsed on forked children and in the caller.

Every check runs with the read forked (two usable CPUs) and in this process
(one usable CPU): the two must give the same arrays, the same exit codes
and the same log lines, and no child may outlive a command.
"""

import csv
import hashlib
import json
import os
import random
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
from survfuse.feature_csv import FeatureRead, read_columns

from conftest import assert_no_child
from strategies import outcome, same_bits

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


@pytest.fixture(scope="module")
def forest_panel(panel):
    """``rsf_fused``'s artifacts (two 4-tree forests and their fusion),
    fitted on the panel's cohort."""
    cfg = panel / "forest_config.json"
    cfg.write_text(json.dumps({"bootstrap_resamples": 100, "rsf": {"n_trees": 4}}))
    out = panel / "forest_run"
    assert main(["run", "--clinical", str(panel / "clinical.csv"),
                 "--features", str(panel / "features.csv"), "--config", str(cfg),
                 "--models", "rsf_fused", "--out", str(out)]) == 0
    return out


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
    elif fault == "superscript_column":  # str.isdigit() holds, int() fails
        rows[0][rows[0].index("f1")] = "f\u00b2"
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
    "superscript_column": "invalid literal for int() with base 10: '\u00b2'",
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
        assert seen["forked"][0] == (2 if fault in ("undecodable", "superscript_column") else 1)

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
        # the parent parses the blocks itself and scores as it would have
        use_cpus(monkeypatch, 1)
        assert score(panel, tmp_path, panel / "features.csv") == 0
        want = (tmp_path / "s.csv").read_bytes()
        parent, parse = os.getpid(), feature_csv._Blocks.parse

        def dies_in_the_child(blocks, k):
            if os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
            return parse(blocks, k)

        def not_called(path):
            raise AssertionError("the file was read again whole")

        monkeypatch.setattr(feature_csv._Blocks, "parse", dies_in_the_child)
        monkeypatch.setattr(feature_csv, "read_columns", not_called)
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


# the fault planted in one data row of a generated feature CSV
BLOCK_FAULTS = ("none", "empty", "x", "nan", "inf", "1e309", "probability", "cell_count",
                "blank_line", "empty_id")


@st.composite
def block_cases(draw):
    """``(text, fault, rows)``: a feature CSV of d of 1-40 and 0-400 rows, LF or
    CRLF line ends, with or without a final one, ids with spaces and
    shuffled columns, with one fault of ``BLOCK_FAULTS`` planted at a random
    row. The cells come from a drawn seed, so large files draw fast."""
    d, n = draw(st.integers(1, 40)), draw(st.integers(0, 400))
    fault = draw(st.sampled_from(BLOCK_FAULTS[1:])) if n and draw(st.booleans()) else "none"
    at = draw(st.integers(0, max(n - 1, 0)))
    end = draw(st.sampled_from(["\n", "\r\n"]))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    header = ["patient_id", "acquisition_id", "pe_probability", *(f"f{k}" for k in range(d))]
    rng.shuffle(header)
    lines = [",".join(header)]
    for i in range(n):
        values = {"patient_id": rng.choice([f"P{i // 2}", f"P {i // 2}", f" P{i // 2} "]),
                  "acquisition_id": f"A{i % 2}",
                  "pe_probability": rng.choice(["0", "1", " 0.25", repr(rng.random())])}
        values.update({f"f{k}": rng.choice([repr(rng.gauss(0.0, 1e3)), str(rng.randint(-9, 9)),
                                            " 1.5 ", "1e-3", "-0"]) for k in range(d)})
        if i == at:
            if fault in ("empty", "x", "nan", "inf", "1e309"):
                values[f"f{rng.randrange(d)}"] = "" if fault == "empty" else fault
            elif fault == "probability":
                values["pe_probability"] = rng.choice(["1.5", "-0.1", "nan"])
            elif fault == "empty_id":
                values["patient_id"] = rng.choice(["", " "])
            elif fault == "blank_line":
                lines.append("")
        cells = [values[h] for h in header]
        if i == at and fault == "cell_count":
            cells = cells[:-1] if rng.random() < 0.5 else [*cells, "1"]
        lines.append(",".join(cells))
    text = end.join(lines)
    return (text + end if draw(st.booleans()) else text), fault, n


def read_in_blocks(path, block_bytes, workers):
    """``outcome`` of ``FeatureRead(path).result()``, with blocks of
    ``block_bytes`` on ``workers`` children; whether the file was cut into
    blocks, and whether ``read_columns`` ran in this process."""
    called = []

    def spy(path):
        called.append(path)
        return read_columns(path)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(feature_csv, "_BLOCK_BYTES", block_bytes)
        mp.setattr(feature_csv, "_FORK_MIN_BYTES", 0)
        mp.setattr(feature_csv, "usable_cpus", lambda: workers + 1)
        mp.setattr(feature_csv, "read_columns", spy)
        with FeatureRead(path) as read:
            cut = read._blocks is not None
            got = outcome(read.result)
    assert_no_child()
    return got, cut, bool(called)


def same_columns(got, want):
    """The same ids, probability bytes, cell bytes and width."""
    return (got[0] == want[0] and bytes(got[1]) == bytes(want[1])
            and bytes(got[2]) == bytes(want[2]) and got[3] == want[3])


class TestBlockReadParity:
    @settings(max_examples=60)
    @given(block_cases(), st.integers(64, 4096))
    def test_block_read_is_read_columns(self, case, block_bytes):
        text, fault, rows = case
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "f.csv"
            path.write_bytes(text.encode())
            want, want_error = outcome(read_columns, path)
            assert (want_error is None) == (fault == "none")
            for workers in (0, 1, 2):
                (got, error), cut, fell_back = read_in_blocks(path, block_bytes, workers)
                assert error == want_error
                assert cut == (rows > 0)
                # a well-formed file is parsed in blocks alone
                assert fell_back == (error is not None or not cut)
                assert error is not None or same_columns(got, want)

    # bytes csv.reader reads otherwise than a split at LF and commas, or not at all
    ODD_BODIES = {
        "lone_cr_line_ends": b"P1,A0,0.5,1.5\rP2,A0,0.5,2.5\r",
        "cr_in_a_cell": b"P1,A0,0.5,1.5\nP\r2,A0,0.5,2.5\n",
        "nul_in_an_id": b"P1,A0,0.5,1.5\nP\x002,A0,0.5,2.5\n",
        "long_id": b"P1,A0,0.5,1.5\n" + b"P" * 300 + b",A0,0.5,2.5\n",
        "undecodable_id": b"P1,A0,0.5,1.5\nP\xff,A0,0.5,2.5\n",
        "blank_last_line": b"P1,A0,0.5,1.5\n\n",
    }

    @pytest.mark.parametrize("body", sorted(ODD_BODIES))
    def test_what_csv_reads_otherwise_is_left_to_it(self, tmp_path, body):
        path = tmp_path / "f.csv"
        path.write_bytes(b"patient_id,acquisition_id,pe_probability,f0\n" + self.ODD_BODIES[body])
        limit = csv.field_size_limit(200)  # "long_id" exceeds it
        try:
            want, want_error = outcome(read_columns, path)
            for workers in (0, 1):
                (got, error), cut, fell_back = read_in_blocks(path, 64, workers)
                assert cut and fell_back and error == want_error
                assert error is not None or same_columns(got, want)
        finally:
            csv.field_size_limit(limit)

    @pytest.mark.parametrize("workers", [0, 1, 2])
    def test_quoted_fields_read_the_file_whole(self, tmp_path, workers):
        # quoted ids, and quoted acquisition ids spanning a line end, which a
        # cut at that line end would split
        lines = ["patient_id,acquisition_id,pe_probability,f0,f1"]
        lines += [f'"P {i}","A{i}\nscan",0.5,{i / 7!r},-0' for i in range(200)]
        path = tmp_path / "f.csv"
        path.write_text("\n".join(lines) + "\n")
        want = read_columns(path)
        assert want[0][1] == "P 1" and len(want[0]) == 200
        (got, error), cut, _ = read_in_blocks(path, 64, workers)
        assert error is None and not cut and same_columns(got, want)

    @pytest.mark.parametrize("workers", [0, 1])
    def test_other_encodings_read_the_file_whole(self, tmp_path, monkeypatch, workers):
        # a file whose open() codec is not one of _BLOCK_CODECS, here UTF-8
        # (or the locale's), is left to read_columns
        monkeypatch.setattr(feature_csv, "_BLOCK_CODECS", ("ascii",))
        path = tmp_path / "f.csv"
        path.write_text("patient_id,acquisition_id,pe_probability,f0\nP\u00e9,A0,0.5,2.5\n",
                        encoding="utf-8")
        (got, error), cut, _ = read_in_blocks(path, 64, workers)
        assert error is None and not cut and same_columns(got, read_columns(path))



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

    def test_score_loads_no_openssl(self, panel, tmp_path):
        # hashlib loads OpenSSL's libcrypto, about 3.6 MB of resident memory,
        # and only run's fingerprints use it
        argv = ["score", "--model", str(panel / "run" / "models" / "deep_imaging.json"),
                "--clinical", str(panel / "clinical.csv"),
                "--features", str(panel / "features.csv"), "--out", str(tmp_path / "s.csv")]
        code = (
            "import sys\n"
            "import survfuse.cli, survfuse.config, survfuse.artifacts\n"
            "from survfuse.cli import main\n"
            f"assert main({argv!r}) == 0\n"
            "print(sorted(m for m in ('hashlib', '_hashlib') if m in sys.modules))\n"
        )
        done = run_python(code)
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[-1] == "[]"

    def test_run_writes_the_same_fingerprints(self, panel):
        # the digest of the panel's config, as run wrote it when hashlib was
        # imported with the config module
        report = json.loads((panel / "run" / "report.json").read_text())
        assert report["config_fingerprint"] == (
            "2c6f6d587b07ab31db0462dab57cc5d14f7a6804f0cd41a7f904926e14ae4111")
        data = (panel / "clinical.csv").read_bytes() + (panel / "features.csv").read_bytes()
        artifact = json.loads((panel / "run" / "models" / "deep_imaging.json").read_text())
        assert artifact["metadata"] == {"data_fingerprint": hashlib.sha256(data).hexdigest(),
                                        "seed": 0}

    # per artifact: the run that wrote it, the model modules its score call
    # loads and those it must not load; no score call loads the study code
    @pytest.mark.parametrize("kind, run, loaded, unloaded", [
        ("deep_imaging", "run", ["deep_survival"], ["rsf", "cox_linear", "metrics", "config"]),
        ("rsf_imaging", "forest_run", ["rsf"],
         ["deep_survival", "cox_linear", "metrics", "config"]),
        ("fusion_rsf", "forest_run", ["rsf", "cox_linear", "fusion"],
         ["deep_survival", "metrics", "config"]),
    ])
    def test_score_loads_only_its_artifacts_model_code(self, forest_panel, panel, tmp_path,
                                                       kind, run, loaded, unloaded):
        argv = ["score", "--model", str(panel / run / "models" / f"{kind}.json"),
                "--clinical", str(panel / "clinical.csv"),
                "--features", str(panel / "features.csv"), "--out", str(tmp_path / "s.csv")]
        names = loaded + unloaded + ["analysis", "svg", "synthetic"]
        code = (
            "import sys\n"
            "from survfuse.cli import main\n"
            f"assert main({argv!r}) == 0\n"
            f"print(sorted(m for m in {names!r} if 'survfuse.' + m in sys.modules))\n"
        )
        done = run_python(code)
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[-1] == str(sorted(loaded))

    def test_artifacts_module_loads_no_model_code(self):
        done = run_python(
            "import sys, survfuse.artifacts\n"
            "print(sorted(m for m in ('deep_survival', 'rsf', 'cox_linear', 'fusion', 'metrics')"
            " if 'survfuse.' + m in sys.modules))\n")
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "[]"

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
