import csv
import dataclasses
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import survfuse
from survfuse import cli, dataset, deep_survival, rsf
from survfuse.cli import (
    build_parser,
    cmd_score,
    config_fingerprint,
    effective_config,
    load_config,
    main,
)
from survfuse.errors import InvalidConfigError
from survfuse.kinds import MODEL_KINDS
from survfuse.metrics import KmPoint
from survfuse.svg import render_km_svg

from conftest import assert_no_child

SMALL_RUN_CONFIG = {
    "split": [0.7, 0.1, 0.2],
    "bootstrap_resamples": 100,
    "deep_clinical": {"hidden_dims": [4], "epochs": 25, "learning_rate": 0.05},
    "deep_imaging": {"hidden_dims": [4], "epochs": 25, "learning_rate": 0.05},
    "rsf": {"n_trees": 8, "min_leaf_size": 10},
    "generate": {"n": 120, "img_dim": 6, "baseline_rate": 0.02},
}


def write_config(tmp_path, extra=None):
    cfg = dict(SMALL_RUN_CONFIG)
    if extra:
        cfg.update(extra)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def _numbers(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False) | st.integers(
        math.ceil(lo), math.floor(hi))


def _section(**fields):
    return st.fixed_dictionaries({}, optional=fields)


_NETWORK = _section(
    hidden_dims=st.lists(st.integers(1, 64), min_size=1, max_size=3),
    learning_rate=_numbers(1e-6, 1.0), epochs=st.integers(1, 1000),
    weight_decay=_numbers(0.0, 1.0), patience=st.integers(0, 100))


@st.composite
def valid_configs(draw):
    """A partial config of valid values, as a config file might hold it."""
    fixed = draw(st.booleans())
    return draw(_section(
        seed=st.integers(0, 2 ** 64 - 1),
        clinical=st.none() | st.text(max_size=8),
        features=st.none() | st.text(max_size=8),
        out=st.none() | st.text(max_size=8),
        split=st.sampled_from([[0.7, 0.1, 0.2], [0.5, 0.25, 0.25], [0.6, 0.2, 0.2]]),
        models=st.lists(st.sampled_from(MODEL_KINDS), min_size=1, unique=True),
        bootstrap_resamples=st.integers(100, 5000),
        nri_threshold=st.floats(0.01, 0.99),
        stratification=st.fixed_dictionaries(
            {"method": st.just("fixed"), "threshold": _numbers(-1e6, 1e6)}) if fixed else
        _section(method=st.just("median"), threshold=st.none() | _numbers(-1e6, 1e6)),
        deep_clinical=_NETWORK,
        deep_imaging=_NETWORK,
        rsf=_section(n_trees=st.integers(1, 500), mtry=st.none() | st.integers(1, 64),
                     min_leaf_size=st.integers(1, 50)),
        fusion_ridge=_numbers(0.0, 10.0),
        generate=_section(
            n=st.integers(10, 10 ** 6), img_dim=st.integers(1, 256),
            latent_weights=st.lists(_numbers(-5.0, 5.0), min_size=2, max_size=2),
            noise_scale=_numbers(0.0, 5.0),
            baseline_rate=_numbers(1e-6, 1.0),
            censor_rate=_numbers(0.0, 1.0), max_acquisitions=st.integers(1, 10),
            missing_rate=st.floats(0.0, 0.99)),
    ))


class TestEffectiveConfig:
    def test_defaults_fill_everything(self):
        cfg = effective_config({})
        assert cfg["seed"] == 0
        assert cfg["split"] == [0.7, 0.1, 0.2]
        assert cfg["deep_imaging"]["hidden_dims"] == [64]

    def test_editing_the_result_leaves_the_defaults(self):
        cfg = effective_config({})
        cfg["deep_clinical"]["hidden_dims"].append(5)
        cfg["generate"]["latent_weights"][0] = 9.0
        cfg["models"].pop()
        fresh = effective_config({})
        assert fresh["deep_clinical"]["hidden_dims"] == [32]
        assert fresh["generate"]["latent_weights"] == [1.0, 1.0]
        assert fresh["models"] == list(MODEL_KINDS)

    def test_partial_section_merges_with_defaults(self):
        cfg = effective_config({"deep_clinical": {"epochs": 10}})
        assert cfg["deep_clinical"]["epochs"] == 10
        assert cfg["deep_clinical"]["hidden_dims"] == [32]  # untouched default

    @pytest.mark.parametrize("raw,path_part", [
        ({"unknown_key": 1}, "unknown_key"),
        ({"split": [0.5, 0.2, 0.2]}, "split"),
        ({"split": [0.7, 0.1]}, "split"),
        ({"seed": "zero"}, "seed"),
        ({"seed": -1}, "seed"),
        ({"models": ["pesi", "pesi"]}, "models"),
        ({"models": ["boost"]}, "models"),
        ({"models": []}, "models"),
        ({"bootstrap_resamples": 50}, "bootstrap_resamples"),
        ({"nri_threshold": 1.5}, "nri_threshold"),
        ({"stratification": {"method": "fixed"}}, "stratification.threshold"),
        ({"stratification": {"method": "tertile"}}, "stratification.method"),
        ({"deep_clinical": {"hidden_dims": []}}, "hidden_dims"),
        ({"deep_clinical": {"hidden_dims": [0]}}, "hidden_dims"),
        ({"deep_clinical": {"wrong": 1}}, "deep_clinical.wrong"),
        ({"rsf": {"n_trees": 0}}, "rsf.n_trees"),
        ({"fusion_ridge": -1.0}, "fusion_ridge"),
        ({"truncate_30day": True}, "truncate_30day"),  # a removed key is unknown
        ({"generate": {"n": 5}}, "generate.n"),
        ({"generate": {"missing_rate": 1.0}}, "generate.missing_rate"),
        # JSON booleans are not integers
        ({"seed": True}, "seed"),
        ({"bootstrap_resamples": True}, "bootstrap_resamples"),
        ({"deep_clinical": {"hidden_dims": [True]}}, "deep_clinical.hidden_dims"),
        ({"deep_clinical": {"epochs": True}}, "deep_clinical.epochs"),
        ({"deep_imaging": {"patience": False}}, "deep_imaging.patience"),
        ({"rsf": {"n_trees": True}}, "rsf.n_trees"),
        ({"rsf": {"mtry": True}}, "rsf.mtry"),
        ({"rsf": {"min_leaf_size": True}}, "rsf.min_leaf_size"),
        ({"generate": {"n": True}}, "generate.n"),
        ({"generate": {"img_dim": True}}, "generate.img_dim"),
        ({"generate": {"max_acquisitions": True}}, "generate.max_acquisitions"),
        # json.load parses NaN and Infinity; no setting takes them
        ({"stratification": {"method": "fixed", "threshold": float("nan")}},
         "stratification.threshold"),
        ({"deep_clinical": {"learning_rate": float("inf")}}, "deep_clinical.learning_rate"),
        ({"generate": {"noise_scale": float("inf")}}, "generate.noise_scale"),
        ({"stratification": {"method": "fixed", "threshold": float("nan")}},
         "stratification.threshold: must be a finite number for fixed stratification"),
    ])
    def test_validation_names_the_field(self, raw, path_part):
        with pytest.raises(InvalidConfigError) as err:
            effective_config(raw)
        assert path_part in str(err.value)

    @settings(max_examples=200, deadline=None)
    @given(valid_configs())
    def test_checking_twice_changes_nothing(self, raw):
        cfg = effective_config(raw)
        again = effective_config(cfg)
        assert again == cfg
        assert config_fingerprint(again) == config_fingerprint(cfg)

    def test_non_finite_config_file_exits_1(self, tmp_path, caplog):
        path = tmp_path / "nan.json"
        path.write_text('{"stratification": {"method": "fixed", "threshold": NaN}}')
        assert main(["run", "--config", str(path), "--clinical", str(tmp_path / "c.csv"),
                     "--out", str(tmp_path / "out")]) == 1
        assert "stratification.threshold" in caplog.text
        assert not (tmp_path / "out").exists()

    def test_flag_overrides_win(self):
        parser = build_parser()
        args = parser.parse_args(["run", "--seed", "9", "--models", "pesi,deep_clinical",
                                  "--out", "/tmp/x"])
        cfg = effective_config({"seed": 2}, args)
        assert cfg["seed"] == 9
        assert cfg["models"] == ["pesi", "deep_clinical"]
        assert cfg["out"] == "/tmp/x"

    def test_load_config_errors(self, tmp_path):
        with pytest.raises(InvalidConfigError, match="cannot read"):
            load_config(tmp_path / "absent.json")
        bad = tmp_path / "bad.json"
        bad.write_text("[1, 2]")
        with pytest.raises(InvalidConfigError, match="JSON object"):
            load_config(bad)


class TestConfigFingerprint:
    def test_stable_and_sensitive(self):
        a = config_fingerprint(effective_config({}))
        b = config_fingerprint(effective_config({}))
        assert a == b
        c = config_fingerprint(effective_config({"seed": 1}))
        assert a != c

    def test_ignores_paths_and_generation(self):
        base = config_fingerprint(effective_config({}))
        moved = config_fingerprint(effective_config(
            {"clinical": "/data/c.csv", "features": "/data/f.csv", "out": "/tmp/run7"}))
        assert moved == base
        regen = config_fingerprint(effective_config({"generate": {"n": 500}}))
        assert regen == base

    def test_tracks_analysis_fields(self):
        base = config_fingerprint(effective_config({}))
        assert config_fingerprint(effective_config({"nri_threshold": 0.6})) != base
        assert config_fingerprint(effective_config({"rsf": {"n_trees": 7}})) != base


class TestGenerate:
    def test_writes_cohort(self, tmp_path, capsys):
        out = tmp_path / "cohort"
        code = main(["generate", "--out", str(out), "--n", "100", "--seed", "5"])
        assert code == 0
        lines = (out / "clinical.csv").read_text().splitlines()
        assert len(lines) == 101
        assert (out / "features.csv").exists()
        assert "clinical.csv" in capsys.readouterr().out

    def test_rerun_is_byte_identical(self, tmp_path):
        out = tmp_path / "cohort"
        main(["generate", "--out", str(out), "--n", "60", "--seed", "5"])
        first = (out / "clinical.csv").read_bytes(), (out / "features.csv").read_bytes()
        main(["generate", "--out", str(out), "--n", "60", "--seed", "5"])
        assert (out / "clinical.csv").read_bytes() == first[0]
        assert (out / "features.csv").read_bytes() == first[1]

    def test_missing_out_is_validation_error(self):
        assert main(["generate", "--n", "50"]) == 1


@pytest.fixture(scope="module")
def cohort(tmp_path_factory):
    root = tmp_path_factory.mktemp("cohort")
    code = main(["generate", "--out", str(root), "--n", "120", "--seed", "11",
                 "--config", write_config(root)])
    assert code == 0
    return root


@pytest.fixture(scope="module")
def run_result(cohort, tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    cfg = write_config(out)
    code = main(["run", "--config", cfg,
                 "--clinical", str(cohort / "clinical.csv"),
                 "--features", str(cohort / "features.csv"),
                 "--seed", "11", "--out", str(out)])
    assert code == 0
    return out, cfg


@pytest.fixture(scope="module")
def narrow_cohort(tmp_path_factory):
    """A cohort with 3 imaging features per patient, where ``cohort`` has 6."""
    root = tmp_path_factory.mktemp("narrow")
    cfg = write_config(root, {"generate": {**SMALL_RUN_CONFIG["generate"], "img_dim": 3}})
    assert main(["generate", "--out", str(root), "--seed", "12", "--config", cfg]) == 0
    return root


def with_cell(src, dst, line, column, token):
    """Copy of the CSV ``src`` with ``column`` of file line ``line`` (the
    header is line 0) set to ``token``."""
    with open(src, newline="") as fh:
        rows = list(csv.reader(fh))
    rows[line][rows[0].index(column)] = token
    with open(dst, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    return dst


class TestRun:
    def test_report_has_exactly_the_seven_keys(self, run_result):
        out, _ = run_result
        doc = json.loads((out / "report.json").read_text())
        assert set(doc.keys()) == {"overall", "short_term", "nri", "km",
                                   "rv_analysis", "comparisons", "config_fingerprint"}
        assert len(doc["overall"]["test"]) == 6
        assert len(doc["short_term"]["test"]) == 5

    def test_report_keys_are_the_study_report_fields(self):
        from survfuse.analysis import StudyReport

        names = tuple(f.name for f in dataclasses.fields(StudyReport))
        assert cli._REPORT_KEYS == (*names, "config_fingerprint")

    def test_km_files_per_model(self, run_result):
        out, _ = run_result
        doc = json.loads((out / "report.json").read_text())
        for kind in doc["km"]:
            assert (out / f"km_{kind}.svg").exists()
            assert (out / f"km_{kind}.csv").exists()

    def test_svg_steps_equal_csv_rows(self, run_result):
        out, _ = run_result
        for svg_path in out.glob("km_*.svg"):
            csv_path = svg_path.with_suffix(".csv")
            svg_text = svg_path.read_text()
            attr = re.search(r'data-steps="([^"]*)"', svg_text).group(1)
            pairs = []
            for group_part in attr.split(";"):
                name, _, body = group_part.partition(":")
                for token in body.split():
                    t, s = token.split(",")
                    pairs.append((name, t, s))
            with open(csv_path, newline="") as fh:
                rows = [(r["group"], r["time"], r["survival"]) for r in csv.DictReader(fh)]
            assert pairs == rows

    def test_model_artifacts_written(self, run_result):
        out, _ = run_result
        names = sorted(p.name for p in (out / "models").glob("*.json"))
        assert names == [
            "deep_clinical.json", "deep_imaging.json", "fusion_multimodal.json",
            "fusion_pesi_fused.json", "fusion_rsf.json", "rsf_clinical.json",
            "rsf_imaging.json",
        ]

    # the artifacts a run of one model kind writes, in write order
    @pytest.mark.parametrize("kind,written", [
        ("pesi", []),
        ("deep_clinical", ["deep_clinical"]),
        ("deep_imaging", ["deep_imaging"]),
        ("deep_multimodal", ["deep_clinical", "deep_imaging", "fusion_multimodal"]),
        ("deep_pesi_fused", ["deep_clinical", "deep_imaging", "fusion_pesi_fused"]),
        ("rsf_fused", ["rsf_clinical", "rsf_imaging", "fusion_rsf"]),
    ])
    def test_each_model_kind_writes_its_artifacts(self, cohort, tmp_path, capsys, kind, written):
        out = tmp_path / kind
        code = main(["run", "--config", write_config(tmp_path),
                     "--clinical", str(cohort / "clinical.csv"),
                     "--features", str(cohort / "features.csv"),
                     "--models", kind, "--seed", "11", "--out", str(out)])
        assert code == 0
        models = out / "models"
        assert sorted(p.stem for p in models.glob("*.json")) == sorted(written)
        printed = [line.split()[1] for line in capsys.readouterr().out.splitlines()
                   if line.startswith(f"wrote {models}")]
        assert printed == [str(models / f"{k}.json") for k in written]

    def test_reruns_into_fresh_dir_byte_identical(self, cohort, run_result, tmp_path):
        first_out, cfg = run_result
        second_out = tmp_path / "again"
        code = main(["run", "--config", cfg,
                     "--clinical", str(cohort / "clinical.csv"),
                     "--features", str(cohort / "features.csv"),
                     "--seed", "11", "--out", str(second_out)])
        assert code == 0
        assert (second_out / "report.json").read_bytes() == \
            (first_out / "report.json").read_bytes()

    def test_imaging_models_without_features_fail_validation(self, cohort, tmp_path):
        out = tmp_path / "nofeat"
        code = main(["run", "--config", write_config(tmp_path),
                     "--clinical", str(cohort / "clinical.csv"),
                     "--seed", "11", "--out", str(out)])
        assert code == 1

    def test_clinical_only_subset_without_features_succeeds(self, cohort, tmp_path):
        out = tmp_path / "clinonly"
        code = main(["run", "--config", write_config(tmp_path),
                     "--clinical", str(cohort / "clinical.csv"),
                     "--models", "pesi,deep_clinical",
                     "--seed", "11", "--out", str(out)])
        assert code == 0
        doc = json.loads((out / "report.json").read_text())
        assert set(doc["overall"]["test"].keys()) == {"pesi", "deep_clinical"}

    def test_patient_without_features_is_validation_error(self, cohort, tmp_path, caplog):
        with open(cohort / "features.csv", newline="") as fh:
            rows = [r for r in csv.reader(fh) if r[0] not in ("P00004", "P00009")]
        with open(tmp_path / "f.csv", "w", newline="") as fh:
            csv.writer(fh).writerows(rows)
        code = main(["run", "--config", write_config(tmp_path),
                     "--clinical", str(cohort / "clinical.csv"), "--features",
                     str(tmp_path / "f.csv"), "--models", "deep_imaging",
                     "--out", str(tmp_path / "out")])
        assert code == 1
        assert ("2 patient(s) lack imaging features (e.g. 'P00004') "
                "but an imaging model was requested") in caplog.text

    def test_non_finite_feature_cell_is_validation_error(self, cohort, tmp_path, caplog):
        features = with_cell(cohort / "features.csv", tmp_path / "f.csv", 5, "f0", "inf")
        code = main(["run", "--config", write_config(tmp_path),
                     "--clinical", str(cohort / "clinical.csv"), "--features", str(features),
                     "--models", "deep_imaging", "--out", str(tmp_path / "out")])
        assert code == 1
        assert "row 4: feature cells must all be finite" in caplog.text

    def test_missing_clinical_file(self, tmp_path):
        code = main(["run", "--clinical", str(tmp_path / "ghost.csv"),
                     "--out", str(tmp_path / "o")])
        assert code == 1

    def test_truncate_flag_refused(self, cohort, tmp_path, capsys, caplog):
        # the report always has the 30-day table; the flag and the config key
        # that once asked for it are refused like any unknown option
        out = tmp_path / "trunc"
        inputs = ["--clinical", str(cohort / "clinical.csv"),
                  "--features", str(cohort / "features.csv"), "--models", "pesi"]
        assert main(["run", "--config", write_config(tmp_path), *inputs, "--truncate-30d",
                     "--out", str(out)]) == 1
        assert "unrecognized arguments: --truncate-30d" in capsys.readouterr().err
        assert main(["run", "--config", write_config(tmp_path, {"truncate_30day": True}),
                     *inputs, "--out", str(out)]) == 1
        assert "truncate_30day: unknown field" in caplog.text
        assert not out.exists()

    def test_diverged_network_stops_the_pending_forests(self, cohort, tmp_path, monkeypatch,
                                                        caplog, forks):
        # the forests start on the pool before the networks train; the
        # clinical network's weights overflow (see test_diverged_loss_raises)
        monkeypatch.setattr(rsf, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(rsf, "_POOL_MIN_WORK", 0)
        started = []
        start_forests = rsf.start_forests

        def spy(fits):
            pending = start_forests(fits)
            started.append(len(forks))
            return pending

        monkeypatch.setattr(rsf, "start_forests", spy)
        cfg = write_config(tmp_path, {"deep_clinical": {"hidden_dims": [4], "epochs": 50,
                                                        "learning_rate": 1e12,
                                                        "weight_decay": 1.0}})
        with np.errstate(over="ignore", invalid="ignore"):
            code = main(["run", "--config", cfg,
                         "--clinical", str(cohort / "clinical.csv"),
                         "--features", str(cohort / "features.csv"),
                         "--seed", "11", "--out", str(tmp_path / "out")])
        assert code == 2
        assert "[study] parameters overflowed during training" in caplog.text \
            or "[study] training loss became" in caplog.text
        assert started == [1]
        assert_no_child()


def test_outputs_do_not_depend_on_blas_threads(tmp_path):
    """``run`` writes the same bytes with one OpenBLAS thread as with its
    default thread count. The training split of 560 subjects is larger than
    ``_SUBJECT_BLOCK``: a weight gradient over all of them in one product
    rounded differently with one thread than with two. On a one-CPU machine
    both runs use one thread and this shows nothing."""
    assert 560 > deep_survival._SUBJECT_BLOCK + 1
    cohort = tmp_path / "cohort"
    assert main(["generate", "--out", str(cohort), "--n", "800", "--seed", "3"]) == 0
    cfg = tmp_path / "config.json"
    hyper = {"epochs": 30, "patience": 30}
    cfg.write_text(json.dumps({"bootstrap_resamples": 100, "rsf": {"n_trees": 4},
                               "deep_clinical": hyper, "deep_imaging": hyper}))
    src = str(Path(survfuse.__file__).resolve().parents[1])
    outs = []
    for threads in ("1", None):
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        if threads is not None:
            env["OPENBLAS_NUM_THREADS"] = threads
        out = tmp_path / f"threads_{threads or 'default'}"
        subprocess.run([sys.executable, "-m", "survfuse.cli", "run",
                        "--clinical", str(cohort / "clinical.csv"),
                        "--features", str(cohort / "features.csv"),
                        "--config", str(cfg), "--out", str(out)],
                       env=env, check=True, capture_output=True)
        outs.append(out)
    names = sorted(["report.json"] + [f"models/{p.name}" for p in (outs[0] / "models").iterdir()])
    assert len(names) == 8
    for name in names:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name


class TestScore:
    def test_round_trip_matches_run_scores(self, cohort, run_result, tmp_path):
        out, _ = run_result
        scored = tmp_path / "scored.csv"
        code = main(["score", "--model", str(out / "models" / "fusion_multimodal.json"),
                     "--clinical", str(cohort / "clinical.csv"),
                     "--features", str(cohort / "features.csv"),
                     "--out", str(scored)])
        assert code == 0
        with open(scored, newline="") as fh:
            rows = {r["patient_id"]: float(r["risk_score"]) for r in csv.DictReader(fh)}
        assert len(rows) == 120
        # the report's RV table carries the pipeline's linear multimodal
        # risk for every test-split patient; scoring must reproduce it
        doc = json.loads((out / "report.json").read_text())
        for p in doc["rv_analysis"]["patients"]:
            assert abs(rows[p["patient_id"]] - p["risk_linear"]) <= 1e-10

    def test_score_includes_severity_columns(self, cohort, run_result, tmp_path):
        out, _ = run_result
        scored = tmp_path / "scored.csv"
        main(["score", "--model", str(out / "models" / "deep_clinical.json"),
              "--clinical", str(cohort / "clinical.csv"),
              "--out", str(scored)])
        with open(scored, newline="") as fh:
            reader = csv.DictReader(fh)
            assert reader.fieldnames == ["patient_id", "risk_score", "pesi_score", "pesi_class"]
            row = next(reader)
            assert row["pesi_class"] in "I II III IV V".split()
            assert 0.0 < float(row["risk_score"]) < 1.0

    def test_empty_clinical_writes_header_only(self, run_result, tmp_path):
        out, _ = run_result
        empty = tmp_path / "empty.csv"
        header = ("patient_id,age,sex,heart_rate,systolic_bp,respiratory_rate,"
                  "temperature_c,altered_mental_status,cancer,heart_failure,"
                  "chronic_lung_disease,o2_sat,event,time_days,rv_dysfunction\n")
        empty.write_text(header)
        scored = tmp_path / "scored.csv"
        code = main(["score", "--model", str(out / "models" / "deep_clinical.json"),
                     "--clinical", str(empty), "--out", str(scored)])
        assert code == 0
        assert scored.read_bytes() == b"patient_id,risk_score,pesi_score,pesi_class\r\n"

    def test_renamed_column_is_schema_error(self, cohort, run_result, tmp_path, caplog):
        out, _ = run_result
        mangled = tmp_path / "renamed.csv"
        text = (cohort / "clinical.csv").read_text()
        mangled.write_text(text.replace("patient_id", "subject", 1))
        code = main(["score", "--model", str(out / "models" / "deep_clinical.json"),
                     "--clinical", str(mangled), "--out", str(tmp_path / "s.csv")])
        assert code == 1
        assert "patient_id" in caplog.text

    def test_imaging_artifact_requires_features(self, cohort, run_result, tmp_path, caplog):
        out, _ = run_result
        for kind in ("deep_imaging", "rsf_imaging", "fusion_multimodal", "fusion_pesi_fused",
                     "fusion_rsf"):
            code = main(["score", "--model", str(out / "models" / f"{kind}.json"),
                         "--clinical", str(cohort / "clinical.csv"),
                         "--out", str(tmp_path / "s.csv")])
            assert code == 1
            assert f"required for {kind} artifacts" in caplog.text
            assert not (tmp_path / "s.csv").exists()

    def test_clinical_artifacts_score_without_features(self, cohort, run_result, tmp_path):
        out, _ = run_result
        for kind in ("deep_clinical", "rsf_clinical"):
            scored = tmp_path / f"{kind}.csv"
            code = main(["score", "--model", str(out / "models" / f"{kind}.json"),
                         "--clinical", str(cohort / "clinical.csv"), "--out", str(scored)])
            assert code == 0
            assert len(scored.read_text().splitlines()) == 121

    @pytest.mark.parametrize("model", ["deep_imaging", "rsf_imaging", "fusion_rsf"])
    @pytest.mark.parametrize("token", ["nan", "inf", "-inf"])
    def test_non_finite_feature_cell_is_validation_error(self, cohort, run_result, tmp_path,
                                                         caplog, model, token):
        out, _ = run_result
        features = with_cell(cohort / "features.csv", tmp_path / "f.csv", 3, "f1", token)
        code = main(["score", "--model", str(out / "models" / f"{model}.json"),
                     "--clinical", str(cohort / "clinical.csv"), "--features", str(features),
                     "--out", str(tmp_path / "s.csv")])
        assert code == 1
        assert "row 2: feature cells must all be finite" in caplog.text
        assert not (tmp_path / "s.csv").exists()

    @pytest.mark.parametrize("column", ["age", "heart_rate", "o2_sat"])
    def test_non_finite_clinical_cell_is_validation_error(self, cohort, run_result, tmp_path,
                                                          caplog, column):
        out, _ = run_result
        clinical = with_cell(cohort / "clinical.csv", tmp_path / "c.csv", 2, column, "nan")
        code = main(["score", "--model", str(out / "models" / "deep_clinical.json"),
                     "--clinical", str(clinical), "--out", str(tmp_path / "s.csv")])
        assert code == 1
        assert f"row 1: {column} must be a finite number, got 'nan'" in caplog.text

    def test_score_and_run_share_the_cohort_functions(self, cohort, run_result, tmp_path,
                                                       monkeypatch):
        # both commands hold the cohort as one column Dataset, and ingest,
        # join, impute and form the model inputs with the same functions
        from survfuse import analysis, pesi

        called = []
        for module, name in [(dataset, "ingest_clinical"), (dataset, "attach_imaging"),
                             (dataset, "apply_imputation"), (dataset, "clinical_matrix"),
                             (dataset, "imaging_matrix"), (pesi, "pesi_scores")]:
            def spy(*args, fn=getattr(module, name), name=name, **kwargs):
                called.append(name)
                return fn(*args, **kwargs)
            for home in (module, analysis):
                if hasattr(home, name):
                    monkeypatch.setattr(home, name, spy)
        out, cfg = run_result
        code = main(["score", "--model", str(out / "models" / "fusion_pesi_fused.json"),
                     "--clinical", str(cohort / "clinical.csv"),
                     "--features", str(cohort / "features.csv"),
                     "--out", str(tmp_path / "s.csv")])
        assert code == 0
        scored = sorted(set(called))
        called.clear()
        code = main(["run", "--config", cfg, "--clinical", str(cohort / "clinical.csv"),
                     "--features", str(cohort / "features.csv"), "--models", "pesi,deep_imaging",
                     "--seed", "11", "--out", str(tmp_path / "run")])
        assert code == 0
        assert scored == sorted(set(called)) == [
            "apply_imputation", "attach_imaging", "clinical_matrix", "imaging_matrix",
            "ingest_clinical", "pesi_scores"]

    def test_missing_cells_are_imputed_with_the_artifact_constants(self, tmp_path):
        # a cohort with missing cells, fitted and scored: every risk is a number
        root = tmp_path / "cohort"
        cfg = write_config(tmp_path, {"generate": {**SMALL_RUN_CONFIG["generate"],
                                                   "missing_rate": 0.2}})
        assert main(["generate", "--config", cfg, "--out", str(root)]) == 0
        assert main(["run", "--config", cfg, "--clinical", str(root / "clinical.csv"),
                     "--models", "pesi,deep_clinical", "--out", str(tmp_path / "run")]) == 0
        out = tmp_path / "s.csv"
        assert main(["score", "--model", str(tmp_path / "run" / "models" / "deep_clinical.json"),
                     "--clinical", str(root / "clinical.csv"), "--out", str(out)]) == 0
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 120
        assert all(np.isfinite(float(r["risk_score"])) for r in rows)

    def test_artifact_with_zero_age_std_is_schema_error(self, cohort, run_result, tmp_path,
                                                        caplog):
        out, _ = run_result
        doc = json.loads((out / "models" / "deep_clinical.json").read_text())
        doc["imputation"]["age_std"] = 0
        artifact = tmp_path / "zero_std.json"
        artifact.write_text(json.dumps(doc))
        code = main(["score", "--model", str(artifact), "--clinical", str(cohort / "clinical.csv"),
                     "--out", str(tmp_path / "s.csv")])
        assert code == 1
        assert "has malformed imputation constants: age_std must be positive, got 0.0" \
            in caplog.text
        assert not (tmp_path / "s.csv").exists()

    @pytest.mark.parametrize("model", ["deep_imaging", "fusion_multimodal", "fusion_rsf"])
    def test_patient_without_features_is_validation_error(self, cohort, run_result, tmp_path,
                                                          caplog, model):
        out, _ = run_result
        with open(cohort / "features.csv", newline="") as fh:
            rows = [r for r in csv.reader(fh) if r[0] not in ("P00004", "P00009")]
        rows.append(["X1", "A0", "0.5", *rows[1][3:]])
        with open(tmp_path / "f.csv", "w", newline="") as fh:
            csv.writer(fh).writerows(rows)
        code = main(["score", "--model", str(out / "models" / f"{model}.json"),
                     "--clinical", str(cohort / "clinical.csv"),
                     "--features", str(tmp_path / "f.csv"), "--out", str(tmp_path / "s.csv")])
        assert code == 1
        assert "feature CSV has 1 patient(s) not in the cohort: X1" in caplog.text
        assert "2 patient(s) lack imaging features (e.g. 'P00004')" in caplog.text

    # the component that reads the imaging matrix, and its width, by artifact kind
    @pytest.mark.parametrize("model, tag, width", [
        ("deep_imaging", "img", "expects 6 inputs"),
        ("rsf_imaging", "rsf_img", "has 6 features"),
        ("fusion_multimodal", "img", "expects 6 inputs"),
        ("fusion_rsf", "rsf_img", "has 6 features"),
    ])
    def test_feature_width_mismatch_is_schema_error(self, run_result, narrow_cohort, tmp_path,
                                                    caplog, model, tag, width):
        out, _ = run_result
        code = main(["score", "--model", str(out / "models" / f"{model}.json"),
                     "--clinical", str(narrow_cohort / "clinical.csv"),
                     "--features", str(narrow_cohort / "features.csv"),
                     "--out", str(tmp_path / "s.csv")])
        assert code == 1
        assert (f"[score] the {tag} component does not fit the input: model {width}, "
                "X has shape (120, 3)") in caplog.text
        assert not (tmp_path / "s.csv").exists()

    @pytest.mark.parametrize("kind, edit, message", [
        pytest.param("fusion_multimodal",
                     lambda comps, forests: comps.update(img=forests["rsf_img"]),
                     "component 'img' has type 'forest', not 'mlp'", id="forest-under-img"),
        pytest.param("fusion_multimodal",
                     lambda comps, forests: comps.update(rsf_img=forests["rsf_img"], img=None),
                     "components ['clin', 'rsf_img'] are not the fusion's fitted sources "
                     "['clin', 'img']", id="forest-for-img"),
        pytest.param("fusion_multimodal",
                     lambda comps, forests: comps.update(rsf_clin=forests["rsf_clin"]),
                     "components ['clin', 'img', 'rsf_clin'] are not the fusion's fitted sources",
                     id="extra-forest"),
        pytest.param("fusion_multimodal", lambda comps, forests: comps.update(img=None),
                     "components ['clin'] are not the fusion's fitted sources", id="missing-img"),
        pytest.param("fusion_pesi_fused", lambda comps, forests: comps.update(pesi=comps["clin"]),
                     "components ['clin', 'img', 'pesi'] are not the fusion's fitted sources "
                     "['clin', 'img']", id="pesi-component"),
        pytest.param("fusion_rsf", lambda comps, forests: comps.update(ct=comps["rsf_img"],
                                                                       rsf_img=None),
                     "components ['ct', 'rsf_clin'] are not the fusion's fitted sources "
                     "['rsf_clin', 'rsf_img']", id="unknown-tag"),
        pytest.param("fusion_rsf", lambda comps, forests: comps["rsf_img"].update(type="tree"),
                     "component 'rsf_img' has type 'tree', not 'forest'", id="unknown-type"),
        pytest.param("fusion_multimodal",
                     lambda comps, forests: (comps["img"]["model"].update(modality_tag="pesi"),
                                             comps["clin"]["model"].update(modality_tag="img")),
                     "the network held under 'clin' has modality_tag 'img'",
                     id="swapped-modality-tags"),
    ])
    def test_fusion_without_its_fitted_sources_is_refused_at_load(
            self, cohort, run_result, tmp_path, caplog, kind, edit, message):
        out, _ = run_result
        doc = json.loads((out / "models" / f"{kind}.json").read_text())
        forests = json.loads((out / "models" / "fusion_rsf.json").read_text())["model"]
        comps = doc["model"]["components"]
        edit(comps, forests["components"])
        doc["model"]["components"] = {tag: c for tag, c in comps.items() if c is not None}
        artifact = tmp_path / "edited.json"
        artifact.write_text(json.dumps(doc))
        code = main(["score", "--model", str(artifact),
                     "--clinical", str(cohort / "clinical.csv"),
                     "--features", str(cohort / "features.csv"),
                     "--out", str(tmp_path / "s.csv")])
        assert code == 1
        assert f"[load] {artifact} has a malformed {kind} body: {message}" in caplog.text
        assert not (tmp_path / "s.csv").exists()

    @pytest.mark.parametrize("kind, tag", [("deep_clinical", "img"), ("deep_imaging", "pesi")])
    def test_network_under_another_tag_is_refused_at_load(self, cohort, run_result, tmp_path,
                                                          caplog, kind, tag):
        out, _ = run_result
        doc = json.loads((out / "models" / f"{kind}.json").read_text())
        held = doc["model"]["modality_tag"]
        doc["model"]["modality_tag"] = tag
        artifact = tmp_path / "edited.json"
        artifact.write_text(json.dumps(doc))
        code = main(["score", "--model", str(artifact),
                     "--clinical", str(cohort / "clinical.csv"),
                     "--features", str(cohort / "features.csv"),
                     "--out", str(tmp_path / "s.csv")])
        assert code == 1
        assert (f"[load] {artifact} has a malformed {kind} body: the network held under "
                f"{held!r} has modality_tag {tag!r}") in caplog.text
        assert not (tmp_path / "s.csv").exists()

    @pytest.mark.parametrize("kind", ["deep_clinical", "fusion_pesi_fused"])
    def test_pesi_is_computed_once(self, cohort, run_result, tmp_path, monkeypatch, kind):
        # the fused model's PESI input and the pesi_score column are one computation
        from survfuse import pesi

        calls = []
        pesi_scores = pesi.pesi_scores

        def spy(ds):
            calls.append(len(ds))
            return pesi_scores(ds)

        monkeypatch.setattr(pesi, "pesi_scores", spy)
        out, _ = run_result
        code = main(["score", "--model", str(out / "models" / f"{kind}.json"),
                     "--clinical", str(cohort / "clinical.csv"),
                     "--features", str(cohort / "features.csv"),
                     "--out", str(tmp_path / "s.csv")])
        assert code == 0
        assert calls == [120]

    def test_missing_artifact_is_runtime_error(self, cohort, tmp_path):
        code = main(["score", "--model", str(tmp_path / "ghost.json"),
                     "--clinical", str(cohort / "clinical.csv"),
                     "--out", str(tmp_path / "s.csv")])
        assert code == 2


class TestReport:
    def test_renders_run_output(self, run_result, capsys):
        out, _ = run_result
        code = main(["report", str(out / "report.json")])
        assert code == 0
        text = capsys.readouterr().out
        assert "concordance, full follow-up" in text
        assert "net reclassification" in text
        assert "config fingerprint:" in text
        assert re.search(r"RV patients in high-risk group: \d+/\d+ \(\d+\.\d%\)", text)

    def test_rv_line_names_the_model_that_was_not_run(self, cohort, tmp_path, capsys):
        # every RV cell of the cohort is filled; the analysis needs the
        # multimodal model's strata
        out = tmp_path / "run"
        assert main(["run", "--config", write_config(tmp_path),
                     "--clinical", str(cohort / "clinical.csv"),
                     "--models", "pesi,deep_clinical", "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["report", str(out / "report.json")]) == 0
        assert ("RV dysfunction analysis: not available (deep_multimodal was not run)"
                in capsys.readouterr().out.splitlines())

    def test_rv_line_names_missing_flags(self, run_result, tmp_path, capsys):
        # a run of the multimodal model leaves the analysis out only when an
        # RV flag of the test split is missing
        path = self._malformed(run_result, tmp_path, lambda doc: doc.update(rv_analysis=None))
        assert main(["report", str(path)]) == 0
        assert ("RV dysfunction analysis: not available (missing RV flags)"
                in capsys.readouterr().out.splitlines())

    def test_missing_key_is_schema_error(self, run_result, tmp_path):
        out, _ = run_result
        doc = json.loads((out / "report.json").read_text())
        del doc["nri"]
        crippled = tmp_path / "bad_report.json"
        crippled.write_text(json.dumps(doc))
        assert main(["report", str(crippled)]) == 1

    def test_missing_file_is_runtime_error(self, tmp_path):
        assert main(["report", str(tmp_path / "ghost.json")]) == 2

    def _malformed(self, run_result, tmp_path, edit):
        out, _ = run_result
        doc = json.loads((out / "report.json").read_text())
        edit(doc)
        path = tmp_path / "malformed_report.json"
        path.write_text(json.dumps(doc))
        return path

    def test_malformed_overall_is_schema_error(self, run_result, tmp_path, caplog):
        path = self._malformed(run_result, tmp_path, lambda doc: doc.update(overall=[]))
        assert main(["report", str(path)]) == 1
        assert f"{path} has a malformed body" in caplog.text

    def test_km_entry_without_cut_value_is_schema_error(self, run_result, tmp_path, caplog):
        def edit(doc):
            del next(iter(doc["km"].values()))["cut_value"]

        path = self._malformed(run_result, tmp_path, edit)
        assert main(["report", str(path)]) == 1
        assert f"{path} has a malformed body" in caplog.text


class TestParser:
    def test_usage_errors_exit_one(self):
        assert main(["frobnicate"]) == 1
        assert main([]) == 1
        assert main(["score", "--clinical", "x.csv"]) == 1  # --model/--out required

    def test_log_env_variable(self, cohort, tmp_path, monkeypatch):
        monkeypatch.setenv("SURVFUSE_LOG", "DEBUG")
        out = tmp_path / "cohort"
        assert main(["generate", "--out", str(out), "--n", "30"]) == 0

    def test_svg_render_escapes_title(self):
        points = [KmPoint(time=1.0, survival=0.5, at_risk=2, events=1)]
        svg = render_km_svg(points, [], title='<&"model">')
        assert "&lt;&amp;" in svg
        assert svg.startswith("<svg")
