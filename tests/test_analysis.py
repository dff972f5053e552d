import dataclasses
import json
import os
import signal
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from survfuse.analysis import (
    MODEL_KINDS,
    SHORT_TERM_KINDS,
    ComparisonResult,
    compare_to_pesi,
    run_study,
    run_study_full,
    rv_factor_analysis,
    stratify,
)
from survfuse.dataset import Labels, attach_imaging, ingest_clinical, split_dataset
from survfuse.errors import (
    DegenerateResamplingError,
    EmptyInputError,
    InvalidConfigError,
    MismatchedLengthsError,
    MissingModalityError,
    NoComparablePairsError,
    TooFewPairsError,
    TooFewResamplesError,
)
from survfuse import analysis, deep_survival, metrics, rsf
from survfuse import forks as fork_module
from survfuse.forks import blas_pinned
from survfuse.config import effective_config
from survfuse.metrics import c_index, wilcoxon_signed_rank
from survfuse.synthetic import CohortPlan, write_study_csvs

from conftest import assert_no_child
from defaults import cohort_plan


_MAX_REDRAWS = 100


def loop_compare_to_pesi(model_scores, pesi_scores, labels, n_resamples, seed):
    """The per-resample loop that ``compare_to_pesi`` replaced, kept as its oracle."""
    if n_resamples < 100:
        raise TooFewResamplesError(f"need at least 100 resamples, got {n_resamples}")
    model_scores = np.asarray(model_scores, dtype=float)
    pesi_scores = np.asarray(pesi_scores, dtype=float)
    n = len(labels)
    if model_scores.size != n or pesi_scores.size != n:
        raise MismatchedLengthsError("scores and labels must align")
    rng = np.random.default_rng(seed)
    diffs = np.empty(n_resamples)
    for r in range(n_resamples):
        for _ in range(_MAX_REDRAWS):
            idx = rng.integers(0, n, size=n)
            sub = labels.take(idx)
            try:
                diffs[r] = c_index(model_scores[idx], sub) - c_index(pesi_scores[idx], sub)
                break
            except NoComparablePairsError:
                continue
        else:
            raise DegenerateResamplingError(f"resample {r}: no valid draw in {_MAX_REDRAWS} attempts")
    try:
        test = wilcoxon_signed_rank(diffs)
    except TooFewPairsError:
        test = metrics.TestResult(statistic=0.0, p_value=1.0,
                                  method="wilcoxon-signed-rank-degenerate (no nonzero differences)")
    return ComparisonResult(test=test, mean_diff=float(diffs.mean()), n_resamples=n_resamples)


def outcome(fn, *args):
    """A result, or the message of the resampling failure it raised."""
    try:
        return fn(*args)
    except DegenerateResamplingError as exc:
        return ("degenerate", str(exc))


@st.composite
def paired_cohorts(draw, min_n=3, max_n=30):
    """(model scores, index scores, labels); few levels give heavy ties."""
    n = draw(st.integers(min_n, max_n))
    score_levels = draw(st.sampled_from([2, 3, 10**6]))
    time_levels = draw(st.sampled_from([1, 2, 4, 10**6]))
    event_pct = draw(st.sampled_from([0, 5, 30, 90]))

    def column(values):
        return draw(st.lists(values, min_size=n, max_size=n))

    model = np.array(column(st.integers(0, score_levels - 1)), dtype=float)
    index = np.array(column(st.integers(0, score_levels - 1)), dtype=float)
    times = column(st.integers(1, time_levels))
    events = [u < event_pct for u in column(st.integers(0, 99))]
    return model, index, Labels(times, events)


class TestStratify:
    def test_median_cut(self):
        high, cut = stratify([0.1, 0.2, 0.8, 0.9], "median", None)
        assert cut == 0.5
        assert high.tolist() == [False, False, True, True]

    def test_tie_at_cut_goes_high(self):
        high, cut = stratify([1.0, 2.0, 2.0, 3.0], "median", None)
        assert cut == 2.0
        assert high.tolist() == [False, True, True, True]

    def test_all_equal_scores_all_high(self):
        high, _ = stratify([0.4, 0.4, 0.4], "median", None)
        assert high.all()

    def test_fixed_threshold(self):
        high, cut = stratify([0.1, 0.6, 0.9], method="fixed", threshold=0.6)
        assert cut == 0.6
        assert high.tolist() == [False, True, True]

    def test_fixed_needs_threshold(self):
        with pytest.raises(ValueError, match="threshold"):
            stratify([0.1], method="fixed", threshold=None)

    def test_unknown_method(self):
        with pytest.raises(ValueError, match="method"):
            stratify([0.1], method="quartile", threshold=None)

    def test_empty(self):
        with pytest.raises(EmptyInputError):
            stratify([], "median", None)

    @given(st.lists(st.sampled_from([0.0, 0.25, 0.5, 1.0]) | st.floats(-1e6, 1e6),
                    min_size=1, max_size=40),
           st.sampled_from(["median", "fixed"]), st.floats(-2.0, 2.0))
    def test_mask_is_scores_at_or_above_the_cut(self, scores, method, threshold):
        high, cut = stratify(scores, method, threshold)
        assert type(cut) is float
        assert cut == (float(np.median(scores)) if method == "median" else threshold)
        assert high.dtype == bool
        assert high.tolist() == [s >= cut for s in scores]


class TestRvFactorAnalysis:
    def build(self, n_high, n_low, rv_high, rv_low, dead_high, dead_low):
        """Masks over n_high high-risk then n_low low-risk patients; the first
        patients of each stratum carry RV dysfunction, and die."""
        def flags(k_high, k_low):
            return np.r_[np.arange(n_high) < k_high, np.arange(n_low) < k_low]

        return flags(n_high, 0), flags(rv_high, rv_low), flags(dead_high, dead_low)

    def test_counts_and_percentages(self):
        # 11 of 16 RV patients stratified high, 11 of 13 deaths captured
        report = rv_factor_analysis(*self.build(20, 20, rv_high=11, rv_low=5,
                                                dead_high=11, dead_low=2))
        assert (report.n_rv, report.rv_high_count) == (16, 11)
        assert (report.n_deaths, report.deaths_high_count) == (13, 11)
        assert f"{report.rv_high_pct:.1f}" == "68.8"
        assert f"{report.death_capture_pct:.1f}" == "84.6"

    def test_no_rv_patients_gives_none(self):
        report = rv_factor_analysis(*self.build(5, 5, 0, 0, 2, 1))
        assert report.n_rv == 0
        assert report.rv_high_pct is None
        assert report.death_capture_pct is not None

    def test_no_deaths_gives_none(self):
        report = rv_factor_analysis(*self.build(5, 5, 3, 1, 0, 0))
        assert report.n_deaths == 0
        assert report.death_capture_pct is None

    def test_length_mismatch(self):
        high, rv, dead = self.build(3, 3, 1, 1, 1, 1)
        with pytest.raises(MismatchedLengthsError, match="^6 risk flags for 5 RV and 6 death"):
            rv_factor_analysis(high, rv[1:], dead)

    @given(st.integers(0, 40).flatmap(
        lambda n: st.tuples(*[st.lists(st.booleans(), min_size=n, max_size=n)] * 3)))
    def test_counts_equal_brute_force(self, masks):
        high, rv, dead = masks
        report = rv_factor_analysis(np.array(high, dtype=bool), np.array(rv, dtype=bool),
                                    np.array(dead, dtype=bool))
        n_rv = sum(rv)
        rv_high = sum(h and r for h, r in zip(high, rv))
        n_deaths = sum(dead)
        deaths_high = sum(h and d for h, d in zip(high, dead))
        assert dataclasses.astuple(report) == (
            n_rv, rv_high, 100.0 * rv_high / n_rv if n_rv else None,
            n_deaths, deaths_high, 100.0 * deaths_high / n_deaths if n_deaths else None)
        # counts that json writes as numbers
        assert all(type(getattr(report, name)) is int
                   for name in ("n_rv", "rv_high_count", "n_deaths", "deaths_high_count"))


class TestCompareToPesi:
    def cohort(self, rng, n=150):
        risk = rng.standard_normal(n)
        times = rng.exponential(np.exp(-risk))
        events = rng.random(n) < 0.9
        labels = Labels(times, events)
        good = risk + 0.3 * rng.standard_normal(n)
        weak = risk + 2.5 * rng.standard_normal(n)
        return good, weak, labels

    def test_identical_scores_report_no_difference(self):
        rng = np.random.default_rng(120)
        good, _, labels = self.cohort(rng)
        result = compare_to_pesi(good, good, labels, n_resamples=100, seed=1)
        assert result.test.p_value == 1.0
        assert "degenerate" in result.test.method
        assert result.mean_diff == 0.0
        assert result.n_resamples == 100

    def test_stronger_model_wins(self):
        rng = np.random.default_rng(121)
        good, weak, labels = self.cohort(rng)
        result = compare_to_pesi(good, weak, labels, n_resamples=200, seed=2)
        assert result.mean_diff > 0.05
        assert result.test.p_value < 1e-6

    def test_deterministic(self):
        rng = np.random.default_rng(122)
        good, weak, labels = self.cohort(rng, n=60)
        a = compare_to_pesi(good, weak, labels, n_resamples=100, seed=5)
        b = compare_to_pesi(good, weak, labels, n_resamples=100, seed=5)
        assert a == b
        c = compare_to_pesi(good, weak, labels, n_resamples=100, seed=6)
        assert a.mean_diff != c.mean_diff

    def test_too_few_resamples(self):
        rng = np.random.default_rng(123)
        good, weak, labels = self.cohort(rng, n=30)
        with pytest.raises(TooFewResamplesError):
            compare_to_pesi(good, weak, labels, n_resamples=99)

    def test_length_mismatch(self):
        with pytest.raises(MismatchedLengthsError):
            compare_to_pesi([0.1], [0.2, 0.3], Labels([1, 2], [1, 1]), 100)

    @settings(max_examples=60)
    @given(paired_cohorts(), st.integers(0, 2**32 - 1))
    def test_matches_per_resample_loop_bit_for_bit(self, cohort, seed):
        model, index, labels = cohort
        want = outcome(loop_compare_to_pesi, model, index, labels, 100, seed)
        assert outcome(compare_to_pesi, model, index, labels, 100, seed) == want

    def test_all_censored_fails_like_the_loop(self):
        labels = Labels([1, 2, 3, 4], [0, 0, 0, 0])
        model, index = np.arange(4.0), np.ones(4)
        want = outcome(loop_compare_to_pesi, model, index, labels, 100, 3)
        assert want[0] == "degenerate"
        assert outcome(compare_to_pesi, model, index, labels, 100, 3) == want


class TestStudyConfig:
    # a library call is checked like a config file, before anything is fitted
    @pytest.fixture
    def no_fitting(self, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("fitting started")

        monkeypatch.setattr(rsf, "start_forests", never)
        monkeypatch.setattr(deep_survival, "train", never)

    def test_unknown_model(self, study_dataset, no_fitting):
        with pytest.raises(InvalidConfigError, match="^models: unknown model kind 'gradient_boost'$"):
            run_study(study_dataset, {"models": ["pesi", "gradient_boost"]})

    def test_too_few_resamples_fail_before_fitting(self, study_dataset, no_fitting):
        with pytest.raises(InvalidConfigError, match="^bootstrap_resamples: "):
            run_study(study_dataset, {"bootstrap_resamples": 50})

    def test_defaults(self):
        cfg = effective_config({})
        assert cfg["models"] == list(MODEL_KINDS)
        assert cfg["deep_imaging"]["hidden_dims"] == [64]
        # a config section's fields are option fields without a default of their
        # own, so the config is the one place that holds the study's defaults
        for options, section in ((deep_survival.TrainOptions, cfg["deep_clinical"]),
                                 (deep_survival.TrainOptions, cfg["deep_imaging"]),
                                 (rsf.RsfOptions, {**cfg["rsf"], "seed": cfg["seed"]}),
                                 (CohortPlan, {**cfg["generate"], "seed": cfg["seed"]})):
            own = {f.name: f.default for f in dataclasses.fields(options)}
            for key in section:
                if key != "hidden_dims":
                    assert own[key] is dataclasses.MISSING, key


SMALL_HYPERS = {
    "bootstrap_resamples": 100,
    "deep_clinical": {"hidden_dims": [4], "epochs": 30, "learning_rate": 0.05},
    "deep_imaging": {"hidden_dims": [4], "epochs": 30, "learning_rate": 0.05},
    "rsf": {"n_trees": 10, "min_leaf_size": 10},
}


@pytest.fixture(scope="module")
def study_dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("study")
    clin, feat = root / "clinical.csv", root / "features.csv"
    write_study_csvs(
        cohort_plan(n=120, seed=17, img_dim=8, baseline_rate=0.02, missing_rate=0.05),
        clin, feat,
    )
    return attach_imaging(ingest_clinical(clin), feat)


@pytest.fixture(scope="module")
def full_study(study_dataset):
    cfg = {"seed": 3, **SMALL_HYPERS}
    return run_study_full(study_dataset, cfg), cfg


class TestRunStudy:
    def test_overall_table_structure(self, full_study):
        (report, _), _ = full_study
        assert set(report.overall.keys()) == {"train", "val", "test"}
        for split in report.overall.values():
            assert set(split.keys()) == set(MODEL_KINDS)
            for cell in split.values():
                assert cell["ci_low"] <= cell["c_index"] <= cell["ci_high"]
                assert 0.0 <= cell["ci_low"] and cell["ci_high"] <= 1.0

    def test_short_term_drops_forest(self, full_study):
        (report, _), _ = full_study
        for split in report.short_term.values():
            assert set(split.keys()) == set(SHORT_TERM_KINDS)
            assert "rsf_fused" not in split
            for cell in split.values():
                if cell["c_index"] is not None:
                    assert cell["ci_low"] <= cell["c_index"] <= cell["ci_high"]

    def test_nri_pairs(self, full_study):
        (report, _), _ = full_study
        for split in report.nri.values():
            assert set(split.keys()) == {"plus_clinical", "plus_imaging", "plus_pesi"}
            for cell in split.values():
                assert cell["n_events"] + cell["n_nonevents"] > 0
                assert -2.0 <= cell["nri"] <= 2.0

    def test_km_section(self, full_study):
        (report, _), _ = full_study
        assert set(report.km.keys()) == set(MODEL_KINDS)
        for entry in report.km.values():
            assert entry["n_high"] + entry["n_low"] == 24  # test split of 120
            for side in ("high", "low"):
                for point in entry[side]["points"]:
                    assert 0.0 <= point["survival"] <= 1.0

    def test_comparisons_cover_non_index_models(self, full_study):
        (report, _), _ = full_study
        assert set(report.comparisons.keys()) == set(MODEL_KINDS) - {"pesi"}
        for cell in report.comparisons.values():
            assert 0.0 <= cell["p_value"] <= 1.0
            assert cell["n_resamples"] == 100

    def test_rv_analysis_present_and_aligned(self, full_study):
        (report, _), _ = full_study
        rv = report.rv_analysis
        assert rv is not None
        assert len(rv["patients"]) == 24
        assert rv["cut_sigmoid"] == report.km["deep_multimodal"]["cut_value"]
        high_count = sum(1 for p in rv["patients"] if p["high_risk"])
        assert high_count == report.km["deep_multimodal"]["n_high"]
        for p in rv["patients"]:
            assert set(p.keys()) == {"patient_id", "risk_linear", "risk_sigmoid",
                                     "high_risk", "rv_dysfunction", "event"}

    def test_rv_patients_are_the_test_split_in_dataset_order(self, study_dataset, full_study):
        (report, _), cfg = full_study
        rv = report.rv_analysis
        position = {pid: i for i, pid in enumerate(study_dataset.patient_ids)}
        rows = [position[p["patient_id"]] for p in rv["patients"]]
        assert rows == sorted(rows)
        split = effective_config(cfg)["split"]
        assert rows == split_dataset(study_dataset, cfg["seed"], *split[:2])[2].tolist()
        for p in rv["patients"]:
            assert p["high_risk"] == (p["risk_sigmoid"] >= rv["cut_sigmoid"])
        flags = [(p["high_risk"], p["rv_dysfunction"], p["event"]) for p in rv["patients"]]
        assert (rv["n_rv"], rv["rv_high_count"], rv["n_deaths"], rv["deaths_high_count"]) == (
            sum(r for _, r, _ in flags), sum(h and r for h, r, _ in flags),
            sum(e for _, _, e in flags), sum(h and e for h, _, e in flags))

    def test_artifacts_expose_fitted_models(self, full_study):
        (_, arts), _ = full_study
        assert set(arts.fitted) == {"clin", "img", "rsf_clin", "rsf_img",
                                    "deep_multimodal", "deep_pesi_fused", "rsf_fused"}
        assert arts.fitted["deep_pesi_fused"].sources == ("clin", "img", "pesi")

    def test_deterministic_repeat(self, study_dataset, full_study):
        (report, _), cfg = full_study
        again = run_study(study_dataset, cfg)
        assert again.overall == report.overall
        assert again.comparisons == report.comparisons
        assert again.nri == report.nri

    def test_clinical_only_subset_runs_without_imaging(self, tmp_path):
        clin = tmp_path / "clinical.csv"
        feat = tmp_path / "features.csv"
        write_study_csvs(cohort_plan(n=100, seed=23, baseline_rate=0.02), clin, feat)
        ds = ingest_clinical(clin)  # imaging never attached
        cfg = {"seed": 1, "models": ["pesi", "deep_clinical"], **SMALL_HYPERS}
        report = run_study(ds, cfg)
        assert set(report.overall["test"].keys()) == {"pesi", "deep_clinical"}
        assert set(report.comparisons.keys()) == {"deep_clinical"}
        assert report.nri == {"train": {}, "val": {}, "test": {}}
        assert report.rv_analysis is None  # needs the multimodal model

    def test_imaging_model_without_features_fails(self, tmp_path):
        clin = tmp_path / "clinical.csv"
        feat = tmp_path / "features.csv"
        write_study_csvs(cohort_plan(n=100, seed=29), clin, feat)
        ds = ingest_clinical(clin)
        cfg = {"seed": 1, "models": ["deep_imaging"], **SMALL_HYPERS}
        with pytest.raises(MissingModalityError,
                           match=r"^100 patient\(s\) lack imaging features \(e.g. 'P00000'\) "
                                 "but an imaging model was requested$"):
            run_study(ds, cfg)

    def test_fixed_stratification_flows_through(self, study_dataset):
        cfg = {"seed": 3, "models": ["pesi"], **SMALL_HYPERS,
               "stratification": {"method": "fixed", "threshold": 0.5}}
        report = run_study(study_dataset, cfg)
        assert report.km["pesi"]["method"] == "fixed"
        assert report.km["pesi"]["cut_value"] == 0.5


TEST_PID = os.getpid()


def report_bytes(report):
    """A report as ``survfuse run`` writes it, without the fingerprint."""
    return json.dumps(vars(report), indent=2, sort_keys=True)


def evaluated_by(monkeypatch, log, fault=None):
    """Have every evaluation task write the id of the process that ran it to
    ``log``; a worker then fails in its first task as ``fault`` says, and
    this process waits 20 ms before each task, so that the worker takes some."""
    evaluate = analysis._evaluate_task

    def logged(task, **context):
        if os.getpid() == TEST_PID:
            time.sleep(0.02)
        elif fault == "killed":
            os.kill(os.getpid(), signal.SIGKILL)
        elif fault == "raises":
            raise FloatingPointError("raised in a worker")
        with open(log, "a") as fh:
            fh.write(f"{os.getpid()}\n")
        return evaluate(task, **context)

    monkeypatch.setattr(analysis, "_evaluate_task", logged)


def one_evaluation_worker(monkeypatch):
    """The CLI's evaluation pool: BLAS pinned, and two usable CPUs."""
    monkeypatch.setattr(analysis, "blas_pinned", lambda: True)
    monkeypatch.setattr(fork_module, "usable_cpus", lambda: 2)


class TestEvaluationPool:
    # the CLI's evaluation, on a worker as well as here, against the
    # library's, here alone
    @pytest.mark.parametrize("models", [None, ["pesi", "deep_clinical"]])
    def test_pooled_evaluation_equals_evaluation_here(self, monkeypatch, tmp_path,
                                                      study_dataset, full_study, models):
        (report, _), cfg = full_study
        if models is not None:
            cfg = {**cfg, "models": models}
            report = run_study(study_dataset, cfg)
        one_evaluation_worker(monkeypatch)
        log = tmp_path / "evaluated.log"
        evaluated_by(monkeypatch, log)
        pooled = run_study(study_dataset, cfg)
        assert report_bytes(pooled) == report_bytes(report)
        by = log.read_text().split()
        assert len(by) == len(analysis._evaluation_plan(models or MODEL_KINDS, 3, True))
        assert set(by) - {str(TEST_PID)}, "the worker evaluated nothing"
        assert_no_child()

    def test_library_forks_no_evaluation_worker(self, monkeypatch, study_dataset, forks):
        # numpy is loaded here, so BLAS may run threads: the pool has no
        # worker on any number of CPUs, and this small study grows its
        # forests here too
        assert not blas_pinned()
        monkeypatch.setattr(fork_module, "usable_cpus", lambda: 4)
        run_study(study_dataset, {"seed": 3, **SMALL_HYPERS})
        assert forks == []

    @pytest.mark.parametrize("fault", ["raises", "killed"])
    def test_failed_worker_costs_only_time(self, monkeypatch, tmp_path, study_dataset,
                                           full_study, fault):
        (report, _), cfg = full_study
        one_evaluation_worker(monkeypatch)
        log = tmp_path / "evaluated.log"
        evaluated_by(monkeypatch, log, fault)
        assert report_bytes(run_study(study_dataset, cfg)) == report_bytes(report)
        assert set(log.read_text().split()) == {str(TEST_PID)}
        assert_no_child()

    def test_first_failure_in_plan_order_is_raised(self, monkeypatch, study_dataset):
        # every comparison fails, on the worker and here alike; the one
        # raised is the first in plan order, whichever process ran it first
        evaluate = analysis._evaluate_task

        def failing(task, **context):
            if task.section == "comparisons":
                raise FloatingPointError(f"comparison of {task.kind}")
            return evaluate(task, **context)

        one_evaluation_worker(monkeypatch)
        monkeypatch.setattr(analysis, "_evaluate_task", failing)
        with pytest.raises(FloatingPointError, match="^comparison of rsf_fused$"):
            run_study(study_dataset, {"seed": 3, **SMALL_HYPERS})
        assert_no_child()

    def test_interrupt_mid_evaluation_stops_the_worker(self, monkeypatch, study_dataset, forks):
        # the worker would take 10 s a task; it is killed, not waited for
        evaluate = analysis._evaluate_task
        stopped = []

        def stuck(task, **context):
            if os.getpid() != TEST_PID:
                time.sleep(10.0)
            elif not stopped:
                assert len(forks) == 1 and os.waitpid(forks[0], os.WNOHANG) == (0, 0)
                stopped.append(time.monotonic())
                raise KeyboardInterrupt
            return evaluate(task, **context)

        one_evaluation_worker(monkeypatch)
        monkeypatch.setattr(analysis, "_evaluate_task", stuck)
        with pytest.raises(KeyboardInterrupt):
            run_study(study_dataset, {"seed": 3, **SMALL_HYPERS})
        assert time.monotonic() - stopped[0] < 5.0
        assert_no_child()

    def test_plan_keys_each_cell_by_its_position(self):
        # the seeds of the report's cells are those of the hand-written loops
        plan = analysis._evaluation_plan(MODEL_KINDS, 42, True)
        derived = analysis._derived_seed
        stage = analysis._STAGE
        cells = {(t.section, t.split, t.kind): t.seed for t in plan}
        assert cells[("overall", "val", "deep_imaging")] == derived(42, stage["ci"], 1, 2)
        assert cells[("short_term", "val", "deep_imaging")] == derived(42, stage["ci_short"], 1, 1)
        assert cells[("comparisons", "test", "deep_pesi_fused")] == derived(42, stage["compare"], 5)
        assert cells[("km", "test", "pesi")] is None
        assert [t.section for t in plan][-1] == "rv_analysis"
        assert len(plan) == 18 + 15 + 9 + 6 + 5 + 1
        assert not any(t.section == "rv_analysis"
                       for t in analysis._evaluation_plan(MODEL_KINDS, 42, False))
