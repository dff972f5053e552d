"""Tests of the benchmark itself (not collected by the package's test run).

    python3 -m pytest benchmarks/selftest.py

Run from the repository root; the smoke tests run the CLI from ``./src``.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402
import sweep  # noqa: E402
import tracer  # noqa: E402
from workloads import WORKLOADS, Plan, check_report, check_scores  # noqa: E402

TINY_FIT = {"bootstrap_resamples": 100, "rsf": {"n_trees": 3},
            "deep_clinical": {"epochs": 5}, "deep_imaging": {"epochs": 5}}


def _span(i, name, start, end, parent, failed=False):
    return {"id": i, "name": name, "start_ns": start, "end_ns": end,
            "parent": parent, "run_id": "toy", "failed": failed}


def toy_tree():
    # root [0, 100]
    #   a [10, 40]          -> self 30 - 10 = 20
    #     a [15, 25]        -> nested call of the same function
    #   b [50, 90] failed   -> self 40 - 5 = 35
    #     c [60, 65]
    return [
        _span(0, "m.root", 0, 100, None),
        _span(1, "m.a", 10, 40, 0),
        _span(2, "m.a", 15, 25, 1),
        _span(3, "m.b", 50, 90, 0, failed=True),
        _span(4, "m.c", 60, 65, 3),
    ]


def test_self_time_is_duration_minus_children():
    assert tracer.self_times_ns(toy_tree()) == [30, 20, 10, 35, 5]


def test_layer_table_counts_nested_calls_of_one_function_once_in_total():
    table = tracer.layer_table(toy_tree())
    assert table["m.a"]["calls"] == 2
    assert table["m.a"]["total_s"] == 30e-9
    assert table["m.a"]["self_s"] == 30e-9
    assert table["m.b"]["failed"] == 1
    assert table["m.root"]["self_s"] == 30e-9
    merged = tracer.merge_tables([table, table])
    assert merged["m.a"]["calls"] == 4 and merged["m.c"]["total_s"] == 10e-9


def test_self_time_counts_overlapping_children_once():
    spans = [_span(0, "p", 0, 100, None), _span(1, "x", 10, 50, 0), _span(2, "y", 30, 70, 0)]
    assert tracer.self_times_ns(spans)[0] == 40


def test_tracer_records_parents_and_failures():
    t = tracer.Tracer("unit")

    def inner(x):
        if x < 0:
            raise ValueError(x)
        return x

    inner_t = t.wrap("m.inner", inner)
    outer_t = t.wrap("m.outer", lambda x: inner_t(x) + inner_t(x))
    assert outer_t(2) == 4
    with pytest.raises(ValueError):
        outer_t(-1)
    names = [s[tracer.NAME] for s in t.spans]
    assert names == ["m.outer", "m.inner", "m.inner", "m.outer", "m.inner"]
    assert [s[tracer.PARENT] for s in t.spans] == [None, 0, 0, None, 3]
    assert [s[tracer.FAILED] for s in t.spans] == [False, False, False, True, True]


def _cli(args, spans=None, cwd=None):
    cmd = [sys.executable, run.LAUNCH, "--src", os.path.join(ROOT, "src")]
    if spans:
        cmd += ["--spans", spans]
    subprocess.run(cmd + ["--", *args], check=True, cwd=cwd, capture_output=True)


def test_wrapping_every_import_site_leaves_report_byte_identical(tmp_path):
    cohort = tmp_path / "cohort"
    _cli(["generate", "--n", "150", "--seed", "3", "--out", str(cohort)])
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(TINY_FIT))
    reports = []
    for traced in (False, True):
        out = tmp_path / f"out{int(traced)}"
        _cli(["run", "--clinical", str(cohort / "clinical.csv"),
              "--features", str(cohort / "features.csv"), "--config", str(cfg),
              "--out", str(out)], spans=str(tmp_path / "spans.jsonl") if traced else None)
        reports.append((out / "report.json").read_bytes())
    assert reports[0] == reports[1]

    spans = tracer.read_spans(tmp_path / "spans.jsonl")
    callers = tracer.calls_by_parent(spans, "metrics.c_index")
    # analysis imported c_index by name; its calls are seen, told apart by caller
    assert callers["analysis.compare_to_pesi"] >= 5 * 2 * 100
    assert callers["metrics.bootstrap_ci"] >= 100
    assert spans[0]["name"] == "cli.main" and spans[0]["parent"] is None
    assert {s["run_id"] for s in spans} == {"spans.jsonl"}


def test_output_checks_flag_bad_outputs(tmp_path):
    report = tmp_path / "report.json"
    report.write_text(json.dumps({"overall": {"test": {"pesi": {"c_index": 1.5}}},
                                  "short_term": {}}))
    problems = check_report(report)
    assert any("c_index = 1.5" in p for p in problems)
    assert any("'config_fingerprint'" in p for p in problems)
    scores = tmp_path / "s.csv"
    scores.write_text("patient_id,risk_score,pesi_score,pesi_class\nP1,0.1,80,II\n")
    assert check_scores(scores, 1) == []
    assert check_scores(scores, 2) != []
    scores.write_text("patient_id,risk_score,pesi_score,pesi_class\nP1,0.1,80,II\n\nP2\n")
    assert any("four fields" in p for p in check_scores(scores, 3))


def test_malformed_outputs_fail_the_operation_instead_of_the_run(tmp_path):
    report = tmp_path / "report.json"
    report.write_text(json.dumps({"overall": []}))

    class Malformed:
        def check(self, work):
            return check_report(report)

        def outputs(self, work):
            return []

    plan = Plan(setup=[], operation=[["--help"]], out_dir=str(tmp_path / "out"), configs={})
    runner = run.Runner(ROOT, str(tmp_path), time.monotonic() + 60)
    op = runner.operation(Malformed(), plan, None)
    assert op.calls[0].returncode == 0
    assert len(op.problems) == 1 and op.problems[0].startswith("outputs unreadable")


def test_sweep_compares_runs_of_the_same_seed():
    def runs(walls, digest):
        return [{"seed": s, "metrics": {"wall_s": {"value": w}}, "digests": {"r": digest}}
                for s, w in zip((1, 2, 3), walls)]

    out = sweep.compare({"runs": runs([2.0, 4.0, 8.0], "x")}, runs([3.0, 4.0, 8.0], "x"))
    assert out["digests_identical"]
    assert out["metrics"]["wall_s"]["median_ratio"] == 1.0
    assert out["metrics"]["wall_s"]["seed_ratios"]["values"] == [1.5, 1.0, 1.0]
    assert not sweep.compare({"runs": runs([1, 1, 1], "x")},
                             runs([1, 1, 1], "y"))["digests_identical"]


SMOKE = {
    "study_default": dict(n=120, config=TINY_FIT),
    "study_fit": dict(n=160, config=TINY_FIT),
    "score_batch": dict(fit_n=120, fit_config=TINY_FIT, score_n=200, setup_reps=1),
}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", (False, True))
def test_smoke_workload_passes_its_output_checks(tmp_path, name, trace):
    workload = dataclasses.replace(WORKLOADS[name], **SMOKE[name])
    result = run.measure(ROOT, workload, seed=5, seconds=0, trace=trace,
                         work_root=str(tmp_path))
    assert result["correct"], [op["problems"] for op in result["operations"]]
    assert result["attempted"] == run.MIN_OPERATIONS + int(trace)
    assert result["failed"] == 0 and result["digests"]
    expected = run.PER_LAYER if trace else run.END_TO_END
    assert [(k, m["unit"]) for k, m in result["metrics"].items()] == list(expected)
    if trace:
        assert result["metrics"]["synthetic.write_study_csvs.total_s"]["value"] > 0
        assert all(os.path.isfile(os.path.join(ROOT, p)) for p in result["spans"])
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values())
        ops = [op for op in result["operations"] if not op["traced"]]
        assert all(op["reference_s"] > 0 for op in ops)
        assert result["metrics"]["wall_per_ref"]["value"] == statistics.median(
            op["wall_s"] / op["reference_s"] for op in ops)


def test_benchmark_json_matches_the_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks", ignore=shutil.ignore_patterns(".work"))
    proc = subprocess.run([sys.executable, "benchmarks/run.py", "--workload", "score_batch",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
